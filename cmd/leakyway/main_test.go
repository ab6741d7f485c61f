package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the test binary itself as the leakyway
// command: with LEAKYWAY_TEST_MAIN=1 in the environment the binary
// executes mainRun on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("LEAKYWAY_TEST_MAIN") == "1" {
		os.Exit(mainRun())
	}
	os.Exit(m.Run())
}

// runCommand runs the leakyway command line in a child process and returns
// its stdout and stderr.
func runCommand(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKYWAY_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("leakyway %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestBatchFlagDeprecatedNoOp pins the retired -batch flag: it still
// parses, changes nothing in the output, and warns once on stderr.
func TestBatchFlagDeprecatedNoOp(t *testing.T) {
	const warning = "-batch is deprecated and ignored"
	plainOut, plainErr := runCommand(t, "-quick", "run", "fig8")
	batchOut, batchErr := runCommand(t, "-quick", "-batch", "4", "run", "fig8")
	if plainOut == "" || batchOut != plainOut {
		t.Fatalf("-batch 4 changed the fig8 output (%d vs %d bytes)", len(batchOut), len(plainOut))
	}
	if n := strings.Count(batchErr, warning); n != 1 {
		t.Fatalf("-batch 4 printed the deprecation warning %d times; want once. stderr:\n%s", n, batchErr)
	}
	if strings.Contains(plainErr, warning) {
		t.Fatalf("deprecation warning printed without -batch:\n%s", plainErr)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"not-an-experiment"}, options{platform: "both", seed: 1, quick: true}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunUnknownPlatform(t *testing.T) {
	if err := run([]string{"fig1"}, options{platform: "pentium", seed: 1, quick: true}, io.Discard); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"fig1"}, options{platform: "skylake", seed: 1, quick: true}, io.Discard); err != nil {
		t.Fatalf("fig1 failed: %v", err)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	if err := run([]string{"table1", "fig1"}, options{platform: "both", seed: 42, quick: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunJobsIdenticalOutput is the CLI-level determinism check: the same
// run with different worker counts must produce byte-identical reports.
func TestRunJobsIdenticalOutput(t *testing.T) {
	outs := map[int]string{}
	for _, jobs := range []int{1, 4} {
		var buf bytes.Buffer
		opt := options{platform: "both", seed: 42, quick: true, jobs: jobs}
		if err := run([]string{"fig1", "table1", "fig2"}, opt, &buf); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		outs[jobs] = buf.String()
	}
	if outs[1] != outs[4] {
		t.Fatalf("output differs between -jobs 1 and -jobs 4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", outs[1], outs[4])
	}
}

func TestRunJSONExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	opt := options{platform: "skylake", seed: 42, quick: true, jobs: 2, jsonPath: path}
	if err := run([]string{"fig1", "table1"}, opt, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]map[string]float64
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, id := range []string{"fig1", "table1"} {
		if len(metrics[id]) == 0 {
			t.Fatalf("no metrics exported for %q; got %v", id, metrics)
		}
	}
}

// TestRunFaultsJSONExport checks the robustness extension end to end from
// the CLI: the faults experiment must export per-scenario BER/goodput
// metrics and report zero ARQ residual under every injected scenario.
func TestRunFaultsJSONExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	opt := options{platform: "both", seed: 42, quick: true, jobs: 2, jsonPath: path}
	if err := run([]string{"faults"}, opt, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]map[string]float64
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	got := metrics["faults"]
	if len(got) == 0 {
		t.Fatalf("no faults metrics exported; got %v", metrics)
	}
	for _, sc := range []string{"none", "preempt", "pollute", "drift", "spikes", "migrate", "all"} {
		if got["faults_"+sc+"_arq_delivered"] != 1 {
			t.Errorf("scenario %s: ARQ did not deliver", sc)
		}
		if v := got["faults_"+sc+"_arq_residual"]; v != 0 {
			t.Errorf("scenario %s: ARQ residual %v, want 0", sc, v)
		}
		if sc != "none" {
			if v := got["faults_"+sc+"_raw_ber"]; v <= 0.01 {
				t.Errorf("scenario %s: raw BER %v, want > 1%%", sc, v)
			}
		}
		if _, ok := got["faults_"+sc+"_arq_goodput_kbps"]; !ok {
			t.Errorf("scenario %s: goodput metric missing", sc)
		}
	}
}

// TestRunBadOutputPathsFailFast: -json and -trace files are created before
// any experiment runs, so a bad path errors immediately instead of after
// minutes of simulation. The full suite as the experiment list proves the
// point: it would take far longer than the test timeout if it actually ran.
func TestRunBadOutputPathsFailFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	if err := run([]string{"all"}, options{platform: "both", seed: 1, jsonPath: bad}, io.Discard); err == nil {
		t.Fatal("bad -json path accepted")
	}
	if err := run([]string{"all"}, options{platform: "both", seed: 1, tracePath: bad}, io.Discard); err == nil {
		t.Fatal("bad -trace path accepted")
	}
}

func TestRunTraceFilterRequiresTrace(t *testing.T) {
	if err := run([]string{"fig1"}, options{platform: "skylake", seed: 1, quick: true, traceFilter: "channel"}, io.Discard); err == nil {
		t.Fatal("-trace-filter without -trace accepted")
	}
}

func TestRunBadTraceFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	opt := options{platform: "skylake", seed: 1, quick: true, tracePath: path, traceFilter: "channel,bogus"}
	if err := run([]string{"fig1"}, opt, io.Discard); err == nil {
		t.Fatal("unknown -trace-filter package accepted")
	}
}

// TestRunTraceExport runs a traced experiment end to end through the CLI
// path: the Chrome export must be valid trace-event JSON, the JSONL export
// one object per line, and the report must carry the event-count summary.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	chromePath := filepath.Join(dir, "trace.json")
	var report bytes.Buffer
	opt := options{platform: "skylake", seed: 42, quick: true, jobs: 2, tracePath: chromePath, traceFilter: "channel,sim"}
	if err := run([]string{"fig7"}, opt, &report); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome trace has no events")
	}
	if !bytes.Contains(report.Bytes(), []byte("trace: fig7")) {
		t.Fatalf("report lacks the per-experiment trace summary:\n%s", report.String())
	}

	jsonlPath := filepath.Join(dir, "trace.jsonl")
	opt.tracePath = jsonlPath
	if err := run([]string{"fig7"}, opt, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("JSONL export has %d lines", len(lines))
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal(ln, &obj); err != nil {
			t.Fatalf("JSONL line %d invalid: %v", i+1, err)
		}
	}
}

// TestFailedRunRemovesOutputFiles: output files are pre-created for the
// fail-fast check, but a failed run must not leave them behind.
func TestFailedRunRemovesOutputFiles(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "m.json")
	tracePath := filepath.Join(dir, "t.json")
	opt := options{platform: "skylake", seed: 1, quick: true, jsonPath: jsonPath, tracePath: tracePath}
	if err := run([]string{"fig1", "not-an-experiment"}, opt, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, p := range []string{jsonPath, tracePath} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("failed run left %s behind (stat err: %v)", p, err)
		}
	}
}

// pipelineTemplate is a small fast scenario for CLI template tests; the
// gt-100 assertion variant below is guaranteed to fail (pipeline_errors
// is 0 on the quiet channel).
const pipelineTemplate = `id: cli-demo
title: CLI demo scenario
kind: pipeline
channel:
  noise_period: 0
pipeline:
  message: "1011"
assert:
  - metric: pipeline_errors
    op: %s
    value: %s
`

func writeTemplate(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunTemplate runs a template end to end through the CLI path: the
// report must carry the scenario banner and the template-checks block
// with a PASS verdict.
func TestRunTemplate(t *testing.T) {
	path := writeTemplate(t, "demo.yaml", fmt.Sprintf(pipelineTemplate, "eq", "0"))
	var out bytes.Buffer
	opt := options{platform: "skylake", seed: 42, quick: true, template: path}
	if err := run(nil, opt, &out); err != nil {
		t.Fatalf("template run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"cli-demo — CLI demo scenario", "template checks:", "PASS cli-demo", "metric pipeline_errors eq 0 (got 0)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunTemplateAssertionFailure: a failing assertion must map to the
// dedicated sentinel (exit code 3 in main), and — unlike an infrastructure
// error — must keep the run's exports, because the run itself completed.
func TestRunTemplateAssertionFailure(t *testing.T) {
	path := writeTemplate(t, "fail.yaml", fmt.Sprintf(pipelineTemplate, "gt", "100"))
	jsonPath := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	opt := options{platform: "skylake", seed: 42, quick: true, template: path, jsonPath: jsonPath}
	err := run(nil, opt, &out)
	if err == nil {
		t.Fatalf("failing assertion accepted:\n%s", out.String())
	}
	if !errors.Is(err, errAssertionsFailed) {
		t.Fatalf("error is not errAssertionsFailed (exit code 3): %v", err)
	}
	if !strings.Contains(out.String(), "FAIL cli-demo") {
		t.Errorf("report lacks the FAIL verdict:\n%s", out.String())
	}
	if _, serr := os.Stat(jsonPath); serr != nil {
		t.Errorf("assertion failure removed the metrics export: %v", serr)
	}
}

// TestRunTemplateLoadErrorIsInfra: a malformed template is an
// infrastructure error (exit 1), not an assertion failure (exit 3).
func TestRunTemplateLoadErrorIsInfra(t *testing.T) {
	path := writeTemplate(t, "broken.yaml", "id: x\ntitle: T\nkind: warp\n")
	err := run(nil, options{platform: "skylake", seed: 1, quick: true, template: path}, io.Discard)
	if err == nil {
		t.Fatal("malformed template accepted")
	}
	if errors.Is(err, errAssertionsFailed) {
		t.Fatalf("load error misclassified as assertion failure: %v", err)
	}
	if !strings.Contains(err.Error(), "kind") {
		t.Errorf("error lacks the field path: %v", err)
	}
}

// TestValidateShippedTemplates is the `leakyway validate -template
// templates/` smoke test over the shipped pack.
func TestValidateShippedTemplates(t *testing.T) {
	var out bytes.Buffer
	if err := validate(filepath.Join("..", "..", "templates"), &out); err != nil {
		t.Fatalf("shipped templates invalid: %v", err)
	}
	for _, want := range []string{"ok  fig6", "ok  fig8", "ok  faults", "template(s) valid"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("validate output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestValidateBadTemplate(t *testing.T) {
	path := writeTemplate(t, "broken.yaml", "id: x\ntitle: T\nkind: warp\n")
	var out bytes.Buffer
	if err := validate(path, &out); err == nil {
		t.Fatal("malformed template accepted")
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name the file: %v", err)
	}
}

// TestRunTemplateJobsIdenticalOutput extends the CLI determinism check to
// template mode: a template pack run at -jobs 1 and -jobs 4 must render
// byte-identical reports.
func TestRunTemplateJobsIdenticalOutput(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []struct{ name, doc string }{
		{"a.yaml", fmt.Sprintf(pipelineTemplate, "eq", "0")},
		{"b.yaml", "id: cli-walk\ntitle: Walk\nkind: statewalk\nstatewalk:\n" +
			"  message: \"10\"\n  calibrate_samples: 8\n  receiver_ready: 30000\n  phase_step: 5000\n"},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	outs := map[int]string{}
	for _, jobs := range []int{1, 4} {
		var buf bytes.Buffer
		opt := options{platform: "skylake", seed: 42, quick: true, jobs: jobs, template: dir}
		if err := run(nil, opt, &buf); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		outs[jobs] = buf.String()
	}
	if outs[1] != outs[4] {
		t.Fatalf("template output differs between -jobs 1 and -jobs 4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", outs[1], outs[4])
	}
}
