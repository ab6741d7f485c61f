// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output it produced against the
// reference digests in refs.json, and prints its metrics as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (see README.md); with
// -trace 1 half the run records spans around every call into the program,
// a per-layer panel follows, and the metrics are the per-layer set. Build
// and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload suite-full --seed 1 --seconds 25 --trace 0
//
// -gen-refs regenerates refs.json; run it only when a change is meant to
// alter the simulated results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// holdoutSeed is the workload seed kept out of development: its inputs
// come from a reserved reference pool that no other seed draws from, so a
// change tuned on the usual seeds can be confirmed on inputs it never saw.
const holdoutSeed = 2022

// setupRepeats is how many times each run sets its workload up; setup_s
// is the median, so one slow page-fault storm does not move it.
const setupRepeats = 3

// bench is one run's shared state: its inputs, the reference table, the
// span recorder (nil when untraced) and the request accounting.
type bench struct {
	root string
	seed int64
	refs *refs
	rec  *recorder

	attempted, failed int
	// latMs holds the latency of every measured request; kindMs the same
	// latencies split by request kind (template or experiment).
	latMs  []float64
	kindMs map[string][]float64
}

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// request records one measured request of the given kind.
func (b *bench) request(kind string, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	b.attempted++
	b.latMs = append(b.latMs, ms)
	if b.kindMs == nil {
		b.kindMs = map[string][]float64{}
	}
	b.kindMs[kind] = append(b.kindMs[kind], ms)
}

// typicalMs is the geometric mean over request kinds of each kind's median
// latency. A workload mixes kinds whose latencies differ by orders of
// magnitude, so the pooled median sits on the boundary between two kinds
// and jumps between them from run to run; weighing kinds equally keeps it
// inside the data and lets a change to any one kind move it.
func (b *bench) typicalMs() float64 {
	logSum := 0.0
	for _, xs := range b.kindMs {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(b.kindMs)))
}

// outDir holds what a run leaves behind (span files, daemon data); it is
// ignored by git.
func (b *bench) outDir() string { return filepath.Join(b.root, ".bench_build", "perfbench") }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, fmt.Sprintf("workload seed; %d is the hold-out seed", holdoutSeed))
	seconds := flag.Int("seconds", 25, "measured time per run")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	root := flag.String("root", ".", "repository root")
	genRefs := flag.Bool("gen-refs", false, "regenerate perfbench/refs.json and exit")
	flag.Parse()

	if *genRefs {
		if err := generateRefs(*root); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds N>0 --trace {0,1}\n", workloadNames())
		return 2
	}
	r, err := loadRefs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{root: *root, seed: *seed, refs: r}
	d := time.Duration(*seconds) * time.Second
	var ms metricSet
	if *traced == 1 {
		ms, err = runTraced(b, w, d)
	} else {
		ms, err = runPlain(b, w, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setUp runs the workload's set-up setupRepeats times, keeping the last
// session, and returns the median set-up time. Each set-up starts with the
// heap returned to the operating system, so each pays the page faults a
// fresh process pays rather than whatever the scavenger left mapped.
func setUp(b *bench, w workload) (session, float64, error) {
	var times []float64
	var s session
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		debug.FreeOSMemory()
		t := time.Now()
		var err error
		if s, err = w.setup(b); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return s, median(times), nil
}

// measure runs whole passes until d has elapsed (or the inputs run out)
// and returns each pass's wall time in seconds plus the total elapsed.
func measure(b *bench, s session, d time.Duration) ([]float64, time.Duration) {
	var passes []float64
	start := time.Now()
	for time.Since(start) < d {
		t := time.Now()
		id := b.rec.begin("bench.pass", 0, "")
		ran := s.pass(b, id)
		b.rec.end(id)
		if !ran {
			fmt.Fprintf(os.Stderr, "perfbench: inputs exhausted after %.1fs\n", time.Since(start).Seconds())
			break
		}
		passes = append(passes, time.Since(t).Seconds())
	}
	return passes, time.Since(start)
}

// runPlain is the untraced run: it reports the end-to-end metrics.
func runPlain(b *bench, w workload, d time.Duration) (metricSet, error) {
	s, setupS, err := setUp(b, w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	passes, elapsed := measure(b, s, d)
	if len(passes) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}
	if got := tailPercentile(len(b.latMs)); got < w.tail {
		fmt.Fprintf(os.Stderr, "perfbench: %s: tail p%g has fewer than %d of %d samples beyond it\n",
			w.name, w.tail, minBeyond, len(b.latMs))
	}
	c := &collector{ms: metricSet{}}
	c.add("setup_s", "s", setupS)
	c.add("wall_s", "s", median(passes))
	c.add("kind_p50_ms", "ms", b.typicalMs())
	c.add("tail_ms", "ms", quantile(b.latMs, w.tail/100))
	c.add("jobs_per_s", "1/s", float64(len(b.latMs))/elapsed.Seconds())
	c.add("max_rss_mb", "MB", maxRSSMB())
	return c.ms, c.err
}

// runTraced measures the workload for half the run untraced and half with
// spans recorded, then runs the per-layer panel inside spans. It reports
// the per-layer metrics, the spans' overhead and each layer's self time,
// and writes the spans to the run's output directory.
func runTraced(b *bench, w workload, d time.Duration) (metricSet, error) {
	s, _, err := setUp(b, w)
	if err != nil {
		return nil, err
	}
	plain, _ := measure(b, s, d/2)
	if len(plain) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}

	b.rec = newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, _ := measure(b, s, d/2)
	runtime.ReadMemStats(&after)
	s.close()
	if len(traced) == 0 {
		return nil, fmt.Errorf("inputs ran out before the traced half")
	}

	c := &collector{ms: metricSet{}}
	if err := runPanel(b, c); err != nil {
		return nil, err
	}
	c.add("bench.trace_overhead_ratio", "ratio", median(traced)/median(plain))
	c.add("runtime.mallocs", "count", float64(after.Mallocs-before.Mallocs))
	c.add("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	c.add("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	self := layerSelfMs(b.rec.spans)
	for _, l := range spanLayers {
		if self[l] <= 0 {
			return nil, fmt.Errorf("no spans recorded for layer %s", l)
		}
		c.add("self."+l+"_ms", "ms", self[l])
	}
	if c.err != nil {
		return nil, c.err
	}
	path := filepath.Join(b.outDir(), fmt.Sprintf("spans-%s-seed%d.json", w.name, b.seed))
	if err := b.rec.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.rec.spans), path)
	return c.ms, nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
