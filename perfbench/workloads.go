package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"leakyway/internal/experiments"
	"leakyway/internal/scenario"
)

// A workload is a closed loop of requests: the next request is sent only
// when the last one has finished. A pass is one round through the
// workload's request mix; wall_s is its median time.
type workload struct {
	name string
	// tail is the percentile tail_ms reports: the highest one the
	// percentile-selection rule allows at the workload's usual request
	// count per run (100 means the slowest request).
	tail  float64
	setup func(b *bench) (session, error)
}

// session is a set-up workload, ready to run passes.
type session interface {
	// pass runs one round of requests under the span parent; it returns
	// false, having sent nothing, once the inputs are used up.
	pass(b *bench, parent int) bool
	close()
}

// The workloads; README.md says why each exists and what it should move.
var workloads = []workload{
	// Requests are whole RunAll passes (about five a run), so no
	// percentile has ten samples beyond it and tail_ms is the slowest.
	{name: "suite-full", tail: 100, setup: setupSuite},
	// Three requests per panel seed, 45 to 65 a run: p75.
	{name: "evset-panel", tail: 75, setup: setupEvset},
	// Six fresh-seed jobs a pass, 75 to 140 a run: p75.
	{name: "daemon-miss", tail: 75, setup: setupDaemon},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// warmIDs are run once in quick mode during suite set-up: they build the
// machines and arenas the full-scale sweeps recycle.
var warmIDs = []string{"fig8", "table2"}

// suiteSession regenerates the whole paper, as `leakyway run all` does.
type suiteSession struct {
	seeds []int64
	next  int
}

func setupSuite(b *bench) (session, error) {
	ctx := engineContext(b.seed, true)
	for _, id := range warmIDs {
		if _, err := experiments.RunOne(ctx, id); err != nil {
			return nil, err
		}
	}
	return &suiteSession{seeds: pick(b.seed, 0, suitePool, suiteHoldout)}, nil
}

func (s *suiteSession) pass(b *bench, parent int) bool {
	seed := s.seeds[s.next%len(s.seeds)]
	s.next++
	t := time.Now()
	id := b.rec.begin("experiments.RunAll", parent, "")
	results, err := experiments.RunAll(engineContext(seed, false))
	b.rec.end(id)
	b.request("RunAll", time.Since(t))
	if err != nil {
		b.fail("suite seed %d: %v", seed, err)
		return true
	}
	got, err := metricsDigest(results)
	if err != nil {
		b.fail("suite seed %d: %v", seed, err)
		return true
	}
	b.checkDigest(b.refs.Suite, fmt.Sprint(seed), got)
	return true
}

func (s *suiteSession) close() {}

// evsetIDs are the eviction-set experiments the panel runs.
var evsetIDs = []string{"evset-algos", "fig13", "counter"}

// panelSeeds is how many seeds one evset-panel pass covers.
const panelSeeds = 2

// evsetSession runs the eviction-set experiments over a seed panel.
type evsetSession struct {
	seeds []int64
	next  int
}

func setupEvset(b *bench) (session, error) {
	// Warm the heap and page tables the panel's 2 GiB machines use.
	if _, err := experiments.RunOne(engineContext(b.seed, true), "evset-algos"); err != nil {
		return nil, err
	}
	return &evsetSession{seeds: pick(b.seed, 0, evsetPool, evsetHoldout)}, nil
}

func (s *evsetSession) pass(b *bench, parent int) bool {
	for k := 0; k < panelSeeds; k++ {
		seed := s.seeds[s.next%len(s.seeds)]
		s.next++
		for _, id := range evsetIDs {
			t := time.Now()
			span := b.rec.begin("experiments.RunOne", parent, "")
			res, err := experiments.RunOne(engineContext(seed, false), id)
			b.rec.end(span)
			b.request(id, time.Since(t))
			if err != nil {
				b.fail("%s seed %d: %v", id, seed, err)
				continue
			}
			got, err := metricsDigest(map[string]*experiments.Result{id: res})
			if err != nil {
				b.fail("%s seed %d: %v", id, seed, err)
				continue
			}
			b.checkDigest(b.refs.Evset, seedKey(id, seed), got)
		}
	}
	return true
}

func (s *evsetSession) close() {}

// tmpl is one shipped scenario template.
type tmpl struct {
	name string // file name without extension
	text string
	spec *scenario.Spec
}

// loadTemplates reads and parses templates/*.yaml in name order.
func loadTemplates(root string) ([]tmpl, error) {
	files, err := filepath.Glob(filepath.Join(root, "templates", "*.yaml"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no templates under %s", filepath.Join(root, "templates"))
	}
	sort.Strings(files)
	var out []tmpl
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		spec, err := scenario.Parse(data, f)
		if err != nil {
			return nil, err
		}
		out = append(out, tmpl{name: strings.TrimSuffix(filepath.Base(f), ".yaml"), text: string(data), spec: spec})
	}
	return out, nil
}
