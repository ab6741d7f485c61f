package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && samplesBeyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, p, samplesBeyond(c.n, p))
		}
	}
}

// Each workload's declared tail must be one the rule allows at the
// request count the workload is sized for.
func TestWorkloadTails(t *testing.T) {
	sized := map[string]int{"evset-panel": 45, "daemon-miss": 75}
	for _, w := range workloads {
		n, ok := sized[w.name]
		if !ok {
			if w.tail != 100 {
				t.Errorf("%s: tail p%g without a sized request count", w.name, w.tail)
			}
			continue
		}
		if got := tailPercentile(n); got != w.tail {
			t.Errorf("%s: tail p%g, rule gives p%g at n=%d", w.name, w.tail, got, n)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTypicalMs(t *testing.T) {
	b := &bench{}
	// Kind medians 1, 10 and 100 ms: geometric mean 10, whatever the
	// pooled median (which would land on a kind boundary) says.
	for _, ms := range []float64{1, 1, 1} {
		b.request("fast", time.Duration(ms*1e6))
	}
	for _, ms := range []float64{9, 10, 11} {
		b.request("mid", time.Duration(ms*1e6))
	}
	for _, ms := range []float64{100, 100, 500} {
		b.request("slow", time.Duration(ms*1e6))
	}
	if got := b.typicalMs(); math.Abs(got-10) > 1e-9 {
		t.Errorf("typicalMs = %g, want 10", got)
	}
	if b.attempted != 9 || len(b.latMs) != 9 {
		t.Errorf("recorded %d requests (%d latencies), want 9", b.attempted, len(b.latMs))
	}
}

func TestMetricNames(t *testing.T) {
	for name, ok := range map[string]bool{
		"setup_s": true, "experiments.evset-algos_s": true, "trace.events_hier": true,
		"9lives": true, "": false, "_lead": false, ".lead": false, "has space": false,
		"slash/name": false, "ünï": false, "x{y}": false,
		"a234567890123456789012345678901234567890123456789012345678901234":  true,
		"a2345678901234567890123456789012345678901234567890123456789012345": false,
	} {
		if got := validMetricName(name); got != ok {
			t.Errorf("validMetricName(%q) = %v, want %v", name, got, ok)
		}
	}
	ms := metricSet{}
	if err := ms.add("a.b", "ms", 1); err != nil {
		t.Fatal(err)
	}
	if ms.add("a.b", "ms", 2) == nil {
		t.Error("duplicate name accepted")
	}
	if ms.add("bad name", "ms", 1) == nil {
		t.Error("malformed name accepted")
	}
	if ms.add("nan", "ms", math.NaN()) == nil {
		t.Error("NaN accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once: 40.
		{ID: 2, Parent: 1, Name: "service.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "service.wait", Start: 30, End: 50},
		// A child sticking out of its parent counts only inside it: [90, 100).
		{ID: 4, Parent: 1, Name: "service.artifact", Start: 90, End: 120},
		// A grandchild reduces its parent, not the root.
		{ID: 5, Parent: 2, Name: "experiments.RunSpecs", Start: 15, End: 25},
		{ID: 6, Name: "hier.Load", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	layers := layerSelfMs(spans)
	for l, want := range map[string]float64{"bench": 50e-6, "service": 70e-6, "experiments": 10e-6, "hier": 60e-6} {
		if math.Abs(layers[l]-want) > 1e-12 {
			t.Errorf("layer %s self %g ms, want %g", l, layers[l], want)
		}
	}
}

func TestPickIsSeededAndHoldsOut(t *testing.T) {
	a := pick(7, 0, suitePool, suiteHoldout)
	b := pick(7, 0, suitePool, suiteHoldout)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different inputs")
		}
	}
	held := map[int64]bool{}
	for _, s := range suiteHoldout {
		held[s] = true
	}
	for _, s := range a {
		if held[s] {
			t.Errorf("seed 7 drew hold-out input %d", s)
		}
	}
	for _, s := range pick(holdoutSeed, 0, suitePool, suiteHoldout) {
		if !held[s] {
			t.Errorf("hold-out seed drew development input %d", s)
		}
	}
}
