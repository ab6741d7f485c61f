package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/platform"
	"leakyway/internal/trace"
)

// batchTestConfig enables the hardware prefetchers so the equivalence
// trials cover the stream-table state the hierarchy reset must rewind.
func batchTestConfig() hier.Config {
	cfg := testConfig()
	cfg.HWPrefetch = hier.HWPrefetchConfig{AdjacentLine: true, Stream: true}
	return cfg
}

// freshSource builds every machine from scratch: the reference the
// recycling kernel must match.
type freshSource struct{}

func (freshSource) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	return MustNewMachine(cfg, memBytes, seed)
}

// freshTrials is the reference TrialFor: a plain loop over fresh machines.
func freshTrials(n int, body func(i int, src MachineSource)) {
	for i := 0; i < n; i++ {
		body(i, freshSource{})
	}
}

// equivalenceTrial is one Monte-Carlo trial with enough moving parts to
// expose any divergence between recycled and fresh machines: two
// interacting agents with timed loads, non-temporal prefetches, flushes and
// fences; staged faults (preemption, timer spikes, clock drift); the
// hardware prefetchers; and a second machine per trial so the
// hierarchy-recycling path runs mid-trial. The returned fingerprint is the
// exact sequence of observed latencies and clock checkpoints — any
// scheduling, RNG or cache-state difference shifts at least one entry.
func equivalenceTrial(i int, src MachineSource) []int64 {
	cfg := batchTestConfig()
	seed := int64(1009*i + 31)
	var fp []int64

	m := src.NewMachine(cfg, 1<<24, seed)
	m.SchedulePreempt("a", 500, 700)
	m.ScheduleTimerSpike("b", 800, 4000, 9, seed)
	m.SetClockDrift("b", 120)
	m.Spawn("a", 0, nil, func(c *Core) {
		buf := c.Alloc(4 * mem.PageSize)
		for k := 0; k < 32; k++ {
			fp = append(fp, c.TimedLoad(buf+mem.VAddr((k%13)*64)))
		}
		c.Fence()
		for k := 0; k < 8; k++ {
			fp = append(fp, c.TimedFlush(buf+mem.VAddr(k*64)))
		}
		fp = append(fp, c.Now())
	})
	m.Spawn("b", 1, nil, func(c *Core) {
		buf := c.Alloc(4 * mem.PageSize)
		for k := 0; k < 24; k++ {
			fp = append(fp, c.TimedPrefetchNTA(buf+mem.VAddr((k%7)*64)))
			if k%5 == 0 {
				c.Spin(37)
			}
		}
		r := c.Load(buf)
		fp = append(fp, int64(r.Level), r.Latency, c.Now())
	})
	m.Run()

	// Second machine in the same trial: it recycles the first machine's
	// hierarchy, so an incomplete reset shows up as a fingerprint
	// difference against fresh construction.
	m2 := src.NewMachine(cfg, 1<<24, seed^0x5a5a)
	m2.Spawn("walker", 0, nil, func(c *Core) {
		buf := c.Alloc(8 * mem.PageSize)
		for k := 0; k < 48; k++ {
			fp = append(fp, c.TimedLoad(buf+mem.VAddr(k*64)))
		}
		fp = append(fp, c.Now())
	})
	m2.Run()
	return fp
}

func runEquivalenceTrials(n int, tf TrialFor) [][]int64 {
	fps := make([][]int64, n)
	tf(n, func(i int, src MachineSource) {
		fps[i] = equivalenceTrial(i, src)
	})
	return fps
}

// TestBatchScalarEquivalence pins the trial kernel's contract: trials run
// through RunBatch on a recycling arena fingerprint identically to the
// same trials on fresh MustNewMachine machines (the retired scalar
// kernel), through a private arena and through the global free list.
func TestBatchScalarEquivalence(t *testing.T) {
	const n = 10
	want := runEquivalenceTrials(n, freshTrials)
	got := runEquivalenceTrials(n, func(n int, body func(i int, src MachineSource)) {
		RunBatch(n, 1, NewArena(), body)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("private-arena batch run diverges from fresh machines")
	}
	ar := AcquireArena()
	got = runEquivalenceTrials(n, func(n int, body func(i int, src MachineSource)) {
		RunBatch(n, 1, ar, body)
	})
	ReleaseArena(ar)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("global-arena batch run diverges from fresh machines")
	}
}

func TestBatchRecyclesHierarchies(t *testing.T) {
	const n = 12
	ar := NewArena()
	hs := make([]*hier.Hierarchy, n)
	shuffles := map[*mem.FrameShuffle]bool{}
	RunBatch(n, 3, ar, func(i int, src MachineSource) {
		m := src.NewMachine(batchTestConfig(), 1<<24, 7)
		hs[i] = m.H
		shuffles[ar.shuffle] = true
		m.Spawn("a", 0, nil, func(c *Core) {
			buf := c.Alloc(mem.PageSize)
			c.Load(buf)
		})
		m.Run()
	})
	for i, h := range hs {
		if h != hs[0] {
			t.Fatalf("trial %d built a new hierarchy; want the first one recycled", i)
		}
	}
	if len(shuffles) != 1 {
		t.Fatalf("%d trials with one (size, seed) built %d frame shuffles; want 1", n, len(shuffles))
	}
}

func TestBatchPanicAbortsFleet(t *testing.T) {
	before := runtime.NumGoroutine()
	ar := NewArena()
	ran := 0
	func() {
		defer func() {
			r := recover()
			ae, ok := r.(*AgentError)
			if !ok {
				t.Fatalf("recovered %T %v; want *AgentError", r, r)
			}
			if ae.Agent != "bomb" {
				t.Fatalf("AgentError.Agent = %q, want %q", ae.Agent, "bomb")
			}
		}()
		RunBatch(9, 3, ar, func(i int, src MachineSource) {
			ran++
			m := src.NewMachine(batchTestConfig(), 1<<24, int64(i))
			name := "worker"
			if i == 4 {
				name = "bomb"
			}
			m.Spawn(name, 0, nil, func(c *Core) {
				buf := c.Alloc(mem.PageSize)
				for k := 0; k < 100; k++ {
					c.Load(buf + mem.VAddr((k%16)*64))
				}
				if i == 4 {
					panic("boom")
				}
			})
			// A long-lived daemon on every machine: the abort path must
			// tear these down or their goroutines leak.
			m.SpawnDaemon("noise", 1, nil, func(c *Core) {
				buf := c.Alloc(mem.PageSize)
				for {
					c.Load(buf)
					c.Spin(50)
				}
			})
			m.Run()
		})
		t.Fatalf("RunBatch returned; want panic")
	}()
	if ran != 5 {
		t.Fatalf("%d trials ran; want the batch to stop after the panicking trial 4", ran)
	}
	// All agent goroutines must be gone once the panic surfaces.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after batch abort: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The panicking trial's hierarchy went back to the arena; the next
	// batch must recycle it without inheriting any of its state.
	want := runEquivalenceTrials(3, freshTrials)
	got := runEquivalenceTrials(3, func(n int, body func(i int, src MachineSource)) {
		RunBatch(n, 1, ar, body)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arena reused after a panic diverges from fresh machines")
	}
}

func TestRunBatchDegenerateWidths(t *testing.T) {
	want := runEquivalenceTrials(3, freshTrials)
	// width is ignored: every value runs the same serial recycling loop.
	for _, width := range []int{0, 1, 8} {
		got := runEquivalenceTrials(3, func(n int, body func(i int, src MachineSource)) {
			RunBatch(n, width, nil, body)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d diverges from fresh machines", width)
		}
	}
	// n <= 0 must be a no-op, not a hang.
	RunBatch(0, 4, nil, func(i int, src MachineSource) {
		t.Fatalf("body called for n=0")
	})
}

// fuzzPlatforms are the geometries a fuzzed trial sequence draws from; the
// hierarchy pool keys on geometry, so mixing them interleaves recycled and
// freshly built hierarchies within one arena.
var fuzzPlatforms = []func() hier.Config{testConfig, batchTestConfig, platform.Skylake, platform.KabyLake}

// fuzzTrial is one trial of a fuzzed sequence. op selects the platform,
// the memory size (so the arena's shuffle memo both hits and misses) and
// the trial kind: plain timed loads, a fault-scheduled pair of agents, or a
// traced run. It returns the latency fingerprint and, for traced trials,
// the tracer that recorded the trial.
func fuzzTrial(src MachineSource, seed int64, op byte) ([]int64, *trace.Tracer) {
	cfg := fuzzPlatforms[int(op)%len(fuzzPlatforms)]()
	memBytes := uint64(1<<24) << (op >> 2 & 1)
	var fp []int64
	m := src.NewMachine(cfg, memBytes, seed)
	var tr *trace.Tracer
	switch op >> 3 % 3 {
	case 1:
		m.SchedulePreempt("a", 200, 500)
		m.ScheduleTimerSpike("b", 300, 3000, 7, seed)
		m.SetClockDrift("b", 90)
	case 2:
		tr = trace.New("fuzz", trace.PkgAll)
		m.SetTracer(tr)
	}
	m.Spawn("a", 0, nil, func(c *Core) {
		buf := c.Alloc(2 * mem.PageSize)
		for k := 0; k < 24; k++ {
			fp = append(fp, c.TimedLoad(buf+mem.VAddr((k%9)*64)))
		}
		fp = append(fp, c.Now())
	})
	m.Spawn("b", 1, nil, func(c *Core) {
		buf := c.Alloc(2 * mem.PageSize)
		for k := 0; k < 16; k++ {
			fp = append(fp, c.TimedPrefetchNTA(buf+mem.VAddr((k%5)*64)))
		}
		fp = append(fp, c.TimedFlush(buf), c.Now())
	})
	m.Run()
	return fp, tr
}

// FuzzRecycleFreshEquivalence drives random seed/platform/trial sequences
// through one recycling arena and requires every trial's fingerprint and
// trace event stream to match the same trial on a fresh machine. Event
// streams are compared once the whole sequence has run, so a tracer that
// survived recycling and kept recording later trials shows up too.
func FuzzRecycleFreshEquivalence(f *testing.F) {
	f.Add(int64(42), []byte{0, 9, 18, 3})
	f.Add(int64(-7), []byte{17, 17, 4, 1, 16})
	f.Add(int64(1<<40), []byte{2, 23, 12, 5, 10, 8})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 8 {
			ops = ops[:8]
		}
		got := make([]*trace.Tracer, len(ops))
		want := make([]*trace.Tracer, len(ops))
		RunBatch(len(ops), 1, NewArena(), func(i int, src MachineSource) {
			s := seed + int64(i)*911
			var gotFP, wantFP []int64
			gotFP, got[i] = fuzzTrial(src, s, ops[i])
			wantFP, want[i] = fuzzTrial(freshSource{}, s, ops[i])
			if !reflect.DeepEqual(gotFP, wantFP) {
				t.Fatalf("trial %d (op %d): recycled fingerprint diverges from fresh", i, ops[i])
			}
		})
		for i := range ops {
			if got[i] == nil {
				continue // untraced trial
			}
			g, w := got[i].Buffer().Events(), want[i].Buffer().Events()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d (op %d): recycled trace diverges from fresh (%d vs %d events)",
					i, ops[i], len(g), len(w))
			}
		}
	})
}
