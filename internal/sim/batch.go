package sim

import (
	"math/rand"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
)

// This file is the trial kernel. A Monte-Carlo sweep runs many short
// independent machines that share one platform geometry and differ only in
// seed or channel parameters; building each machine from scratch (frame
// shuffle, cache arrays, per-set policy state) costs more than stepping
// it. An Arena amortizes construction: it recycles hierarchies (hier.Pool)
// and memoizes the most recent immutable frame shuffle (mem.FrameShuffle),
// so a trial that follows another on the same arena rebuilds almost
// nothing. A recycled machine is indistinguishable from a fresh one — the
// equivalence tests in batch_test.go and the experiment goldens pin this.

// MachineSource constructs the machines a trial body runs.
type MachineSource interface {
	// NewMachine is MustNewMachine, except that the source may recycle the
	// previous machine it returned to this caller: a trial body must not
	// touch an earlier machine after requesting a new one.
	NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine
}

// TrialFor runs body(0, src0), ..., body(n-1, srcN) in any order;
// implementations may run bodies concurrently, so a body must only write
// to per-index state. Each invocation gets a MachineSource valid for that
// body's duration.
type TrialFor func(n int, body func(i int, src MachineSource))

// Arena owns the recyclable construction state for one worker: a hierarchy
// pool and the most recent frame shuffle. It is not goroutine-safe; a
// caller owns its arena for the duration of a RunBatch.
type Arena struct {
	pool *hier.Pool
	// shuffleBytes/shuffleSeed key the memoized shuffle. A sweep builds
	// its points from one (size, seed) pair, so a one-entry memo hits on
	// every trial after the first while retaining a single shuffle.
	shuffleBytes uint64
	shuffleSeed  int64
	shuffle      *mem.FrameShuffle
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{pool: hier.NewPool()} }

// frameShuffle returns the frame shuffle for (bytes, seed), reusing the
// memoized one when the key matches.
func (ar *Arena) frameShuffle(bytes uint64, seed int64) *mem.FrameShuffle {
	if ar.shuffle == nil || ar.shuffleBytes != bytes || ar.shuffleSeed != seed {
		ar.shuffle = mem.NewFrameShuffle(bytes, seed)
		ar.shuffleBytes, ar.shuffleSeed = bytes, seed
	}
	return ar.shuffle
}

// newMachine is MustNewMachine through the arena: the hierarchy comes from
// the pool and the frame shuffle from the memo. The result is
// indistinguishable from MustNewMachine(cfg, memBytes, seed).
func (ar *Arena) newMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	cfg.Seed = seed
	h, err := ar.pool.Get(cfg)
	if err != nil {
		panic(err)
	}
	return &Machine{
		H:         h,
		Phys:      mem.NewPhysMemFrom(ar.frameShuffle(memBytes, seed^0x9e3779b9)),
		rng:       rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		SyncSlack: 3,
	}
}

// Process-global arena free list. Experiment contexts are created freely
// (one per daemon job, one per benchmark iteration), so tying recycled
// hierarchies to a context would rebuild them constantly; a small global
// pool keeps the steady-state construction cost near zero while bounding
// retained memory to a few workers' worth of hierarchies.
var arenaPool = make(chan *Arena, 8)

// AcquireArena returns a recycled arena, or a fresh one when none is idle.
func AcquireArena() *Arena {
	select {
	case ar := <-arenaPool:
		return ar
	default:
		return NewArena()
	}
}

// ReleaseArena returns an arena to the global free list; beyond the list's
// capacity the arena is dropped for the GC.
func ReleaseArena(ar *Arena) {
	if ar == nil {
		return
	}
	select {
	case arenaPool <- ar:
	default:
	}
}

// arenaSource is the MachineSource RunBatch hands its bodies: machines are
// built through the arena, and each NewMachine call recycles the previous
// machine's hierarchy.
type arenaSource struct {
	arena *Arena
	cur   *Machine
}

func (s *arenaSource) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	s.recycle()
	s.cur = s.arena.newMachine(cfg, memBytes, seed)
	return s.cur
}

func (s *arenaSource) recycle() {
	if s.cur != nil {
		s.arena.pool.Put(s.cur.H)
		s.cur = nil
	}
}

// RunBatch executes body(0), ..., body(n-1) in order on the calling
// goroutine, building every machine through arena (nil for a private
// one). width is ignored; the parameter is kept so existing callers
// compile unchanged. The simulation output of every trial is
// byte-identical to building it with MustNewMachine. A panicking body
// stops the loop and the panic propagates to the caller; the hierarchy
// it held still goes back to the arena, which resets it on reuse.
func RunBatch(n, width int, arena *Arena, body func(i int, src MachineSource)) {
	if arena == nil {
		arena = NewArena()
	}
	src := &arenaSource{arena: arena}
	defer src.recycle()
	for i := 0; i < n; i++ {
		body(i, src)
	}
}
