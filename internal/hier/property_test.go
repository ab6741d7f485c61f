package hier

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"leakyway/internal/cache"
	"leakyway/internal/mem"
)

// coreValidConfig is the property tests' machine: four cores (so the
// core-valid byte has several bits to get wrong), both hardware prefetchers
// on, and optionally a way-partitioned LLC.
func coreValidConfig(seed int64, partitioned bool) Config {
	cfg := testConfig()
	cfg.Cores = 4
	cfg.Seed = seed
	cfg.HWPrefetch = HWPrefetchConfig{AdjacentLine: true, Stream: true}
	if partitioned {
		cfg.LLCPartitionWays = 2
	}
	return cfg
}

// runCoreValidOps drives a hierarchy with an operation sequence and checks
// the core-valid invariant after every step. Each op encodes the address
// (bits 0-5), the core (bits 6-7) and the operation (bits 8+).
func runCoreValidOps(seed int64, partitioned bool, ops []uint16) error {
	cfg := coreValidConfig(seed, partitioned)
	h := MustNew(cfg)
	rng := rand.New(rand.NewSource(seed))
	// A small physical region so sets conflict often.
	addrs := make([]mem.PAddr, 64)
	for i := range addrs {
		addrs[i] = mem.PAddr(rng.Intn(1<<14)) &^ (mem.LineSize - 1)
	}
	now := int64(0)
	for i, op := range ops {
		pa := addrs[int(op)%len(addrs)]
		core := int(op>>6) % cfg.Cores
		now += 500
		switch (op >> 8) % 7 {
		case 0, 1:
			h.Load(core, pa, now)
		case 2:
			h.PrefetchNTA(core, pa, now)
		case 3:
			h.PrefetchT0(core, pa, now)
		case 4:
			h.Store(core, pa, now)
		case 5:
			h.Flush(pa, now)
		case 6:
			// An ascending run inside pa's page: enough consecutive
			// misses for the stream prefetcher to run ahead.
			for la := pa.Line(); la < pa.Line()+4 && la.Frame() == pa.Line().Frame(); la++ {
				h.Load(core, la.PAddr(), now)
				now += 500
			}
		}
		if err := checkCoreValid(h); err != nil {
			return fmt.Errorf("after op %d (%#04x): %v", i, op, err)
		}
	}
	return nil
}

// checkCoreValid verifies that every valid line in core c's L1 or L2 is
// also in the LLC with core-valid bit c set — inclusion, plus the superset
// property the snoop filter relies on to skip probes. It also checks that
// no set holds a line twice, which the hierarchy's fills (they skip the
// duplicate probe after a miss) must never cause.
func checkCoreValid(h *Hierarchy) error {
	for c := 0; c < h.cfg.Cores; c++ {
		for _, pc := range []*cache.Cache{h.l1[c], h.l2[c]} {
			for set := 0; set < pc.Sets(); set++ {
				seen := map[mem.LineAddr]bool{}
				for _, ln := range pc.ViewSet(set).Lines {
					if !ln.Valid {
						continue
					}
					if seen[ln.Addr] {
						return fmt.Errorf("%s holds %v twice in set %d", pc.Name(), ln.Addr, set)
					}
					seen[ln.Addr] = true
					slice, llcSet := h.loc.Locate(ln.Addr)
					w, ok := h.llc[slice].Probe(llcSet, ln.Addr)
					if !ok {
						return fmt.Errorf("%s holds %v, which the LLC does not", pc.Name(), ln.Addr)
					}
					if cv := h.llc[slice].Sharers(llcSet, w); cv&(1<<uint(c)) == 0 {
						return fmt.Errorf("%s holds %v, but its LLC core-valid bits %04b omit core %d", pc.Name(), ln.Addr, cv, c)
					}
				}
			}
		}
	}
	return nil
}

// TestInclusionInvariantUnderRandomOps drives the hierarchy with random
// operation sequences — loads, stores, both software prefetches and
// flushes, with the hardware prefetchers on and the LLC optionally
// way-partitioned — and checks, after every step, that every line present
// in a core's private cache is also present in the LLC with that core's
// core-valid bit set: the inclusion property all the paper's cross-core
// attacks depend on, and the superset property that lets the hierarchy
// skip snoops and back-invalidations of cores whose bit is clear.
func TestInclusionInvariantUnderRandomOps(t *testing.T) {
	f := func(seed int64, partitioned bool, ops []uint16) bool {
		if err := runCoreValidOps(seed, partitioned, ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCoreValidSuperset is the fuzzing form of the core-valid invariant:
// the input bytes, read as little-endian uint16 pairs, are the op sequence.
func FuzzCoreValidSuperset(f *testing.F) {
	f.Add(int64(1), false, []byte{0x00, 0x00, 0x41, 0x00, 0x81, 0x04, 0xc2, 0x06, 0x03, 0x05})
	f.Add(int64(7), true, []byte{0x10, 0x06, 0x50, 0x00, 0x90, 0x03, 0xd0, 0x04, 0x10, 0x02, 0x11, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, partitioned bool, data []byte) {
		ops := make([]uint16, min(len(data)/2, 512))
		for i := range ops {
			ops[i] = binary.LittleEndian.Uint16(data[2*i:])
		}
		if err := runCoreValidOps(seed, partitioned, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLatencyMatchesLevel: for every random op, the reported latency must
// belong to the reported level's band.
func TestLatencyMatchesLevel(t *testing.T) {
	cfg := testConfig()
	lat := cfg.Lat
	h := MustNew(cfg)
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for i := 0; i < 3000; i++ {
		pa := mem.PAddr(rng.Intn(1<<13)) &^ (mem.LineSize - 1)
		corenum := rng.Intn(cfg.Cores)
		now += 300
		res := h.Load(corenum, pa, now)
		var want int64
		switch res.Level {
		case LevelL1:
			want = lat.L1Hit
		case LevelL2:
			want = lat.L2Hit
		case LevelLLC:
			want = lat.LLCHit
		case LevelMem:
			want = lat.Mem
		}
		if res.Latency != want {
			t.Fatalf("op %d: level %v latency %d, want %d", i, res.Level, res.Latency, want)
		}
	}
}

// TestOccupancyNeverExceedsWays: no LLC set ever reports more valid lines
// than its associativity, under heavy random churn.
func TestOccupancyNeverExceedsWays(t *testing.T) {
	cfg := testConfig()
	h := MustNew(cfg)
	rng := rand.New(rand.NewSource(11))
	now := int64(0)
	for i := 0; i < 5000; i++ {
		pa := mem.PAddr(rng.Intn(1<<15)) &^ (mem.LineSize - 1)
		now += 300
		if rng.Intn(3) == 0 {
			h.PrefetchNTA(rng.Intn(cfg.Cores), pa, now)
		} else {
			h.Load(rng.Intn(cfg.Cores), pa, now)
		}
		if occ := h.LLCOccupancy(pa); occ > cfg.LLCWays {
			t.Fatalf("set occupancy %d exceeds %d ways", occ, cfg.LLCWays)
		}
	}
}
