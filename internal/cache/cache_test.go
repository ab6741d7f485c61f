package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"leakyway/internal/mem"
	"leakyway/internal/policy"
)

func newTestCache(sets, ways int) *Cache {
	return New(Config{Name: "test", Sets: sets, Ways: ways, Pol: policy.NewQuadAge()})
}

func TestFillAndProbe(t *testing.T) {
	c := newTestCache(4, 2)
	la := mem.LineAddr(0x100)
	if _, ok := c.Probe(0, la); ok {
		t.Fatal("empty cache reports hit")
	}
	_, evicted, ok := c.Fill(0, la, policy.ClassLoad, 0, 0)
	if !ok || evicted {
		t.Fatalf("first fill: evicted=%v ok=%v", evicted, ok)
	}
	if w, ok := c.Probe(0, la); !ok || w < 0 {
		t.Fatal("line not found after fill")
	}
	// The same line in a different set is independent.
	if _, ok := c.Probe(1, la); ok {
		t.Fatal("line leaked into another set")
	}
}

func TestFillEvictsWhenFull(t *testing.T) {
	c := newTestCache(1, 4)
	for i := 0; i < 4; i++ {
		c.Fill(0, mem.LineAddr(i), policy.ClassLoad, 0, 0)
	}
	ev, evicted, ok := c.Fill(0, mem.LineAddr(100), policy.ClassLoad, 0, 0)
	if !ok || !evicted {
		t.Fatalf("full-set fill: evicted=%v ok=%v", evicted, ok)
	}
	if _, ok := c.Probe(0, ev.Addr); ok {
		t.Fatal("evicted line still present")
	}
	if _, ok := c.Probe(0, mem.LineAddr(100)); !ok {
		t.Fatal("new line absent after fill")
	}
	if c.Occupancy(0) != 4 {
		t.Fatalf("occupancy = %d, want 4", c.Occupancy(0))
	}
}

func TestFillDuplicateIsHit(t *testing.T) {
	c := newTestCache(1, 2)
	la := mem.LineAddr(7)
	c.Fill(0, la, policy.ClassLoad, 0, 0)
	_, evicted, ok := c.Fill(0, la, policy.ClassLoad, 0, 0)
	if !ok || evicted {
		t.Fatal("re-filling a present line must be a silent hit")
	}
	if c.Occupancy(0) != 1 {
		t.Fatalf("occupancy = %d, want 1 (no duplicate ways)", c.Occupancy(0))
	}
}

func TestInFlightBlocksEviction(t *testing.T) {
	c := newTestCache(1, 2)
	// Both lines in flight until cycle 100.
	c.Fill(0, 1, policy.ClassLoad, 0, 100)
	c.Fill(0, 2, policy.ClassLoad, 0, 100)
	// At cycle 50 nothing is evictable: the fill is dropped.
	if _, _, ok := c.Fill(0, 3, policy.ClassLoad, 50, 150); ok {
		t.Fatal("fill succeeded although every way is in flight")
	}
	// At cycle 100 the fills have completed.
	if _, evicted, ok := c.Fill(0, 3, policy.ClassLoad, 100, 200); !ok || !evicted {
		t.Fatal("fill should succeed once in-flight windows close")
	}
}

func TestInFlightVictimSkipped(t *testing.T) {
	c := newTestCache(1, 4)
	for i := 0; i < 4; i++ {
		c.Fill(0, mem.LineAddr(i), policy.ClassLoad, 0, 0)
	}
	// Install an NTA line (the eviction candidate) that is in flight.
	c.Fill(0, 50, policy.ClassNTA, 0, 1000)
	// While line 50 is in flight, a new fill must evict something else.
	ev, evicted, ok := c.Fill(0, 60, policy.ClassLoad, 10, 20)
	if !ok || !evicted {
		t.Fatal("fill should displace a non-in-flight way")
	}
	if ev.Addr == 50 {
		t.Fatal("evicted the in-flight line")
	}
	if _, ok := c.Probe(0, 50); !ok {
		t.Fatal("in-flight line vanished")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTestCache(2, 2)
	c.Fill(1, 9, policy.ClassLoad, 0, 0)
	if w, ok := c.Probe(1, 9); !ok {
		t.Fatal("line missing")
	} else {
		c.MarkDirty(1, w)
	}
	present, dirty := c.Invalidate(1, 9)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if present, _ := c.Invalidate(1, 9); present {
		t.Fatal("double invalidate reports present")
	}
}

func TestEvictionCandidateMatchesVictim(t *testing.T) {
	c := newTestCache(1, 8)
	for i := 0; i < 8; i++ {
		c.Fill(0, mem.LineAddr(i), policy.ClassLoad, 0, 0)
	}
	c.Fill(0, 100, policy.ClassNTA, 0, 0) // evicts one, installs candidate
	cand, ok := c.EvictionCandidate(0)
	if !ok || cand != 100 {
		t.Fatalf("candidate = %v,%v; want line 100", cand, ok)
	}
	ev, _, _ := c.Fill(0, 200, policy.ClassLoad, 0, 0)
	if ev.Addr != cand {
		t.Fatalf("actual eviction %v != predicted candidate %v", ev.Addr, cand)
	}
}

func TestStatsCounting(t *testing.T) {
	c := newTestCache(1, 2)
	c.Lookup(0, 1, policy.ClassLoad) // miss
	c.Fill(0, 1, policy.ClassLoad, 0, 0)
	c.Lookup(0, 1, policy.ClassLoad) // hit
	c.Fill(0, 2, policy.ClassLoad, 0, 0)
	c.Fill(0, 3, policy.ClassLoad, 0, 0) // eviction
	c.Invalidate(0, 3)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Fills != 3 || st.Evictions != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestViewSetIsolation(t *testing.T) {
	c := newTestCache(1, 2)
	c.Fill(0, 5, policy.ClassLoad, 0, 0)
	v := c.ViewSet(0)
	v.Lines[0].Addr = 999
	v.Meta[0] = 999
	if c.ViewSet(0).Lines[0].Addr == 999 {
		t.Fatal("ViewSet aliases internal lines")
	}
}

// TestCacheNeverDuplicates is a property test: a random operation sequence
// never produces two ways holding the same line in one set.
func TestCacheNeverDuplicates(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newTestCache(2, 4)
		for i, op := range ops {
			la := mem.LineAddr(op % 16)
			set := int(op>>4) % 2
			switch (op >> 5) % 3 {
			case 0:
				c.Fill(set, la, policy.ClassLoad, int64(i), int64(i))
			case 1:
				c.Fill(set, la, policy.ClassNTA, int64(i), int64(i))
			case 2:
				c.Invalidate(set, la)
			}
			for s := 0; s < 2; s++ {
				seen := map[mem.LineAddr]int{}
				for _, ln := range c.ViewSet(s).Lines {
					if ln.Valid {
						seen[ln.Addr]++
						if seen[ln.Addr] > 1 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero sets")
		}
	}()
	New(Config{Name: "bad", Sets: 0, Ways: 1, Pol: policy.NewQuadAge()})
}

// TestEvictionCandidatePredictsFillVictim is a property test: over random
// completed-fill histories (no in-flight windows), the candidate reported by
// EvictionCandidate is exactly the line the next full-set fill displaces.
func TestEvictionCandidatePredictsFillVictim(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newTestCache(1, 8)
		// Fill the set completely first.
		for i := 0; i < 8; i++ {
			c.Fill(0, mem.LineAddr(1000+i), policy.ClassLoad, 0, 0)
		}
		next := mem.LineAddr(2000)
		for _, op := range ops {
			switch op % 3 {
			case 0: // demand hit on a present line
				v := c.ViewSet(0)
				w := int(op/3) % len(v.Lines)
				if v.Lines[w].Valid {
					c.Touch(0, w, policy.ClassLoad)
				}
			case 1: // NTA fill of a fresh line
				pred, okPred := c.EvictionCandidate(0)
				ev, evicted, ok := c.Fill(0, next, policy.ClassNTA, 0, 0)
				if ok && evicted && okPred && ev.Addr != pred {
					return false
				}
				next++
			case 2: // demand fill of a fresh line
				pred, okPred := c.EvictionCandidate(0)
				ev, evicted, ok := c.Fill(0, next, policy.ClassLoad, 0, 0)
				if ok && evicted && okPred && ev.Addr != pred {
					return false
				}
				next++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// linearFreeWay is the free-way search the per-set valid bitmask replaced:
// the first allowed way that holds no line. held is the test's own record
// of the set's contents; the tests never use line 0, so an emptied way
// (whose address is zeroed) is never mistaken for a held one.
func linearFreeWay(c *Cache, setIdx int, held map[mem.LineAddr]bool, allowed policy.Mask) int {
	base := setIdx * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if !held[c.addrs[base+w]] && allowed.Has(w) {
			return w
		}
	}
	return -1
}

// linearEvictable is the deadline scan the per-set in-flight bound
// short-circuits: every way whose fill has completed by now.
func linearEvictable(c *Cache, setIdx int, now int64) policy.Mask {
	base := setIdx * c.cfg.Ways
	var m policy.Mask
	for w := 0; w < c.cfg.Ways; w++ {
		if c.ready[base+w] <= now {
			m |= 1 << uint(w)
		}
	}
	return m
}

// TestWaySearchMatchesLinearScan checks the bitmask free-way choice and the
// bounded evictable mask against the linear scans they replaced, under
// random fills (with partition and random way masks, in-flight deadlines
// and a clock that sometimes steps back), invalidates and resets.
func TestWaySearchMatchesLinearScan(t *testing.T) {
	const sets = 4
	for _, ways := range []int{1, 4, 12, 16, 64} {
		c := newTestCache(sets, ways)
		held := make([]map[mem.LineAddr]bool, sets)
		for s := range held {
			held[s] = map[mem.LineAddr]bool{}
		}
		rng := rand.New(rand.NewSource(int64(ways)))
		now := int64(1000)
		for step := 0; step < 20000; step++ {
			set := rng.Intn(sets)
			now += int64(rng.Intn(50)) - 20
			la := mem.LineAddr(1 + rng.Intn(3*ways))
			switch r := rng.Intn(40); {
			case r < 28:
				allowed := policy.AllWays(ways)
				switch rng.Intn(3) {
				case 0: // one domain's block of a way-partitioned cache
					n := 1 + rng.Intn(ways)
					lo := rng.Intn(ways - n + 1)
					allowed = policy.AllWays(lo+n) &^ policy.AllWays(lo)
				case 1:
					allowed = policy.Mask(rng.Uint64())
				}
				wantFree := linearFreeWay(c, set, held[set], allowed)
				if got := c.freeWay(set, allowed); got != wantFree {
					t.Fatalf("ways=%d step %d: freeWay = %d, linear scan %d", ways, step, got, wantFree)
				}
				wantEv := linearEvictable(c, set, now)
				if got := c.evictable(set, now); got != wantEv {
					t.Fatalf("ways=%d step %d: evictable = %b, linear scan %b", ways, step, got, wantEv)
				}
				ev, evicted, ok := c.FillRestricted(set, la, policy.ClassLoad, now, now+int64(rng.Intn(100)), allowed)
				w, present := c.Probe(set, la)
				switch {
				case held[set][la]:
					if !ok || evicted {
						t.Fatalf("ways=%d step %d: refill of a held line evicted=%v ok=%v", ways, step, evicted, ok)
					}
				case wantFree >= 0:
					if !ok || evicted || w != wantFree {
						t.Fatalf("ways=%d step %d: fill landed in way %d (evicted=%v ok=%v), want free way %d", ways, step, w, evicted, ok, wantFree)
					}
				case ok:
					if !evicted || !(wantEv & allowed).Has(w) || !held[set][ev.Addr] {
						t.Fatalf("ways=%d step %d: victim way %d (%v) outside evictable %b & allowed %b", ways, step, w, ev.Addr, wantEv, allowed)
					}
					delete(held[set], ev.Addr)
				default:
					if (wantEv & allowed) != 0 {
						t.Fatalf("ways=%d step %d: fill dropped with evictable ways %b", ways, step, wantEv&allowed)
					}
				}
				if ok != present {
					t.Fatalf("ways=%d step %d: fill ok=%v but line present=%v", ways, step, ok, present)
				}
				if ok {
					held[set][la] = true
				}
			case r < 39:
				if present, _ := c.Invalidate(set, la); present != held[set][la] {
					t.Fatalf("ways=%d step %d: Invalidate present=%v, want %v", ways, step, present, held[set][la])
				}
				delete(held[set], la)
			default:
				c.Reset()
				for s := range held {
					clear(held[s])
				}
			}
			if got := c.Occupancy(set); got != len(held[set]) {
				t.Fatalf("ways=%d step %d: occupancy %d, want %d", ways, step, got, len(held[set]))
			}
			for w, ln := range c.ViewSet(set).Lines {
				if ln.Valid != held[set][ln.Addr] {
					t.Fatalf("ways=%d step %d: way %d (%v) valid=%v disagrees with the held set", ways, step, w, ln.Addr, ln.Valid)
				}
			}
		}
	}
}

func TestCoreValidLane(t *testing.T) {
	c := New(Config{Name: "llc", Sets: 2, Ways: 2, Pol: policy.NewQuadAge(), CoreValid: true})
	c.Fill(0, 1, policy.ClassLoad, 0, 0)
	w, _ := c.Probe(0, 1)
	if got := c.Sharers(0, w); got != 0 {
		t.Fatalf("fresh line sharers = %08b, want none", got)
	}
	c.AddSharer(0, w, 0)
	c.AddSharer(0, w, 7)
	if got := c.Sharers(0, w); got != 0b1000_0001 {
		t.Fatalf("sharers = %08b, want cores 0 and 7", got)
	}
	// Evicting the line reports its sharers; the way's new line has none.
	c.Fill(0, 2, policy.ClassLoad, 0, 0)
	c.AddSharer(0, 1-w, 3)
	var ev Evicted
	for la := mem.LineAddr(3); ev.Addr != 1; la++ {
		ev, _, _ = c.Fill(0, la, policy.ClassLoad, 0, 0)
	}
	if ev.Sharers != 0b1000_0001 {
		t.Fatalf("evicted sharers = %08b, want cores 0 and 7", ev.Sharers)
	}
	if got := c.Sharers(0, w); got != 0 {
		t.Fatalf("replacement line inherited sharers %08b", got)
	}
	// Invalidate clears the bits; so does Reset, through the touched sets.
	c.AddSharer(0, w, 2)
	c.InvalidateWay(0, w)
	if got := c.cv[w]; got != 0 {
		t.Fatalf("invalidated way keeps sharers %08b", got)
	}
	c.Fill(1, 9, policy.ClassLoad, 0, 0)
	c.AddSharer(1, 0, 5)
	c.Reset()
	for i, cv := range c.cv {
		if cv != 0 {
			t.Fatalf("Reset left sharers %08b at slot %d", cv, i)
		}
	}

	// Without the lane every core may share, and AddSharer is a no-op.
	plain := newTestCache(1, 1)
	plain.Fill(0, 1, policy.ClassLoad, 0, 0)
	plain.AddSharer(0, 0, 1)
	if got := plain.Sharers(0, 0); got != allSharers {
		t.Fatalf("lane-less sharers = %08b, want all", got)
	}
	if ev, _, _ := plain.Fill(0, 2, policy.ClassLoad, 0, 0); ev.Sharers != allSharers {
		t.Fatalf("lane-less evicted sharers = %08b, want all", ev.Sharers)
	}
}
