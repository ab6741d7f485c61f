package hier

import (
	"testing"

	"leakyway/internal/mem"
)

// BenchmarkHierAccess measures the steady-state demand-load hit path through
// the full hierarchy (translate-free: the caller holds a physical address).
// The CI perf gate requires this to stay at 0 allocs/op.
func BenchmarkHierAccess(b *testing.B) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	now := h.Load(0, pa, 0).Latency
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Load(0, pa, now)
		now += res.Latency
	}
}

// BenchmarkHierMissSweep measures the miss/fill/evict path: a pointer-chase
// over more congruent lines than the LLC set holds, so every access misses
// somewhere and exercises victim selection.
func BenchmarkHierMissSweep(b *testing.B) {
	h := MustNew(testConfig())
	lines := congruentLines(h, mem.PAddr(0x4040), h.Config().LLCWays+4)
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Load(0, lines[i%len(lines)], now)
		now += res.Latency
	}
}

// BenchmarkHierPrefetchNTA measures the PREFETCHNTA path, the paper's core
// primitive (issued millions of times per channel sweep).
func BenchmarkHierPrefetchNTA(b *testing.B) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	now := h.PrefetchNTA(0, pa, 0).Latency
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.PrefetchNTA(0, pa, now)
		now += res.Latency
	}
}

// BenchmarkHierSharedEvict measures cross-core conflict traffic: four cores
// take turns loading more congruent lines than the LLC set holds, so loads
// miss the LLC and evict lines that other cores still hold privately — the
// snoop and back-invalidation path every cross-core attack rests on.
func BenchmarkHierSharedEvict(b *testing.B) {
	cfg := testConfig()
	cfg.Cores = 4
	h := MustNew(cfg)
	// A line count coprime with the core count rotates every line through
	// every core.
	lines := congruentLines(h, mem.PAddr(0x4040), cfg.LLCWays+3)
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Load(i%cfg.Cores, lines[i%len(lines)], now)
		now += res.Latency
	}
}
