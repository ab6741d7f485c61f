package hier

import (
	"leakyway/internal/cache"
	"leakyway/internal/mem"
	"leakyway/internal/policy"
	"leakyway/internal/trace"
)

// Tracing hooks. The hierarchy itself has no notion of agents; the sim
// layer stamps the current agent/core context before resuming an agent so
// hier events land on the right Perfetto track. All hooks are nil-safe:
// with no tracer attached every helper degenerates to the plain cache
// call, and no Event is ever constructed.

// SetTracer attaches an event sink to the hierarchy. A nil tracer
// disables hier tracing entirely.
func (h *Hierarchy) SetTracer(t *trace.Tracer) { h.tr = t }

// SetTraceAgent records the agent on whose behalf subsequent operations
// run. The scheduler calls it at every resume; standalone hierarchy users
// can leave it unset (events then carry no agent and core -1).
func (h *Hierarchy) SetTraceAgent(name string, core int) {
	h.trAgent, h.trCore = name, core
}

// hierEvent starts a hier event stamped with the current agent context.
func (h *Hierarchy) hierEvent(kind string, lvl Level, slice, set int, now int64) trace.Event {
	e := trace.E("hier", kind, now)
	e.Agent, e.Core = h.trAgent, h.trCore
	e.Level, e.Slice, e.Set = lvl.String(), slice, set
	return e
}

// lookupTraced is cache.Lookup plus hit/miss events carrying the way and
// the replacement age before/after the touch. The untraced path is
// exactly c.Lookup — same stats, same policy updates.
func (h *Hierarchy) lookupTraced(c *cache.Cache, lvl Level, slice, set int, la mem.LineAddr, cls policy.AccessClass, now int64) (int, bool) {
	if !h.tr.On(trace.PkgHier) {
		return c.Lookup(set, la, cls)
	}
	if way, present := c.Probe(set, la); present {
		h.touchTraced(c, lvl, slice, set, way, la, cls, now, "")
		return way, true
	}
	c.Lookup(set, la, cls) // counts the miss
	e := h.hierEvent("miss", lvl, slice, set, now)
	e.Addr = uint64(la)
	h.tr.Emit(e)
	return -1, false
}

// touchTraced is cache.Touch on a line a Probe just found, plus a hit event
// carrying the way, the replacement age before/after and the given note.
func (h *Hierarchy) touchTraced(c *cache.Cache, lvl Level, slice, set, way int, la mem.LineAddr, cls policy.AccessClass, now int64, note string) {
	if !h.tr.On(trace.PkgHier) {
		c.Touch(set, way, cls)
		return
	}
	ageBefore := c.AgeOf(set, way)
	c.Touch(set, way, cls)
	e := h.hierEvent("hit", lvl, slice, set, now)
	e.Way, e.AgeBefore, e.AgeAfter = way, ageBefore, c.AgeOf(set, way)
	e.Addr, e.Note = uint64(la), note
	h.tr.Emit(e)
}

// fillMeta snapshots a set's replacement ages into h.fillAges before a
// fill when hier tracing is on. Ways are capped at 64 (policy.Mask), so
// the fixed array holds any set and a traced fill allocates nothing.
func (h *Hierarchy) fillMeta(c *cache.Cache, set int) {
	if !h.tr.On(trace.PkgHier) {
		return
	}
	for w := 0; w < c.Ways(); w++ {
		h.fillAges[w] = c.AgeOf(set, w)
	}
}

// traceFill emits the evict/fill (or, for way < 0, fill-drop) events for
// one completed Install, given the pre-fill age snapshot fillMeta took.
func (h *Hierarchy) traceFill(c *cache.Cache, lvl Level, slice, set int, la mem.LineAddr, way int, ev cache.Evicted, evicted bool, now int64) {
	if !h.tr.On(trace.PkgHier) {
		return
	}
	if way < 0 {
		e := h.hierEvent("fill-drop", lvl, slice, set, now)
		e.Addr = uint64(la)
		h.tr.Emit(e)
		return
	}
	if evicted {
		e := h.hierEvent("evict", lvl, slice, set, now)
		e.Way, e.AgeBefore, e.Addr = way, h.fillAges[way], uint64(ev.Addr)
		h.tr.Emit(e)
	}
	e := h.hierEvent("fill", lvl, slice, set, now)
	e.Way, e.AgeBefore, e.AgeAfter, e.Addr = way, h.fillAges[way], c.AgeOf(set, way), uint64(la)
	h.tr.Emit(e)
}
