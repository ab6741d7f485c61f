package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"leakyway/internal/cache"
	"leakyway/internal/channel"
	"leakyway/internal/core"
	"leakyway/internal/evset"
	"leakyway/internal/experiments"
	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/platform"
	"leakyway/internal/policy"
	"leakyway/internal/scenario"
	"leakyway/internal/service"
	"leakyway/internal/sim"
	"leakyway/internal/telemetry"
	"leakyway/internal/trace"
)

// spanLayers are the layers the traced run attributes self time to; every
// span name starts with one of them.
var spanLayers = []string{
	"bench", "experiments", "sim", "hier", "cache", "policy", "mem",
	"core", "channel", "evset", "scenario", "service", "trace",
}

// namedExperiments get their own experiments.<id>_s metric; the rest of
// the suite is summed into experiments.rest_s.
var namedExperiments = []string{
	"fig2", "fig8", "table2", "evset-algos", "fig13", "faults",
	"ablate-sets", "ablate-lanes", "noise", "pollution",
}

// panelMem is the physical memory of the panel's machines, as the channel
// experiments use.
const panelMem = 1 << 30

// panel measures each layer by timing calls into its public functions,
// each inside a span named after the layer. Its inputs are fixed, so the
// per-layer figures compare across runs of any workload seed.
type panel struct {
	*collector
	b     *bench
	cfg   hier.Config
	tmpls map[string]tmpl
}

// timed runs fn inside a span and returns its wall time.
func (p *panel) timed(span string, fn func()) time.Duration {
	id := p.b.rec.begin(span, 0, "")
	t := time.Now()
	fn()
	d := time.Since(t)
	p.b.rec.end(id)
	return d
}

// perOp times n calls of fn, three times over, and returns the median
// nanoseconds per call.
func (p *panel) perOp(span string, n int, fn func(i int)) float64 {
	var per []float64
	for r := 0; r < 3; r++ {
		d := p.timed(span, func() {
			for i := 0; i < n; i++ {
				fn(i)
			}
		})
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per)
}

// msEach builds a machine per repetition (seeds 1..reps) outside the
// timing, times the call fn prepares on it, and returns the median
// milliseconds.
func (p *panel) msEach(span string, reps int, fn func(m *sim.Machine) func()) float64 {
	var out []float64
	for r := 0; r < reps; r++ {
		call := fn(sim.MustNewMachine(p.cfg, panelMem, int64(r+1)))
		out = append(out, float64(p.timed(span, call).Nanoseconds())/1e6)
	}
	return median(out)
}

func runPanel(b *bench, c *collector) error {
	tmpls, err := loadTemplates(b.root)
	if err != nil {
		return err
	}
	p := &panel{collector: c, b: b, cfg: platform.Skylake(), tmpls: map[string]tmpl{}}
	for _, t := range tmpls {
		p.tmpls[t.name] = t
	}
	for _, t := range []string{"fig6", "fig7", "fig8", "noise", "faults"} {
		if _, ok := p.tmpls[t]; !ok {
			return fmt.Errorf("template %s missing", t)
		}
	}
	for _, step := range []func() error{
		p.experiments, p.wiring, p.traceBus, p.sim, p.hier, p.cache,
		p.mem, p.channel, p.evset, p.service,
	} {
		if err := step(); err != nil {
			return err
		}
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// experiments times RunOne per experiment over one full-scale suite pass;
// together the results must reproduce RunAll's reference digest.
func (p *panel) experiments() error {
	seed := pick(p.b.seed, 0, suitePool, suiteHoldout)[0]
	ctx := engineContext(seed, false)
	all := map[string]*experiments.Result{}
	secs := map[string]float64{}
	total := 0.0
	for _, id := range experiments.IDs() {
		var res *experiments.Result
		var err error
		d := p.timed("experiments.RunOne", func() { res, err = experiments.RunOne(ctx, id) }).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		all[id], secs[id] = res, d
		total += d
	}
	p.b.attempted++
	got, err := metricsDigest(all)
	if err != nil {
		return err
	}
	p.b.checkDigest(p.b.refs.Suite, fmt.Sprint(seed), got)
	for _, id := range namedExperiments {
		p.add("experiments."+id+"_s", "s", secs[id])
		total -= secs[id]
	}
	p.add("experiments.rest_s", "s", total)
	return nil
}

// wiredContext mirrors service.EngineRunner's engine wiring: a deadline
// context, a progress tracker and a counting trace collector.
func wiredContext(seed int64) (*experiments.Context, *trace.EventCounts, context.CancelFunc) {
	ctx := engineContext(seed, true)
	c, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	ctx.Ctx = c
	ctx.Progress = telemetry.NewProgress()
	counts := &trace.EventCounts{}
	ctx.Trace = trace.NewCountingCollector(counts)
	ctx.Progress.SetEventSource(counts.Counts)
	return ctx, counts, cancel
}

// runSpecDigest runs one spec under ctx and checks its metrics export
// against the reference for (template, seed).
func (p *panel) runSpecDigest(span string, ctx *experiments.Context, t tmpl) time.Duration {
	var results map[string]*experiments.Result
	var err error
	d := p.timed(span, func() { results, err = experiments.RunSpecs(ctx, []*scenario.Spec{t.spec}) })
	p.b.attempted++
	if err == nil {
		var got string
		if got, err = metricsDigest(results); err == nil {
			p.b.checkDigest(p.b.refs.Daemon, seedKey(t.name, ctx.Seed), got)
		}
	}
	if err != nil {
		p.b.fail("%s seed %d: %v", t.name, ctx.Seed, err)
	}
	return d
}

// wiring compares quick fig8 run with the daemon's engine wiring against
// the same run plain (the CLI's wiring).
func (p *panel) wiring() error {
	fig8 := p.tmpls["fig8"]
	var plain, wired []float64
	for r := 0; r < 3; r++ {
		plain = append(plain, p.runSpecDigest("experiments.RunSpecs", engineContext(traceSeed, true), fig8).Seconds())
		ctx, _, cancel := wiredContext(traceSeed)
		wired = append(wired, p.runSpecDigest("experiments.RunSpecs", ctx, fig8).Seconds())
		cancel()
	}
	p.add("experiments.daemon_wiring_ratio", "ratio", median(wired)/median(plain))
	return nil
}

// traceSpecs are the templates of the trace-event counting run: between
// them they emit hier, sim, channel and fault events.
var traceSpecs = []string{"faults", "fig8"}

// countTraceEvents runs traceSpecs at traceSeed with the daemon's counting
// collector and returns the per-subsystem counts and the host time taken.
func countTraceEvents(tmpls []tmpl) (map[string]int64, time.Duration, error) {
	byName := map[string]*scenario.Spec{}
	for _, t := range tmpls {
		byName[t.name] = t.spec
	}
	var specs []*scenario.Spec
	for _, n := range traceSpecs {
		if byName[n] == nil {
			return nil, 0, fmt.Errorf("template %s missing", n)
		}
		specs = append(specs, byName[n])
	}
	ctx, counts, cancel := wiredContext(traceSeed)
	defer cancel()
	t := time.Now()
	if _, err := experiments.RunSpecs(ctx, specs); err != nil {
		return nil, 0, err
	}
	return counts.Counts(), time.Since(t), nil
}

// traceBus measures the program's trace event bus: exact event counts,
// host time per hier event, and the counting run's time against the same
// run with no collector (both cancellable, so both take the same kernel).
func (p *panel) traceBus() error {
	var tmpls []tmpl
	for _, n := range traceSpecs {
		tmpls = append(tmpls, p.tmpls[n])
	}
	var counts map[string]int64
	var counted time.Duration
	var err error
	p.timed("trace.count", func() { counts, counted, err = countTraceEvents(tmpls) })
	if err != nil {
		return err
	}
	p.b.attempted++
	for _, sub := range []string{"hier", "sim", "channel", "fault"} {
		if want := p.b.refs.TraceEvents[sub]; counts[sub] != want {
			p.b.fail("trace events %s: %d, reference %d", sub, counts[sub], want)
		}
		p.add("trace.events_"+sub, "count", float64(counts[sub]))
	}
	var specs []*scenario.Spec
	for _, t := range tmpls {
		specs = append(specs, t.spec)
	}
	bare := p.timed("trace.bare", func() {
		ctx := engineContext(traceSeed, true)
		c, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx.Ctx = c
		_, err = experiments.RunSpecs(ctx, specs)
	})
	if err != nil {
		return err
	}
	if counts["hier"] > 0 {
		p.add("trace.host_ns_per_hier_event", "ns", float64(counted.Nanoseconds())/float64(counts["hier"]))
	}
	p.add("trace.overhead_ratio", "ratio", counted.Seconds()/bare.Seconds())
	return nil
}

func (p *panel) sim() error {
	var fresh []float64
	for r := 0; r < 5; r++ {
		d := p.timed("sim.NewMachine", func() { sim.MustNewMachine(p.cfg, panelMem, int64(r+1)) })
		fresh = append(fresh, float64(d.Nanoseconds())/1e6)
	}
	p.add("sim.machine_new_ms", "ms", median(fresh))

	// Through an arena, as trial sweeps build their machines: one seed,
	// so the frame shuffle and hierarchy come back recycled.
	var recycled []float64
	sim.RunBatch(12, 1, sim.NewArena(), func(i int, src sim.MachineSource) {
		d := p.timed("sim.ArenaNewMachine", func() { src.NewMachine(p.cfg, panelMem, 1) })
		if i > 0 {
			recycled = append(recycled, float64(d.Nanoseconds())/1e6)
		}
	})
	p.add("sim.machine_arena_ms", "ms", median(recycled))

	const ops = 200_000
	var per []float64
	for r := 0; r < 3; r++ {
		m := sim.MustNewMachine(p.cfg, panelMem, 1)
		m.Spawn("bench", 0, nil, func(c *sim.Core) {
			buf := c.Alloc(mem.PageSize)
			c.Load(buf)
			d := p.timed("sim.TimedLoad", func() {
				for i := 0; i < ops; i++ {
					c.TimedLoad(buf)
				}
			})
			per = append(per, float64(d.Nanoseconds())/ops)
		})
		m.Run()
	}
	p.add("sim.timed_op_ns", "ns", median(per))
	return nil
}

func (p *panel) hier() error {
	cfg := p.cfg
	cfg.Seed = 1
	h, err := hier.New(cfg)
	if err != nil {
		return err
	}
	var now int64
	pa := mem.PAddr(0x4040)
	now += h.Load(0, pa, now).Latency
	p.add("hier.load_hit_ns", "ns", p.perOp("hier.Load", 1_000_000, func(int) {
		now += h.Load(0, pa, now).Latency
	}))

	// More congruent lines than the LLC set holds: every load misses.
	geo := h.Geometry()
	lines := []mem.PAddr{pa}
	for k := uint64(1); len(lines) < cfg.LLCWays+4; k++ {
		c := pa + mem.PAddr(k*mem.PageSize)
		if geo.Congruent(c.Line(), pa.Line()) {
			lines = append(lines, c)
		}
	}
	p.add("hier.load_miss_ns", "ns", p.perOp("hier.Load", 300_000, func(i int) {
		now += h.Load(0, lines[i%len(lines)], now).Latency
	}))
	p.add("hier.prefetchnta_ns", "ns", p.perOp("hier.PrefetchNTA", 1_000_000, func(int) {
		now += h.PrefetchNTA(0, pa, now).Latency
	}))

	const flushLines = 4096
	var per []float64
	for r := 0; r < 3; r++ {
		for i := 0; i < flushLines; i++ {
			now += h.Load(0, mem.PAddr(0x100000+i*mem.LineSize), now).Latency
		}
		d := p.timed("hier.Flush", func() {
			for i := 0; i < flushLines; i++ {
				now += h.Flush(mem.PAddr(0x100000+i*mem.LineSize), now).Latency
			}
		})
		per = append(per, float64(d.Nanoseconds())/flushLines)
	}
	p.add("hier.flush_ns", "ns", median(per))
	return nil
}

func (p *panel) cache() error {
	ways := p.cfg.LLCWays
	c := cache.New(cache.Config{Name: "llc", Sets: p.cfg.LLCSetsPerSlice, Ways: ways, Pol: policy.NewQuadAge()})
	for w := 1; w <= ways; w++ {
		c.Fill(0, mem.LineAddr(w), policy.ClassLoad, 0, 0)
	}
	absent := mem.LineAddr(1 << 20)
	found := false
	p.add("cache.probe_ns", "ns", p.perOp("cache.Probe", 2_000_000, func(int) {
		_, ok := c.Probe(0, absent)
		found = found || ok
	}))
	if found {
		return fmt.Errorf("cache probe found a line never filled")
	}
	all := policy.AllWays(ways)
	next := mem.LineAddr(1 << 21)
	p.add("cache.fill_full_set_ns", "ns", p.perOp("cache.FillRestricted", 1_000_000, func(i int) {
		next++
		c.FillRestricted(0, next, policy.ClassLoad, int64(i), int64(i), all)
	}))

	s := policy.NewQuadAge().NewSet(ways)
	for w := 0; w < ways; w++ {
		s.OnFill(w, policy.ClassLoad)
	}
	p.add("policy.quadage_victim_ns", "ns", p.perOp("policy.Victim", 2_000_000, func(int) {
		v := s.Victim(all)
		s.OnInvalidate(v)
		s.OnFill(v, policy.ClassLoad)
	}))
	return nil
}

func (p *panel) mem() error {
	const pages = 65536
	var as *mem.AddressSpace
	var base mem.VAddr
	var per []float64
	for r := 0; r < 3; r++ {
		as = mem.NewAddressSpace(mem.NewPhysMem(panelMem, int64(r+1)))
		var err error
		d := p.timed("mem.Alloc", func() {
			for i := 0; i < pages && err == nil; i++ {
				var va mem.VAddr
				if va, err = as.Alloc(mem.PageSize); i == 0 {
					base = va
				}
			}
		})
		if err != nil {
			return err
		}
		per = append(per, float64(d.Nanoseconds())/pages)
	}
	p.add("mem.alloc_page_ns", "ns", median(per))
	// A stride that visits every page before repeating, so the TLB memo
	// misses as it does across a large eviction-set pool.
	var translateErr error
	p.add("mem.translate_ns", "ns", p.perOp("mem.Translate", 1_000_000, func(i int) {
		page := uint64(i*7919) % pages
		if _, err := as.Translate(base + mem.VAddr(page*mem.PageSize+0x40)); err != nil {
			translateErr = err
		}
	}))
	if translateErr != nil {
		return translateErr
	}
	loc := mem.MustGeometry(p.cfg.LLCSlices, p.cfg.LLCSetsPerSlice).NewLocator()
	p.add("mem.locate_ns", "ns", p.perOp("mem.Locate", 2_000_000, func(i int) {
		loc.Locate(mem.LineAddr(uint64(i) * 0x9e3779b1))
	}))
	return nil
}

func (p *panel) channel() error {
	var cerr error
	p.add("core.congruent_with_line_ms", "ms", p.msEach("core.CongruentWithLine", 5, func(m *sim.Machine) func() {
		as := m.NewSpace()
		va, err := as.Alloc(mem.PageSize)
		if err != nil {
			cerr = err
			return func() {}
		}
		tline := as.MustTranslate(va).Line()
		return func() {
			if _, err := core.CongruentWithLine(m, as, tline, 16); err != nil {
				cerr = err
			}
		}
	}))
	p.add("channel.setup_ms", "ms", p.msEach("channel.Setup", 5, func(m *sim.Machine) func() {
		return func() {
			if _, err := channel.Setup(m, 2, 0); err != nil {
				cerr = err
			}
		}
	}))
	if cerr != nil {
		return cerr
	}
	const bits = 2000
	msg := channel.RandomMessage(bits, 1)
	var rep channel.Report
	ms := p.msEach("channel.RunNTPNTP", 3, func(m *sim.Machine) func() {
		return func() { rep, _ = channel.RunNTPNTP(m, channel.DefaultConfig(p.cfg.Name, p.cfg.FreqGHz), msg) }
	})
	if rep.Bits != bits {
		return fmt.Errorf("ntpntp sent %d bits, want %d", rep.Bits, bits)
	}
	p.add("channel.ntpntp_us_per_bit", "us", ms*1e3/bits)
	return nil
}

// evset builds one 16-line eviction set with each algorithm, on a machine
// and pool shaped like the evset-algos experiment's.
func (p *panel) evset() error {
	const desired = 16
	var pref, base, group []float64
	var memrefs int
	var errs []error
	for r := 0; r < 3; r++ {
		m := sim.MustNewMachine(p.cfg, 1<<31, int64(r+1))
		m.Spawn("attacker", 0, m.NewSpace(), func(c *sim.Core) {
			th := core.Calibrate(c, 48)
			build := func(span string, pages int, fn func(*sim.Core, mem.VAddr, evset.Options) (evset.Result, error)) (evset.Result, float64) {
				t := c.Alloc(mem.PageSize)
				opt := evset.Options{Desired: desired, Pool: evset.NewPool(c, t, pages), Thresholds: th}
				var res evset.Result
				var err error
				d := p.timed(span, func() { res, err = fn(c, t, opt) })
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", span, err))
				}
				return res, float64(d.Nanoseconds()) / 1e6
			}
			res, ms := build("evset.BuildPrefetch", 512*desired, evset.BuildPrefetch)
			pref, memrefs = append(pref, ms), res.MemRefs
			_, ms = build("evset.BuildBaseline", 2600*desired, evset.BuildBaseline)
			base = append(base, ms)
			_, ms = build("evset.BuildGroupTesting", 512*desired, evset.BuildGroupTesting)
			group = append(group, ms)
		})
		m.Run()
	}
	if len(errs) > 0 {
		return errs[0]
	}
	p.add("evset.prefetch_build_ms", "ms", median(pref))
	p.add("evset.baseline_build_ms", "ms", median(base))
	p.add("evset.grouptest_build_ms", "ms", median(group))
	p.add("evset.prefetch_memrefs", "count", float64(memrefs))
	return nil
}

// serviceTemplates and serviceSeeds are the panel daemon's misses; each is
// resubmitted serviceHits times.
var (
	serviceTemplates = []string{"fig6", "fig7", "noise"}
	serviceSeeds     = []int64{1, 2, 3, 4}
)

const serviceHits = 4

// service drives a fresh daemon through its Go API and HTTP handler
// in-process (no sockets): admission of misses and hits, artifact reads,
// and the daemon's own queue-wait, fsync and store-lookup counters.
func (p *panel) service() error {
	// Per round, parse (then canonicalize) all six templates; report the
	// median round's mean per template.
	var parse, canon []float64
	for r := 0; r < 20; r++ {
		specs := make([]*scenario.Spec, 0, len(p.tmpls))
		var perr error
		d := p.timed("scenario.Parse", func() {
			for _, t := range p.tmpls {
				spec, err := scenario.Parse([]byte(t.text), t.name+".yaml")
				if err != nil && perr == nil {
					perr = err
				}
				specs = append(specs, spec)
			}
		})
		if perr != nil {
			return perr
		}
		parse = append(parse, float64(d.Nanoseconds())/1e3/float64(len(specs)))
		d = p.timed("scenario.CanonicalBytes", func() {
			for _, spec := range specs {
				scenario.CanonicalBytes(spec)
			}
		})
		canon = append(canon, float64(d.Nanoseconds())/1e3/float64(len(specs)))
	}
	p.add("scenario.parse_us", "us", median(parse))
	p.add("scenario.canonical_us", "us", median(canon))

	if err := os.MkdirAll(p.b.outDir(), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.b.outDir(), "panel-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := service.New(service.Config{DataDir: dir, Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return err
	}
	defer srv.Drain()
	hnd := srv.Handler()
	get := func(span, path string) ([]byte, error) {
		rec := httptest.NewRecorder()
		p.timed(span, func() { hnd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil)) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), nil
	}
	var missUs, hitUs, artUs []float64
	for _, name := range serviceTemplates {
		t := p.tmpls[name]
		for _, seed := range serviceSeeds {
			sub := service.Submission{Template: t.text, Filename: t.name + ".yaml", Seed: seed, Jobs: 1, Quick: true}
			var j *service.Job
			d := p.timed("service.Submit", func() { j, err = srv.Submit(sub) })
			if err != nil {
				return err
			}
			missUs = append(missUs, float64(d.Nanoseconds())/1e3)
			// The event stream returns once the job is final.
			if _, err := get("service.wait", "/v1/jobs/"+j.ID+"/events"); err != nil {
				return err
			}
			var first []byte
			for k := 0; k <= serviceHits; k++ {
				if k > 0 {
					d = p.timed("service.Submit", func() { j, err = srv.Submit(sub) })
					if err != nil {
						return err
					}
					hitUs = append(hitUs, float64(d.Nanoseconds())/1e3)
				}
				t0 := time.Now()
				art, err := get("service.artifact", "/v1/jobs/"+j.ID+"/artifacts/metrics")
				if err != nil {
					return err
				}
				artUs = append(artUs, float64(time.Since(t0).Nanoseconds())/1e3)
				p.b.attempted++
				switch {
				case k == 0:
					first = art
					p.b.checkDigest(p.b.refs.Daemon, seedKey(name, seed), digest(art))
				case !j.CacheHit:
					p.b.fail("%s seed %d: resubmission missed the cache", name, seed)
				case !bytes.Equal(art, first):
					p.b.fail("%s seed %d: hit artifact differs from its miss artifact", name, seed)
				}
			}
		}
	}
	p.add("service.submit_miss_us", "us", median(missUs))
	p.add("service.submit_hit_us", "us", median(hitUs))
	p.add("service.artifact_get_us", "us", median(artUs))

	expo, err := get("service.metricsz", "/metricsz")
	if err != nil {
		return err
	}
	samples := parseExposition(expo)
	mean := func(h string) float64 {
		if samples[h+"_count"] == 0 {
			return 0
		}
		return samples[h+"_sum"] / samples[h+"_count"]
	}
	p.add("service.queue_wait_ms", "ms", 1e3*mean("leakywayd_queue_wait_seconds"))
	p.add("service.journal_fsync_ms", "ms", 1e3*mean("leakywayd_wal_fsync_seconds"))
	const lookups = "leakywayd_store_lookups_total"
	hit := samples[lookups+`{result="hit"}`]
	all := hit + samples[lookups+`{result="miss"}`] + samples[lookups+`{result="coalesced"}`]
	if all == 0 {
		return fmt.Errorf("/metricsz reported no store lookups")
	}
	p.add("service.store_hit_ratio", "ratio", hit/all)
	return nil
}

// parseExposition reads Prometheus text samples into series → value.
func parseExposition(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
