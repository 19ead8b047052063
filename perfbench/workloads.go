package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// Machine specs. Every workload uses the wheel engine, serially.
const (
	// hdSpec is the single-requestor HD stream's part: line-interleaved
	// HBM under FR-FCFS, a 16-entry MSHR file and an 8-stream prefetcher.
	hdSpec = "sdram/line/frfcfs/hbm/mshr16/pf8"
	// sharedSpec is the 4-tenant part: bank mapping (a page maps wholly
	// to one channel), QoS credits, page-coloring translation.
	sharedSpec = "sdram/bank/frfcfs/hbm/tn4/qos/vacolor"
	tenants    = 4

	l2Latency      = 20  // the experiments' baseline L2 hit latency
	flatMemLatency = 100 // the experiments' flat main-memory latency
)

// workload is one --workload: its iteration, and build, which
// constructs the iteration's simulated machines the same way and
// discards them (the setup_s samples).
type workload struct {
	iterate func(*iteration)
	build   func(*iteration)
}

var workloads = map[string]workload{
	"paper-grid": {paperGrid, func(it *iteration) { it.paperRunner() }},
	"hd-shared": {hdShared, func(it *iteration) {
		for _, v := range hdVariants {
			it.hdMachine(v, nil)
		}
		it.sharedMachine(nil)
	}},
}

// iteration is one closed-loop pass of a workload: it builds a fresh
// simulated machine, runs it and checks every output. The counters it
// gathers feed the per-layer ledger; host times come from the probe's
// spans.
type iteration struct {
	seed uint64
	p    *probe

	setup  time.Duration
	cycles int64 // sim_cycles: summed over simulations, slowest tenant of a group
	fails  []string
	c      map[string]float64 // per-layer counters
}

func (it *iteration) check(ok bool, format string, args ...any) {
	if !ok {
		it.fails = append(it.fails, fmt.Sprintf(format, args...))
	}
}

// reseed keys a kernel's content seed to the benchmark seed; seed 0
// keeps the stock configuration.
func reseed(stock, seed uint64) uint64 {
	if seed == 0 {
		return stock
	}
	z := seed + 0x9e3779b97f4a7c15 // splitmix64 finalizer
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return stock ^ z ^ z>>31
}

// coreStats records one simulated core: the committed-equals-trace and
// CPI-conservation checks, and its share of the ledger.
func (it *iteration) coreStats(what string, st *core.Stats, traceLen uint64) {
	it.check(st.Committed == traceLen, "%s: committed %d of %d instructions", what, st.Committed, traceLen)
	it.check(st.CPI.Sum() == uint64(st.Cycles), "%s: CPI buckets sum to %d, cycles %d", what, st.CPI.Sum(), st.Cycles)
	it.c["core.committed"] += float64(st.Committed)
	it.c["core.cycles"] += float64(st.Cycles)
	reg := stats.NewRegistry()
	st.Register(reg)
	for n, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(n, "core.cpi.") {
			it.c[n] += float64(v)
		}
	}
}

// snapCounters are the registry counters the ledger sums per snapshot.
var snapCounters = []string{
	"cache.l2.misses", "cache.l2.writebacks",
	"vmem.mshr.allocs", "vmem.mshr.merges", "vmem.mshr.full_stalls",
	"vmem.prefetch.issued", "vmem.prefetch.hits", "vmem.prefetch.useless",
	"dram.row_hits", "dram.row_conflicts", "dram.busy_cycles", "dram.qo_s_deferred",
	"vm.tlb.l2_misses", "vm.walk.walks",
}

// report serializes one registry snapshot, as an exporter would, and
// folds its counters into the ledger.
func (it *iteration) report(snap stats.Snapshot) {
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		it.check(false, "stats JSON: %v", err)
	}
	it.c["stats.names"] += float64(len(snap.Counters) + len(snap.Gauges) + len(snap.Hists))
	for _, n := range snapCounters {
		it.c[n] += float64(snap.Counter(n))
	}
	rw := snap.Hists["dram.read_wait"]
	it.c["dram.read_wait.sum"] += float64(rw.Sum)
	it.c["dram.read_wait.count"] += float64(rw.Count)
	for n, v := range snap.Counters {
		// One space per requestor: vm.tlb.* alone, tenant.<i>.vm.tlb.* in a group.
		if strings.HasSuffix(n, "vm.tlb.pages_mapped") {
			it.c["vm.tlb.pages_mapped"] += float64(v)
		}
	}
}

// generate runs a kernel's trace generation and checks its digest
// against the scalar reference.
func (it *iteration) generate(bm kernels.Benchmark, v kernels.Variant, ref []byte) []isa.Inst {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	sp := it.p.begin("kernels.gen")
	tr := &trace.Trace{}
	var sink trace.Sink = tr
	var counted *countingSink
	if it.p.traced {
		counted = &countingSink{inner: tr}
		sink = counted
	}
	digest := bm.Run(v, sink)
	it.p.end(sp)
	runtime.ReadMemStats(&ms)
	it.c["kernels.gen_alloc_mb"] += float64(ms.TotalAlloc-before) / 1e6
	it.c["kernels.traces"]++
	it.c["kernels.insts"] += float64(len(tr.Insts))
	it.check(bytes.Equal(digest, ref), "%s %v: kernel digest differs from the scalar reference", bm.Name, v)
	if counted != nil {
		it.check(counted.n == uint64(len(tr.Insts)), "%s %v: sink saw %d of %d instructions", bm.Name, v, counted.n, len(tr.Insts))
	}
	return tr.Insts
}

func (it *iteration) reference(bm kernels.Benchmark) []byte {
	sp := it.p.begin("kernels.ref")
	defer it.p.end(sp)
	return bm.Reference()
}

// backend builds the part from its spec and wraps it (see
// tracedBackend). The simulator submits through the wrapper; b is the
// part itself.
func (it *iteration) backend(spec string) (b dram.Backend, tb *tracedBackend, knobs dram.Knobs, err error) {
	sp := it.p.begin("dram.new")
	b, knobs, err = dram.ParseSpecFull(spec, flatMemLatency)
	it.p.end(sp)
	if err != nil {
		return nil, nil, knobs, err
	}
	tb, err = wrapBackend(b, it.p)
	return b, tb, knobs, err
}

// countBackend folds a traced backend's call counts into the ledger.
func (it *iteration) countBackend(tb *tracedBackend) {
	if tb != nil {
		it.c["dram.submit_calls"] += float64(tb.submits)
		it.c["dram.requests"] += float64(tb.requests)
		it.c["vm.chanmap_calls"] += float64(tb.chanmaps)
	}
}

// paperGrid is the paper's evaluation through one experiments.Runner:
// Tables 1 and 4, Figures 3, 6, 7, 9, 10, 11 and the headline.
func paperGrid(it *iteration) {
	p := it.p
	r := it.paperRunner()

	// The runner times each simulation loop itself (HostNs). Whenever it
	// reports progress, the loop that just ended becomes a core.sim
	// span closing at that moment.
	var keys []experiments.SimKey
	var seenNs int64
	observe := func() {
		if ns, _ := r.HostPerf(); ns > seenNs {
			if p.traced {
				end := p.now()
				p.leaf("core.sim", end-(ns-seenNs), end)
			}
			seenNs = ns
		}
		p.boundary()
	}
	r.Progress = func(k experiments.SimKey) {
		observe()
		keys = append(keys, k)
	}
	steps := []struct {
		name   string
		render func() string
	}{
		{"experiments.table1", func() string { return experiments.RenderTable1(experiments.Table1(r)) }},
		{"experiments.fig3", func() string { return experiments.Figure3(r).Render() }},
		{"experiments.fig6", func() string { return experiments.Figure6(r).Render() }},
		{"experiments.fig7", func() string { return experiments.Figure7(r).Render() }},
		{"experiments.table4", func() string { return experiments.RenderTable4(experiments.Table4(r)) }},
		{"experiments.fig9", func() string { return experiments.Figure9(r).Render() }},
		{"experiments.fig10", func() string { return experiments.Figure10(r).Render() }},
		{"experiments.fig11", func() string { return experiments.Figure11(r).Render() }},
		{"experiments.headline", func() string { return experiments.ComputeHeadline(r).Render() }},
	}
	for _, s := range steps {
		sp := p.begin(s.name)
		out := s.render()
		observe()
		p.end(sp)
		it.check(out != "", "%s rendered nothing", s.name)
	}
	r.Progress = nil

	simNs, cycles := r.HostPerf()
	it.cycles = cycles
	it.c["experiments.sims"] = float64(len(keys))
	it.c["experiments.sim_loop_s"] = float64(simNs) / 1e9
	sp := p.begin("stats.report")
	generated := map[*trace.Stats]bool{}
	for _, k := range keys {
		res := r.SimDRAM(k.Bench, k.Variant, k.Mem, k.L2Lat, k.DRAM) // memoized: no new run
		it.coreStats(fmt.Sprintf("%s %v %v", k.Bench, k.Variant, k.Mem), res.Core, res.Trace.Total)
		if !generated[res.Trace] {
			generated[res.Trace] = true
			it.c["kernels.traces"]++
			it.c["kernels.insts"] += float64(res.Trace.Total)
		}
		it.report(res.Snap)
	}
	p.end(sp)
}

// paperRunner is paper-grid's set-up: the suite and a serial wheel
// runner. The runner builds each simulation's machine itself.
func (it *iteration) paperRunner() *experiments.Runner {
	t0 := time.Now()
	sp := it.p.begin("experiments.new")
	r := experiments.NewRunnerWith(paperSuite(it.seed))
	r.Engine, r.Workers = engine.Wheel, 1
	it.p.end(sp)
	it.setup += time.Since(t0)
	return r
}

// paperSuite is kernels.All at default sizes with the content seeds
// keyed to the benchmark seed.
func paperSuite(seed uint64) []kernels.Benchmark {
	je, jd := kernels.DefaultJPEGEncConfig(), kernels.DefaultJPEGDecConfig()
	md, me := kernels.DefaultMPEG2DecConfig(), kernels.DefaultMPEG2EncConfig()
	gs := kernels.DefaultGSMEncConfig()
	je.Seed, jd.Seed = reseed(je.Seed, seed), reseed(jd.Seed, seed)
	md.Seed, me.Seed = reseed(md.Seed, seed), reseed(me.Seed, seed)
	gs.Seed = reseed(gs.Seed, seed)
	return []kernels.Benchmark{kernels.JPEGEncode(je), kernels.JPEGDecode(jd),
		kernels.MPEG2Decode(md), kernels.MPEG2Encode(me), kernels.GSMEncode(gs)}
}

func motionSearch(seed uint64) kernels.Benchmark {
	cfg := kernels.DefaultMotionSearchConfig()
	cfg.Seed = reseed(cfg.Seed, seed)
	return kernels.MotionSearch(cfg)
}

// hdVariants are the streaming part's two simulations, in order.
var hdVariants = []kernels.Variant{kernels.MMX, kernels.MOM3D}

// hdShared is full-size HD motionsearch on the HBM parts. Each variant
// first runs as the one requestor of the streaming part (MMX, then
// MOM+3D); then four MOM+3D tenants share the translated,
// QoS-scheduled part, reusing the MOM+3D trace.
func hdShared(it *iteration) {
	bm := motionSearch(it.seed)
	ref := it.reference(bm)
	var mom []isa.Inst
	for _, v := range hdVariants {
		insts := it.generate(bm, v, ref)
		if !it.hdStream(v, insts) {
			return
		}
		if v == kernels.MOM3D {
			mom = insts
		}
	}
	it.sharedVA(mom)
}

// hdStream simulates one variant alone on the streaming part. It
// reports false when the part failed to build.
func (it *iteration) hdStream(v kernels.Variant, insts []isa.Inst) bool {
	p := it.p
	ms, sim, tb := it.hdMachine(v, insts)
	if sim == nil {
		return false
	}

	// core.SimulateMode's wheel loop, driven here to count Advances.
	sp := p.begin("core.sim")
	advances := 0
	for sim.Running() {
		sim.Advance()
		advances++
	}
	st := sim.Finish()
	ms.Drain()
	p.end(sp)
	it.c["engine.advances"] += float64(advances)
	it.c["engine.cycles"] += float64(st.Cycles)
	it.cycles += st.Cycles
	it.coreStats(fmt.Sprintf("motionsearch %v", v), st, uint64(len(insts)))
	it.countBackend(tb)

	sp = p.begin("stats.report")
	reg := stats.NewRegistry()
	st.Register(reg)
	ms.Register(reg)
	it.report(reg.Snapshot())
	p.end(sp)
	return true
}

// hdMachine is the streaming part's set-up for one variant: the part, the
// memory system and a wheel-engine simulator over insts. A nil sim
// means the part failed to build (recorded as a failed check).
func (it *iteration) hdMachine(v kernels.Variant, insts []isa.Inst) (*core.MemSystem, *core.Sim, *tracedBackend) {
	t0 := time.Now()
	defer func() { it.setup += time.Since(t0) }()
	_, tb, knobs, err := it.backend(hdSpec)
	if err != nil {
		it.check(false, "backend %s: %v", hdSpec, err)
		return nil, nil, nil
	}
	sp := it.p.begin("core.new")
	defer it.p.end(sp)
	cfg, kind := core.MOMCore(), core.MemVectorCache3D
	if v == kernels.MMX {
		cfg, kind = core.MMXCore(), core.MemMultiBanked
	}
	tim := vmem.Timing{L2Latency: l2Latency, MemLatency: flatMemLatency, Backend: tb,
		MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree}
	ms := core.NewMemSystem(kind, tim, cfg.Lanes, v == kernels.MMX)
	sim := core.NewSim(cfg, ms, insts)
	sim.SetEngine(engine.Wheel)
	return ms, sim, tb
}

// sharedVA runs four MOM+3D tenants in lockstep over one translated,
// QoS-scheduled part, all sharing insts. The slowest tenant's cycles
// count into sim_cycles.
func (it *iteration) sharedVA(insts []isa.Inst) {
	p := it.p
	g, tb := it.sharedMachine(insts)
	if g == nil {
		return
	}

	sp := p.begin("tenant.run")
	g.Run()
	p.end(sp)
	lo, hi := int64(-1), int64(0)
	for i := 0; i < g.N(); i++ {
		st := g.Stats(i)
		it.coreStats(fmt.Sprintf("tenant %d", i), st, uint64(len(insts)))
		hi = max(hi, st.Cycles)
		if lo < 0 || st.Cycles < lo {
			lo = st.Cycles
		}
	}
	it.cycles += hi
	it.c["tenant.cycles_spread"] = float64(hi) / float64(lo)
	it.countBackend(tb)

	sp = p.begin("stats.report")
	reg := stats.NewRegistry()
	g.Register(reg)
	it.report(reg.Snapshot())
	p.end(sp)
}

// sharedMachine is the shared part's set-up: the part, the translation
// layer over its 1 GiB page pool, and the tenant group with every
// tenant running insts. A nil group means a part failed to build
// (recorded as a failed check).
func (it *iteration) sharedMachine(insts []isa.Inst) (*tenant.Group, *tracedBackend) {
	p := it.p
	t0 := time.Now()
	defer func() { it.setup += time.Since(t0) }()
	b, tb, knobs, err := it.backend(sharedSpec)
	if err != nil {
		it.check(false, "backend %s: %v", sharedSpec, err)
		return nil, nil
	}
	sp := p.begin("vm.new")
	// Page coloring decodes channels ~10^8 times an iteration; only the
	// traced run counts them through the wrapper.
	var mapper dram.Backend = b
	if it.p.traced {
		mapper = tb
	}
	vmsys, err := core.NewVM(knobs.VA, tenants, mapper)
	p.end(sp)
	if err != nil {
		it.check(false, "vm %s: %v", knobs.VA, err)
		return nil, nil
	}
	sp = p.begin("tenant.new")
	defer p.end(sp)
	cfg := core.MOMCore()
	traces := make([][]isa.Inst, tenants)
	for i := range traces {
		traces[i] = insts
	}
	g := tenant.New(tenant.Options{Core: cfg, Kind: core.MemVectorCache3D, Lanes: cfg.Lanes,
		Tim: vmem.Timing{L2Latency: l2Latency, MemLatency: flatMemLatency, Backend: tb,
			MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree},
		Traces: traces, Engine: engine.Wheel, VM: vmsys})
	return g, tb
}

// instBytes is the in-memory size of one trace entry.
const instBytes = unsafe.Sizeof(isa.Inst{})
