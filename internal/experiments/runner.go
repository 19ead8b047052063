// Package experiments regenerates every table and figure of the paper's
// evaluation (§3.1, §5.2, §6): it generates benchmark traces, drives the
// cycle simulator across the ISA and memory-system configurations, and
// renders the same rows and series the paper reports.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// SimKey identifies one simulation configuration. DRAM is the
// main-memory backend spec ("" or "fixed" for the flat 100-cycle
// backend, or "sdram/<mapping>/<scheduler>").
type SimKey struct {
	Bench   string
	Variant kernels.Variant
	Mem     core.MemKind
	L2Lat   int64
	DRAM    string
}

// SimResult is the outcome of one simulation, with the memory-system
// counters copied out.
type SimResult struct {
	Key      SimKey
	Core     *core.Stats
	VM       vmem.Stats
	ScalarL2 uint64
	Activity uint64 // total L2 accesses (Table 4)
	Trace    *trace.Stats
	DRAM     dram.Stats
	MSHR     vmem.MSHRStats
	PF       vmem.PrefetchStats // zero-valued with the prefetcher off

	// Snap is the stats-registry snapshot of the run: every registered
	// counter, gauge and histogram under the unified naming scheme
	// (core.*, cache.*, vmem.*, dram.*). The struct copies above remain
	// for the figure builders; exporters should prefer the snapshot.
	Snap stats.Snapshot

	// HostNs is the wall-clock cost of the simulation loop alone (trace
	// generation and stat collection excluded). It is NOT part of Snap:
	// the golden-matrix snapshots must stay byte-stable across hosts.
	HostNs int64
}

// Cycles is shorthand for the simulated execution time.
func (r *SimResult) Cycles() int64 { return r.Core.Cycles }

// Runner generates traces and runs simulations, memoizing results so the
// figures can share configurations. Traces are cached per benchmark and
// dropped when the runner moves on, bounding memory.
type Runner struct {
	benches map[string]kernels.Benchmark
	order   []string

	results map[SimKey]*SimResult

	traceBench string
	traces     map[kernels.Variant]*tracePair

	// Progress, if non-nil, is called before each new simulation.
	Progress func(key SimKey)

	// DRAMSpec is the main-memory backend every Sim call uses unless a
	// caller overrides it with SimDRAM: "" or "fixed" (the flat
	// 100-cycle backend), or "sdram/<mapping>/<scheduler>".
	DRAMSpec string

	// Engine selects the simulation engine for every run: the per-cycle
	// oracle (the zero value) or the event-wheel engine. Results are
	// bit-identical either way; only HostNs changes.
	Engine engine.Mode

	// Workers caps the goroutines the sweep prewarmers fan cells across;
	// 0 or 1 keeps every sweep serial.
	Workers int

	tenantResults map[string]*TenantResult
}

type tracePair struct {
	tr *trace.Trace
	st *trace.Stats
}

// NewRunner builds a runner over the default benchmark suite.
func NewRunner() *Runner {
	r := &Runner{
		benches: map[string]kernels.Benchmark{},
		results: map[SimKey]*SimResult{},
	}
	for _, bm := range kernels.All() {
		r.benches[bm.Name] = bm
		r.order = append(r.order, bm.Name)
	}
	return r
}

// NewRunnerWith builds a runner over a custom suite (tests use scaled-down
// benchmarks).
func NewRunnerWith(bms []kernels.Benchmark) *Runner {
	r := &Runner{
		benches: map[string]kernels.Benchmark{},
		results: map[SimKey]*SimResult{},
	}
	for _, bm := range bms {
		r.benches[bm.Name] = bm
		r.order = append(r.order, bm.Name)
	}
	return r
}

// Benchmarks lists the suite in presentation order.
func (r *Runner) Benchmarks() []string { return r.order }

func (r *Runner) traceFor(bench string, v kernels.Variant) *tracePair {
	if r.traceBench != bench {
		r.traces = map[kernels.Variant]*tracePair{}
		r.traceBench = bench
	}
	if tp, ok := r.traces[v]; ok {
		return tp
	}
	bm, ok := r.benches[bench]
	if !ok {
		// Workloads outside the paper's five-benchmark presentation
		// order (the MSHR sweep's motionsearch stream) resolve from the
		// extended registry on demand without joining Benchmarks().
		if bm, ok = kernels.ByName(bench); !ok {
			panic(fmt.Sprintf("experiments: unknown benchmark %q", bench))
		}
		r.benches[bench] = bm
	}
	tr := &trace.Trace{}
	st := trace.NewStats()
	bm.Run(v, trace.Multi{tr, st})
	tp := &tracePair{tr: tr, st: st}
	r.traces[v] = tp
	return tp
}

// coreConfigFor maps an ISA variant to its processor configuration.
func coreConfigFor(v kernels.Variant) core.Config {
	if v == kernels.MMX {
		return core.MMXCore()
	}
	return core.MOMCore()
}

// Sim runs (or recalls) one simulation over the runner's default DRAM
// backend.
func (r *Runner) Sim(bench string, v kernels.Variant, mem core.MemKind, l2lat int64) *SimResult {
	return r.SimDRAM(bench, v, mem, l2lat, r.DRAMSpec)
}

// flatMemLatency is the seed's main-memory latency beyond L2: the
// latency of the "fixed" spec, and of the dram.Fixed backend
// core.NewMemSystem builds for the "" spec.
const flatMemLatency = 100

// buildBackend constructs a fresh backend from a spec string; each
// simulation needs its own because backends are stateful. The returned
// knobs carry the vmem-level mshr<n> setting the backend itself does
// not consume.
func buildBackend(spec string) (dram.Backend, dram.Knobs, error) {
	if spec == "" {
		return nil, dram.Knobs{}, nil
	}
	return dram.ParseSpecFull(spec, flatMemLatency)
}

// SimDRAM runs (or recalls) one simulation over an explicit DRAM
// backend spec.
func (r *Runner) SimDRAM(bench string, v kernels.Variant, mem core.MemKind, l2lat int64, spec string) *SimResult {
	key := SimKey{Bench: bench, Variant: v, Mem: mem, L2Lat: l2lat, DRAM: spec}
	if res, ok := r.results[key]; ok {
		return res
	}
	if r.Progress != nil {
		r.Progress(key)
	}
	backend, knobs, err := buildBackend(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	tp := r.traceFor(bench, v)
	cfg := coreConfigFor(v)
	tim := vmem.Timing{L2Latency: l2lat, MemLatency: flatMemLatency, Backend: backend,
		MSHRs: knobs.MSHRs, PFStreams: knobs.PFStreams, PFDegree: knobs.PFDegree}
	if knobs.VA != "" {
		vmsys, err := core.NewVM(knobs.VA, 1, backend)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		tim.VA = vmsys.Space(0)
	}
	// In the MMX configuration the "multi-banked" realistic memory banks
	// the L1 data cache ports (there is no vector subsystem to bank).
	bankL1 := v == kernels.MMX && mem != core.MemIdeal
	ms := core.NewMemSystem(mem, tim, cfg.Lanes, bankL1)
	start := time.Now()
	st := core.SimulateMode(cfg, ms, tp.tr.Insts, r.Engine)
	hostNs := time.Since(start).Nanoseconds()
	res := &SimResult{
		Key:      key,
		Core:     st,
		VM:       *ms.VM.Stats(),
		ScalarL2: ms.ScalarL2Accesses,
		Activity: ms.L2Activity(),
		Trace:    tp.st,
	}
	// Drain any posted writes so the copied statistics account for all
	// traffic the run generated.
	if sd, ok := ms.DRAM().(*dram.SDRAM); ok {
		sd.Flush()
	}
	res.DRAM = *ms.DRAM().Stats()
	res.MSHR = *ms.MSHR().Stats()
	res.PF = ms.PrefetchStats()
	reg := stats.NewRegistry()
	st.Register(reg)
	ms.Register(reg)
	res.Snap = reg.Snapshot()
	res.HostNs = hostNs
	r.results[key] = res
	return res
}

// HostPerf sums the simulation wall clock and simulated cycles across
// every memoized run — single-requestor and multi-tenant — for the
// front end's host-performance summary line. Multi-tenant runs count
// the slowest tenant's cycles: the group runs in lockstep, so that is
// the simulated time the host paid for.
func (r *Runner) HostPerf() (ns, cycles int64) {
	for _, res := range r.results {
		ns += res.HostNs
		cycles += res.Core.Cycles
	}
	for _, res := range r.tenantResults {
		ns += res.HostNs
		var maxCyc int64
		for _, c := range res.Cycles {
			maxCyc = max(maxCyc, c)
		}
		cycles += maxCyc
	}
	return ns, cycles
}

// Convenience configuration accessors used by the figures.

const baseLat = 20

// Shorthand aliases used by the figure builders.
var (
	momVariant   = kernels.MOM
	mom3DVariant = kernels.MOM3D
	momVCKind    = core.MemVectorCache
	mom3DVCKind  = core.MemVectorCache3D
)

// MOMIdeal is the normalization baseline of Figs 3 and 9.
func (r *Runner) MOMIdeal(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM, core.MemIdeal, baseLat)
}

// MOMMultiBanked is the MOM processor over the 4-port, 8-bank cache.
func (r *Runner) MOMMultiBanked(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM, core.MemMultiBanked, baseLat)
}

// MOMVectorCache is the MOM processor over the vector cache.
func (r *Runner) MOMVectorCache(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM, core.MemVectorCache, baseLat)
}

// MOM3DVectorCache is the 3D-extended processor over the vector cache
// with the 3D register file datapath.
func (r *Runner) MOM3DVectorCache(bench string) *SimResult {
	return r.Sim(bench, kernels.MOM3D, core.MemVectorCache3D, baseLat)
}

// MMXIdeal is the MMX-like processor with idealistic memory.
func (r *Runner) MMXIdeal(bench string) *SimResult {
	return r.Sim(bench, kernels.MMX, core.MemIdeal, baseLat)
}

// MMXMultiBanked is the MMX-like processor with banked L1 ports.
func (r *Runner) MMXMultiBanked(bench string) *SimResult {
	return r.Sim(bench, kernels.MMX, core.MemMultiBanked, baseLat)
}
