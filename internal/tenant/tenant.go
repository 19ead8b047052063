// Package tenant is the multi-requestor front end: it runs M
// independent kernel traces (or M instances of one kernel) through a
// SHARED memory system — one L2, one MSHR file, one prefetcher, one
// DRAM backend — by stepping M core simulators in per-cycle lockstep.
// Each tenant keeps its own L1 and vector subsystem (one core per
// requestor), and every miss a tenant files is requestor-tagged on the
// opaque dram.Request ID path, so the backend can shard statistics and
// apply per-tenant QoS scheduling without any interface widening.
//
// A 1-tenant group is the single-requestor simulator exactly: tenant 0
// is built by core.NewMemSystem, its trace is never rebased, its tag
// is the identity, and Run performs the same step/finish/drain
// sequence core.Simulate does — the golden-stats equivalence asserted
// in this package's tests.
package tenant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// RebaseShift positions each tenant's address space: tenant i's trace
// is offset by i << RebaseShift, far above any kernel footprint
// (~6 MB max), so independent traces — which all allocate from the
// same base address — never alias in the shared L2 while still
// contending for the same channels, banks and rows.
const RebaseShift = 32

// Options configures a multi-requestor run. One trace per tenant;
// running M instances of one kernel means passing the same trace M
// times (the group copies and rebases, so sharing a slice is fine).
type Options struct {
	Core   core.Config
	Kind   core.MemKind
	Tim    vmem.Timing // shared backend/MSHR sizing; Tenant is overwritten per tenant
	Lanes  int
	BankL1 bool
	Traces [][]isa.Inst
	Engine engine.Mode // simulation engine; Wheel skips rounds no tenant can act in

	// VM, when non-nil, gives tenant i the real virtual address space
	// VM.Space(i) over one shared physical pool instead of the
	// tenant<<32 window rebasing: traces run at their native virtual
	// addresses, isolation comes from per-tenant page tables, and the
	// buddy allocator's placement policy decides how the tenants'
	// pages interleave across DRAM channels and rows.
	VM *vm.VM
}

// Group is M core simulators in lockstep over one shared memory system.
type Group struct {
	mems  []*core.MemSystem
	sims  []*core.Sim
	stats []*core.Stats
	wheel bool
	done  bool
}

// New builds the group: shared memory system, per-tenant rebased trace
// copies, one steppable simulator per tenant.
func New(o Options) *Group {
	n := len(o.Traces)
	if n < 1 {
		panic("tenant: need at least one trace")
	}
	g := &Group{
		mems:  core.NewTenantMemSystems(o.Kind, o.Tim, o.Lanes, o.BankL1, n, o.VM),
		sims:  make([]*core.Sim, n),
		stats: make([]*core.Stats, n),
	}
	if ta, ok := g.mems[0].DRAM().(dram.TenantAware); ok && n > 1 {
		ta.EnableTenantStats(n)
	}
	for i := range o.Traces {
		tr := o.Traces[i]
		if o.VM == nil {
			// Without address translation, disjoint tenant<<32 windows
			// fake the isolation real page tables provide.
			tr = rebase(tr, i)
		}
		g.sims[i] = core.NewSim(o.Core, g.mems[i], tr)
	}
	if o.Engine == engine.Wheel {
		g.wheel = true
		for _, s := range g.sims {
			s.SetEngine(engine.Wheel)
		}
	}
	return g
}

// rebase returns tenant's private copy of the trace with every memory
// address offset into its own address window. Tenant 0 keeps the
// original slice untouched — the bit-identity anchor.
func rebase(insts []isa.Inst, tenant int) []isa.Inst {
	if tenant == 0 {
		return insts
	}
	base := uint64(tenant) << RebaseShift
	out := make([]isa.Inst, len(insts))
	copy(out, insts)
	for i := range out {
		if out[i].Kind.IsMem() {
			out[i].Addr += base
		}
	}
	return out
}

// Run steps every tenant one cycle per round, in tenant order, until
// all traces retire, then settles each tenant's cycle count and drains
// the shared memory system once. Lockstep keeps the interleaving
// deterministic: within a cycle, tenant i's accesses always reach the
// shared structures before tenant i+1's.
func (g *Group) Run() {
	if g.done {
		return
	}
	for {
		any := false
		for _, s := range g.sims {
			if s.Running() {
				s.Step()
				any = true
			}
		}
		if !any {
			break
		}
		if g.wheel {
			g.skipRound()
		}
	}
	for i, s := range g.sims {
		g.stats[i] = s.Finish()
	}
	g.mems[0].Drain()
	g.done = true
}

// skipRound advances the whole group past cycles no tenant can act in:
// the lockstep barrier becomes an event — the group jumps to the
// EARLIEST wake-up any running tenant reports, and every running clock
// jumps together, so the within-cycle tenant ordering (and with it the
// shared-structure interleaving) is untouched. Each tenant's wake-up
// is sound against the shared memory system because contention only
// pushes completion bounds later, never earlier, and a skipped
// tenant's lazy-poll cycles are exactly the ones its own bound proves
// unobservable.
func (g *Group) skipRound() {
	t := int64(-1)
	for _, s := range g.sims {
		if !s.Running() {
			continue
		}
		w := s.NextWake()
		if t < 0 || w < t {
			t = w
		}
	}
	if t < 0 {
		return
	}
	for _, s := range g.sims {
		if s.Running() {
			s.SkipTo(t)
		}
	}
}

// N is the tenant count.
func (g *Group) N() int { return len(g.sims) }

// Mem returns tenant i's view of the memory system. Index 0's view
// owns the shared structures (L2, MSHR file, backend).
func (g *Group) Mem(i int) *core.MemSystem { return g.mems[i] }

// Stats returns tenant i's core statistics (nil before Run).
func (g *Group) Stats(i int) *core.Stats { return g.stats[i] }

// TenantStatsOf returns tenant i's backend stat shard, or nil when the
// backend cannot shard or the group has a single tenant.
func (g *Group) TenantStatsOf(i int) *dram.TenantStats {
	ta, ok := g.mems[0].DRAM().(dram.TenantAware)
	if !ok || g.N() < 2 {
		return nil
	}
	return ta.TenantStatsOf(i)
}

// AttachTracer wires the cycle-stamped event tracer into the shared
// memory system (backend + MSHR file + prefetcher) and into every
// tenant's core pipeline (issue→commit spans and causal flow events);
// events separate per tenant through their requestor tags.
func (g *Group) AttachTracer(tr *stats.Tracer) {
	g.mems[0].AttachTracer(tr)
	for i, s := range g.sims {
		s.SetTracer(tr, i)
	}
}

// RunSampled is Run with an interval sampler: after every lockstep
// round it samples the registry whenever the group clock has crossed
// the next interval boundary, stamping each row with the cycle the
// engine actually reached (under the wheel a round can jump far past a
// boundary; the row records the landing cycle, so both engines produce
// one row per crossed boundary). A nil sampler degenerates to Run.
func (g *Group) RunSampled(s *stats.Sampler) {
	if s == nil {
		g.Run()
		return
	}
	if g.done {
		return
	}
	next := s.Interval()
	for {
		any := false
		for _, sim := range g.sims {
			if sim.Running() {
				sim.Step()
				any = true
			}
		}
		if !any {
			break
		}
		if g.wheel {
			g.skipRound()
		}
		// The group clock is the furthest any tenant reached; finished
		// tenants' clocks freeze, running ones move in lockstep.
		now := int64(0)
		for _, sim := range g.sims {
			if t := sim.Now(); t > now {
				now = t
			}
		}
		if now >= next {
			s.Sample(now)
			for next <= now {
				next += s.Interval()
			}
		}
	}
	for i, sim := range g.sims {
		g.stats[i] = sim.Finish()
	}
	g.mems[0].Drain()
	g.done = true
}

// Register wires the whole group into a stats registry: the shared
// structures once under their classic names (cache.l2, vmem.mshr,
// vmem.prefetch, dram — so multi-tenant snapshots stay comparable to
// single-requestor ones), and each tenant's private shards under
// tenant.<i>.* (core, cache.l1, vmem, and the backend's per-tenant
// read-latency/bandwidth shard as tenant.<i>.dram).
func (g *Group) Register(reg *stats.Registry) {
	m0 := g.mems[0]
	if m0.L2 != nil {
		reg.AddStruct("cache.l2", &m0.L2.Stats)
	}
	reg.AddStruct("vmem.mshr", m0.MSHR().Stats())
	if pf := m0.Prefetcher(); pf != nil {
		reg.AddStruct("vmem.prefetch", pf.Stats())
		// Useless is derived from the L2's eviction accounting at read
		// time; sync it into the live struct on every snapshot.
		reg.OnSnapshot(func() { m0.PrefetchStats() })
	}
	reg.AddStruct("dram", m0.DRAM().Stats())
	if sp0 := m0.Tim.VA; sp0 != nil {
		sp0.VM().RegisterShared(reg) // shared L2 TLB + walk counters
	}
	for i := range g.sims {
		p := fmt.Sprintf("tenant.%d", i)
		reg.AddStruct(p+".core", g.sims[i].StatsRef())
		m := g.mems[i]
		if m.L1 != nil {
			reg.AddStruct(p+".cache.l1", &m.L1.Stats)
		}
		reg.AddStruct(p+".vmem", m.VM.Stats())
		reg.Counter(p+".vmem.scalar_l2_accesses", func() uint64 { return m.ScalarL2Accesses })
		if sp := m.Tim.VA; sp != nil {
			sp.Register(reg, p+".vm.tlb")
		}
		if ts := g.TenantStatsOf(i); ts != nil {
			reg.AddStruct(p+".dram", ts)
		}
	}
}
