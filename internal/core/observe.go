package core

// This file is the observability seam between the simulator's
// stat-bearing subsystems and internal/stats: one call registers every
// Stats struct a configured memory system owns, and one call fans an
// event tracer out to every subsystem with trace hooks. The registry
// prefixes form the stable naming scheme every exporter shares:
//
//	core.*          pipeline counters (cycles, committed, stalls)
//	cache.l1.*      L1 cache counters
//	cache.l2.*      L2 cache counters
//	vmem.*          vector memory subsystem counters
//	vmem.mshr.*     MSHR file counters + the miss-to-fill histogram
//	vmem.prefetch.* stream prefetcher counters
//	dram.*          main-memory counters + read wait/service histograms
//	vm.tlb.*        TLB counters (l1_* private, l2_* shared) + paging
//	vm.walk.*       page-table walk counters + walk-latency histogram
//
// TestRegistryCoversAllStats (internal/stats) reflects over the Stats
// types and fails if a field ever goes unregistered, so the scheme
// cannot silently drift.

import (
	"repro/internal/dram"
	"repro/internal/stats"
)

// Register wires the core pipeline counters into reg under "core".
func (s *Stats) Register(reg *stats.Registry) {
	reg.AddStruct("core", s)
}

// Register wires every stat struct the memory system owns into reg
// under the package naming scheme. Subsystems the configuration does
// not instantiate (no caches under MemIdeal, no prefetcher, no address
// translation) simply contribute no names.
func (m *MemSystem) Register(reg *stats.Registry) {
	if m.L1 != nil {
		reg.AddStruct("cache.l1", &m.L1.Stats)
	}
	if m.L2 != nil {
		reg.AddStruct("cache.l2", &m.L2.Stats)
	}
	reg.AddStruct("vmem", m.VM.Stats())
	reg.Counter("vmem.scalar_l2_accesses", func() uint64 { return m.ScalarL2Accesses })
	reg.AddStruct("vmem.mshr", m.MSHR().Stats())
	if pf := m.Prefetcher(); pf != nil {
		reg.AddStruct("vmem.prefetch", pf.Stats())
		// Useless is derived from the L2's eviction accounting at read
		// time; sync it into the live struct on every snapshot.
		reg.OnSnapshot(func() { m.PrefetchStats() })
	}
	reg.AddStruct("dram", m.DRAM().Stats())
	if sp := m.Tim.VA; sp != nil {
		// Single-requestor view: the shared L2 TLB/walk counters and
		// this space's private L1/fault counters share the vm.tlb
		// prefix (the field names split l1_* from l2_*). Multi-tenant
		// registration lives in internal/tenant, which prefixes each
		// space with its tenant name.
		sp.VM().RegisterShared(reg)
		sp.Register(reg, "vm.tlb")
	}
}

// AttachTracer fans one event tracer out to every subsystem with trace
// hooks (the DRAM backend and the MSHR file). A nil tracer detaches —
// the zero-cost default.
func (m *MemSystem) AttachTracer(tr *stats.Tracer) {
	if b, ok := m.DRAM().(dram.Traceable); ok {
		b.SetTracer(tr)
	}
	m.MSHR().SetTracer(tr)
	if sp := m.Tim.VA; sp != nil {
		sp.VM().SetTracer(tr)
	}
}
