package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// MemKind selects the memory system configuration of an experiment.
type MemKind int

const (
	// MemIdeal is the idealistic memory of §3.1: one cycle, unbounded
	// bandwidth, for both the scalar and vector sides.
	MemIdeal MemKind = iota
	// MemMultiBanked attaches the 4-port, 8-bank vector cache design
	// (Fig 2-a) to L2; in the MMX configuration the banking applies to
	// the L1 data cache ports instead.
	MemMultiBanked
	// MemVectorCache attaches the single-wide-port vector cache
	// (Fig 2-b).
	MemVectorCache
	// MemVectorCache3D is the vector cache plus the 3D register file
	// datapath (Fig 8-c).
	MemVectorCache3D
)

// String names the memory system as the figures do.
func (k MemKind) String() string {
	switch k {
	case MemIdeal:
		return "ideal"
	case MemMultiBanked:
		return "multi-banked"
	case MemVectorCache:
		return "vector cache"
	case MemVectorCache3D:
		return "vector cache + 3D"
	}
	return "?"
}

// MemSystem bundles the cache hierarchy, the vector memory subsystem and
// the scalar access path for one simulation.
type MemSystem struct {
	Kind MemKind
	Tim  vmem.Timing
	L1   *cache.Cache // nil when ideal
	L2   *cache.Cache // nil when ideal
	VM   vmem.System

	// ScalarL2Accesses counts L2 activity caused by L1 load misses
	// (write-through store traffic is assumed coalesced by the write
	// buffer and is not charged as activity).
	ScalarL2Accesses uint64

	l1Banks []int64 // MMX multi-banked configuration: L1 bank free cycles

	scalarBatch []dram.Request // reused one-miss batch for the scalar path
	scalarPF    []vmem.PFTouch // reused prefetched-touch list for the scalar path
}

// NewMemSystem builds a memory system. lanes is the processor's lane
// count (the vector cache port width in words); bankL1 enables L1 port
// banking (the MMX multi-banked configuration).
//
// Every L2 miss takes one route: core → MSHR file → DRAM backend. A nil
// tim.Backend becomes a dram.Fixed of tim.MemLatency cycles, and the
// MSHR file has max(tim.MSHRs, 1) entries, so MSHRs 0 and 1 are the
// same blocking machine. Both exist for every kind, MemIdeal included,
// so DRAM and MSHR never return nil.
func NewMemSystem(kind MemKind, tim vmem.Timing, lanes int, bankL1 bool) *MemSystem {
	if tim.Backend == nil {
		tim.Backend = dram.NewFixed(tim.MemLatency)
	}
	// One MSHR file serves the vector subsystem and the scalar miss
	// path: both sit behind the same L2, so their misses share the same
	// outstanding-line budget and the same Submit batches.
	tim.MSHR = vmem.NewMSHRFile(tim, max(tim.MSHRs, 1))
	m := &MemSystem{Kind: kind, Tim: tim}
	if kind == MemIdeal {
		// The ideal memory bypasses the cache hierarchy the translation
		// layer models; the CLIs reject -va with ideal memory, and the
		// guard keeps a stray space from charging stalls here.
		m.Tim.VA = nil
		m.VM = vmem.NewIdeal()
		return m
	}
	m.L1 = cache.New(cache.L1Config())
	m.L2 = cache.New(cache.L2Config(tim.L2Latency))
	// Every L2 miss becomes one backend request per L2 line, so the
	// backend must agree on the transfer granularity.
	if tim.Backend.LineBytes() != m.L2.Config().LineSize {
		panic(fmt.Sprintf("dram line bytes %d != L2 line size %d",
			tim.Backend.LineBytes(), m.L2.Config().LineSize))
	}
	if tim.PFStreams > 0 {
		// AttachPrefetcher rejects a blocking file: the prefetcher
		// rides the lazy batch, which the CLIs already require.
		pf := vmem.NewPrefetcher(vmem.PrefetchConfig{Streams: tim.PFStreams, Degree: tim.PFDegree},
			m.L2.Config().LineSize)
		m.Tim.MSHR.AttachPrefetcher(pf, m.L2)
	}
	switch kind {
	case MemMultiBanked:
		m.VM = vmem.NewMultiBanked(m.L2, m.L1, m.Tim, 4, 8)
	case MemVectorCache:
		m.VM = vmem.NewVectorCache(m.L2, m.L1, m.Tim, lanes, false)
	case MemVectorCache3D:
		m.VM = vmem.NewVectorCache(m.L2, m.L1, m.Tim, lanes, true)
	}
	if bankL1 {
		m.l1Banks = make([]int64, 8)
	}
	return m
}

// NewTenantMemSystems builds n front-end views of ONE shared memory
// system: a single L2, MSHR file, prefetcher and DRAM backend serve
// every tenant, while each tenant keeps its own L1, vector subsystem
// and scalar path (mirroring one core per requestor). Tenant i's
// Timing carries Tenant=i, so every miss it files is requestor-tagged
// on the opaque ID path all the way into the backend. Tenant 0's view
// is constructed by NewMemSystem itself, so a 1-tenant system is the
// single-requestor system, bit for bit.
//
// vmsys, when non-nil, gives tenant i the virtual address space
// vmsys.Space(i): real per-tenant address spaces over one shared
// physical pool, replacing the tenant<<32 window rebasing.
func NewTenantMemSystems(kind MemKind, tim vmem.Timing, lanes int, bankL1 bool, n int, vmsys *vm.VM) []*MemSystem {
	if n < 1 {
		panic("core: tenant count must be at least 1")
	}
	if vmsys != nil {
		if vmsys.N() < n {
			panic(fmt.Sprintf("core: %d tenants over a %d-space VM", n, vmsys.N()))
		}
		tim.VA = vmsys.Space(0)
	}
	mems := make([]*MemSystem, n)
	mems[0] = NewMemSystem(kind, tim, lanes, bankL1)
	for i := 1; i < n; i++ {
		m := &MemSystem{Kind: kind, Tim: mems[0].Tim}
		m.Tim.Tenant = i
		if vmsys != nil {
			m.Tim.VA = vmsys.Space(i)
		}
		if kind == MemIdeal {
			m.Tim.VA = nil
			m.VM = vmem.NewIdeal()
			mems[i] = m
			continue
		}
		m.L1 = cache.New(cache.L1Config())
		m.L2 = mems[0].L2 // shared: all tenants contend for the same lines
		switch kind {
		case MemMultiBanked:
			m.VM = vmem.NewMultiBanked(m.L2, m.L1, m.Tim, 4, 8)
		case MemVectorCache:
			m.VM = vmem.NewVectorCache(m.L2, m.L1, m.Tim, lanes, false)
		case MemVectorCache3D:
			m.VM = vmem.NewVectorCache(m.L2, m.L1, m.Tim, lanes, true)
		}
		if bankL1 {
			m.l1Banks = make([]int64, 8)
		}
		mems[i] = m
	}
	return mems
}

// NewVM builds the address-translation layer for n requestors: the
// default 4-level/4 KiB configuration under the named placement policy
// ("first", "color" or "colo"), colored by the backend's channel
// decode when it exposes one (the SDRAM controller does; the flat
// backend degrades coloring to first-fit).
func NewVM(policy string, n int, backend dram.Backend) (*vm.VM, error) {
	pol, err := vm.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	cfg := vm.DefaultConfig()
	cfg.Policy = pol
	var cm vm.ChannelMapper
	if sd, ok := backend.(vm.ChannelMapper); ok {
		cm = sd
	}
	return vm.New(cfg, n, cm), nil
}

// ScalarAccess schedules one scalar or μSIMD memory access issued at
// cycle t. The int64 is the cycle the access clears the L1/L2 pipeline
// (final for hits and stores); the Pending handle, when non-nil,
// tracks a main-memory line fill still outstanding in the MSHR file.
func (m *MemSystem) ScalarAccess(in *isa.Inst, t int64) (int64, *vmem.Pending) {
	if m.Kind == MemIdeal {
		return t + 1, nil
	}
	// The whole scalar access (at most 8 bytes on this path) translates
	// by its first byte; the issue stage already charged any TLB stall.
	addr := m.Tim.Xl(in.Addr)
	if m.l1Banks != nil {
		bank := (addr >> 3) % uint64(len(m.l1Banks))
		if m.l1Banks[bank] > t {
			t = m.l1Banks[bank]
		}
		m.l1Banks[bank] = t + 1
	}
	if in.IsStore {
		// Write-through, no-allocate; the write buffer hides latency.
		m.L1.Access(addr, true, false)
		return t + 1, nil
	}
	if m.L1.Access(addr, false, false).Hit {
		return t + m.L1.Config().Latency, nil
	}
	m.ScalarL2Accesses++
	done := t + m.L1.Config().Latency + m.Tim.L2Latency
	res := m.L2.Access(addr, false, true)
	if res.Hit {
		if res.Prefetched {
			// The line was prefetched: the load may still be waiting on
			// the in-flight fill, and the touch trains the stream table.
			m.scalarPF = append(m.scalarPF[:0],
				vmem.PFTouch{Line: m.L2.LineAddr(addr), At: done})
			return m.Tim.Complete(nil, m.scalarPF, done)
		}
		return done, nil
	}
	// A scalar miss is a one-request batch; a dirty victim evicted
	// by the fill rides along as a posted write-back that never
	// gates the load.
	m.scalarBatch = m.scalarBatch[:0]
	m.scalarBatch = append(m.scalarBatch, dram.Request{Addr: addr, At: done})
	if res.Writeback {
		m.scalarBatch = append(m.scalarBatch, dram.Request{Addr: res.VictimAddr, Write: true, At: done})
	}
	return m.Tim.Complete(m.scalarBatch, m.scalarPF[:0], done)
}

// L2Activity returns total L2 accesses: vector subsystem activity plus
// scalar-side misses (the Table 4 metric).
func (m *MemSystem) L2Activity() uint64 {
	return m.VM.Stats().Accesses + m.ScalarL2Accesses
}

// DRAM returns the main-memory backend shared by the vector and scalar
// paths.
func (m *MemSystem) DRAM() dram.Backend {
	return m.Tim.Backend
}

// MSHR returns the miss-status holding register file.
func (m *MemSystem) MSHR() *vmem.MSHRFile {
	return m.Tim.MSHR
}

// Prefetcher returns the stream prefetcher attached to the MSHR file,
// or nil when prefetching is off.
func (m *MemSystem) Prefetcher() *vmem.Prefetcher {
	return m.Tim.MSHR.Prefetcher()
}

// PrefetchStats returns the prefetcher's counters (with the useless-
// eviction count folded in), or the zero value when prefetching is off.
func (m *MemSystem) PrefetchStats() vmem.PrefetchStats {
	return m.Tim.MSHR.PrefetchStats()
}

// Drain submits any misses and write-backs still sitting in the MSHR
// file's pending batch, so end-of-run statistics (and the dram write
// queue) account for all traffic the run generated.
func (m *MemSystem) Drain() {
	m.Tim.MSHR.Drain()
}
