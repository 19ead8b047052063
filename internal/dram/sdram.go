package dram

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/dram/policy"
	"repro/internal/stats"
)

// Mapping selects how a physical address is decomposed into channel,
// bank and row bits (column bits are the line index within a row).
type Mapping int

const (
	// MapLine interleaves consecutive L2 lines across channels and
	// banks (channel and bank bits just above the line offset):
	// streams spread over every bank, each bank walking one row.
	MapLine Mapping = iota
	// MapBank keeps a whole row's worth of consecutive lines in one
	// bank before rotating to the next channel and bank: maximal
	// row-buffer locality while successive rows still spread out.
	MapBank
	// MapRow fills every row of a bank before touching the next bank
	// (channel and bank bits above the bounded row field): a stream
	// smaller than a bank sees one bank at a time.
	MapRow
)

// String names the mapping as the -dmap flag spells it.
func (m Mapping) String() string {
	switch m {
	case MapLine:
		return "line"
	case MapBank:
		return "bank"
	case MapRow:
		return "row"
	}
	return "?"
}

// ParseMapping resolves a -dmap flag value.
func ParseMapping(s string) (Mapping, error) {
	switch strings.ToLower(s) {
	case "line":
		return MapLine, nil
	case "bank":
		return MapBank, nil
	case "row":
		return MapRow, nil
	}
	return 0, fmt.Errorf("unknown address mapping %q (line, bank, row)", s)
}

// Scheduler selects the controller's request-scheduling policy.
type Scheduler int

const (
	// FCFS issues commands strictly in arrival order: a request's row
	// management waits for the previous request on its channel, and the
	// visible batch is never reordered.
	FCFS Scheduler = iota
	// FRFCFS lets row management start as soon as the target bank is
	// free, overlapping precharge/activate with other banks' bursts,
	// and reorders the visible window: a row hit within the first
	// ReorderWindow pending requests of a channel is serviced ahead of
	// older conflicts.
	FRFCFS
)

// String names the scheduler as the -dsched flag spells it.
func (s Scheduler) String() string {
	switch s {
	case FCFS:
		return "fcfs"
	case FRFCFS:
		return "frfcfs"
	}
	return "?"
}

// ParseScheduler resolves a -dsched flag value.
func ParseScheduler(s string) (Scheduler, error) {
	switch strings.ToLower(s) {
	case "fcfs":
		return FCFS, nil
	case "frfcfs", "fr-fcfs":
		return FRFCFS, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (fcfs, frfcfs)", s)
}

// Config describes one SDRAM part and its controller. All counts must
// be powers of two (the controller knobs — queue depths and the reorder
// window — may be any positive value) and all latencies are in CPU
// cycles.
type Config struct {
	Channels    int // independent channels, each with its own controller shard
	Ranks       int // ranks per channel
	Banks       int // banks per rank
	RowBytes    int // row-buffer size per bank
	RowsPerBank int // rows per bank (bounds the row field of MapRow)
	LineBytes   int // bytes per request (the L2 line size)

	TRCD   int64 // activate → column command
	TCAS   int64 // column command → first data
	TRP    int64 // precharge
	TBurst int64 // data-bus cycles per line transfer
	TTurn  int64 // bus turnaround penalty when switching read↔write
	TREFI  int64 // refresh interval per channel (0 disables refresh)
	TRFC   int64 // refresh duration (all banks of the channel stall)

	QueueDepth    int // in-flight reads per channel before back-pressure
	ReorderWindow int // FR-FCFS visible window (1 = arrival order only)
	WQDepth       int // write-queue sizing; drain-at-threshold keeps occupancy below it
	WQDrain       int // occupancy that triggers a write drain (≤ WQDepth)

	// WQLow is the low watermark a threshold drain stops at: crossing
	// WQDrain retires writes oldest-first until WQLow remain, instead
	// of emptying the queue (0 keeps the full drain). WQIdle, when
	// positive, enables opportunistic drains: a read arriving after the
	// data bus has been idle for at least WQIdle cycles first retires
	// any queued writes that finish (burst plus turnaround) before the
	// read's arrival, so free bus time absorbs write traffic without
	// ever delaying a read. Both default to off, preserving the
	// drain-everything-at-threshold behaviour.
	WQLow  int
	WQIdle int64

	// PFQCap bounds how many prefetch-tagged reads may occupy one
	// channel's read queue at once: a prefetch arriving at the cap is
	// deferred until the earliest in-flight prefetch on its channel
	// completes, so speculative traffic can never crowd demand reads
	// out of more than its share of the queue. 0 defaults to half the
	// queue depth; QueueDepth or more effectively disables the cap.
	PFQCap int

	// Tenants is the number of requestor tags sharing the part (0 or 1
	// = single requestor; see TagTenant). QoS turns on per-tenant
	// credit scheduling in each channel: a tenant's reads are capped at
	// its share of the read queue (QueueDepth/Tenants, at least 1) and
	// the FR-FCFS pick services the least-loaded tenant first, so one
	// streaming tenant cannot starve the rest. QoS requires Tenants ≥ 2.
	Tenants int
	QoS     bool

	Mapping   Mapping
	Scheduler Scheduler

	// RowPolicy selects the per-bank row-buffer management policy
	// (internal/dram/policy): static open (the zero value, the
	// historical behaviour), static close, idle-timer close, or the
	// 2-bit history live/dead predictor.
	RowPolicy policy.Spec
}

// DefaultConfig is the commodity-DDR preset: a two-channel, two-rank,
// four-bank part whose row-miss service time is comparable to the
// seed's flat 100-cycle DRAM, so row hits run faster than the seed and
// row conflicts slower. The write-drain watermark and idle-bus gap
// ship tuned (WQLow 4, WQIdle 30): on write-heavy motionsearch
// reconstruction they shave ~1.4k cycles (ddr) and ~1.9k cycles with
// all write-induced read stall (hbm) — see the study in
// EXPERIMENTS.md; a zero-valued Config still runs both off.
func DefaultConfig() Config {
	return Config{
		Channels: 2, Ranks: 2, Banks: 4,
		RowBytes: 8 << 10, RowsPerBank: 1 << 15, LineBytes: cache.L2LineBytes,
		TRCD: 30, TCAS: 40, TRP: 30, TBurst: 8, TTurn: 4,
		TREFI: 7800, TRFC: 120,
		QueueDepth: 16, ReorderWindow: 8, WQDepth: 16, WQDrain: 12,
		WQLow: 4, WQIdle: 30,
		Mapping: MapLine, Scheduler: FRFCFS,
	}
}

type bank struct {
	freeAt  int64
	openRow int64
	open    bool

	// closeAt is the pending idle-timer precharge deadline the row
	// policy set after the last access (0 = none). The close is
	// materialized lazily: the next access to the bank (or the pick
	// loop's rowOpenAt consultation) observes whether the deadline
	// passed first.
	closeAt int64
	// lastRow and used feed the policy's training oracle: would the
	// next access have hit the row the bank last used?
	lastRow int64
	used    bool
	// early marks a row the policy precharged before its natural close;
	// the next access checks it to count wasted closes (RowReopened).
	early bool
}

// channel is one controller shard: banks, data bus, command
// serialization point, refresh engine, bounded read queue and posted
// write queue, all independent of every other channel so batches fan
// out and bandwidth scales with channel count.
type channel struct {
	banks       []bank
	busFree     int64     // data bus: one burst at a time
	busWrite    bool      // last burst was a write (turnaround tracking)
	cmdFree     int64     // FCFS: command issue serialization point
	nextRefresh int64     // next refresh epoch boundary
	inflight    []int64   // completion times of queued reads
	pfInflight  []int64   // completion times of queued prefetch reads (PFQCap)
	demandFirst bool      // speculative pressure seen: pick demands first
	tenInflight [][]int64 // QoS: completion times of queued reads per tenant
	writeQ      []Request // posted writes awaiting a threshold drain
}

// decoded caches the address decomposition of one batch request.
type decoded struct {
	ch  int
	bk  int
	row int64
}

// SDRAM is the banked controller model.
type SDRAM struct {
	cfg   Config
	chans []channel
	rp    policy.RowPolicy
	st    Stats
	tst   []TenantStats // per-requestor shards (nil = off)

	lineShift, colBits, rowBits, chanBits, bankBits uint

	// Event tracing (nil = off). service runs deep under the
	// schedulers without request identity in scope, so the callers
	// stash the active request's address and ID here — only when a
	// tracer is attached.
	tr           *stats.Tracer
	trAddr, trID uint64

	// Per-Submit scratch, reused across calls.
	comps   []Completion
	dec     []decoded
	perChan [][]int // pending read batch indices per channel
	wOrder  []int   // write batch indices
}

// NewSDRAM builds a controller from its configuration, panicking on an
// invalid geometry (mirroring cache.New).
func NewSDRAM(cfg Config) *SDRAM {
	for _, g := range []struct {
		name string
		n    int
	}{
		{"channels", cfg.Channels}, {"ranks", cfg.Ranks}, {"banks", cfg.Banks},
		{"row bytes", cfg.RowBytes}, {"rows per bank", cfg.RowsPerBank},
		{"line bytes", cfg.LineBytes},
	} {
		if g.n <= 0 || g.n&(g.n-1) != 0 {
			panic(fmt.Sprintf("dram: %s %d not a power of two", g.name, g.n))
		}
	}
	if cfg.RowBytes < cfg.LineBytes {
		panic("dram: row smaller than a line")
	}
	if cfg.QueueDepth <= 0 {
		panic("dram: queue depth must be positive")
	}
	// Zero-valued controller knobs take defaults so configurations
	// written before a knob existed keep their old behaviour.
	if cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = 1 // arrival order only
	}
	if cfg.WQDepth == 0 {
		cfg.WQDepth = cfg.QueueDepth
	}
	if cfg.WQDrain == 0 {
		cfg.WQDrain = (cfg.WQDepth*3 + 3) / 4
	}
	if cfg.ReorderWindow < 0 {
		panic("dram: reorder window must be positive")
	}
	if cfg.WQDepth < 0 || cfg.WQDrain < 0 || cfg.WQDrain > cfg.WQDepth {
		panic("dram: write queue needs 0 < drain threshold <= depth")
	}
	if cfg.WQLow != 0 && (cfg.WQLow < 0 || cfg.WQLow >= cfg.WQDrain) {
		panic("dram: write-queue low watermark needs 0 <= low < drain threshold")
	}
	if cfg.WQIdle < 0 {
		panic("dram: write-queue idle-drain gap must not be negative")
	}
	if cfg.TREFI > 0 && cfg.TRFC >= cfg.TREFI {
		panic("dram: refresh duration must be shorter than the refresh interval")
	}
	if cfg.PFQCap < 0 {
		panic("dram: prefetch queue cap must not be negative")
	}
	if cfg.PFQCap == 0 {
		cfg.PFQCap = cfg.QueueDepth / 2
		if cfg.PFQCap < 1 {
			cfg.PFQCap = 1
		}
	}
	if cfg.RowPolicy.Kind == policy.Timer && cfg.RowPolicy.Idle <= 0 {
		panic("dram: timer row policy needs a positive idle gap")
	}
	if cfg.Tenants < 0 {
		panic("dram: tenant count must not be negative")
	}
	if cfg.QoS && cfg.Tenants < 2 {
		panic("dram: qos scheduling needs at least two tenants")
	}
	s := &SDRAM{
		cfg:       cfg,
		rp:        cfg.RowPolicy.New(cfg.Channels * cfg.Ranks * cfg.Banks),
		lineShift: log2(cfg.LineBytes),
		colBits:   log2(cfg.RowBytes / cfg.LineBytes),
		rowBits:   log2(cfg.RowsPerBank),
		chanBits:  log2(cfg.Channels),
		bankBits:  log2(cfg.Ranks * cfg.Banks),
	}
	s.chans = make([]channel, cfg.Channels)
	s.perChan = make([][]int, cfg.Channels)
	s.st.initHists()
	s.Reset()
	return s
}

// globalBank is the part-wide bank index the row policy keys its
// per-bank state by.
func (s *SDRAM) globalBank(ch, bk int) int {
	return ch*s.cfg.Ranks*s.cfg.Banks + bk
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// Name implements Backend.
func (s *SDRAM) Name() string {
	return fmt.Sprintf("sdram(%s,%s,%s)", s.cfg.Mapping, s.cfg.Scheduler, s.cfg.RowPolicy)
}

// Stats implements Backend.
func (s *SDRAM) Stats() *Stats { return &s.st }

// LineBytes implements Backend.
func (s *SDRAM) LineBytes() int { return s.cfg.LineBytes }

// MinReadLatency implements Backend: even a row hit on an idle bank
// pays the column access and the data burst.
func (s *SDRAM) MinReadLatency() int64 { return s.cfg.TCAS + s.cfg.TBurst }

// WriteRoom implements Backend: a posted write to addr has room while
// its channel's write queue sits below the drain threshold — posting
// one more would not trigger a drain. Advisory only: posted writes
// arrive with the next lazily-submitted batch, so the queue may have
// drained (or filled) by then.
func (s *SDRAM) WriteRoom(addr uint64) bool {
	ch, _, _ := s.decode(addr)
	return len(s.chans[ch].writeQ)+1 < s.cfg.WQDrain
}

// Config returns the controller's configuration.
func (s *SDRAM) Config() Config { return s.cfg }

// ChannelOf exposes the channel a physical address decodes to under
// the configured mapping; ChannelCount is the part's channel count.
// Together they satisfy vm.ChannelMapper, letting the page-placement
// policies color pages by the channel bits without the vm package
// depending on this one.
func (s *SDRAM) ChannelOf(addr uint64) int {
	ch, _, _ := s.decode(addr)
	return ch
}

// ChannelCount reports the number of independent channels.
func (s *SDRAM) ChannelCount() int { return s.cfg.Channels }

// SetTracer implements Traceable.
func (s *SDRAM) SetTracer(t *stats.Tracer) { s.tr = t }

// Reset implements Backend.
func (s *SDRAM) Reset() {
	s.st.reset()
	for i := range s.tst {
		s.tst[i].reset()
	}
	s.rp.Reset()
	for c := range s.chans {
		s.chans[c] = channel{
			banks:       make([]bank, s.cfg.Ranks*s.cfg.Banks),
			nextRefresh: s.cfg.TREFI,
			inflight:    make([]int64, 0, s.cfg.QueueDepth),
			pfInflight:  make([]int64, 0, s.cfg.QueueDepth),
			writeQ:      make([]Request, 0, s.cfg.WQDepth),
		}
		if s.cfg.QoS {
			s.chans[c].tenInflight = make([][]int64, s.cfg.Tenants)
		}
	}
}

// EnableTenantStats implements TenantAware: allocate n per-requestor
// stat shards. Recording into them is pure observation — it never
// feeds back into scheduling — so enabling shards preserves timing
// bit-for-bit.
func (s *SDRAM) EnableTenantStats(n int) {
	s.tst = make([]TenantStats, n)
	for i := range s.tst {
		s.tst[i].init()
	}
}

// TenantStatsOf implements TenantAware.
func (s *SDRAM) TenantStatsOf(i int) *TenantStats { return &s.tst[i] }

// tenantShard maps a request ID to its stat shard (nil when sharding
// is off or the tag is outside the allocated range; stray tags are
// counted in Stats.TenantMisroute instead of aliasing into another
// tenant's shard, and can never panic the controller).
func (s *SDRAM) tenantShard(id uint64) *TenantStats {
	return shardFor(s.tst, id, &s.st)
}

// decode splits addr into channel, bank and row according to the
// configured mapping. The returned row index folds in every bit above
// the fields the mapping consumes, so distinct rows never alias.
func (s *SDRAM) decode(addr uint64) (ch, bk int, row int64) {
	a := addr >> s.lineShift
	take := func(bits uint) uint64 {
		v := a & ((1 << bits) - 1)
		a >>= bits
		return v
	}
	switch s.cfg.Mapping {
	case MapLine:
		ch = int(take(s.chanBits))
		bk = int(take(s.bankBits))
		take(s.colBits)
		row = int64(a)
	case MapBank:
		take(s.colBits)
		ch = int(take(s.chanBits))
		bk = int(take(s.bankBits))
		row = int64(a)
	case MapRow:
		take(s.colBits)
		row = int64(take(s.rowBits))
		ch = int(take(s.chanBits))
		bk = int(take(s.bankBits))
		// Addresses past the part's capacity wrap; fold the remainder
		// into the row index so distinct rows never alias.
		row |= int64(a) << s.rowBits
	}
	return ch, bk, row
}

// refreshUpTo performs every refresh epoch the channel owes before
// cycle t: all banks close their rows and stall for TRFC.
func (s *SDRAM) refreshUpTo(c *channel, t int64) {
	if s.cfg.TREFI <= 0 || t < c.nextRefresh {
		return
	}
	// All k owed epochs land in closed form rather than one loop pass
	// each — long-idle channels (staggered tenants, drained traces) owe
	// thousands. Stepping epoch i sets freeAt = max(freeAt, epoch_i) +
	// TRFC, so the final free time is whichever is later: every TRFC
	// stacked serially on the bank's current backlog, or the last
	// epoch's own TRFC tail (the steady state once the backlog drains —
	// TRFC <= TREFI — while back-to-back epochs, TRFC > TREFI, keep
	// stacking from the first).
	k := (t-c.nextRefresh)/s.cfg.TREFI + 1
	first := c.nextRefresh
	last := first + (k-1)*s.cfg.TREFI
	for b := range c.banks {
		bk := &c.banks[b]
		bk.open = false
		bk.freeAt = max(max(bk.freeAt, first)+k*s.cfg.TRFC, last+s.cfg.TRFC)
	}
	c.nextRefresh = last + s.cfg.TREFI
	s.st.Refreshes += uint64(k)
}

// rowLatency categorizes the access against the bank's row buffer,
// counts it, and returns the row-management latency it pays.
func (s *SDRAM) rowLatency(bk *bank, row int64) int64 {
	switch {
	case bk.open && bk.openRow == row:
		s.st.RowHits++
		return 0
	case !bk.open:
		s.st.RowMisses++
		return s.cfg.TRCD
	default:
		s.st.RowConflicts++
		return s.cfg.TRP + s.cfg.TRCD
	}
}

// burst schedules one data transfer on the channel bus starting no
// earlier than ready, paying the turnaround penalty when the bus
// switches direction, and returns the completion cycle.
func (s *SDRAM) burst(c *channel, ready int64, write bool) int64 {
	busReady := c.busFree
	if c.busWrite != write {
		busReady += s.cfg.TTurn
	}
	if !write && c.busWrite && busReady > ready {
		// The read's data sat ready while the bus finished a write
		// burst (plus the turnaround): write-induced read latency.
		s.st.WriteReadStall += uint64(busReady - ready)
	}
	dataStart := max(ready, busReady)
	done := dataStart + s.cfg.TBurst
	c.busFree = done
	c.busWrite = write
	s.st.BusyCycles += uint64(s.cfg.TBurst)
	return done
}

// service runs one request through the bank and bus of its channel:
// refresh catch-up, any pending idle-timer precharge, row management,
// column access and data burst, leaving the row buffer per the row
// policy's decision. arrival must already include any queue
// back-pressure.
func (s *SDRAM) service(ci, bi int, row, arrival int64, write bool) int64 {
	c := &s.chans[ci]
	s.refreshUpTo(c, arrival)
	bk := &c.banks[bi]
	serviceStart := func() int64 {
		start := max(arrival, bk.freeAt)
		if s.cfg.Scheduler == FCFS {
			start = max(start, c.cmdFree)
		}
		return start
	}
	// A busy bank can carry the service past refresh boundaries the
	// arrival had not reached; those refreshes still close the rows
	// before the request is served.
	catchUp := func() int64 {
		start := serviceStart()
		for s.cfg.TREFI > 0 && start >= c.nextRefresh {
			s.refreshUpTo(c, start)
			start = serviceStart()
		}
		return start
	}
	start := catchUp()
	// Materialize a pending idle-timer close: the policy's deadline
	// passed while the row sat open, so the precharge fired at closeAt
	// and occupies the bank for TRP from there — an access landing
	// inside that window waits the precharge out, one landing later
	// finds the bank idle and closed.
	if bk.open && bk.closeAt > 0 && start >= bk.closeAt {
		bk.open = false
		bk.early = true
		s.st.RowClosedEarly++
		if s.tr != nil {
			s.tr.Emit(stats.Event{Cycle: bk.closeAt, Cat: "dram", Name: "rp_close", Lane: s.globalBank(ci, bi)})
		}
		if pre := bk.closeAt + s.cfg.TRP; pre > bk.freeAt {
			bk.freeAt = pre
		}
		start = catchUp()
	}
	// Train the policy against the open-page oracle — would this access
	// have hit the row the bank last used? — and account a close the
	// very next access undoes as wasted (the row had to be reopened).
	if bk.used {
		sameRow := row == bk.lastRow
		if bk.early && sameRow {
			s.st.RowReopened++
		}
		if s.rp.Train(s.globalBank(ci, bi), sameRow) {
			s.st.PredictorFlips++
		}
	}

	colIssue := start + s.rowLatency(bk, row)
	if s.cfg.Scheduler == FCFS {
		c.cmdFree = colIssue
	}
	done := s.burst(c, colIssue+s.cfg.TCAS, write)
	if s.tr != nil {
		lane := s.globalBank(ci, bi)
		ten := TenantOf(s.trID)
		if colIssue > start {
			s.tr.Emit(stats.Event{Cycle: start, Dur: colIssue - start, Cat: "dram", Name: "activate",
				Addr: s.trAddr, ID: s.trID, Lane: lane, Tenant: ten})
		}
		s.tr.Emit(stats.Event{Cycle: colIssue, Dur: s.cfg.TCAS, Cat: "dram", Name: "column",
			Addr: s.trAddr, ID: s.trID, Lane: lane, Tenant: ten})
		s.tr.Emit(stats.Event{Cycle: done - s.cfg.TBurst, Dur: s.cfg.TBurst, Cat: "dram", Name: "burst",
			Addr: s.trAddr, ID: s.trID, Lane: lane, Tenant: ten})
	}

	bk.freeAt = done
	bk.lastRow, bk.used = row, true
	bk.closeAt, bk.early = 0, false
	switch gap := s.rp.CloseAfter(s.globalBank(ci, bi)); {
	case gap == policy.KeepOpen:
		bk.open, bk.openRow = true, row
	case gap == 0:
		// Auto-precharge rides the burst: the bank is busy TRP longer
		// and the next access activates from idle.
		bk.freeAt += s.cfg.TRP
		bk.open = false
		bk.early = true
		s.st.RowClosedEarly++
		if s.tr != nil {
			s.tr.Emit(stats.Event{Cycle: done, Cat: "dram", Name: "rp_close", Lane: s.globalBank(ci, bi)})
		}
	default:
		bk.open, bk.openRow = true, row
		bk.closeAt = done + gap
	}
	return done
}

// admitRead applies the bounded read queue: completed entries are
// dropped, occupancy is sampled, and the arrival stalls until a slot
// frees when the queue is full. Returns the (possibly delayed) arrival.
func (s *SDRAM) admitRead(c *channel, t0 int64) int64 {
	arrival := t0
	live := c.inflight[:0]
	for _, done := range c.inflight {
		if done > arrival {
			live = append(live, done)
		}
	}
	c.inflight = live
	occ := len(c.inflight) + 1 // the arriving request occupies a slot
	if occ > s.cfg.QueueDepth {
		occ = s.cfg.QueueDepth
	}
	s.st.QueueSum += uint64(occ)
	if occ > s.st.QueueMax {
		s.st.QueueMax = occ
	}
	if len(c.inflight) >= s.cfg.QueueDepth {
		oldest := 0
		for i := 1; i < len(c.inflight); i++ {
			if c.inflight[i] < c.inflight[oldest] {
				oldest = i
			}
		}
		arrival = c.inflight[oldest]
		c.inflight = append(c.inflight[:oldest], c.inflight[oldest+1:]...)
		s.st.StallCycles += uint64(arrival - t0)
	}
	return arrival
}

// pfUnderCap reports whether the channel could take one more
// speculative read at cycle t without crossing PFQCap — the same
// occupancy bound admitPrefetch enforces, consulted by the pick loop
// before it promotes a speculative row hit over a waiting demand.
func (s *SDRAM) pfUnderCap(c *channel, t int64) bool {
	n := 0
	for _, done := range c.pfInflight {
		if done > t {
			n++
		}
	}
	return n < s.cfg.PFQCap
}

// admitPrefetch applies the per-channel cap on speculative read-queue
// occupancy: a prefetch arriving while PFQCap prefetch reads are still
// in flight on its channel is deferred until the earliest of them
// completes (counted in PrefetchDeferred), so speculative traffic can
// never crowd demand reads out of more than its share of the bounded
// queue. Crossing the cap also latches the channel into demand-first
// picking for good (see scheduleReads). Demand reads pass through
// untouched.
func (s *SDRAM) admitPrefetch(c *channel, t0 int64) int64 {
	live := c.pfInflight[:0]
	for _, done := range c.pfInflight {
		if done > t0 {
			live = append(live, done)
		}
	}
	c.pfInflight = live
	if len(c.pfInflight) < s.cfg.PFQCap {
		return t0
	}
	s.st.PrefetchDeferred++
	c.demandFirst = true
	for len(c.pfInflight) >= s.cfg.PFQCap {
		earliest := 0
		for i := 1; i < len(c.pfInflight); i++ {
			if c.pfInflight[i] < c.pfInflight[earliest] {
				earliest = i
			}
		}
		if d := c.pfInflight[earliest]; d > t0 {
			t0 = d
		}
		c.pfInflight = append(c.pfInflight[:earliest], c.pfInflight[earliest+1:]...)
	}
	return t0
}

// qosCredit is the per-tenant share of a channel's read queue under
// QoS scheduling: an even split, but never below one slot.
func (s *SDRAM) qosCredit() int {
	credit := s.cfg.QueueDepth / s.cfg.Tenants
	if credit < 1 {
		credit = 1
	}
	return credit
}

// tenLive counts one tenant's reads still in flight on the channel at
// cycle t — the load figure both the credit gate and the QoS pick key
// on.
func tenLive(q []int64, t int64) int {
	n := 0
	for _, done := range q {
		if done > t {
			n++
		}
	}
	return n
}

// pruneTenant drops tenant ti's completed reads from its channel
// in-flight list as of cycle t, keeping tenLive cheap for the pick
// loop's repeated scans.
func (s *SDRAM) pruneTenant(c *channel, ti int, t int64) {
	q := c.tenInflight[ti]
	live := q[:0]
	for _, done := range q {
		if done > t {
			live = append(live, done)
		}
	}
	c.tenInflight[ti] = live
}

// serviceRead runs one read through its channel, including queue
// back-pressure (the prefetch occupancy cap for speculative reads)
// and the bank-level-parallelism sample, and returns its completion
// cycle. id is the request's opaque tag, consulted only for tenant
// routing (the per-tenant in-flight bookkeeping the QoS pick keys on).
func (s *SDRAM) serviceRead(ch int, bi int, row int64, t0 int64, prefetch bool, id uint64) int64 {
	c := &s.chans[ch]
	req := t0 // the request's own arrival, before any back-pressure
	if prefetch {
		t0 = s.admitPrefetch(c, t0)
	}
	ti := 0
	if c.tenInflight != nil {
		ti = TenantOf(id) % len(c.tenInflight)
		s.pruneTenant(c, ti, t0)
	}
	arrival := s.admitRead(c, t0)
	s.opportunisticDrain(ch, bi, arrival)
	// Bank-level parallelism: banks already busy at arrival, across the
	// whole part.
	for ci := range s.chans {
		for b := range s.chans[ci].banks {
			if s.chans[ci].banks[b].freeAt > arrival {
				s.st.BankBusySum++
			}
		}
	}
	done := s.service(ch, bi, row, arrival, false)
	c.inflight = append(c.inflight, done)
	if prefetch {
		c.pfInflight = append(c.pfInflight, done)
	}
	if c.tenInflight != nil {
		c.tenInflight[ti] = append(c.tenInflight[ti], done)
	}
	s.st.ReadWait.Observe(arrival - req)
	s.st.ReadService.Observe(done - arrival)
	if ts := s.tenantShard(id); ts != nil {
		ts.Reads++
		ts.Bytes += uint64(s.cfg.LineBytes)
		if prefetch {
			ts.PrefetchReads++
		}
		ts.ReadLatency.Observe(done - req)
	}
	if s.tr != nil {
		s.tr.Emit(stats.Event{Cycle: done, Cat: "dram", Name: "complete",
			Addr: s.trAddr, ID: s.trID, Lane: ch, Tenant: TenantOf(id)})
	}
	s.st.observe(t0, done, s.cfg.LineBytes)
	return done
}

// drainWrites retires the channel's queued writes oldest-first starting
// no earlier than cycle t, stopping when `keep` remain (0 empties the
// queue; the low-watermark policy passes cfg.WQLow so a threshold
// crossing only sheds the queue's head instead of serializing a full
// flush in front of the next reads). Reads keep priority by
// construction: a batch's reads are scheduled before its writes
// enqueue, so drains only delay later traffic through bank and bus
// occupancy.
func (s *SDRAM) drainWrites(ci int, t int64, keep int) {
	c := &s.chans[ci]
	if len(c.writeQ) <= keep {
		return
	}
	s.st.WriteDrains++
	if keep > 0 {
		s.st.PartialDrains++
	}
	n := len(c.writeQ) - keep
	for _, w := range c.writeQ[:n] {
		_, bi, row := s.decode(w.Addr)
		if s.tr != nil {
			s.trAddr, s.trID = w.Addr, w.ID
		}
		done := s.service(ci, bi, row, max(t, w.At), true)
		// The drain's bus time must stay inside the bandwidth window,
		// or drained bytes would report as transferred in zero cycles.
		if done > s.st.LastDone {
			s.st.LastDone = done
		}
	}
	c.writeQ = append(c.writeQ[:0], c.writeQ[n:]...)
}

// peekRowLatency is rowLatency without the statistics side effects,
// used to estimate a write's service time before committing to it. at
// is the cycle the estimate is for: a row whose idle-timer deadline
// passed by then counts as closed.
func (s *SDRAM) peekRowLatency(bk *bank, row, at int64) int64 {
	open := bk.open && (bk.closeAt == 0 || at < bk.closeAt)
	switch {
	case open && bk.openRow == row:
		return 0
	case !open:
		return s.cfg.TRCD
	default:
		return s.cfg.TRP + s.cfg.TRCD
	}
}

// opportunisticDrain retires queued writes on a bus that has sat idle
// for at least WQIdle cycles before a read arriving at `arrival`, but
// only writes that cannot take the read's service slot: a write to the
// read's own bank is never drained here (it would disturb the bank's
// row buffer and turn the read's row hit into a conflict), and every
// drained write's data burst plus the turnaround back to reads must be
// estimated to complete by the arrival (a refresh epoch landing
// between the estimate and the service can still nudge it; that is the
// same exposure the threshold drain accepts). Writes retire
// oldest-first and the scan stops at the first write that does not
// fit, keeping queue order intact.
func (s *SDRAM) opportunisticDrain(ci int, readBank int, arrival int64) {
	c := &s.chans[ci]
	if s.cfg.WQIdle <= 0 || len(c.writeQ) == 0 || c.busFree+s.cfg.WQIdle > arrival {
		return
	}
	kept := c.writeQ[:0]
	for i, w := range c.writeQ {
		_, bi, row := s.decode(w.Addr)
		if bi == readBank {
			kept = append(kept, c.writeQ[i:]...)
			break
		}
		bk := &c.banks[bi]
		colStart := max(w.At, bk.freeAt)
		if s.cfg.Scheduler == FCFS {
			colStart = max(colStart, c.cmdFree)
		}
		colIssue := colStart + s.peekRowLatency(bk, row, colStart)
		busReady := c.busFree
		if !c.busWrite { // switching read→write pays the turnaround
			busReady += s.cfg.TTurn
		}
		dataStart := max(colIssue+s.cfg.TCAS, busReady)
		if dataStart+s.cfg.TBurst+s.cfg.TTurn > arrival {
			kept = append(kept, c.writeQ[i:]...)
			break
		}
		if s.tr != nil {
			s.trAddr, s.trID = w.Addr, w.ID
		}
		done := s.service(ci, bi, row, w.At, true)
		if done > s.st.LastDone {
			s.st.LastDone = done
		}
		s.st.OppDrains++
	}
	c.writeQ = kept
}

// postWrite absorbs one write into the channel's write queue and
// returns its acceptance cycle. Crossing the drain threshold retires
// writes down to the low watermark (the whole queue when WQLow is 0).
func (s *SDRAM) postWrite(ci int, w Request) int64 {
	c := &s.chans[ci]
	ack := w.At + 1 // posted: the queue accepts it next cycle
	c.writeQ = append(c.writeQ, w)
	s.st.Writes++
	if ts := s.tenantShard(w.ID); ts != nil {
		ts.Writes++
		ts.Bytes += uint64(s.cfg.LineBytes)
	}
	s.st.observe(w.At, ack, s.cfg.LineBytes)
	if len(c.writeQ) >= s.cfg.WQDrain {
		s.drainWrites(ci, ack, s.cfg.WQLow)
	}
	return ack
}

// rowOpenAt reports whether the bank's row buffer still holds row when
// a request arriving at cycle at reaches it: the row must be open, no
// refresh epoch may close it first, and a pending idle-timer precharge
// must not have fired — the pick loop's consultation of the row policy
// when it decides what a bank going idle is worth.
func (s *SDRAM) rowOpenAt(c *channel, bk *bank, row, at int64) bool {
	if !bk.open || bk.openRow != row {
		return false
	}
	if s.cfg.TREFI > 0 && at >= c.nextRefresh {
		return false
	}
	return bk.closeAt == 0 || at < bk.closeAt
}

// scheduleReads services one channel's pending reads through the
// demand-aware FR-FCFS reorder window. While the channel's speculative
// occupancy sits below PFQCap, speculation is harmless and the classic
// pick runs unchanged: the oldest row hit in the first ReorderWindow
// pending requests (still a hit under the row policy's pending
// closes), demand or prefetch alike, else the oldest request. Once
// prefetch reads hold their whole PFQCap share of the queue — the same
// occupancy bound admitPrefetch enforces — the pick turns demand-first:
// a demand row hit, then the oldest demand, and a speculative read
// only when the window holds no demand at all. Prefetches a demand has
// already merged onto (Request.Demanded — the late prefetches whose
// fills gate instructions) count as demands throughout:
// deprioritizing them would push back the very completions the
// pipeline is waiting on. FCFS keeps strict arrival order. pend must
// be sorted by arrival and is consumed.
func (s *SDRAM) scheduleReads(ch int, batch []Request, pend []int) {
	c := &s.chans[ch]
	for len(pend) > 0 {
		pick := 0
		switch {
		case s.cfg.QoS && s.cfg.Scheduler == FRFCFS && s.cfg.ReorderWindow > 1:
			pick = s.qosPick(c, batch, pend)
		case s.cfg.Scheduler == FRFCFS && s.cfg.ReorderWindow > 1:
			w := len(pend)
			if w > s.cfg.ReorderWindow {
				w = s.cfg.ReorderWindow
			}
			// Speculative reads keep full FR-FCFS standing until the
			// channel's speculative stream first overruns its PFQCap
			// share (the admitPrefetch deferral latch).
			classic := !c.demandFirst
			pick = -1
			demandHit, demand, pfHit := -1, -1, -1
			for i := 0; i < w; i++ {
				d := s.dec[pend[i]]
				hit := s.rowOpenAt(c, &c.banks[d.bk], d.row, batch[pend[i]].At)
				if batch[pend[i]].speculative() && !classic {
					if hit && pfHit < 0 && s.pfUnderCap(c, batch[pend[i]].At) {
						pfHit = i
					}
					continue
				}
				if hit {
					demandHit = i
					break
				}
				if demand < 0 {
					demand = i
				}
			}
			switch {
			case demandHit >= 0:
				pick = demandHit
			case demand >= 0:
				pick = demand
			case pfHit >= 0:
				pick = pfHit
			default:
				pick = 0
			}
		}
		if pick != 0 {
			s.st.Reordered++
		}
		i := pend[pick]
		pend = append(pend[:pick], pend[pick+1:]...)
		d := s.dec[i]
		if s.tr != nil {
			s.trAddr, s.trID = batch[i].Addr, batch[i].ID
		}
		s.comps[i].Done = s.serviceRead(ch, d.bk, d.row, batch[i].At, batch[i].speculative(), batch[i].ID)
	}
}

// qosPick is the tenant-aware window pick, a pure reordering of the
// classic FR-FCFS service — it never delays a picked request, so the
// channel stays work-conserving. The key, most significant first:
//
//   - credit: a read whose tenant already holds its full queue share
//     in flight (see qosCredit) yields to any under-share candidate,
//     so a flooding tenant cannot monopolize the part while a sparse
//     tenant has work waiting. Each yield counts as a QoSDeferred
//     scheduling turn against the heavy tenant.
//   - demand beats speculation; over-cap speculative reads wait unless
//     the window holds nothing else (mirroring the demand-first pick).
//   - readiness: the request whose data will be ready soonest goes
//     first, estimated as bank-free time plus the row overhead the
//     access would pay. This matters under multi-tenant interleaving:
//     lockstep requestors at the same kernel position hit the SAME
//     bank with different rows, and serving those conflicts
//     back-to-back in arrival order reserves the channel bus for data
//     that is not ready while other banks sit idle. Picking ready
//     banks first overlaps the conflict streaks instead.
//   - tenant load (fewest reads in flight), then arrival order, break
//     the remaining ties.
func (s *SDRAM) qosPick(c *channel, batch []Request, pend []int) int {
	w := len(pend)
	if w > s.cfg.ReorderWindow {
		w = s.cfg.ReorderWindow
	}
	credit := s.qosCredit()
	pick, bestOver, bestSpec, bestLoad := -1, 0, 0, 0
	var bestReady int64
	for i := 0; i < w; i++ {
		r := batch[pend[i]]
		spec := 0
		if r.speculative() {
			if !s.pfUnderCap(c, r.At) {
				continue
			}
			spec = 1
		}
		load := 0
		if c.tenInflight != nil {
			load = tenLive(c.tenInflight[TenantOf(r.ID)%len(c.tenInflight)], r.At)
		}
		over := 0
		if load >= credit {
			over = 1
		}
		d := s.dec[pend[i]]
		bk := &c.banks[d.bk]
		start := r.At
		if bk.freeAt > start {
			start = bk.freeAt
		}
		ready := start + s.peekRowLatency(bk, d.row, start)
		if pick < 0 || over < bestOver || (over == bestOver && (spec < bestSpec ||
			(spec == bestSpec && (ready < bestReady || (ready == bestReady && load < bestLoad))))) {
			pick, bestOver, bestSpec, bestReady, bestLoad = i, over, spec, ready, load
		}
	}
	if pick < 0 {
		return 0
	}
	// Account the yields: every over-share read that arrived before the
	// winner gave up this scheduling turn to it.
	if bestOver == 0 {
		for i := 0; i < pick; i++ {
			r := batch[pend[i]]
			if r.speculative() && !s.pfUnderCap(c, r.At) {
				continue
			}
			if c.tenInflight == nil {
				continue
			}
			ti := TenantOf(r.ID) % len(c.tenInflight)
			if tenLive(c.tenInflight[ti], r.At) >= credit {
				s.st.QoSDeferred++
				if ts := s.tenantShard(r.ID); ts != nil {
					ts.QoSDeferred++
				}
				// Stamp the yielded read's completion with one transfer
				// slot — the turn it gave up — so the requestor's CPI
				// stack can attribute the added wait to QoS rather than
				// raw DRAM service.
				s.comps[pend[i]].QoSDelay += s.cfg.TBurst
			}
		}
	}
	return pick
}

// Submit implements Backend. The batch fans out across channels; each
// channel schedules its reads through the demand-aware FR-FCFS reorder
// window (demand row hits, then demands, then prefetch row hits, then
// arrival order — and speculative reads are additionally capped by
// PFQCap), then posts the batch's writes into its write queue.
func (s *SDRAM) Submit(batch []Request) []Completion {
	s.comps = s.comps[:0]
	if len(batch) == 0 {
		return s.comps
	}
	if cap(s.comps) < len(batch) {
		s.comps = make([]Completion, len(batch))
	} else {
		s.comps = s.comps[:len(batch)]
	}
	s.dec = s.dec[:0]
	s.wOrder = s.wOrder[:0]
	for c := range s.perChan {
		s.perChan[c] = s.perChan[c][:0]
	}

	// Decode every request once and split it per channel: reads into
	// the channel's pending list, writes into a deferred list. Stable
	// sorting by arrival keeps "oldest" well-defined even when the
	// caller's batch is not time-ordered.
	for i, r := range batch {
		ch, bk, row := s.decode(r.Addr)
		s.dec = append(s.dec, decoded{ch: ch, bk: bk, row: row})
		s.comps[i] = Completion{Addr: r.Addr, Write: r.Write, At: r.At, Channel: ch, ID: r.ID}
		if s.tr != nil {
			s.tr.Emit(stats.Event{Cycle: r.At, Cat: "dram", Name: "issue",
				Addr: r.Addr, ID: r.ID, Lane: ch, Tenant: TenantOf(r.ID)})
		}
		switch {
		case r.Write:
			s.wOrder = append(s.wOrder, i)
		default:
			if r.Prefetch {
				s.st.PrefetchReads++
			}
			s.perChan[ch] = append(s.perChan[ch], i)
		}
	}

	// Reads first (read priority), each channel independent.
	for ch := range s.perChan {
		pend := s.perChan[ch]
		sort.SliceStable(pend, func(a, b int) bool { return batch[pend[a]].At < batch[pend[b]].At })
		s.scheduleReads(ch, batch, pend)
	}

	// Then the batch's writes, in arrival order.
	sort.SliceStable(s.wOrder, func(a, b int) bool { return batch[s.wOrder[a]].At < batch[s.wOrder[b]].At })
	for _, i := range s.wOrder {
		s.comps[i].Done = s.postWrite(s.dec[i].ch, batch[i])
	}
	return s.comps
}

// Access submits a single read — the one-at-a-time compatibility path
// the pre-batch API exposed; unit tests and the scalar adapter use it.
func (s *SDRAM) Access(addr uint64, t0 int64) int64 { return Access(s, addr, t0) }

// Flush drains every channel's write queue at its current bus-free
// cycle, so end-of-run statistics account for all posted traffic.
func (s *SDRAM) Flush() {
	for ci := range s.chans {
		s.drainWrites(ci, s.chans[ci].busFree, 0)
	}
}
