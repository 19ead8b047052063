package vmem

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/stats"
)

// This file implements the non-blocking side of the vector memory
// pipeline: a file of miss-status holding registers (MSHRs) that
// decouples instruction issue from memory completion.
//
// Under the blocking model every Issue call submits its own miss batch
// to the main memory and gets a final completion time, so the
// controller only ever sees one instruction's parallelism. With two or
// more MSHRs, Issue registers its line misses and returns immediately
// with a Pending handle; the underlying dram.Backend.Submit happens
// lazily, so one batch spans every instruction that issued since the
// last flush — the inter-instruction memory parallelism the FR-FCFS
// reorder window needs to convert latency into bandwidth.
//
// Lazy submission is sound because the timing backends are
// arrival-stamped, not call-stamped: every dram.Request carries its At
// cycle and the controller never services a request before it, so
// submitting late never changes a request's timing — it only widens
// the window the scheduler may reorder over. Three events force a
// flush: an allocation finding the file full (the MSHR-full stall), a
// consumer needing a completion time that the conservative lower bound
// can no longer rule out, and the end-of-run drain.
//
// A file of size 1 is the blocking model: every Register flushes
// immediately and returns an already-resolved handle, so each
// instruction's batch reaches the backend in one Submit call of its
// own. The golden table in internal/core pins its cycle counts.

// MSHRStats counts the file's activity. MLP and batch spans are the
// headline metrics: how many line misses were outstanding when a new
// one registered, and how many instructions each Submit batch covered.
type MSHRStats struct {
	Allocs     uint64 // primary misses: a new line entered the file
	Merges     uint64 // secondary misses folded into an in-flight line
	Writebacks uint64 // posted write-backs riding the pending batch

	Flushes     uint64 // Submit calls issued by the file
	FlushedReqs uint64 // requests submitted across all flushes
	SpanSum     uint64 // instructions contributing to each flush, summed
	SpanMax     int    // widest instruction span of any single flush

	FullStalls  uint64 // allocations that found every MSHR occupied
	StallCycles uint64 // cycles allocations waited for an MSHR to free

	OccSum uint64 // outstanding (unresolved) entries sampled per alloc
	OccMax int    // high-water mark of outstanding entries

	// Fill is the miss-to-fill latency distribution: primary-miss
	// arrival (after any full-stall) to fill completion, per resolved
	// entry, prefetch fills included.
	Fill *stats.Histogram
}

// MLP is the mean number of line misses outstanding when a new miss
// allocates — the memory-level parallelism the pipeline exposes.
func (s *MSHRStats) MLP() float64 {
	if s.Allocs == 0 {
		return 0
	}
	return float64(s.OccSum) / float64(s.Allocs)
}

// AvgBatch is the mean Submit batch size.
func (s *MSHRStats) AvgBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.FlushedReqs) / float64(s.Flushes)
}

// AvgSpan is the mean number of instructions contributing requests to
// one Submit batch; above 1 the controller is seeing cross-instruction
// parallelism the blocking model never showed it.
func (s *MSHRStats) AvgSpan() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.SpanSum) / float64(s.Flushes)
}

// mshrEntry tracks one outstanding L2 line miss. Handles hold pointers
// to entries, so an entry struct is never recycled; the file merely
// drops freed entries from its live set.
type mshrEntry struct {
	line     uint64
	id       uint64
	at       int64 // arrival of the primary miss (after any full-stall)
	done     int64 // valid once resolved
	resolved bool

	// prefetch marks an entry the stream prefetcher allocated; it
	// holds a real MSHR but gates nothing until a demand touches its
	// line. demanded/demandAt record the first demand touch so the
	// fill can be classified PrefetchHit (done <= demandAt) or
	// PrefetchLate once its completion is known; classified keeps the
	// split from double counting.
	prefetch   bool
	demanded   bool
	classified bool
	demandAt   int64

	// qosDelay is the QoS credit-yield penalty the channel scheduler
	// stamped on this fill's completion: cycles the request sat eligible
	// but deferred so another tenant could use the channel. The CPI
	// classifier drains it through the handle's TakeQoSYield cursor.
	qosDelay int64
}

// MSHRFile is the miss-status holding register file shared by the
// vector subsystems and the scalar miss path. It is not safe for
// concurrent use, matching the rest of the simulator.
type MSHRFile struct {
	tim      Timing
	cap      int
	blocking bool
	lineMask uint64
	minLat   int64 // lower bound on any read's Done-At

	entries  []*mshrEntry          // live entries, allocation order
	byLine   map[uint64]*mshrEntry // live entries keyed by line address
	pending  []dram.Request        // registered but not yet submitted
	pendByID map[uint64]*mshrEntry // pending read IDs → their entries
	nextID   uint64
	span     int // instructions contributing to the pending batch
	flushGen int // flush generation, for span tracking across mid-instruction flushes

	// tenant is the requestor tag of the RegisterFor call in progress:
	// every entry ID and write-back the call files carries it in the
	// ID's top byte (dram.TagTenant), so a shared backend can route
	// per-tenant accounting and QoS off the opaque ID path. 0 between
	// calls and for single-requestor use — the identity tag.
	tenant int

	// pf/l2 attach the stream prefetcher (AttachPrefetcher): pf turns
	// the demand miss stream into predicted lines, and the file fills
	// them into l2 and injects them into the pending batch. Both nil
	// when prefetching is off.
	pf *Prefetcher
	l2 *cache.Cache

	trainBuf []uint64 // scratch: this Register's training lines

	tr *stats.Tracer // event tracer, nil = off
	st MSHRStats
}

// NewMSHRFile builds a file of n MSHRs over the Timing's Backend.
// n <= 1 selects blocking mode. The tim.MSHR field of the argument is
// ignored; the file is the thing that field points at.
func NewMSHRFile(tim Timing, n int) *MSHRFile {
	tim.MSHR = nil
	minLat := tim.Backend.MinReadLatency()
	if minLat < 1 {
		minLat = 1
	}
	if n < 1 {
		n = 1
	}
	f := &MSHRFile{
		tim:      tim,
		cap:      n,
		blocking: n <= 1,
		lineMask: uint64(tim.Backend.LineBytes() - 1),
		minLat:   minLat,
		byLine:   map[uint64]*mshrEntry{},
		pendByID: map[uint64]*mshrEntry{},
		nextID:   1, // 0 tags write-backs, which never resolve an entry
	}
	f.st.Fill = stats.NewHistogram()
	return f
}

// SetTracer attaches a cycle-stamped event tracer (nil turns tracing
// off, the default).
func (f *MSHRFile) SetTracer(t *stats.Tracer) { f.tr = t }

// resolve settles one entry's fill completion, feeding the
// miss-to-fill histogram and the trace.
func (f *MSHRFile) resolve(e *mshrEntry, done int64) {
	e.done, e.resolved = done, true
	f.st.Fill.Observe(done - e.at)
	if f.tr != nil {
		f.tr.Emit(stats.Event{Cycle: e.at, Dur: done - e.at, Cat: "mshr", Name: "fill",
			Addr: e.line, ID: e.id, Tenant: dram.TenantOf(e.id)})
		// Close the entry's causal flow chain at the fill cycle; the
		// core opened it ('s') at the issuing instruction.
		f.tr.Emit(stats.Event{Cycle: done, Cat: "dep", Name: "mem", Ph: 'f',
			ID: e.id, Tenant: dram.TenantOf(e.id)})
	}
	f.classifyPrefetch(e)
}

// AttachPrefetcher wires a stream prefetcher into the file: l2 is the
// cache the predicted lines fill into (via the normal allocate path,
// dirty victims riding the pending batch as posted write-backs). Only
// legal on a non-blocking file — a blocking file submits every batch
// synchronously, so there is no pending batch for a prefetch to ride.
func (f *MSHRFile) AttachPrefetcher(p *Prefetcher, l2 *cache.Cache) {
	if f.blocking {
		panic("vmem: the stream prefetcher rides the lazy MSHR batch; it needs a non-blocking file (>= 2 MSHRs)")
	}
	if p == nil || l2 == nil {
		panic("vmem: AttachPrefetcher needs a prefetcher and an L2")
	}
	f.pf, f.l2 = p, l2
}

// Prefetcher returns the attached stream prefetcher, or nil.
func (f *MSHRFile) Prefetcher() *Prefetcher { return f.pf }

// PrefetchStats returns the prefetcher's counters with the Useless
// count filled in from the L2's eviction accounting (the zero value
// when no prefetcher is attached). The sync writes through to the
// live struct, so a stats registry wrapping the prefetcher's counters
// sees Useless too — core's registration snapshots via this method.
func (f *MSHRFile) PrefetchStats() PrefetchStats {
	if f.pf == nil {
		return PrefetchStats{}
	}
	f.pf.st.Useless = f.l2.Stats.PrefetchUseless
	return *f.pf.Stats()
}

// Cap is the file's MSHR count.
func (f *MSHRFile) Cap() int { return f.cap }

// Blocking reports whether the file is the blocking model (a single
// MSHR).
func (f *MSHRFile) Blocking() bool { return f.blocking }

// Stats exposes the accumulated counters.
func (f *MSHRFile) Stats() *MSHRStats { return &f.st }

// Outstanding is the number of unresolved line misses in the file.
func (f *MSHRFile) Outstanding() int {
	n := 0
	for _, e := range f.entries {
		if !e.resolved {
			n++
		}
	}
	return n
}

// free drops entries whose fill has completed by cycle t.
func (f *MSHRFile) free(t int64) {
	live := f.entries[:0]
	for _, e := range f.entries {
		if e.resolved && e.done <= t {
			delete(f.byLine, e.line)
			continue
		}
		live = append(live, e)
	}
	f.entries = live
}

// flush submits everything pending as one batch and resolves the
// entries the completions belong to (matched by request ID — the
// scheduler reorders the batch, so positional matching would lie).
func (f *MSHRFile) flush() {
	if len(f.pending) == 0 {
		return
	}
	f.st.Flushes++
	f.st.FlushedReqs += uint64(len(f.pending))
	f.st.SpanSum += uint64(f.span)
	if f.span > f.st.SpanMax {
		f.st.SpanMax = f.span
	}
	for _, c := range f.tim.Backend.Submit(f.pending) {
		if c.Write {
			continue
		}
		if e := f.pendByID[c.ID]; e != nil {
			e.qosDelay = c.QoSDelay
			f.resolve(e, c.Done)
		}
	}
	f.pending = f.pending[:0]
	clear(f.pendByID)
	f.span = 0
	f.flushGen++
}

// allocate finds room for a new primary miss arriving at cycle at,
// flushing and then waiting on the oldest fill when the file is full,
// and returns the entry and its (possibly stalled) arrival cycle.
func (f *MSHRFile) allocate(addr uint64, at int64) (*mshrEntry, int64) {
	f.free(at)
	if len(f.entries) >= f.cap {
		f.st.FullStalls++
		// Resolving the pending batch is the only way to learn when an
		// MSHR frees; the stall then waits for the earliest fill.
		f.flush()
		f.free(at)
		for len(f.entries) >= f.cap {
			tFree := f.entries[0].done
			for _, e := range f.entries[1:] {
				if e.done < tFree {
					tFree = e.done
				}
			}
			if tFree > at {
				f.st.StallCycles += uint64(tFree - at)
				at = tFree
			}
			f.free(at)
		}
	}
	e := &mshrEntry{line: addr &^ f.lineMask, id: dram.TagTenant(f.nextID, f.tenant), at: at}
	f.nextID++
	f.entries = append(f.entries, e)
	f.byLine[e.line] = e
	f.st.Allocs++
	if f.tr != nil {
		f.tr.Emit(stats.Event{Cycle: at, Cat: "mshr", Name: "alloc", Addr: e.line, ID: e.id, Tenant: f.tenant})
		f.tr.Emit(stats.Event{Cycle: at, Cat: "dep", Name: "mem", Ph: 't',
			ID: e.id, Tenant: f.tenant})
	}
	occ := f.Outstanding() // already counts the just-appended entry
	f.st.OccSum += uint64(occ)
	if occ > f.st.OccMax {
		f.st.OccMax = occ
	}
	return e, at
}

// PFTouch records one demand access that hit a prefetched L2 line (the
// cache's Result.Prefetched): Line is the L2 line address, At the cycle
// the access wants its data. The vmem subsystems collect them per
// instruction and pass them to Complete/Register, which resolves each
// into the PrefetchHit / PrefetchLate split — and, for a fill still in
// flight, merges the instruction onto the prefetch's MSHR entry as a
// secondary miss so the handle waits for the real completion.
type PFTouch struct {
	Line uint64
	At   int64
}

// Register files one instruction's miss batch — line-fill reads and
// posted write-backs, as built by the vmem subsystems — plus its
// demand touches of prefetched lines, and returns the instruction's
// pending-completion handle. occDone is the completion cycle of the
// instruction's port/bank occupancy and cache hits; the handle's Done
// folds it in. Secondary misses to a line already in flight merge into
// its entry instead of re-submitting the line. In blocking mode the
// batch is submitted immediately and the returned handle is already
// resolved (a blocking file never has a prefetcher, so pfTouch is
// always empty there).
//
// With a prefetcher attached, the demand lines just filed (misses and
// prefetched-line touches alike) train the stream table, and every
// resulting prediction is injected into the same pending batch —
// after the demands, so a prefetch can never steal an MSHR from the
// instruction that triggered it.
func (f *MSHRFile) Register(batch []dram.Request, pfTouch []PFTouch, occDone int64) *Pending {
	return f.RegisterFor(0, batch, pfTouch, occDone)
}

// RegisterFor is Register for a tagged requestor: every entry and
// write-back the call files carries tenant in its ID's top byte, so
// the backend can shard stats and schedule per tenant. Tenant 0 is
// Register exactly.
func (f *MSHRFile) RegisterFor(tenant int, batch []dram.Request, pfTouch []PFTouch, occDone int64) *Pending {
	f.tenant = tenant
	p := &Pending{file: f, base: occDone}
	if f.blocking {
		// Blocking mode files the whole instruction atomically, submits
		// it at once and leaves nothing live between instructions, so
		// it never merges: one Submit call per missing instruction.
		for _, r := range batch {
			if r.Write {
				r.ID = dram.TagTenant(0, f.tenant)
				f.pending = append(f.pending, r)
				f.st.Writebacks++
				continue
			}
			e := &mshrEntry{line: r.Addr &^ f.lineMask, id: dram.TagTenant(f.nextID, f.tenant), at: r.At}
			f.nextID++
			f.st.Allocs++
			if f.tr != nil {
				f.tr.Emit(stats.Event{Cycle: r.At, Cat: "mshr", Name: "alloc", Addr: e.line, ID: e.id, Tenant: f.tenant})
				f.tr.Emit(stats.Event{Cycle: r.At, Cat: "dep", Name: "mem", Ph: 't',
					ID: e.id, Tenant: f.tenant})
			}
			r.ID = e.id
			f.pending = append(f.pending, r)
			f.pendByID[e.id] = e
			p.entries = append(p.entries, e)
			p.fresh = append(p.fresh, e.id)
		}
		if len(f.pending) > 0 {
			f.span = 1
			f.flush()
		}
		p.force()
		return p
	}
	// One instruction counts once toward each flush batch it feeds: a
	// mid-instruction flush (MSHR full) starts a new batch, which the
	// rest of the instruction's requests then join.
	gen := -1
	contribute := func() {
		if gen != f.flushGen {
			f.span++
			gen = f.flushGen
		}
	}
	f.trainBuf = f.trainBuf[:0]
	for _, r := range batch {
		if r.Write {
			r.ID = dram.TagTenant(0, f.tenant)
			f.pending = append(f.pending, r)
			f.st.Writebacks++
			contribute()
			continue
		}
		line := r.Addr &^ f.lineMask
		if f.pf != nil {
			f.trainBuf = append(f.trainBuf, line)
		}
		if e := f.byLine[line]; e != nil && (!e.resolved || e.done > r.At) {
			// Secondary miss: the line's fill is already in flight (or
			// has a known future completion); wait on it, do not
			// re-request the line. A demand MISS can only reach a
			// still-live prefetch entry after its line left the L2 —
			// and an untouched prefetched line scores PrefetchUseless
			// at eviction — so this merge must not classify the same
			// issue again (each issued prefetch gets exactly one
			// outcome); it only reuses the in-flight fill's timing.
			f.st.Merges++
			if f.tr != nil {
				f.tr.Emit(stats.Event{Cycle: r.At, Cat: "mshr", Name: "merge", Addr: line, ID: e.id, Tenant: f.tenant})
			}
			if e.prefetch && !e.demanded {
				e.classified = true
			}
			f.upgradePrefetch(e)
			p.entries = append(p.entries, e)
			continue
		}
		e, at := f.allocate(r.Addr, r.At)
		if at > r.At {
			// The allocation waited on a full file; bank the stall so the
			// CPI classifier can charge the head's wait to MSHRFull
			// before blaming main memory.
			p.fullStall += at - r.At
		}
		r.At, r.ID = at, e.id
		f.pending = append(f.pending, r)
		f.pendByID[e.id] = e
		p.entries = append(p.entries, e)
		p.fresh = append(p.fresh, e.id)
		contribute()
	}
	for _, t := range pfTouch {
		f.touchPrefetched(p, t)
	}
	if f.pf != nil {
		for _, line := range f.trainBuf {
			at := occDone
			if f.tr != nil {
				f.tr.Emit(stats.Event{Cycle: at, Cat: "pf", Name: "train", Addr: line, Tenant: f.tenant})
			}
			for _, cand := range f.pf.Observe(line) {
				f.injectPrefetch(cand, at)
			}
		}
	}
	return p
}

// touchPrefetched resolves one demand touch of a prefetched L2 line:
// classify the prefetch (hit when its fill completed by the touch,
// late otherwise) and, while the fill is still outstanding, merge the
// instruction onto the prefetch's MSHR entry so its handle waits. The
// touched line also trains the stream table — a stream the prefetcher
// covers perfectly would otherwise stop missing and go cold.
func (f *MSHRFile) touchPrefetched(p *Pending, t PFTouch) {
	line := t.Line &^ f.lineMask
	if f.pf == nil {
		return
	}
	f.trainBuf = append(f.trainBuf, line)
	e := f.byLine[line]
	if e == nil || !e.prefetch {
		// The fill landed long ago and its entry was recycled.
		f.pf.st.Hits++
		return
	}
	if !e.demanded {
		e.demanded, e.demandAt = true, t.At
	}
	if e.resolved {
		if !e.classified {
			f.classifyPrefetch(e)
		}
		if e.done > t.At {
			p.entries = append(p.entries, e)
		}
		return
	}
	// Fill still pending: the classification falls out of the flush
	// that resolves it, and the instruction waits on the entry.
	f.upgradePrefetch(e)
	p.entries = append(p.entries, e)
}

// upgradePrefetch promotes a still-pending prefetch fill to demand
// priority: a demand access has merged onto entry e, so its data is on
// an instruction's critical path and the channel scheduler must stop
// treating the request as deprioritizable speculation. No-op once the
// batch holding the request has been submitted.
func (f *MSHRFile) upgradePrefetch(e *mshrEntry) {
	if !e.prefetch || e.resolved {
		return
	}
	for i := range f.pending {
		if f.pending[i].ID == e.id && !f.pending[i].Write {
			f.pending[i].Demanded = true
			return
		}
	}
}

// prefetchQuota bounds how many MSHRs unresolved prefetches may hold
// at once: a quarter of the file (at least one). Demand misses own the
// rest — a dvload can claim 16 entries in one batch, and a file packed
// with speculative fills would turn its allocation into a full-stall,
// making the prefetcher throttle the very pipeline it accelerates.
func (f *MSHRFile) prefetchQuota() int {
	q := f.cap / 4
	if q < 1 {
		q = 1
	}
	return q
}

// prefetchLive counts unresolved prefetch entries in the file.
func (f *MSHRFile) prefetchLive() int {
	n := 0
	for _, e := range f.entries {
		if e.prefetch && !e.resolved {
			n++
		}
	}
	return n
}

// classifyPrefetch settles a demanded prefetch entry into the hit/late
// split once its completion time is known.
func (f *MSHRFile) classifyPrefetch(e *mshrEntry) {
	if f.pf == nil || !e.prefetch || !e.demanded || e.classified {
		return
	}
	e.classified = true
	if e.done <= e.demandAt {
		f.pf.st.Hits++
	} else {
		f.pf.st.Late++
	}
}

// injectPrefetch files one predicted line as a prefetch-tagged MSHR
// entry whose fill request joins the pending batch. Prefetches are
// best-effort by design: a line already cached or in flight is
// filtered, and a prediction that would need to stall — no free MSHR,
// or a dirty victim bound for a write queue with no room — is dropped
// on the floor rather than ever back-pressuring the demand pipeline.
func (f *MSHRFile) injectPrefetch(line uint64, at int64) {
	line &^= f.lineMask
	if f.l2.Contains(line) {
		f.pf.st.Filtered++
		return
	}
	if e := f.byLine[line]; e != nil && (!e.resolved || e.done > at) {
		f.pf.st.Filtered++
		return
	}
	f.free(at)
	if len(f.entries) >= f.cap || f.prefetchLive() >= f.prefetchQuota() {
		f.pf.st.DroppedMSHR++
		if f.tr != nil {
			f.tr.Emit(stats.Event{Cycle: at, Cat: "pf", Name: "drop_mshr", Addr: line, Tenant: f.tenant})
		}
		return
	}
	if victim, dirty, _ := f.l2.PeekVictim(line); dirty && !f.tim.Backend.WriteRoom(victim) {
		f.pf.st.DroppedWQ++
		if f.tr != nil {
			f.tr.Emit(stats.Event{Cycle: at, Cat: "pf", Name: "drop_wq", Addr: line, Tenant: f.tenant})
		}
		return
	}
	res := f.l2.FillPrefetch(line)
	e := &mshrEntry{line: line, id: dram.TagTenant(f.nextID, f.tenant), at: at, prefetch: true}
	f.nextID++
	f.entries = append(f.entries, e)
	f.byLine[line] = e
	f.pending = append(f.pending, dram.Request{Addr: line, At: at, ID: e.id, Prefetch: true})
	f.pendByID[e.id] = e
	if res.Writeback {
		f.pending = append(f.pending, dram.Request{Addr: res.VictimAddr, Write: true, At: at,
			ID: dram.TagTenant(0, f.tenant), Prefetch: true})
		f.st.Writebacks++
	}
	f.pf.st.Issued++
	if f.tr != nil {
		f.tr.Emit(stats.Event{Cycle: at, Cat: "pf", Name: "fire", Addr: line, ID: e.id, Tenant: f.tenant})
		// Prefetch-originated chains start here rather than at a core
		// instruction; the MSHR fill closes them like any demand chain.
		f.tr.Emit(stats.Event{Cycle: at, Cat: "dep", Name: "mem", Ph: 's',
			ID: e.id, Tenant: f.tenant})
	}
}

// Drain flushes anything still pending; callers then read final
// completion times off their handles' Done.
func (f *MSHRFile) Drain() { f.flush() }

// Pending is the completion handle of one instruction's outstanding
// misses: the issue side returns it, the scoreboard queries it.
type Pending struct {
	file     *MSHRFile
	entries  []*mshrEntry
	base     int64
	resolved bool
	done     int64

	// fresh holds the IDs of the entries this instruction's primary
	// misses allocated (merged secondary misses excluded) — the flow
	// chains the issuing instruction originates.
	fresh []uint64

	// fullStall and qosTaken are the CPI classifier's stall-attribution
	// budgets. fullStall is the remaining cycles this instruction's
	// allocations spent waiting on a full MSHR file; qosTaken is the
	// cursor into the QoS-yield cycles stamped on resolved entries.
	// Both drain monotonically, so charging n cycles one at a time and
	// charging them in one bulk call consume identically — the property
	// that keeps the step and wheel engines' CPI stacks bit-identical.
	fullStall int64
	qosTaken  int64
}

// FreshIDs returns the MSHR entry IDs this instruction's primary
// misses allocated, for originating causal flow chains. Merged
// secondary misses are excluded — their chains belong to the
// instruction that filed the primary miss.
func (p *Pending) FreshIDs() []uint64 { return p.fresh }

// TakeFullStall consumes up to n cycles of the handle's MSHR
// full-stall budget and returns how many were taken.
func (p *Pending) TakeFullStall(n uint64) uint64 {
	if p.fullStall <= 0 || n == 0 {
		return 0
	}
	take := uint64(p.fullStall)
	if take > n {
		take = n
	}
	p.fullStall -= int64(take)
	return take
}

// TakeQoSYield consumes up to n cycles of the QoS-yield budget the
// channel scheduler stamped on this handle's resolved fills and
// returns how many were taken. Only resolved entries contribute (an
// unresolved fill's penalty is unknown), and resolution only happens
// at flush points — never during classification — so the available
// budget is constant across any window the classifier charges.
func (p *Pending) TakeQoSYield(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	var avail int64
	for _, e := range p.entries {
		if e.resolved {
			avail += e.qosDelay
		}
	}
	avail -= p.qosTaken
	if avail <= 0 {
		return 0
	}
	take := uint64(avail)
	if take > n {
		take = n
	}
	p.qosTaken += int64(take)
	return take
}

// force resolves the handle from its entries, which must all be
// resolved (true after any flush).
func (p *Pending) force() int64 {
	done := p.base
	for _, e := range p.entries {
		if e.done > done {
			done = e.done
		}
	}
	p.resolved, p.done = true, done
	return done
}

// Settled reports whether the completion is already known and has
// passed, using only resolved state — it never forces a flush, so it
// is safe to poll every cycle without perturbing batch accumulation.
func (p *Pending) Settled(now int64) bool {
	if p == nil {
		return true
	}
	if !p.resolved {
		for _, e := range p.entries {
			if !e.resolved {
				return false
			}
		}
		p.force()
	}
	return p.done <= now
}

// ReadyBy reports whether the memory completion is <= now, resolving
// lazily: while the conservative lower bound (each unresolved miss
// costs at least the backend's minimum read latency) still exceeds
// now, it answers false without scheduling anything; once the bound is
// reached it flushes the file and compares the exact time.
func (p *Pending) ReadyBy(now int64) bool {
	if p == nil {
		return true
	}
	if p.resolved {
		return p.done <= now
	}
	lb := p.base
	unresolved := false
	for _, e := range p.entries {
		t := e.done
		if !e.resolved {
			unresolved = true
			t = e.at + p.file.minLat
		}
		if t > lb {
			lb = t
		}
	}
	if !unresolved {
		p.force()
		return p.done <= now
	}
	if now < lb {
		return false
	}
	p.file.flush()
	return p.force() <= now
}

// Bound returns a conservative lower bound on the completion cycle
// and whether that bound is exact. It mirrors ReadyBy's arithmetic —
// for an unresolved handle the bound is the first cycle a ReadyBy
// poll would force a flush — but never flushes or resolves anything,
// so the event-wheel engine can schedule wake-ups off it without
// perturbing batch accumulation.
func (p *Pending) Bound() (int64, bool) {
	if p == nil {
		return 0, true
	}
	if p.resolved {
		return p.done, true
	}
	lb := p.base
	exact := true
	for _, e := range p.entries {
		t := e.done
		if !e.resolved {
			exact = false
			t = e.at + p.file.minLat
		}
		if t > lb {
			lb = t
		}
	}
	return lb, exact
}

// Done forces resolution and returns the exact completion cycle.
func (p *Pending) Done() int64 {
	if p == nil {
		return 0
	}
	if !p.resolved {
		p.file.flush()
		p.force()
	}
	return p.done
}
