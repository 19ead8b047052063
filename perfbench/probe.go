package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
)

// span is one timed call into a layer. Times are nanoseconds since the
// probe's base; parent is the index of the enclosing span (-1 for an
// iteration root).
type span struct {
	name       string
	parent     int
	iter       int
	start, end int64
}

// probe times an iteration's layer boundaries from the outside. It
// always samples the live heap at each boundary (heap_peak_mb); with
// traced set it also keeps every span in memory for the per-layer
// ledger and the span file written at the end.
type probe struct {
	traced bool
	base   time.Time
	iter   int
	spans  []span
	open   []int

	heapPeak uint64
	heap     []metrics.Sample

	// ticks are the times of the current iteration's layer boundaries
	// and DRAM submits: points that fall at the same work in every
	// iteration of a run and cut it into segments (see segmentBest).
	ticks []int64
}

func newProbe(traced bool) *probe {
	return &probe{traced: traced, base: time.Now(),
		heap: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// boundary marks a layer boundary: it records a tick and reads the
// live heap as of the last GC, without forcing one. A probe built
// without newProbe does neither.
func (p *probe) boundary() {
	if p.heap == nil {
		return
	}
	p.ticks = append(p.ticks, p.now())
	metrics.Read(p.heap)
	if v := p.heap[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > p.heapPeak {
		p.heapPeak = v.Uint64()
	}
}

// begin opens a span for a call into a layer; end closes it. Both mark
// a layer boundary.
func (p *probe) begin(name string) int {
	p.boundary()
	if !p.traced {
		return -1
	}
	p.spans = append(p.spans, span{name: name, parent: p.parent(), iter: p.iter, start: p.now()})
	p.open = append(p.open, len(p.spans)-1)
	return len(p.spans) - 1
}

func (p *probe) end(id int) {
	if p.traced {
		p.spans[id].end = p.now()
		p.open = p.open[:len(p.open)-1]
	}
	p.boundary()
}

func (p *probe) parent() int {
	if len(p.open) == 0 {
		return -1
	}
	return p.open[len(p.open)-1]
}

// leaf records a closed child of the innermost open span without a
// heap reading: the per-Submit spans are too frequent for one.
func (p *probe) leaf(name string, start, end int64) {
	p.spans = append(p.spans, span{name: name, parent: p.parent(), iter: p.iter, start: start, end: end})
}

// total sums the durations of the spans named name, in seconds.
func (p *probe) total(name string) float64 {
	var ns int64
	for _, s := range p.spans {
		if s.name == name {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// selfTimes returns each layer's self time in seconds: a span's
// duration minus the time its children cover, summed per layer (the
// name's prefix up to the first dot). Iteration roots count as
// "bench", the benchmark's own glue and checks. The simulation loops
// (core.sim, tenant.run) count as "unseparated": core, cache and vmem
// call each other through concrete types, so only dram.submit can be
// cut out of them from outside. Children of one span never overlap —
// everything runs on one goroutine — so the self times of an
// iteration's spans add up to its root's duration.
func (p *probe) selfTimes() map[string]float64 {
	self := make([]int64, len(p.spans))
	for i, s := range p.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range p.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		switch {
		case s.parent < 0:
			layer = "bench"
		case s.name == "core.sim" || s.name == "tenant.run":
			layer = "unseparated"
		}
		out[layer] += float64(self[i]) / 1e9
	}
	return out
}

// writeSpans writes the spans as Chrome trace-event JSON (complete
// "X" events, one process per iteration), loadable in Perfetto.
func (p *probe) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	fmt.Fprint(w, `{"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range p.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: s.iter, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent}}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sdram is every interface the simulator type-asserts on its backend:
// per-tenant stat shards and QoS (tenant.New), the event tracer
// (core.MemSystem.AttachTracer) and the channel decode page coloring
// reads (core.NewVM). A wrapper that dropped one would silently build
// a different machine.
type sdram interface {
	dram.Backend
	dram.TenantAware
	dram.Traceable
	vm.ChannelMapper
}

// tracedBackend wraps the DRAM backend. Every Submit records a tick;
// on the traced run it also records a dram.submit span and counts
// calls, requests and channel decodes. Embedding the interface
// forwards every optional method.
type tracedBackend struct {
	sdram
	p                           *probe
	submits, requests, chanmaps uint64
}

func wrapBackend(b dram.Backend, p *probe) (*tracedBackend, error) {
	s, ok := b.(sdram)
	if !ok {
		return nil, fmt.Errorf("backend %s does not implement every optional interface", b.Name())
	}
	return &tracedBackend{sdram: s, p: p}, nil
}

func (b *tracedBackend) Submit(batch []dram.Request) []dram.Completion {
	if !b.p.traced {
		if b.p.heap != nil {
			b.p.ticks = append(b.p.ticks, b.p.now())
		}
		return b.sdram.Submit(batch)
	}
	start := b.p.now()
	out := b.sdram.Submit(batch)
	b.p.leaf("dram.submit", start, b.p.now())
	b.submits++
	b.requests += uint64(len(batch))
	return out
}

// ChannelOf is counted, not spanned: page coloring calls it ~10^8
// times per hd-shared iteration. Only the traced run hands the wrapper
// to the translation layer, so only it pays for the count.
func (b *tracedBackend) ChannelOf(addr uint64) int {
	b.chanmaps++
	return b.sdram.ChannelOf(addr)
}

// countingSink wraps the trace sink kernel generation emits into.
type countingSink struct {
	inner trace.Sink
	n     uint64
}

func (s *countingSink) Emit(in isa.Inst) {
	s.n++
	s.inner.Emit(in)
}
