// Command perfbench is the simulator's host benchmark. It runs one
// workload closed-loop — one client, one iteration at a time, each
// building a fresh simulated machine — for a fixed time, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ledger of one extra traced iteration). The last line of
// standard output is a JSON object with the result.
//
//	go run . --workload paper-grid|hd-shared --seed 0 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each layer is
// predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"wall_s", "s"}, {"setup_s", "s"}, {"sim_kips", "kinst/s"}, {"sim_cycles", "cycles"},
	{"alloc_mb", "MB"}, {"heap_peak_mb", "MB"},
}

// cpiBuckets are core.CPIStack's registered bucket names.
var cpiBuckets = []string{"busy", "issue", "exec", "dep", "mshr_full", "store_buf",
	"tlb_walk", "dram_wait", "qos_yield", "frontend", "drain"}

// layers are the self-time rows of the traced run (see selfTimes).
var layers = []string{"bench", "kernels", "experiments", "core", "dram", "vm", "tenant", "stats", "unseparated"}

var perLayerMetrics = func() []metric {
	ms := []metric{
		{"kernels.gen_s", "s"}, {"kernels.gen_ns_per_inst", "ns"}, {"kernels.traces", "count"}, {"kernels.insts", "count"},
		{"kernels.gen_alloc_mb", "MB"}, {"kernels.trace_mb", "MB"}, {"kernels.ref_s", "s"},
		{"experiments.sims", "count"}, {"experiments.sim_loop_s", "s"}, {"experiments.non_sim_s", "s"},
		{"core.sim_s", "s"}, {"core.ns_per_cycle", "ns"},
		{"core.ns_per_inst", "ns"}, {"core.ipc", "inst/cycle"},
		{"engine.advances", "count"}, {"engine.cycles_per_advance", "cycles"},
	}
	for _, b := range cpiBuckets {
		ms = append(ms, metric{"core.cpi." + b, "share"})
	}
	ms = append(ms,
		metric{"cache.l2.misses", "count"}, metric{"cache.l2.writebacks", "count"},
		metric{"vmem.mshr.allocs", "count"}, metric{"vmem.mshr.merges", "count"},
		metric{"vmem.mshr.full_stalls", "count"}, metric{"vmem.prefetch.issued", "count"},
		metric{"vmem.prefetch.hits", "count"}, metric{"vmem.prefetch.useless", "count"},
		metric{"dram.submit_calls", "count"}, metric{"dram.requests", "count"},
		metric{"dram.submit_s", "s"}, metric{"dram.ns_per_request", "ns"},
		metric{"dram.row_hits", "count"}, metric{"dram.row_conflicts", "count"},
		metric{"dram.busy_cycles", "cycles"}, metric{"dram.read_wait", "cycles"},
		metric{"dram.qo_s_deferred", "count"},
		metric{"vm.new_s", "s"}, metric{"vm.chanmap_calls", "count"}, metric{"vm.chanmap_per_page", "calls/page"},
		metric{"vm.tlb.pages_mapped", "count"}, metric{"vm.tlb.l2_misses", "count"}, metric{"vm.walk.walks", "count"},
		metric{"tenant.run_s", "s"}, metric{"tenant.cycles_spread", "ratio"},
		metric{"stats.report_s", "s"}, metric{"stats.names", "count"},
	)
	for _, l := range layers {
		ms = append(ms, metric{"self." + l + "_s", "s"})
	}
	return append(ms, metric{"trace.wall_s", "s"}, metric{"trace.overhead", "ratio"}, metric{"trace.spans", "count"})
}()

// sample is one iteration's end-to-end reading.
type sample struct {
	m   map[string]float64
	it  *iteration
	seg []int64 // nanoseconds between the iteration's ticks
}

// minIterations keeps a median meaningful when one iteration outlasts
// --seconds.
const minIterations = 3

// setupBatches is how many batches of machine constructions follow
// each timed iteration; each batch lasts at least setupBatch.
const (
	setupBatches = 20
	setupBatch   = 2 * time.Millisecond
)

func main() {
	workload := flag.String("workload", "", "paper-grid or hd-shared")
	seed := flag.Uint64("seed", 0, "input seed (0 = the stock kernel configurations)")
	seconds := flag.Float64("seconds", 10, "measured time; iterations start while the run ends nearer to it")
	traced := flag.Int("trace", 0, "1 = report the per-layer ledger of an extra traced iteration")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-grid|hd-shared, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}

	// The simulator is single-threaded. One P keeps the garbage
	// collector's work inside the measured iteration instead of on a
	// second CPU, which on a shared machine made iteration times jitter.
	runtime.GOMAXPROCS(1)

	var all []sample // every iteration run, traced one included
	p := newProbe(false)
	once := func(p *probe) sample {
		s := iterate(w.iterate, *seed, p)
		all = append(all, s)
		return s
	}
	// setup_s is the fastest per-construction time of the iteration's
	// machines over batches built between the timed iterations: one
	// construction per iteration is too few, and too short, for a
	// steady figure, and batches spread over the whole run are not all
	// caught in one slow phase of the host. A batch is as many
	// back-to-back constructions as last at least setupBatch, so a
	// construction of a few microseconds is not timed alone. Each batch
	// starts from a collected heap with the collector paused, so it
	// times construction rather than whichever GC cycle lands in it;
	// construction garbage still counts in wall_s and alloc_mb. The
	// probe takes no heap readings, which would cost a noticeable share
	// of a short construction.
	build := &iteration{seed: *seed, p: &probe{}, c: map[string]float64{}}
	timeBatch := func(n int) time.Duration {
		runtime.GC()
		build.setup = 0
		for range n {
			w.build(build)
		}
		return build.setup
	}
	var setups []float64
	batch := 1
	sampleSetup := func() {
		gcPercent := debug.SetGCPercent(-1)
		for range setupBatches {
			setups = append(setups, timeBatch(batch).Seconds()/float64(batch))
		}
		debug.SetGCPercent(gcPercent)
	}

	// One warm-up iteration grows the heap and faults in its pages
	// before timing starts; its checks still count. The set-up batch
	// size is fixed after it.
	once(p)
	gcPercent := debug.SetGCPercent(-1)
	timeBatch(1)
	for timeBatch(batch) < setupBatch && batch < 1<<20 {
		batch *= 2
	}
	debug.SetGCPercent(gcPercent)
	// Iterations start while the run would end nearer --seconds than
	// without them, so the measured time stays close to --seconds.
	var timed []sample
	for start, last := time.Now(), 0.0; len(timed) < minIterations || time.Since(start).Seconds()+last/2 < *seconds; {
		s := once(p)
		timed = append(timed, s)
		last = s.m["wall_s"]
		sampleSetup()
	}

	if len(build.fails) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: building the machines failed: %s\n", strings.Join(build.fails, "; "))
		os.Exit(1)
	}

	var tr *sample
	var tp *probe
	if *traced == 1 {
		tp = newProbe(true)
		s := once(tp)
		tr = &s
	}

	// sim_cycles must repeat exactly across the untraced and traced
	// iterations of one seed.
	for i, s := range all[1:] {
		s.it.check(s.it.cycles == all[0].it.cycles, "iteration %d simulated %d cycles, iteration 1 %d",
			i+2, s.it.cycles, all[0].it.cycles)
	}
	failed := 0
	for i, s := range all {
		for _, f := range s.it.fails {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: FAIL %s\n", *workload, i+1, f)
		}
		if len(s.it.fails) > 0 {
			failed++
		}
	}
	// A run is only timed on right answers: failed iterations leave the
	// reported figures.
	var good []sample
	for _, s := range timed {
		if len(s.it.fails) == 0 {
			good = append(good, s)
		}
	}
	if len(good) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: every timed iteration failed its checks\n")
		os.Exit(1)
	}

	fmt.Printf("perfbench %s seed=%d: %d timed iterations, GOMAXPROCS=%d\n",
		*workload, *seed, len(good), runtime.GOMAXPROCS(0))
	fmt.Printf("%-14s %-8s %16s %16s %16s\n", "metric", "unit", "reported", "median", "tail")
	series := func(name string) []float64 {
		vals := make([]float64, len(good))
		for i, s := range good {
			vals[i] = s.m[name]
		}
		return vals
	}
	// The host only ever adds delay, and on a shared host it did so in
	// phases: the same iteration ran up to 2x slower, and run medians
	// moved by 30%. So the host-time metrics report the run's best:
	// wall_s sums, segment by segment, the fastest any timed iteration
	// was (segmentBest), sim_kips is the throughput that gives, and
	// setup_s is the fastest set-up batch. The median and the tail
	// stay in the table. heap_peak_mb is the run's highest reading;
	// the others are medians.
	wallBest, segmented := segmentBest(good)
	if !segmented {
		wallBest = slices.Min(series("wall_s"))
	}
	med, est := map[string]float64{}, map[string]float64{}
	for _, m := range endToEnd {
		vals := series(m.name)
		if m.name == "setup_s" {
			vals = setups
		}
		med[m.name] = median(vals)
		switch est[m.name] = med[m.name]; m.name {
		case "wall_s":
			est[m.name] = wallBest
		case "sim_kips":
			est[m.name] = good[0].it.c["core.committed"] / wallBest / 1e3
		case "setup_s":
			est[m.name] = slices.Min(vals)
		case "heap_peak_mb":
			// The live heap is only known as of the last GC, so one
			// iteration's readings can miss its peak; the run's highest
			// reading misses it less.
			est[m.name] = slices.Max(vals)
		}
		fmt.Printf("%-14s %-8s %16.6g %16.6g %16s\n", m.name, m.unit, est[m.name], med[m.name], tail(vals))
	}
	fmt.Printf("%-14s %-8s %16.6g %16s   (%d of %d iterations)\n", "fail_ratio", "ratio",
		float64(failed)/float64(len(all)), "", failed, len(all))
	fmt.Printf("setup_s is over %d batches of %d constructions between the timed iterations; inside the timed iterations its median was %.6g s\n",
		len(setups), batch, median(series("setup_s")))
	fmt.Printf("wall_s: best %.6g s over %d segments; fastest whole iteration %.6g s\n",
		wallBest, len(good[0].seg), slices.Min(series("wall_s")))
	if !segmented {
		fmt.Printf("wall_s: iterations cut into different segment counts; reported the fastest whole iteration\n")
	}
	walls := make([]string, len(good))
	for i, s := range good {
		walls[i] = fmt.Sprintf("%.3f", s.m["wall_s"])
	}
	fmt.Printf("wall_s per timed iteration: %s\n", strings.Join(walls, " "))

	report, values := endToEnd, est
	if tr != nil {
		report = perLayerMetrics
		values = perLayer(tr.it, tp, tr.m["wall_s"], med["wall_s"])
		printLedger(values)
		path := fmt.Sprintf(".bench_build/spans/%s.json", *workload)
		if err := tp.writeSpans(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d spans to %s\n", len(tp.spans), path)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, len(all), failed, map[string]value{}}
	for _, m := range report {
		res.Metrics[m.name] = value{values[m.name], m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// iterate runs one iteration and takes its end-to-end reading. A panic
// inside the simulator fails the iteration instead of the process.
func iterate(run func(*iteration), seed uint64, p *probe) sample {
	it := &iteration{seed: seed, p: p, c: map[string]float64{}}
	p.iter++
	p.heapPeak = 0
	p.ticks = p.ticks[:0]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := time.Now()
	root := p.begin("iteration")
	depth := len(p.open)
	func() {
		defer func() {
			if r := recover(); r != nil {
				it.check(false, "panic: %v", r)
				for len(p.open) > depth {
					p.end(p.open[len(p.open)-1])
				}
			}
		}()
		run(it)
	}()
	p.end(root)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	seg := make([]int64, max(len(p.ticks)-1, 0))
	for k := range seg {
		seg[k] = p.ticks[k+1] - p.ticks[k]
	}
	return sample{it: it, seg: seg, m: map[string]float64{
		"wall_s":       wall,
		"setup_s":      it.setup.Seconds(),
		"sim_kips":     it.c["core.committed"] / wall / 1e3,
		"sim_cycles":   float64(it.cycles),
		"alloc_mb":     float64(ms.TotalAlloc-alloc) / 1e6,
		"heap_peak_mb": float64(p.heapPeak) / 1e6,
	}}
}

// perLayer derives the per-layer ledger from the traced iteration's
// counters and spans.
func perLayer(it *iteration, p *probe, tracedWall, untracedWall float64) map[string]float64 {
	c := it.c
	v := map[string]float64{}
	for _, m := range perLayerMetrics {
		v[m.name] = c[m.name] // counters gathered under their own names
	}
	gen := p.total("kernels.gen")
	v["kernels.gen_s"] = gen
	v["kernels.gen_ns_per_inst"] = ratio(gen*1e9, c["kernels.insts"])
	v["kernels.trace_mb"] = c["kernels.insts"] * float64(instBytes) / 1e6
	v["kernels.ref_s"] = p.total("kernels.ref")

	self := p.selfTimes()
	for _, l := range layers {
		v["self."+l+"_s"] = self[l]
	}
	v["experiments.non_sim_s"] = self["experiments"]

	// The simulation loop: core.Sim directly, inside the runner, or
	// inside a tenant group's lockstep.
	sim := p.total("core.sim") + p.total("tenant.run")
	submit := p.total("dram.submit")
	cycles, committed := c["core.cycles"], c["core.committed"]
	v["core.sim_s"] = sim
	v["core.ns_per_cycle"] = ratio(sim*1e9, cycles)
	v["core.ns_per_inst"] = ratio(sim*1e9, committed)
	v["core.ipc"] = ratio(committed, cycles)
	v["engine.cycles_per_advance"] = ratio(c["engine.cycles"], c["engine.advances"])
	for _, b := range cpiBuckets {
		v["core.cpi."+b] = ratio(c["core.cpi."+b], cycles)
	}

	v["dram.submit_s"] = submit
	v["dram.ns_per_request"] = ratio(submit*1e9, c["dram.requests"])
	v["dram.read_wait"] = ratio(c["dram.read_wait.sum"], c["dram.read_wait.count"])
	v["vm.new_s"] = p.total("vm.new")
	v["vm.chanmap_per_page"] = ratio(c["vm.chanmap_calls"], c["vm.tlb.pages_mapped"])
	v["tenant.run_s"] = p.total("tenant.run")
	v["stats.report_s"] = p.total("stats.report")

	v["trace.wall_s"] = tracedWall
	v["trace.overhead"] = tracedWall / untracedWall
	v["trace.spans"] = float64(len(p.spans))
	return v
}

func printLedger(v map[string]float64) {
	fmt.Printf("\nper-layer ledger (one traced iteration)\n")
	for _, m := range perLayerMetrics {
		if strings.HasPrefix(m.name, "self.") {
			continue
		}
		fmt.Printf("%-28s %-10s %16.6g\n", m.name, m.unit, v[m.name])
	}
	fmt.Printf("\nself time by layer (span minus its children)\n")
	var sum float64
	for _, l := range layers {
		s := v["self."+l+"_s"]
		sum += s
		fmt.Printf("%-12s %10.4f s %6.1f%%\n", l, s, 100*s/v["trace.wall_s"])
	}
	fmt.Printf("%-12s %10.4f s   (traced wall_s %.4f s; unseparated = core.sim_s - dram.submit_s: core, cache, vmem, engine)\n",
		"sum", sum, v["trace.wall_s"])
	fmt.Printf("tracing overhead: traced wall_s / untraced median wall_s = %.4f\n\n", v["trace.overhead"])
}

// segmentBest sums, over the segments an iteration's ticks cut it
// into, the fastest time any of the samples took for that segment.
// Ticks fall at layer boundaries and DRAM submits, the same points of
// the same work in every iteration of a run, so the sum is the time of
// one iteration with the host's delays taken out segment by segment:
// segments last about a millisecond on hd-shared, while the host's
// slow phases come and go every tenth of a second or so, and a whole
// iteration is rarely free of them. It reports false when the samples
// were cut into different numbers of segments.
func segmentBest(samples []sample) (float64, bool) {
	best := slices.Clone(samples[0].seg)
	for _, s := range samples[1:] {
		if len(s.seg) != len(best) {
			return 0, false
		}
		for k, d := range s.seg {
			best[k] = min(best[k], d)
		}
	}
	var sum int64
	for _, d := range best {
		sum += d
	}
	return float64(sum) / 1e9, true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least ten samples above it,
// with the sample count; a run too short for that percentile to lie
// above the median has none.
func tail(v []float64) string {
	n := len(v)
	if n <= 20 {
		return fmt.Sprintf("n/a (n=%d)", n)
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	return fmt.Sprintf("p%d=%.6g (n=%d)", 100*(n-10)/n, s[n-11], n)
}
