package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
)

// FuzzResolve drives momsim's flag resolution with arbitrary values.
// resolve is the single validation funnel between flag.Parse and the
// simulator, so its contract under fuzzing is strict: it must never
// panic, and when it accepts a configuration the result must be
// runnable — a benchmark, a core config and (away from ideal memory) a
// DRAM backend. The checked-in corpus under testdata/fuzz/FuzzResolve
// replays known-interesting combinations as regular test cases.
func FuzzResolve(f *testing.F) {
	add := func(bench, isa, mem, dram, dmap, dsched, dprof, rp string,
		dchan, dwq, dwql, dwqi, dwin, mshr, pf, pfd, pfq int, l2, mlat int64,
		trace, statsjson string, tracebuf, tenants int, qos bool,
		eng string) {
		f.Add(bench, isa, mem, dram, dmap, dsched, dprof, rp,
			dchan, dwq, dwql, dwqi, dwin, mshr, pf, pfd, pfq, l2, mlat,
			trace, statsjson, tracebuf, tenants, qos, eng)
	}
	d := defaultOptions()
	add(d.Bench, d.ISA, d.Mem, d.DRAM, d.DMap, d.DSched, d.DProf, d.RP,
		0, 0, 0, 0, 0, 0, 0, 0, 0, d.L2Lat, d.MemLat, "", "", 0, d.Tenants, false, d.Engine)
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "hbm", "history",
		4, 8, 2, 50, 16, 16, 8, 4, 4, 20, 100, "t.json", "s.json", 1024, 1, false, "wheel")
	add("motionsearch", "mom", "vcache", "sdram", "bank", "fcfs", "ddr", "timer:150",
		0, 0, 0, 0, 0, 8, 0, 0, 0, 40, 100, "", "", 0, 1, false, "step")
	add("jpegencode", "mmx", "multibanked", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "", "out.json", 0, 1, false, "")
	add("mpeg2decode", "mom3d", "ideal", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "", "", 0, 1, false, "wheel")
	add("quake3", "avx512", "dcache", "hbm", "xor", "rr", "lpddr", "lru",
		3, -1, 9, -2, -1, -5, 1, -1, -3, -20, -100, "x", "x", -7, -4, true, "turbo")
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "close",
		0, 0, 0, 0, 0, 1, 8, 0, 0, 20, 100, "", "", 0, 1, false, "") // pf over a blocking file: rejected
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "timer:0",
		0, 0, 0, 0, 0, 16, 8, 0, 0, 20, 100, "", "", 0, 1, false, "") // zero timer gap: rejected
	add("gsmencode", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "", "open",
		0, 0, 0, 0, 0, 16, 0, 0, 8, 20, 100, "", "", 0, 1, false, "") // pfq without pf: rejected
	add("mpeg2encode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "", "", -1, 1, false, "") // negative tracebuf: rejected
	add("mpeg2encode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "", "", 4096, 1, false, "") // tracebuf without trace: rejected
	add("mpeg2encode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "same.json", "same.json", 0, 1, false, "") // colliding outputs: rejected
	add("motionsearch", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 8, 4, 0, 0, 20, 100, "", "", 0, 4, true, "wheel") // the full multi-tenant config: accepted
	add("motionsearch", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "", "", 0, 1, true, "") // qos with one tenant: rejected
	add("motionsearch", "mom3d", "ideal", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "", "", 0, 4, false, "") // tenants on ideal memory: rejected
	add("gsmencode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, -100, "", "", 0, 1, false, "") // negative fixed latency: rejected
	add("motionsearch", "mom3d", "vcache3d", "sdram", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 100, "", "", 0, 1, false, "Wheel") // engine names are case-sensitive: rejected
	add("gsmencode", "mom3d", "vcache3d", "fixed", "line", "frfcfs", "ddr", "open",
		0, 0, 0, 0, 0, 0, 0, 0, 0, 20, 0, "", "", 0, 1, false, "") // zero fixed latency: rejected

	f.Fuzz(func(t *testing.T, bench, isa, mem, dramKind, dmap, dsched, dprof, rp string,
		dchan, dwq, dwql, dwqi, dwin, mshr, pf, pfd, pfq int, l2, mlat int64,
		traceOut, statsOut string, tracebuf, tenants int, qos bool,
		eng string) {
		rc, err := resolve(options{
			Bench: bench, ISA: isa, Mem: mem,
			DRAM: dramKind, DMap: dmap, DSched: dsched, DProf: dprof, RP: rp,
			DChan: dchan, DWQ: dwq, DWQL: dwql, DWQI: dwqi, DWin: dwin,
			MSHR: mshr, PF: pf, PFD: pfd, PFQ: pfq,
			L2Lat: l2, MemLat: mlat,
			Trace: traceOut, StatsJSON: statsOut, TraceBuf: tracebuf,
			Tenants: tenants, QoS: qos, Engine: eng,
		})
		if err != nil {
			return
		}
		if rc.TraceBuf < 0 {
			t.Fatalf("accepted a negative trace ring capacity: %d", rc.TraceBuf)
		}
		if rc.TraceBuf > 0 && rc.Trace == "" {
			t.Fatal("accepted -tracebuf without -trace")
		}
		if rc.Trace != "" && rc.Trace == rc.StatsJSON {
			t.Fatalf("accepted colliding -trace/-statsjson outputs: %q", rc.Trace)
		}
		if rc.Bench.Name == "" {
			t.Fatal("accepted configuration has no benchmark")
		}
		if rc.Core.FetchWidth <= 0 {
			t.Fatalf("accepted configuration has no core: %+v", rc.Core)
		}
		if rc.Timing.Backend == nil {
			t.Fatal("accepted configuration has no DRAM backend")
		}
		if fx, ok := rc.Timing.Backend.(*dram.Fixed); ok && fx.Latency < 1 {
			t.Fatalf("accepted a fixed backend of latency %d; a read must complete after it arrives", fx.Latency)
		}
		if rc.Timing.PFStreams > 0 && rc.Timing.MSHRs < 2 {
			t.Fatalf("accepted a prefetcher over a blocking pipeline: %+v", rc.Timing)
		}
		if rc.MemKind == core.MemIdeal && (rc.Timing.MSHRs != 0 || rc.Timing.PFStreams != 0) {
			t.Fatalf("accepted mshr/pf with ideal memory: %+v", rc.Timing)
		}
		if rc.Tenants < 1 {
			t.Fatalf("accepted a tenant count below 1: %d", rc.Tenants)
		}
		if rc.QoS && rc.Tenants < 2 {
			t.Fatal("accepted -qos without at least 2 tenants")
		}
		if rc.Tenants > 1 && rc.MemKind == core.MemIdeal {
			t.Fatal("accepted multiple tenants on ideal memory (nothing shared to contend on)")
		}
		mode, merr := engine.ParseMode(eng)
		if merr != nil {
			t.Fatalf("accepted an unknown engine %q", eng)
		}
		if rc.Engine != mode {
			t.Fatalf("engine %q resolved to %v, want %v", eng, rc.Engine, mode)
		}
	})
}
