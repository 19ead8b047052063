package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dram/policy"
	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// options mirrors the command-line flags; resolve validates them into a
// runnable configuration so flag handling is testable without flag.Parse.
type options struct {
	Bench  string
	ISA    string
	Mem    string
	DRAM   string
	DMap   string
	DSched string
	DProf  string
	RP     string
	DChan  int
	DWQ    int
	DWQL   int
	DWQI   int
	DWin   int
	MSHR   int
	PF     int
	PFD    int
	PFQ    int
	L2Lat  int64
	MemLat int64
	Gshare bool
	Engine string // simulation engine: step (per-cycle oracle) or wheel

	// Multi-tenant front end: Tenants runs that many instances of the
	// kernel trace through one shared L2/MSHR/DRAM (1 = the classic
	// single-requestor simulator); QoS turns on per-tenant credit
	// scheduling in the sdram channel scheduler.
	Tenants int
	QoS     bool

	// VA turns on per-requestor virtual address translation and names
	// the physical placement policy: first, color, colo ("" = off).
	VA string

	// Observability outputs: Trace writes a Chrome trace-event JSON
	// file (TraceBuf sizes the event ring; 0 = default), StatsJSON
	// writes the registry snapshot, CPIStack prints the cycle
	// attribution report, and Sample/SampleJSON record a per-interval
	// time series of every registered counter.
	Trace      string
	StatsJSON  string
	TraceBuf   int
	CPIStack   bool
	Sample     int64
	SampleJSON string
}

// defaultOptions matches the flag defaults.
func defaultOptions() options {
	return options{
		Bench: "mpeg2encode", ISA: "mom3d", Mem: "vcache3d",
		DRAM: "fixed", DMap: "line", DSched: "frfcfs", DProf: "ddr", RP: "open",
		L2Lat: 20, MemLat: 100, Tenants: 1,
	}
}

// runConfig is everything one simulation needs.
type runConfig struct {
	Bench   kernels.Benchmark
	Variant kernels.Variant
	Core    core.Config
	MemKind core.MemKind
	Timing  vmem.Timing
	Tenants int         // concurrent requestors (1 = single-requestor path)
	QoS     bool        // per-tenant credit scheduling in the sdram controller
	Engine  engine.Mode // per-cycle oracle or the event-wheel engine
	VM      *vm.VM      // address-translation layer (nil = translation off)

	Trace      string // Chrome trace-event JSON output path ("" = off)
	StatsJSON  string // registry-snapshot JSON output path ("" = off)
	TraceBuf   int    // trace ring capacity in events (0 = default)
	CPIStack   bool   // print the CPI-stack cycle attribution report
	Sample     int64  // interval time-series sampling period in cycles (0 = off)
	SampleJSON string // time-series JSON output path ("" = off)
}

// resolve validates the options, building the benchmark, processor,
// memory-system and DRAM-backend configuration or reporting which flag
// value is unknown.
func resolve(o options) (runConfig, error) {
	var rc runConfig
	bm, ok := kernels.ByName(o.Bench)
	if !ok {
		return rc, fmt.Errorf("unknown benchmark %q (mpeg2encode, mpeg2decode, jpegencode, jpegdecode, gsmencode, motionsearch)", o.Bench)
	}
	variant, cfg, err := parseISA(o.ISA)
	if err != nil {
		return rc, err
	}
	memKind, err := parseMem(o.Mem)
	if err != nil {
		return rc, err
	}
	rp, err := policy.Parse(o.RP)
	if err != nil {
		return rc, err
	}
	if o.Tenants < 1 {
		return rc, fmt.Errorf("-tenants must be at least 1 (got %d)", o.Tenants)
	}
	if o.QoS && o.Tenants < 2 {
		return rc, fmt.Errorf("-qos partitions the channel between requestors; it needs -tenants >= 2")
	}
	if o.QoS && strings.ToLower(o.DRAM) != "sdram" {
		return rc, fmt.Errorf("-qos is a channel-scheduler feature; it requires -dram sdram")
	}
	if o.Tenants > 1 && memKind == core.MemIdeal {
		return rc, fmt.Errorf("-tenants needs a shared cache hierarchy to contend for; it has no effect with -mem ideal")
	}
	// The backend only learns the tenant count when it matters to it:
	// a multi-tenant run (stat shards and, with QoS, credit scheduling).
	tn := 0
	if o.Tenants > 1 {
		tn = o.Tenants
	}
	knobs := dram.Knobs{Channels: o.DChan, WQDrain: o.DWQ, Window: o.DWin,
		WQLow: o.DWQL, WQIdle: int64(o.DWQI), MSHRs: o.MSHR,
		PFStreams: o.PF, PFDegree: o.PFD, PFQ: o.PFQ,
		Tenants: tn, QoS: o.QoS, RP: rp}
	backend, err := dram.BuildOpts(o.DRAM, o.DMap, o.DSched, o.DProf, knobs, o.MemLat)
	if err != nil {
		return rc, err
	}
	if o.VA != "" {
		if memKind == core.MemIdeal {
			return rc, fmt.Errorf("-va translates the cache-hierarchy access path; it has no effect with -mem ideal")
		}
		if rc.VM, err = core.NewVM(o.VA, o.Tenants, backend); err != nil {
			return rc, err
		}
	}
	if memKind == core.MemIdeal && o.MSHR != 0 {
		return rc, fmt.Errorf("-mshr needs a cache hierarchy; it has no effect with -mem ideal")
	}
	if memKind == core.MemIdeal && o.PF != 0 {
		return rc, fmt.Errorf("-pf needs a cache hierarchy; it has no effect with -mem ideal")
	}
	if o.TraceBuf < 0 {
		return rc, fmt.Errorf("-tracebuf must not be negative (got %d)", o.TraceBuf)
	}
	if o.TraceBuf > 0 && o.Trace == "" {
		return rc, fmt.Errorf("-tracebuf sizes the -trace event ring; it has no effect without -trace")
	}
	if o.Trace != "" && o.Trace == o.StatsJSON {
		return rc, fmt.Errorf("-trace and -statsjson both write %q; pick distinct files", o.Trace)
	}
	if o.Sample < 0 {
		return rc, fmt.Errorf("-sample must not be negative (got %d)", o.Sample)
	}
	if o.Sample > 0 && o.SampleJSON == "" {
		return rc, fmt.Errorf("-sample records an interval time series; name its output with -samplejson <file>")
	}
	if o.SampleJSON != "" && o.Sample == 0 {
		return rc, fmt.Errorf("-samplejson has no effect without -sample <cycles>")
	}
	if o.SampleJSON != "" && (o.SampleJSON == o.Trace || o.SampleJSON == o.StatsJSON) {
		return rc, fmt.Errorf("-samplejson collides with another output writing %q; pick distinct files", o.SampleJSON)
	}
	mode, err := engine.ParseMode(o.Engine)
	if err != nil {
		return rc, err
	}
	cfg.UseGshare = o.Gshare
	rc.Engine = mode
	rc.Bench = bm
	rc.Variant = variant
	rc.Core = cfg
	rc.MemKind = memKind
	rc.Timing = vmem.Timing{L2Latency: o.L2Lat, MemLatency: o.MemLat, Backend: backend,
		MSHRs: o.MSHR, PFStreams: o.PF, PFDegree: o.PFD}
	if rc.VM != nil && o.Tenants == 1 {
		// The multi-tenant path hands the VM to the tenant group instead,
		// which wires Space(i) into tenant i's Timing view.
		rc.Timing.VA = rc.VM.Space(0)
	}
	rc.Tenants, rc.QoS = o.Tenants, o.QoS
	rc.Trace, rc.StatsJSON, rc.TraceBuf = o.Trace, o.StatsJSON, o.TraceBuf
	rc.CPIStack, rc.Sample, rc.SampleJSON = o.CPIStack, o.Sample, o.SampleJSON
	return rc, nil
}

func parseISA(s string) (kernels.Variant, core.Config, error) {
	switch strings.ToLower(s) {
	case "mmx":
		return kernels.MMX, core.MMXCore(), nil
	case "mom":
		return kernels.MOM, core.MOMCore(), nil
	case "mom3d", "mom+3d":
		return kernels.MOM3D, core.MOMCore(), nil
	}
	return 0, core.Config{}, fmt.Errorf("unknown ISA %q (mmx, mom, mom3d)", s)
}

func parseMem(s string) (core.MemKind, error) {
	switch strings.ToLower(s) {
	case "ideal":
		return core.MemIdeal, nil
	case "multibanked", "mb":
		return core.MemMultiBanked, nil
	case "vcache", "vectorcache":
		return core.MemVectorCache, nil
	case "vcache3d", "vcache+3d":
		return core.MemVectorCache3D, nil
	}
	return 0, fmt.Errorf("unknown memory system %q (ideal, multibanked, vcache, vcache3d)", s)
}
