package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/stats"
)

func TestDRAMSweepShape(t *testing.T) {
	r := smallRunner()
	rows := DRAMSweep(r)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	sawDiff := false
	bestHit := 0.0
	for _, row := range rows {
		if len(row.Cycles) != len(DRAMMappings) || len(row.RowHit) != len(DRAMMappings) {
			t.Fatalf("%s: per-mapping columns missing", row.Bench)
		}
		for i, m := range DRAMMappings {
			if row.Cycles[i] <= 0 {
				t.Errorf("%s/%s: cycles %d", row.Bench, m, row.Cycles[i])
			}
			if row.RowHit[i] < 0 || row.RowHit[i] > 1 {
				t.Errorf("%s/%s: row hit rate %f out of range", row.Bench, m, row.RowHit[i])
			}
			if row.Cycles[i] != row.FixedCycles {
				sawDiff = true
			}
			if row.RowHit[i] > bestHit {
				bestHit = row.RowHit[i]
			}
		}
	}
	if !sawDiff {
		t.Error("SDRAM and fixed backends produced identical cycles everywhere")
	}
	// The streaming kernels must keep rows open under at least one
	// mapping (the acceptance bar for the banked model).
	if bestHit < 0.5 {
		t.Errorf("best row hit rate = %f, want > 0.5", bestHit)
	}
	out := RenderDRAMSweep(rows)
	if !strings.Contains(out, "DRAM sweep") || !strings.Contains(out, "gsmencode") {
		t.Error("render missing header or benchmark rows")
	}
}

func TestChannelScalingSweepShape(t *testing.T) {
	// The test-scale benchmarks touch DRAM too rarely (a few dozen cold
	// misses over the whole run) to exhibit bandwidth scaling, so this
	// only checks the sweep's shape; TestChannelScalingFullGSM asserts
	// the scaling itself on a full-size streaming kernel.
	r := smallRunner()
	rows := DRAMChannelScaling(r)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, row := range rows {
		if len(row.BW) != len(DRAMChannels) || len(row.Cycles) != len(DRAMChannels) {
			t.Fatalf("%s: missing columns", row.Bench)
		}
		for i := range DRAMChannels {
			if row.Cycles[i] <= 0 || row.BW[i] <= 0 {
				t.Errorf("%s/%dch: cycles %d bw %f", row.Bench, DRAMChannels[i], row.Cycles[i], row.BW[i])
			}
		}
	}
	out := RenderChannelScaling(rows)
	if !strings.Contains(out, "channel scaling") || !strings.Contains(out, "gsmencode") {
		t.Error("render missing header or benchmark rows")
	}
}

func TestChannelScalingFullGSM(t *testing.T) {
	// The acceptance bar for the per-channel-sharded controller: on a
	// full-size streaming kernel, 4 channels achieve more DRAM
	// bandwidth than 1. gsmencode is the densest DRAM client of the
	// suite and the simulation is deterministic, so the comparison is
	// exact.
	r := NewRunnerWith([]kernels.Benchmark{kernels.GSMEncode(kernels.DefaultGSMEncConfig())})
	one := r.SimDRAM("gsmencode", kernels.MOM3D, core.MemVectorCache3D, baseLat, "sdram/line/frfcfs/1ch")
	four := r.SimDRAM("gsmencode", kernels.MOM3D, core.MemVectorCache3D, baseLat, "sdram/line/frfcfs/4ch")
	if b1, b4 := one.DRAM.AchievedBandwidth(), four.DRAM.AchievedBandwidth(); b4 <= b1 {
		t.Errorf("4-channel bandwidth %.2f B/cyc not above 1-channel %.2f", b4, b1)
	}
	if four.Cycles() > one.Cycles() {
		t.Errorf("4-channel run slower: %d vs %d cycles", four.Cycles(), one.Cycles())
	}
}

func TestFixedSpecMatchesSeedModel(t *testing.T) {
	// The explicit fixed backend must reproduce the flat-latency seed
	// model cycle-for-cycle.
	r := smallRunner()
	for _, bench := range r.Benchmarks() {
		seed := r.SimDRAM(bench, kernels.MOM3D, core.MemVectorCache3D, baseLat, "")
		fixed := r.SimDRAM(bench, kernels.MOM3D, core.MemVectorCache3D, baseLat, "fixed")
		if seed.Cycles() != fixed.Cycles() {
			t.Errorf("%s: fixed backend %d cycles vs seed model %d", bench, fixed.Cycles(), seed.Cycles())
		}
	}
}

// TestSingleMemoryRoute: every L2 miss takes one route, MSHR file then
// DRAM backend. The "" spec is the fixed backend and MSHRs 0 is the
// 1-entry file, so each pair below must produce the same registry
// snapshot, key for key and value for value, on every memory kind.
func TestSingleMemoryRoute(t *testing.T) {
	r := mshrRunner()
	pairs := [][2]string{
		{"", "fixed"},
		{"fixed", "fixed/mshr1"},
		{"sdram/line/frfcfs", "sdram/line/frfcfs/mshr1"},
	}
	configs := []struct {
		v    kernels.Variant
		kind core.MemKind
	}{
		{kernels.MOM3D, core.MemVectorCache3D},
		{kernels.MOM, core.MemVectorCache},
		{kernels.MMX, core.MemMultiBanked},
		{kernels.MOM, core.MemIdeal},
	}
	for _, bench := range MSHRBenches {
		for _, c := range configs {
			for _, p := range pairs {
				a := r.SimDRAM(bench, c.v, c.kind, baseLat, p[0]).Snap
				b := r.SimDRAM(bench, c.v, c.kind, baseLat, p[1]).Snap
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s/%v/%v: snapshots of %q and %q differ:\n%s", bench, c.v, c.kind, p[0], p[1], snapDiff(a, b))
				}
			}
		}
	}
}

// snapDiff lists the keys whose values differ between two snapshots;
// a key present in only one shows its missing side as <nil>.
func snapDiff(a, b stats.Snapshot) string {
	flat := func(s stats.Snapshot) map[string]any {
		m := map[string]any{}
		for n, v := range s.Counters {
			m["counter "+n] = v
		}
		for n, v := range s.Gauges {
			m["gauge "+n] = v
		}
		for n, v := range s.Hists {
			m["histogram "+n] = v
		}
		return m
	}
	fa, fb := flat(a), flat(b)
	var out []string
	for _, m := range []map[string]any{fa, fb} {
		for k := range m {
			if !reflect.DeepEqual(fa[k], fb[k]) && !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	for i, k := range out {
		out[i] = fmt.Sprintf("  %s: %v vs %v", k, fa[k], fb[k])
	}
	return strings.Join(out, "\n")
}

func TestRunnerDRAMSpecAppliesToSim(t *testing.T) {
	r := smallRunner()
	r.DRAMSpec = "sdram/bank/frfcfs"
	res := r.Sim("gsmencode", kernels.MOM3D, core.MemVectorCache3D, baseLat)
	if res.Key.DRAM != "sdram/bank/frfcfs" {
		t.Fatalf("key DRAM spec = %q", res.Key.DRAM)
	}
	if res.DRAM.Accesses == 0 {
		t.Fatal("sdram stats empty: backend was not threaded through")
	}
}
