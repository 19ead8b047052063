package experiments

import (
	"strings"
	"testing"

	"repro/internal/kernels"
)

// mshrRunner registers test-scale versions of the sweep's two
// streaming kernels under their canonical names, so MSHRSweep never
// falls back to the full-size registry in a unit test.
func mshrRunner() *Runner {
	return NewRunnerWith([]kernels.Benchmark{
		kernels.GSMEncode(kernels.SmallGSMEncConfig()),
		kernels.MotionSearch(kernels.SmallMotionSearchConfig()),
	})
}

func TestMSHRSweepShape(t *testing.T) {
	r := mshrRunner()
	rows := MSHRSweep(r)
	if want := len(MSHRBenches) * len(MSHRProfiles); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, row := range rows {
		if len(row.Cycles) != len(MSHRCounts) || len(row.BW) != len(MSHRCounts) ||
			len(row.MLP) != len(MSHRCounts) || len(row.Span) != len(MSHRCounts) {
			t.Fatalf("%s/%s: per-count columns missing", row.Bench, row.Profile)
		}
		for i, n := range MSHRCounts {
			if row.Cycles[i] <= 0 {
				t.Errorf("%s/%s/mshr%d: cycles %d", row.Bench, row.Profile, n, row.Cycles[i])
			}
		}
	}
	out := RenderMSHRSweep(rows)
	if !strings.Contains(out, "MSHR sweep") || !strings.Contains(out, "motionsearch") {
		t.Error("render missing header or benchmark rows")
	}
}

// TestRunnerResolvesExtendedBenchmarks: a bench outside the paper's
// five resolves on demand without joining the presentation order.
func TestRunnerResolvesExtendedBenchmarks(t *testing.T) {
	r := mshrRunner()
	for _, b := range r.Benchmarks() {
		if b != "gsmencode" && b != "motionsearch" {
			t.Fatalf("unexpected benchmark %q in order", b)
		}
	}
	res := r.SimDRAM("motionsearch", kernels.MOM3D, mom3DVCKind, baseLat, "sdram/line/frfcfs/mshr8")
	if res.Cycles() <= 0 {
		t.Fatal("extended benchmark did not simulate")
	}
	if res.MSHR.Allocs == 0 {
		t.Error("mshr8 spec did not reach the MSHR file")
	}
}
