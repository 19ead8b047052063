package experiments

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
)

// MSHRCounts lists the MSHR file sizes the non-blocking-pipeline sweep
// crosses. 1 is the blocking model.
var MSHRCounts = []int{1, 4, 8, 16}

// MSHRBenches are the streaming kernels the sweep runs: the two
// workloads that still generate main-memory traffic at full size
// (everything else fits the 2MB L2 after warmup).
var MSHRBenches = []string{"gsmencode", "motionsearch"}

// MSHRProfiles are the SDRAM timing profiles crossed with the MSHR
// counts ("" is the default DDR profile).
var MSHRProfiles = []string{"", "hbm"}

// MSHRSweepRow summarizes one benchmark × profile across MSHR counts
// on the paper's best configuration (MOM+3D over the vector cache with
// the 3D register file).
type MSHRSweepRow struct {
	Bench   string
	Profile string // "ddr" or "hbm"

	Cycles []int64   // per MSHRCounts entry
	BW     []float64 // achieved bytes/cycle per MSHRCounts entry
	MLP    []float64 // mean outstanding misses at allocation
	Span   []float64 // mean instructions per Submit batch
}

// mshrSpec composes the sweep's backend spec for one profile and MSHR
// count.
func mshrSpec(profile string, mshrs int) string {
	s := "sdram/line/frfcfs"
	if profile != "" {
		s += "/" + profile
	}
	return s + fmt.Sprintf("/mshr%d", mshrs)
}

// MSHRSweep runs the non-blocking-pipeline sweep: for each streaming
// kernel and timing profile, MSHR files of increasing size, starting
// from the 1-entry blocking model. It is the experiment behind the
// issue/completion split: achieved bandwidth should rise once the file
// covers an instruction's intrinsic line-level parallelism (a dvload
// spans up to 16 lines) and keeps rising as batches span multiple
// instructions.
func MSHRSweep(r *Runner) []MSHRSweepRow {
	var cells []SimKey
	for _, bench := range MSHRBenches {
		for _, prof := range MSHRProfiles {
			for _, n := range MSHRCounts {
				cells = append(cells, SimKey{Bench: bench, Variant: kernels.MOM3D,
					Mem: mom3DVCKind, L2Lat: baseLat, DRAM: mshrSpec(prof, n)})
			}
		}
	}
	r.prewarm(cells)
	var rows []MSHRSweepRow
	for _, bench := range MSHRBenches {
		for _, prof := range MSHRProfiles {
			name := prof
			if name == "" {
				name = "ddr"
			}
			row := MSHRSweepRow{Bench: bench, Profile: name}
			for _, n := range MSHRCounts {
				res := r.SimDRAM(bench, kernels.MOM3D, mom3DVCKind, baseLat, mshrSpec(prof, n))
				row.Cycles = append(row.Cycles, res.Cycles())
				row.BW = append(row.BW, res.DRAM.AchievedBandwidth())
				row.MLP = append(row.MLP, res.MSHR.MLP())
				row.Span = append(row.Span, res.MSHR.AvgSpan())
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderMSHRSweep formats the sweep as a fixed-width text table.
func RenderMSHRSweep(rows []MSHRSweepRow) string {
	var b strings.Builder
	b.WriteString("MSHR sweep — blocking model vs non-blocking memory pipeline (MOM+3D, vector cache + 3D, sdram/line/frfcfs)\n")
	fmt.Fprintf(&b, "%-14s %-4s", "benchmark", "prof")
	for _, n := range MSHRCounts {
		fmt.Fprintf(&b, " %7s %6s", fmt.Sprintf("mshr%d", n), "B/cyc")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-4s", r.Bench, r.Profile)
		for i := range MSHRCounts {
			fmt.Fprintf(&b, " %7d %6.2f", r.Cycles[i], r.BW[i])
		}
		b.WriteByte('\n')
	}
	b.WriteString("MLP and batch spans at the largest file:\n")
	last := len(MSHRCounts) - 1
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-4s mshr%d: MLP %.2f, %.2f instructions/batch\n",
			r.Bench, r.Profile, MSHRCounts[last], r.MLP[last], r.Span[last])
	}
	return b.String()
}
