package experiments

import (
	"slices"
	"sync"
	"testing"

	"nds/internal/sim"
	"nds/internal/spec"
)

// The experiment tests assert the *shapes* the paper reports — orderings,
// rough factors, crossovers — on one measurement of the whole report at a
// scale that keeps test time bounded, and TestReport pins every number of it.
// EXPERIMENTS.md holds the same report at the paper's scale, as cmd/ndsbench
// prints it.

const testN = 4096 // microbenchmark matrix side (doubles)

var measured struct {
	once sync.Once
	r    *Report
	err  error
}

// report measures every section at testN once per test binary, Figure 10
// only when not -short. Every load it makes refuses to collect
// (workloads.LoadLinear and LoadBands, and workloads.Collected around
// Figure 9d's timed writes): the figures time the layout the load left.
func report(t *testing.T) *Report {
	t.Helper()
	measured.once.Do(func() {
		sections := Sections
		if testing.Short() {
			sections = slices.DeleteFunc(slices.Clone(Sections), func(s string) bool { return s == "fig 10" })
		}
		measured.r, measured.err = NewReport(testN, sections...)
	})
	if measured.err != nil {
		t.Fatal(measured.err)
	}
	return measured.r
}

// goldenTests are the package's tests that check golden traces, under the
// name of the trace each writes.
var goldenTests = map[string]func(*testing.T){
	"TestReport": TestReport,
}

// TestGoldenTraces runs every traced test of the package (spec.GoldenSet):
// go test -run Golden checks every trace, and with -update rewrites them.
func TestGoldenTraces(t *testing.T) { spec.GoldenSet(t, goldenTests) }

// TestReport pins the whole report at testN: a change that moves any
// simulated number of the paper's evaluation shows on the line it moves.
func TestReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the report has no Figure 10 in short mode")
	}
	var tr spec.Trace
	tr.Add("%s", report(t))
	tr.Check(t, "TestReport")
}

func TestFigure3Shape(t *testing.T) {
	rows := report(t).Fig3
	if len(rows) != 10 {
		t.Fatalf("expected 10 dims (32..16384), got %d", len(rows))
	}
	var tcuPeak, cudaPeak Fig3Row
	for _, r := range rows {
		if r.TensorCores > tcuPeak.TensorCores {
			tcuPeak = r
		}
		if r.CUDACores > cudaPeak.CUDACores {
			cudaPeak = r
		}
		// Tensor Cores dominate CUDA cores everywhere (Figure 3).
		if r.TensorCores <= r.CUDACores {
			t.Errorf("dim %d: TCU (%.0f) should exceed CUDA (%.0f)", r.Dim, r.TensorCores, r.CUDACores)
		}
		// Internal SSD bandwidth exceeds the external links once the device
		// is engaged (the 8:5 ratio of §7.2).
		if r.Dim >= 1024 && r.InternalSSD <= r.NVMeoF {
			t.Errorf("dim %d: internal (%.0f) should exceed NVMeoF (%.0f)", r.Dim, r.InternalSSD, r.NVMeoF)
		}
	}
	// Optimal working sets: 512 for Tensor Cores, 2048 for CUDA cores ([C2]).
	if tcuPeak.Dim != 512 {
		t.Errorf("TCU peak at %d, want 512", tcuPeak.Dim)
	}
	if cudaPeak.Dim != 2048 {
		t.Errorf("CUDA peak at %d, want 2048", cudaPeak.Dim)
	}
	// NVMeoF saturates: the largest two dims within 2%.
	last, prev := rows[len(rows)-1].NVMeoF, rows[len(rows)-2].NVMeoF
	if last < prev*0.98 {
		t.Errorf("NVMeoF curve not saturated at the top end: %.0f vs %.0f", last, prev)
	}
}

func TestFigure2AShape(t *testing.T) {
	r := report(t).Fig2A
	// Paper: the sequential baseline needs 2.11x the sub-block time.
	if r.Ratio < 1.7 || r.Ratio > 2.8 {
		t.Fatalf("Figure 2(a) ratio = %.2f, want ~2.11", r.Ratio)
	}
	if r.CPUTime <= 0 || r.KernelTime <= 0 {
		t.Fatal("stage breakdown missing")
	}
}

func TestFigure2BShape(t *testing.T) {
	r := report(t).Fig2B
	// Paper: the baseline spends 1.92x more time fetching; our calibrated
	// model lands around 1.6x.
	if r.FetchRatio < 1.3 || r.FetchRatio > 2.4 {
		t.Fatalf("Figure 2(b) fetch ratio = %.2f, want ~1.9", r.FetchRatio)
	}
	if r.Ratio <= 1.2 {
		t.Fatalf("Figure 2(b) end-to-end ratio = %.2f, want > 1.2", r.Ratio)
	}
}

func TestFigure9AShape(t *testing.T) {
	rows := report(t).Fig9A
	for _, pt := range rows {
		// Row fetches: hardware NDS within 5% of the baseline; software NDS
		// slower than both but within ~25% (§7.1: 4.3 vs 3.8 GB/s).
		if pt.HardwareMB < 0.95*pt.BaselineMB {
			t.Errorf("%s: hardware NDS (%.0f) should track the baseline (%.0f)",
				pt.Label, pt.HardwareMB, pt.BaselineMB)
		}
		if pt.SoftwareMB >= pt.BaselineMB {
			t.Errorf("%s: software NDS (%.0f) should trail the baseline (%.0f)",
				pt.Label, pt.SoftwareMB, pt.BaselineMB)
		}
		if pt.SoftwareMB < 0.7*pt.BaselineMB {
			t.Errorf("%s: software NDS (%.0f) fell too far below the baseline (%.0f)",
				pt.Label, pt.SoftwareMB, pt.BaselineMB)
		}
	}
}

func TestFigure9BShape(t *testing.T) {
	rows := report(t).Fig9B
	for i, pt := range rows {
		// Column fetches: the row-store baseline collapses; both NDS
		// variants stay within reach of the column-store baseline.
		if pt.BaselineMB >= pt.SoftwareMB/2 {
			t.Errorf("%s: row-store baseline (%.0f) should collapse vs software NDS (%.0f)",
				pt.Label, pt.BaselineMB, pt.SoftwareMB)
		}
		if pt.HardwareMB < 0.8*pt.BaselineAlt {
			t.Errorf("%s: hardware NDS (%.0f) should approach the column-store baseline (%.0f)",
				pt.Label, pt.HardwareMB, pt.BaselineAlt)
		}
		// In-device assembly beats host-side assembly (DESIGN.md decision 3:
		// hardware vs software NDS is exactly that).
		if pt.HardwareMB <= pt.SoftwareMB {
			t.Errorf("%s: hardware NDS (%.0f) should beat software NDS (%.0f)",
				pt.Label, pt.HardwareMB, pt.SoftwareMB)
		}
		// The row-store baseline improves with wider columns.
		if i > 0 && pt.BaselineMB <= rows[i-1].BaselineMB {
			t.Errorf("row-store baseline should grow with width: %.0f then %.0f",
				rows[i-1].BaselineMB, pt.BaselineMB)
		}
	}
}

func TestFigure9CShape(t *testing.T) {
	rows := report(t).Fig9C
	for _, pt := range rows {
		if pt.SoftwareMB < 3*pt.BaselineMB || pt.HardwareMB < 3*pt.BaselineMB {
			t.Errorf("%s: NDS (sw %.0f / hw %.0f) should significantly outperform the baseline (%.0f)",
				pt.Label, pt.SoftwareMB, pt.HardwareMB, pt.BaselineMB)
		}
	}
}

func TestFigure9DShape(t *testing.T) {
	w := report(t).Fig9D
	// Writes: baseline fastest, hardware NDS in between, software NDS last
	// (§7.1: -17% and -30% at paper scale).
	if !(w.BaselineRowMB > w.HardwareMB && w.HardwareMB > w.SoftwareMB) {
		t.Fatalf("write ordering wrong: base=%.0f hw=%.0f sw=%.0f",
			w.BaselineRowMB, w.HardwareMB, w.SoftwareMB)
	}
	if w.SoftwareMB < 0.5*w.BaselineRowMB {
		t.Fatalf("software NDS write (%.0f) fell below half the baseline (%.0f)",
			w.SoftwareMB, w.BaselineRowMB)
	}
}

func TestOverheadAnchors(t *testing.T) {
	o := report(t).Overhead
	// §7.3: +41 us software, +17 us hardware, both of the same order as a
	// flash page access; index <= 0.1% of the data.
	if o.SoftwareDelta < 30*sim.Microsecond || o.SoftwareDelta > 55*sim.Microsecond {
		t.Errorf("software delta = %v, want ~41us", o.SoftwareDelta)
	}
	if o.HardwareDelta < 12*sim.Microsecond || o.HardwareDelta > 25*sim.Microsecond {
		t.Errorf("hardware delta = %v, want ~17us", o.HardwareDelta)
	}
	if o.IndexOverhead > 0.0011 {
		t.Errorf("index overhead = %.4f%%, want <= ~0.1%%", o.IndexOverhead*100)
	}
	if o.HardwareDelta >= o.SoftwareDelta {
		t.Error("hardware translation should cost less than software translation")
	}
}

func TestFigure10Aggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 10 sweep in short mode")
	}
	s := report(t).Fig10
	if len(s.Results) != 10 {
		t.Fatalf("got %d workloads, want 10", len(s.Results))
	}
	// Paper: 5.07x software / 5.73x hardware average speedups.
	if s.AvgSpeedupSW < 4.0 || s.AvgSpeedupSW > 6.5 {
		t.Errorf("software average speedup = %.2f, want ~5.07", s.AvgSpeedupSW)
	}
	if s.AvgSpeedupHW < 4.7 || s.AvgSpeedupHW > 7.3 {
		t.Errorf("hardware average speedup = %.2f, want ~5.73", s.AvgSpeedupHW)
	}
	if s.AvgSpeedupHW <= s.AvgSpeedupSW {
		t.Error("hardware NDS should beat software NDS on average")
	}
	// The zero-overhead oracle performs about as well as software NDS
	// (§7.2: "the performance gain is just about the same").
	if s.AvgSpeedupOracle < s.AvgSpeedupSW {
		t.Errorf("oracle average (%.2f) should be at least software NDS (%.2f)",
			s.AvgSpeedupOracle, s.AvgSpeedupSW)
	}
	for _, r := range s.Results {
		if r.Spec.Name == "BFS" && (r.SpeedupSoftware < 0.6 || r.SpeedupSoftware > 1.4) {
			t.Errorf("BFS software speedup = %.2f, paper reports almost no benefit", r.SpeedupSoftware)
		}
	}
}
