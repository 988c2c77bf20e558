package workloads

import (
	"testing"

	"nds/internal/system"
)

func TestCatalogSanity(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d workloads, Table 1 lists 10", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if seen[s.Name] {
			t.Errorf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
		if s.Bytes() <= 0 || s.FetchBytes() <= 0 {
			t.Errorf("%s: non-positive sizes", s.Name)
		}
		if s.Iters <= 0 {
			t.Errorf("%s: non-positive iterations", s.Name)
		}
		for _, f := range s.Fetches {
			if len(f.Sub) != len(s.Dims) || len(f.At) != len(s.Dims) {
				t.Errorf("%s: fetch rank mismatch", s.Name)
			}
			for i := range f.Sub {
				if f.At[i]*f.Sub[i] >= s.Dims[i] {
					t.Errorf("%s: fetch coordinate out of range in dim %d", s.Name, i)
				}
			}
		}
	}
	// The paper's dataset-sharing pairs.
	for _, pair := range [][2]string{{"BFS", "SSSP"}, {"KMeans", "KNN"}, {"TTV", "TC"}} {
		var a, b *Spec
		for i := range cat {
			if cat[i].Name == pair[0] {
				a = &cat[i]
			}
			if cat[i].Name == pair[1] {
				b = &cat[i]
			}
		}
		if a == nil || b == nil || a.SharedWith != b.Name || b.SharedWith != a.Name {
			t.Errorf("sharing pair %v not declared symmetrically", pair)
		}
	}
}

func TestLinearRunsContiguousRowBand(t *testing.T) {
	// A full-width row band is one contiguous run.
	runs := linearRuns([]int64{100, 50}, 4, []int64{2, 0}, []int64{10, 50})
	if len(runs) != 1 {
		t.Fatalf("row band produced %d runs, want 1", len(runs))
	}
	if runs[0].Off != 2*10*50*4 || runs[0].Len != 10*50*4 {
		t.Fatalf("run = %+v", runs[0])
	}
}

func TestLinearRunsColumnBand(t *testing.T) {
	// A column band needs one run per row.
	runs := linearRuns([]int64{100, 50}, 4, []int64{0, 1}, []int64{100, 10})
	if len(runs) != 100 {
		t.Fatalf("column band produced %d runs, want 100", len(runs))
	}
	for i, r := range runs {
		wantOff := int64(i)*50*4 + 10*4
		if r.Off != wantOff || r.Len != 40 {
			t.Fatalf("run %d = %+v, want off=%d len=40", i, r, wantOff)
		}
	}
}

func TestLinearRunsMergeInner(t *testing.T) {
	// 3-D: sub spanning the full inner two dims merges into larger runs.
	runs := linearRuns([]int64{8, 4, 4}, 4, []int64{1, 0, 0}, []int64{2, 4, 4})
	if len(runs) != 1 {
		t.Fatalf("fully-inner partition produced %d runs, want 1", len(runs))
	}
	if runs[0].Len != 2*4*4*4 {
		t.Fatalf("merged run len = %d", runs[0].Len)
	}
}

func TestLinearRunsClamp(t *testing.T) {
	runs := linearRuns([]int64{10, 10}, 1, []int64{1, 1}, []int64{6, 6})
	// Shape clamps to (4, 4): 4 runs of 4 bytes.
	if len(runs) != 4 {
		t.Fatalf("clamped partition produced %d runs, want 4", len(runs))
	}
	var total int64
	for _, r := range runs {
		total += r.Len
	}
	if total != 16 {
		t.Fatalf("clamped bytes = %d, want 16", total)
	}
}

func TestVaryCoordStaysInBounds(t *testing.T) {
	for _, spec := range Catalog() {
		for _, f := range spec.Fetches {
			for r := 0; r < 4; r++ {
				at := varyCoord(spec, f, r)
				for i := range at {
					if at[i]*f.Sub[i] >= spec.Dims[i] {
						t.Errorf("%s rep %d: coordinate %v out of bounds", spec.Name, r, at)
					}
				}
			}
		}
	}
}

// scaleSpec shrinks a workload for unit-test runtime.
func scaleSpec(s Spec, div int64) Spec { return s.Scaled(div) }

// TestRunShapes checks the headline orderings of Figure 10 on three
// representative workloads at reduced scale: tiled workloads must gain
// substantially from NDS, hardware must beat software, the oracle must not
// beat hardware by much, and sequential-row BFS must gain ~nothing.
func TestRunShapes(t *testing.T) {
	byName := map[string]Spec{}
	for _, s := range Catalog() {
		byName[s.Name] = s
	}

	hotspot, err := Run(scaleSpec(byName["Hotspot"], 4))
	if err != nil {
		t.Fatal(err)
	}
	if hotspot.SpeedupSoftware < 2 {
		t.Errorf("Hotspot software speedup = %.2f, want >= 2 (tiled fetches)", hotspot.SpeedupSoftware)
	}
	if hotspot.SpeedupHardware <= hotspot.SpeedupSoftware {
		t.Errorf("hardware (%.2f) should beat software (%.2f) NDS",
			hotspot.SpeedupHardware, hotspot.SpeedupSoftware)
	}
	if hotspot.IdleReductionHW < 0.5 {
		t.Errorf("Hotspot hw idle reduction = %.2f, want >= 0.5", hotspot.IdleReductionHW)
	}

	bfs, err := Run(scaleSpec(byName["BFS"], 4))
	if err != nil {
		t.Fatal(err)
	}
	// At test scale the fixed translation cost looms larger than at paper
	// scale (where BFS lands at ~0.96x); the invariant is "no meaningful
	// benefit", i.e. nowhere near the tiled workloads' gains.
	if bfs.SpeedupSoftware < 0.35 || bfs.SpeedupSoftware > 1.5 {
		t.Errorf("BFS software speedup = %.2f, want ~1 (row-store already sequential)",
			bfs.SpeedupSoftware)
	}

	sssp, err := Run(scaleSpec(byName["SSSP"], 4))
	if err != nil {
		t.Fatal(err)
	}
	if sssp.SpeedupSoftware <= bfs.SpeedupSoftware {
		t.Errorf("column-band SSSP (%.2f) should gain more than row-major BFS (%.2f)",
			sssp.SpeedupSoftware, bfs.SpeedupSoftware)
	}
	if sssp.SpeedupOracle < sssp.SpeedupSoftware*0.8 {
		t.Errorf("oracle (%.2f) should be at least comparable to software NDS (%.2f)",
			sssp.SpeedupOracle, sssp.SpeedupSoftware)
	}
}

// TestRunPushdown pins the pushdown timing model's headline shapes at 1/4 of
// the catalog's scale: hardware NDS moves only result bytes under pushdown
// (>= 5x fewer than reading the partitions for BFS and KNN), software NDS
// ships raw pages either way, and at least one kernel — BFS, whose frontier
// scan is cheap relative to its link traffic — wins end-to-end sim time from
// pushing down. KNN's top-k reduce saves the most link bytes yet loses sim
// time: the controller's scan rate bounds its pipeline, the [P2] tradeoff the
// paper's hardware/software split exists to expose. The win holds at this
// scale only: at the catalog's scale (Figure 10's push rows) the controller's
// scan gates the fetch and all five push workloads lose, BFS included.
func TestRunPushdown(t *testing.T) {
	byName := map[string]Spec{}
	for _, s := range Catalog() {
		byName[s.Name] = s
	}
	results := map[string]Result{}
	for _, name := range []string{"BFS", "KNN"} {
		spec := byName[name]
		if spec.Push == nil {
			t.Fatalf("%s: no PushSpec in catalog", name)
		}
		res, err := Run(scaleSpec(spec, 4))
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
		if res.HardwarePush == 0 || res.SoftwarePush == 0 {
			t.Fatalf("%s: push pipelines not measured (%+v)", name, res)
		}
		if res.HWPushLinkBytes*5 > res.HWLinkBytes {
			t.Errorf("%s: hardware push link bytes %d not 5x under read's %d",
				name, res.HWPushLinkBytes, res.HWLinkBytes)
		}
		if res.SWPushLinkBytes != res.SWLinkBytes {
			t.Errorf("%s: software push link bytes %d != read's %d (software STL ships raw pages either way)",
				name, res.SWPushLinkBytes, res.SWLinkBytes)
		}
	}
	if results["BFS"].PushWinHW <= 1 {
		t.Errorf("BFS hardware pushdown win = %.2f, want > 1 (end-to-end sim-time win)",
			results["BFS"].PushWinHW)
	}
	// The static link model must agree in shape with the measured traffic.
	for _, s := range Catalog() {
		if s.Push == nil {
			continue
		}
		hwPush := s.LinkBytes(system.HardwareNDS, true, 0)
		if hwPush >= s.FetchBytes() {
			t.Errorf("%s: static hardware push link bytes %d not under fetch bytes %d",
				s.Name, hwPush, s.FetchBytes())
		}
		if got := s.LinkBytes(system.SoftwareNDS, true, 0); got < s.FetchBytes() {
			t.Errorf("%s: static software push link bytes %d below fetch bytes %d",
				s.Name, got, s.FetchBytes())
		}
		if got := s.LinkBytes(system.HardwareNDS, false, 0); got != s.FetchBytes() {
			t.Errorf("%s: static no-push link bytes %d != fetch bytes %d",
				s.Name, got, s.FetchBytes())
		}
	}
}

func TestRunRejectsNothing(t *testing.T) {
	// Every catalog entry must at least build its platform (scaled down).
	for _, s := range Catalog() {
		small := scaleSpec(s, 8)
		small.Iters = 4
		if _, err := Run(small); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

var _ = system.Run{} // keep the import for the run helpers above
