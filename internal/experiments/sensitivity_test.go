package experiments

import "testing"

func TestSweepChannelsScalesNDS(t *testing.T) {
	pts := report(t).Channels
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	at := func(ch int64) SweepPoint {
		for _, p := range pts {
			if p.X == ch {
				return p
			}
		}
		t.Fatalf("no point at %d channels", ch)
		return SweepPoint{}
	}
	// NDS rides internal parallelism: monotone improvement with channels
	// until the host link saturates.
	for i := 1; i < len(pts); i++ {
		if pts[i].HardwareMB < pts[i-1].HardwareMB || pts[i].X <= 32 && pts[i].HardwareMB == pts[i-1].HardwareMB {
			t.Errorf("NDS did not gain from %d->%d channels: %.0f -> %.0f",
				pts[i-1].X, pts[i].X, pts[i-1].HardwareMB, pts[i].HardwareMB)
		}
	}
	// The baseline's small-request gather is latency/request-bound: adding
	// channels barely moves it.
	if at(32).BaselineMB > 2*at(8).BaselineMB {
		t.Errorf("baseline should be request-bound: %.0f @8ch vs %.0f @32ch",
			at(8).BaselineMB, at(32).BaselineMB)
	}
	// At every point NDS dominates.
	for _, p := range pts {
		if p.HardwareMB < 5*p.BaselineMB {
			t.Errorf("channels=%d: NDS %.0f should dominate baseline %.0f", p.X, p.HardwareMB, p.BaselineMB)
		}
	}
}

func TestSweepBlockMultiplierTradeoff(t *testing.T) {
	pts := report(t).BBMult
	// Small multipliers keep row/column symmetric.
	if pts[0].X != 1 || pts[0].RowMB < 0.9*pts[0].ColMB || pts[0].ColMB < 0.9*pts[0].RowMB {
		t.Errorf("mult=%d should be symmetric: row %.0f vs col %.0f", pts[0].X, pts[0].RowMB, pts[0].ColMB)
	}
	// Oversized blocks hurt narrow column bands (sub-block amplification).
	last := pts[len(pts)-1]
	if last.X != 8 || last.ColMB >= pts[0].ColMB {
		t.Errorf("mult=%d column fetch (%.0f) should degrade vs mult=1 (%.0f)", last.X, last.ColMB, pts[0].ColMB)
	}
	// Oversizing must fail once blocks exceed the matrix.
	if _, err := SweepBlockMultiplier(256, []int{64}); err == nil {
		t.Error("blocks larger than the matrix accepted")
	}
}

// TestAblationShapes holds what the ablation sweep isolates: Equation 2's
// balanced blocks and the §4.2 channel/bank placement policy.
func TestAblationShapes(t *testing.T) {
	pts := report(t).Ablations
	if len(pts) != len(ablations) {
		t.Fatalf("got %d layouts, want %d", len(pts), len(ablations))
	}
	policy, rows, naive := pts[0], pts[1], pts[2]
	// 1-D row-shaped blocks keep row fetches but collapse on columns, which
	// is why the STL balances the block's dimensions.
	if rows.ColMB >= policy.ColMB/2 {
		t.Errorf("1-D blocks should collapse on column fetches: %.0f vs 2-D %.0f", rows.ColMB, policy.ColMB)
	}
	if rows.RowMB < 0.9*policy.RowMB || rows.RowMB > 1.1*policy.RowMB {
		t.Errorf("1-D row fetch (%.0f) should be within 10%% of 2-D (%.0f)", rows.RowMB, policy.RowMB)
	}
	// One die per block serializes a tile on the few dies its blocks sit on.
	if naive.TileMB >= policy.TileMB {
		t.Errorf("one-die-per-block tile (%.0f) should be slower than the policy's (%.0f)", naive.TileMB, policy.TileMB)
	}
}
