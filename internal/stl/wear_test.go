package stl

import (
	"math/rand"
	"testing"

	"nds/internal/nvm"
)

// TestWearSpreadsAcrossDies: sustained overwrite churn must distribute
// erases across dies rather than burning out a few — the even-wearing
// property §5.3.4 relies on ("NDS can still ensure performance and
// even-wearing").
func TestWearSpreadsAcrossDies(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	st := mustNew(t, dev, DefaultConfig())
	s, err := st.CreateSpace(4, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{160, 160}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		sub := []int64{32, 32}
		coord := []int64{rng.Int63n(5), rng.Int63n(5)}
		if _, _, err := st.WritePartition(0, v, coord, sub, nil); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	erases, _ := st.GCStats()
	if erases == 0 {
		t.Skip("churn did not trigger GC at this geometry")
	}
	// Per-die erase totals.
	var counts []int64
	var total, maxC int64
	minC := int64(1 << 62)
	for ch := 0; ch < geo.Channels; ch++ {
		for bk := 0; bk < geo.Banks; bk++ {
			var c int64
			for blk := 0; blk < geo.BlocksPerBank; blk++ {
				c += dev.EraseCount(nvm.PPA{Channel: ch, Bank: bk, Block: blk})
			}
			counts = append(counts, c)
			total += c
			if c > maxC {
				maxC = c
			}
			if c < minC {
				minC = c
			}
		}
	}
	if minC == 0 {
		t.Fatalf("some die never erased: %v", counts)
	}
	avg := float64(total) / float64(len(counts))
	if float64(maxC) > 3*avg {
		t.Fatalf("wear skewed: max %d vs avg %.1f (%v)", maxC, avg, counts)
	}
}

// TestWearAwareVictimSelectionSpreadsWithinDie: victim selection blends the
// greedy most-invalid policy with erase-count age — among near-greedy
// candidates the youngest block wins — so sustained churn on one die must
// spread erases across all of its blocks instead of recycling a favourite few.
func TestWearAwareVictimSelectionSpreadsWithinDie(t *testing.T) {
	geo := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 8, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	st := mustNew(t, dev, DefaultConfig())
	s, err := st.CreateSpace(4, []int64{32, 32}) // 4 blocks of 16x16, 8 pages live
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{32, 32}, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		coord := []int64{rng.Int63n(2), rng.Int63n(2)}
		if _, _, err := st.WritePartition(0, v, coord, []int64{16, 16}, nil); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	erases, _ := st.GCStats()
	if erases == 0 {
		t.Fatal("churn of many times the die's capacity never triggered GC")
	}
	var total, maxC int64
	minC := int64(1 << 62)
	counts := make([]int64, geo.BlocksPerBank)
	for b := 0; b < geo.BlocksPerBank; b++ {
		counts[b] = dev.EraseCount(nvm.PPA{Block: b})
		total += counts[b]
		if counts[b] > maxC {
			maxC = counts[b]
		}
		if counts[b] < minC {
			minC = counts[b]
		}
	}
	if minC == 0 {
		t.Fatalf("some block never erased despite wear-aware selection: %v", counts)
	}
	avg := float64(total) / float64(len(counts))
	if float64(maxC) > 2.5*avg {
		t.Fatalf("within-die wear skewed: max %d vs avg %.1f (%v)", maxC, avg, counts)
	}
}
