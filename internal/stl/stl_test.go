package stl

import (
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// TestBlockSpreadsAcrossChannels: once a building block is fully written,
// its units must cover every parallel channel — the property that lets any
// block access use the device's full internal bandwidth (§4.1).
func TestBlockSpreadsAcrossChannels(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 64, 64) // 32x32 blocks -> grid 2x2, 8 pages/BB
	v := mustView(t, s, 64, 64)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil); err != nil {
		t.Fatal(err)
	}
	geo := st.Geometry()
	g := make([]int64, 2)
	for i := int64(0); i < 4; i++ {
		s.GridCoord(i, g)
		blk, _ := st.block(s, g, false)
		if blk == nil {
			t.Fatalf("block %d never allocated", i)
		}
		per, got := slotChannels(st, blk.pages)
		if got != geo.Channels {
			t.Errorf("block %d spans %d channels, want %d", i, got, geo.Channels)
		}
		// Units per channel should be balanced (8 pages / 4 channels = 2).
		for ch, u := range per {
			if u != 2 {
				t.Errorf("block %d channel %d has %d units, want 2", i, ch, u)
			}
		}
	}
}

// slotChannels counts the units a block's slots, pages, hold on each
// channel, and how many channels hold one.
func slotChannels(st *STL, pages []pageSlot) (per []int, channels int) {
	per = make([]int, st.geo.Channels)
	for i := range pages {
		if v := pages[i].load(); v.allocated() {
			ch := st.lay.Channel(v.word())
			if per[ch]++; per[ch] == 1 {
				channels++
			}
		}
	}
	return per, channels
}

// TestBlockReadEngagesChannels: reading one full building block issues page
// reads on all channels in parallel, so it completes in roughly
// pagesPerBB/channels serialized senses rather than pagesPerBB.
func TestBlockReadEngagesChannels(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil); err != nil {
		t.Fatal(err)
	}
	st.Device().ResetTimeline()
	_, done, stats, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesRead != int64(s.PagesPerBlock()) {
		t.Fatalf("read %d pages, want %d (one block)", stats.PagesRead, s.PagesPerBlock())
	}
	tim := st.Device().Timing()
	serialized := tim.ReadPage * sim.Time(s.PagesPerBlock())
	if done >= serialized {
		t.Fatalf("block read took %v, want < %v (full serialization)", done, serialized)
	}
	// With 8 pages on 4 channels x 2 banks, sensing is 2-deep per bank at
	// worst: comfortably under 3 sense latencies.
	if done > 3*tim.ReadPage {
		t.Fatalf("block read took %v, expected near 2 sense latencies (%v)", done, 2*tim.ReadPage)
	}
}

func TestStatsAccounting(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	_, stats, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 4 {
		t.Errorf("write touched %d blocks, want 4", stats.Blocks)
	}
	if stats.PagesProgrammed != 32 {
		t.Errorf("programmed %d pages, want 32", stats.PagesProgrammed)
	}
	if stats.Bytes != s.Bytes() {
		t.Errorf("moved %d bytes, want %d", stats.Bytes, s.Bytes())
	}
	if stats.PagesRead != 0 {
		t.Errorf("aligned full write should not RMW, read %d pages", stats.PagesRead)
	}
	if st.UsedPages() != 32 {
		t.Errorf("used pages = %d, want 32", st.UsedPages())
	}
}

func TestDeleteSpaceReclaims(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteSpace(s.ID()); err != nil {
		t.Fatal(err)
	}
	if st.UsedPages() != 0 {
		t.Fatalf("used pages = %d after delete, want 0", st.UsedPages())
	}
	if _, ok := st.spaces[s.ID()]; ok {
		t.Fatal("deleted space still resolvable")
	}
	if err := st.DeleteSpace(s.ID()); err == nil {
		t.Fatal("double delete should fail")
	}
}

// TestGCUnderChurnPreservesData repeatedly overwrites tiles until garbage
// collection must run, then verifies the whole space against the reference.
func TestGCUnderChurnPreservesData(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Space sized near the logical capacity so churn forces GC:
	// capacity = 4*2*8*8 = 512 pages raw, ~460 logical; space uses
	// 64x64x4B = 16 KB = 32 pages per full write... use a bigger space.
	s, err := st.CreateSpace(4, []int64{160, 160}) // 100 KB = 200 pages
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(s)
	rng := rand.New(rand.NewSource(31))

	whole := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{160, 160}, whole); err != nil {
		t.Fatal(err)
	}
	ref.scatter(v.Dims(), []int64{0, 0}, []int64{160, 160}, whole)

	for i := 0; i < 60; i++ {
		sub := []int64{1 + rng.Int63n(64), 1 + rng.Int63n(64)}
		coord := []int64{rng.Int63n(160 / sub[0]), rng.Int63n(160 / sub[1])}
		_, n, err := v.PartitionShape(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		data := fillRandom(rng, n*4)
		if _, _, err := st.WritePartition(0, v, coord, sub, data); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		ref.scatter(v.Dims(), coord, sub, data)
	}

	erases, moves := st.GCStats()
	if erases == 0 {
		t.Fatal("GC never ran despite heavy churn near capacity")
	}
	t.Logf("GC: %d erases, %d moves, WA=%.2f", erases, moves, st.GCReport().WriteAmp)

	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.gather(v.Dims(), []int64{0, 0}, []int64{160, 160})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted by GC", i)
		}
	}
}

// TestGCKeepsChannelSpread: relocation stays within the die, so blocks keep
// their full channel coverage after collection.
func TestGCKeepsChannelSpread(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.CreateSpace(4, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{160, 160}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		sub := []int64{32, 32}
		coord := []int64{rng.Int63n(5), rng.Int63n(5)}
		if _, _, err := st.WritePartition(0, v, coord, sub, nil); err != nil {
			t.Fatal(err)
		}
	}
	if erases, _ := st.GCStats(); erases == 0 {
		t.Skip("churn did not trigger GC at this geometry")
	}
	g := make([]int64, 2)
	for i := int64(0); i < prod(s.GridDims()); i++ {
		s.GridCoord(i, g)
		blk, _ := st.block(s, g, false)
		if blk == nil {
			continue
		}
		if _, n := slotChannels(st, blk.pages); n != geo.Channels {
			t.Fatalf("block %d lost channel spread after GC: %d/%d", i, n, geo.Channels)
		}
	}
}

func TestCapacityExhaustion(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Raw 32 pages, logical 28. One space of 64x64x4B = 16 KB = 32 pages
	// cannot fit.
	s, err := st.CreateSpace(4, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil); err == nil {
		t.Fatal("write beyond logical capacity should fail")
	}
}

// TestIndexFootprint: the B-tree overhead must stay far below the paper's
// 0.1% bound at realistic page sizes. With 4 KB pages and 8-byte entries the
// per-page overhead is 8/4096 ~ 0.2%; at test scale we just require < 1%
// of stored bytes plus a fixed node floor.
func TestIndexFootprint(t *testing.T) {
	geo := nvm.Geometry{Channels: 8, Banks: 4, BlocksPerBank: 64, PagesPerBlock: 64, PageSize: 4096}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.CreateSpace(4, []int64{2048, 2048}) // 16 MB
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{2048, 2048})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{2048, 2048}, nil); err != nil {
		t.Fatal(err)
	}
	fp := s.IndexFootprint()
	if fp <= 0 {
		t.Fatal("index footprint should be positive after writes")
	}
	ratio := float64(fp) / float64(s.Bytes())
	if ratio > 0.01 {
		t.Fatalf("index footprint %.4f%% of data, want < 1%%", ratio*100)
	}
	t.Logf("index footprint: %d bytes for %d data bytes (%.4f%%)", fp, s.Bytes(), ratio*100)
}

// TestTraversalCounting: one traversal chain is counted per distinct block.
func TestTraversalCounting(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil); err != nil {
		t.Fatal(err)
	}
	_, _, stats, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 4 {
		t.Fatalf("blocks = %d, want 4", stats.Blocks)
	}
	// 2-level tree: 2 steps per lookup.
	if stats.Traversals != 8 {
		t.Fatalf("traversal steps = %d, want 8", stats.Traversals)
	}
}

// TestNaiveAllocationConcentrates: the ablation allocator keeps each block
// on one die, so block reads lose channel parallelism — the contrast that
// justifies the §4.2 policy.
func TestNaiveAllocationConcentrates(t *testing.T) {
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NaiveAllocation = true
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.CreateSpace(4, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil); err != nil {
		t.Fatal(err)
	}
	g := make([]int64, 2)
	for i := int64(0); i < 4; i++ {
		s.GridCoord(i, g)
		blk, _ := st.block(s, g, false)
		if blk == nil {
			t.Fatalf("block %d missing", i)
		}
		if _, n := slotChannels(st, blk.pages); n != 1 {
			t.Errorf("naive block %d spans %d channels, want 1", i, n)
		}
	}
	// And it is measurably slower to read than the policy layout.
	st.Device().ResetTimeline()
	_, naiveDone, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	policy := newTestSTL(t, true)
	ps, _ := policy.CreateSpace(4, []int64{64, 64})
	pv, _ := NewView(ps, []int64{64, 64})
	if _, _, err := policy.WritePartition(0, pv, []int64{0, 0}, []int64{64, 64}, nil); err != nil {
		t.Fatal(err)
	}
	policy.Device().ResetTimeline()
	_, policyDone, _, err := policy.ReadPartition(0, pv, []int64{0, 0}, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if naiveDone <= policyDone {
		t.Fatalf("naive layout read (%v) should be slower than policy layout (%v)", naiveDone, policyDone)
	}
}

func TestCreateSpaceValidation(t *testing.T) {
	st := newTestSTL(t, true)
	if _, err := st.CreateSpace(4, nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := st.CreateSpace(4, []int64{0, 4}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := st.CreateSpace(-1, []int64{4}); err == nil {
		t.Error("negative element size accepted")
	}
}
