package nds

import (
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/stl"
)

// AgedArray builds a small synchronous-GC array, fills it a little over half
// full with spaces of 1 MiB tiles, and overwrites tiles until every die has
// collected: the steady state of the repo benchmark's aged_write workload, at
// a size a unit test can afford. The returned function overwrites one more
// tile. Exported to the external test package for BenchmarkWritePartitionAllocs.
func AgedArray(tb testing.TB) (*stl.STL, func()) {
	tb.Helper()
	geo := nvm.Geometry{Channels: 8, Banks: 1, BlocksPerBank: 9, PagesPerBlock: 128, PageSize: 4096}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := stl.New(dev, stl.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	const (
		spaces = 5
		tiles  = 4 // per space
		side   = 512
	)
	views := make([]*stl.View, spaces)
	for i := range views {
		s, err := st.CreateSpace(4, []int64{tiles * side, side})
		if err != nil {
			tb.Fatal(err)
		}
		if views[i], err = stl.NewView(s, []int64{tiles * side, side}); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(15))
	tile := make([]byte, side*side*4)
	rng.Read(tile)
	coord, sub := []int64{0, 0}, []int64{side, side}
	n := 0
	overwrite := func() {
		k := n % (spaces * tiles)
		if n >= spaces*tiles {
			k = rng.Intn(spaces * tiles)
		}
		n++
		coord[0] = int64(k % tiles)
		if _, _, err := st.WritePartition(0, views[k/tiles], coord, sub, tile); err != nil {
			tb.Fatal(err)
		}
	}
	// The fill, then two raw capacities of overwrites.
	for i := 0; i < spaces*tiles+72; i++ {
		overwrite()
	}
	if rep := st.GCReport(); rep.Erases < int64(geo.Channels) || rep.PagesRelocated == 0 {
		tb.Fatalf("array not aged: %+v", rep)
	}
	return st, overwrite
}

// TestAgedOverwriteAllocs: a 1 MiB overwrite in the collecting steady state —
// 256 pages programmed and, at this write amplification, some 75 relocated —
// allocates nothing per page: pages are assembled in frames of the device's
// arena, which erases refill; relocations move frames; and evacuation's
// working memory stays with the die's GC claim.
func TestAgedOverwriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop request scratches")
	}
	st, overwrite := AgedArray(t)
	before := st.GCReport()
	const runs = 40
	allocs := testing.AllocsPerRun(runs, overwrite)
	after := st.GCReport()
	if after.PagesRelocated == before.PagesRelocated || after.Erases == before.Erases {
		t.Fatalf("the measured overwrites never collected: %+v -> %+v", before, after)
	}
	t.Logf("%.0f allocations per 256-page overwrite; %.0f pages relocated and %.1f blocks erased per overwrite",
		allocs, float64(after.PagesRelocated-before.PagesRelocated)/(runs+1), float64(after.Erases-before.Erases)/(runs+1))
	if allocs > 8 {
		t.Fatalf("%.0f allocations per 1 MiB overwrite, want at most 8: a page or a relocation allocates again", allocs)
	}
}
