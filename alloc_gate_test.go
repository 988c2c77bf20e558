package nds

import (
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
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

// PhantomPlane builds a phantom STL of the prototype geometry holding one
// 4096x4096 float32 space (64 blocks of 256 pages) and returns the two
// requests whose bookkeeping the allocation gate and the allocation
// benchmarks measure. readColumn reads a 64-element-wide column: 2048 pages,
// two block rows to a page. writeBlock fills the next building block, 256
// pages of which one is a replacement and 255 are placed by the allocation
// policy (after 62 calls it wraps around and overwrites). Set-up writes the
// first page of every block, so that a measured write builds no block, and
// two whole blocks, which between them touch every bank and channel timeline.
// Each request arrives a little after the last one completed, so every
// timeline it touches gains an interval. Exported to the external test
// package for the allocation benchmarks.
func PhantomPlane(tb testing.TB) (readColumn, writeBlock func()) {
	tb.Helper()
	const n, side = 4096, 512
	cfg := system.PrototypeConfig(n*n*4, true)
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, true)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := stl.New(dev, cfg.STL)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := st.CreateSpace(4, []int64{n, n})
	if err != nil {
		tb.Fatal(err)
	}
	if sp.PagesPerBlock() != 256 {
		tb.Fatalf("building blocks have %d pages, the gate assumes 256", sp.PagesPerBlock())
	}
	v, err := stl.NewView(sp, []int64{n, n})
	if err != nil {
		tb.Fatal(err)
	}
	var now sim.Time
	write := func(coord, sub []int64) {
		done, _, err := st.WritePartition(now+sim.Microsecond, v, coord, sub, nil)
		if err != nil {
			tb.Fatal(err)
		}
		now = done
	}
	for g := int64(0); g < n/side; g++ {
		write([]int64{g * side, 0}, []int64{1, n})
	}
	coord, sub := []int64{0, 0}, []int64{side, side}
	next := int64(0)
	writeBlock = func() {
		coord[0], coord[1] = next/(n/side)%(n/side), next%(n/side)
		next++
		write(coord, sub)
	}
	writeBlock()
	writeBlock()
	colCoord, colSub := []int64{0, 3}, []int64{n, 64}
	readColumn = func() {
		_, done, _, err := st.ReadPartitionInto(now+sim.Microsecond, v, colCoord, colSub, nil)
		if err != nil {
			tb.Fatal(err)
		}
		now = done
	}
	return readColumn, writeBlock
}

// TestPlanAndBookingAllocs: on a warmed STL, planning and booking a request
// allocate nothing — not per page (the block plan's tables and the timelines'
// windows are reused), not per placed unit (the channel is selected, not
// sorted into a fresh slice), and not per request. The device is phantom, so
// no payload buffer is in the count.
func TestPlanAndBookingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop request scratches")
	}
	readColumn, writeBlock := PhantomPlane(t)
	readColumn()
	if allocs := testing.AllocsPerRun(20, readColumn); allocs != 0 {
		t.Errorf("%.1f allocations per 2048-page column read, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, writeBlock); allocs != 0 {
		t.Errorf("%.1f allocations per 256-page write, want 0", allocs)
	}
}
