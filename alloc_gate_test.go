package nds

import (
	"math/rand"
	"runtime"
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
// tile. Exported to the external test package for BenchmarkAgedOverwrite.
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

// TestFreshBandAllocs: a band write to a fresh space — eight building blocks
// of 256 pages, every unit placed by the allocation policy and none replaced,
// the load every figure's set-up makes — allocates only what it grows: two
// allocations for each new block (the block and its slot table) and two for
// the index node over them. Placing, carving and binding the 2048 units
// allocates nothing, however the write orders that work, and counting a
// block's units for the policy reuses the request scratch's tables.
func TestFreshBandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop request scratches")
	}
	const n, side, bands = 4096, 512, 8
	cfg := system.PrototypeConfig(n*n*4, true)
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stl.New(dev, cfg.STL)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := st.CreateSpace(4, []int64{n, n})
	if err != nil {
		t.Fatal(err)
	}
	v, err := stl.NewView(sp, []int64{n, n})
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	coord, sub := []int64{0, 0}, []int64{side, n}
	band := func() {
		done, _, err := st.WritePartition(now, v, coord, sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		now, coord[0] = done, coord[0]+1
	}
	allocs := testing.AllocsPerRun(bands-1, band) // a warm-up band, then the rest
	if st.UsedPages() != n*n*4/int64(cfg.Geometry.PageSize) {
		t.Fatalf("%d pages used after the bands, want the whole space", st.UsedPages())
	}
	t.Logf("%.0f allocations per fresh 8 MiB band", allocs)
	if allocs > 18 {
		t.Fatalf("%.0f allocations per fresh 8 MiB band, want at most 18: placing, counting or binding a unit allocates", allocs)
	}
}

// CachedPlane builds a data-bearing STL of the prototype geometry with a
// four-block cache and the prefetcher on, holding one fully written 2048x2048
// float32 space: sixteen 1 MiB building blocks of 256 pages. hit re-reads the
// first block's tile, 256 pages all resident after the first call. miss reads
// the tiles in turn, block row by block row: sixteen blocks through four
// entries, so every call makes entries resident — on demand, or ahead of the
// sweep once the prefetcher has armed — and evicts as many. Both assemble into
// one buffer of the caller's. Exported to the external test package for
// BenchmarkCachedReadAllocs.
func CachedPlane(tb testing.TB) (st *stl.STL, hit, miss func()) {
	tb.Helper()
	const n, side = 2048, 512
	cfg := system.PrototypeConfig(n*n*4, false)
	cfg.STL.CacheBytes = 4 * side * side * 4
	cfg.STL.PrefetchDepth = 2
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, false)
	if err != nil {
		tb.Fatal(err)
	}
	if st, err = stl.New(dev, cfg.STL); err != nil {
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
	band := make([]byte, side*n*4)
	rand.New(rand.NewSource(17)).Read(band)
	var now sim.Time
	for i := int64(0); i < n/side; i++ {
		if now, _, err = st.WritePartition(now, v, []int64{i, 0}, []int64{side, n}, band); err != nil {
			tb.Fatal(err)
		}
	}
	buf := make([]byte, side*side*4)
	coord, sub := []int64{0, 0}, []int64{side, side}
	read := func(i, j int64) {
		coord[0], coord[1] = i, j
		_, done, _, err := st.ReadPartitionInto(now+sim.Microsecond, v, coord, sub, buf)
		if err != nil {
			tb.Fatal(err)
		}
		now = done
	}
	hit = func() { read(0, 0) }
	next := int64(0)
	miss = func() {
		read(next/(n/side)%(n/side), next%(n/side))
		next++
	}
	return st, hit, miss
}

// TestCachedReadAllocs: the cache lends and keeps books, it owns no bytes. A
// warm 1 MiB read — 256 hits, one cache transaction, a stream observation
// that warms nothing — allocates nothing. A read that makes blocks resident
// and evicts others allocates nothing that grows with the block: an entry is
// one page table, drawn from the entries eviction let go, so in the steady
// state it too allocates (next to) nothing, where the copying cache made and
// cleared 1 MiB for every entry.
func TestCachedReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop request scratches")
	}
	st, hit, miss := CachedPlane(t)
	hit()
	if allocs := testing.AllocsPerRun(20, hit); allocs != 0 {
		t.Errorf("%.1f allocations per warm 1 MiB read, want 0", allocs)
	}
	for i := 0; i < 32; i++ {
		miss() // two laps: the entry free list and the scratches reach their size
	}
	const runs = 64
	before, cs0 := memStats(), st.CacheStats()
	for i := 0; i < runs; i++ {
		miss()
	}
	after, cs1 := memStats(), st.CacheStats()
	if cs1.Evictions-cs0.Evictions < runs || cs1.PrefetchIssued == cs0.PrefetchIssued {
		t.Fatalf("the measured reads did not evict an entry each, or never prefetched: %+v -> %+v", cs0, cs1)
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B and %.2f allocations per 1 MiB read that evicts; %.1f evictions per read",
		perOp, float64(after.Mallocs-before.Mallocs)/runs, float64(cs1.Evictions-cs0.Evictions)/runs)
	if perOp >= 16<<10 {
		t.Fatalf("%.0f B allocated per read that creates and evicts entries, want under 16 KiB: an entry owns bytes again", perOp)
	}
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// TestNDSWriteAllocsNotPerExtent: NDSWrite sizes its scatter and disassembly
// stages from a counting walk, so what a write allocates does not grow with
// its extent count — a narrow column of 4096 extents allocates what a row
// band of 16 does. Each write is measured on its own: a Go collection inside
// the measured writes can move the test to the other P, whose sync.Pool slot
// holds no scratch, and the one rebuild that follows (870 KB) is not growth
// with the extent count. A scratch rebuilt once passes; one sized per write
// shows in every write and fails.
func TestNDSWriteAllocsNotPerExtent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop request scratches")
	}
	for _, k := range []system.Kind{system.SoftwareNDS, system.HardwareNDS} {
		s, err := system.New(k, system.PrototypeConfig(64<<20, true))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := s.STL.CreateSpace(4, []int64{4096, 4096})
		if err != nil {
			t.Fatal(err)
		}
		v, err := stl.NewView(sp, []int64{4096, 4096})
		if err != nil {
			t.Fatal(err)
		}
		var now sim.Time
		const runs = 8
		perWrite := func(coord, sub []int64) (extents int, bytes [runs]uint64) {
			write := func() {
				st, err := s.NDSWrite(now, v, coord, sub, nil)
				if err != nil {
					t.Fatal(err)
				}
				now, extents = st.Done, st.Extents
			}
			write() // the first write sizes the pooled request scratch
			var before, after runtime.MemStats
			for i := range bytes {
				runtime.ReadMemStats(&before)
				write()
				runtime.ReadMemStats(&after)
				bytes[i] = after.TotalAlloc - before.TotalAlloc
			}
			return extents, bytes
		}
		fewExt, fews := perWrite([]int64{0, 0}, []int64{1, 4096})
		manyExt, manys := perWrite([]int64{0, 1}, []int64{4096, 16})
		var few uint64
		for _, b := range fews {
			few += b
		}
		few /= runs
		over := 0
		for _, b := range manys {
			if b > few+1024 {
				over++
			}
		}
		t.Logf("%v: %d extents allocate %d B a write, %d extents %v B", k, fewExt, few, manyExt, manys)
		if manyExt < 64*fewExt {
			t.Fatalf("%v: %d against %d extents is no contrast", k, manyExt, fewExt)
		}
		if over > 1 {
			t.Fatalf("%v: %d of %d writes of %d extents allocate more than one of %d extents (%d B) does — %v B: something is sized by the extent count",
				k, over, runs, manyExt, fewExt, few, manys)
		}
	}
}
