package stl

import (
	"bytes"
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// newCachedSTL builds an STL on the small test geometry with the block cache
// enabled. dramBW <= 0 makes hits instantaneous, which several tests use to
// separate hit accounting from hit timing.
func newCachedSTL(t *testing.T, phantom bool, cacheBytes int64, depth int, dramBW float64) *STL {
	t.Helper()
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), phantom)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = cacheBytes
	cfg.PrefetchDepth = depth
	cfg.CacheDRAMBandwidth = dramBW
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A warm re-read serves every page from DRAM: no new flash reads, all hits,
// byte-identical data, and a completion earlier than the cold read's.
func TestCacheHitServesFromDRAM(t *testing.T) {
	st := newCachedSTL(t, false, 1<<20, 0, 25.6e9)
	sp := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, sp, 64, 64)
	payload := make([]byte, 64*64*4)
	rand.New(rand.NewSource(1)).Read(payload)
	wDone, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, payload)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldDone, coldStats, err := st.ReadPartition(wDone, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, payload) {
		t.Fatal("cold read returned wrong bytes")
	}
	cs := st.CacheStats()
	if cs.Hits != 0 || cs.Misses != coldStats.PagesRead {
		t.Fatalf("cold read counters: %+v (PagesRead=%d)", cs, coldStats.PagesRead)
	}
	warm, warmDone, warmStats, err := st.ReadPartition(coldDone, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, payload) {
		t.Fatal("warm read returned wrong bytes")
	}
	if warmStats.PagesRead != 0 {
		t.Fatalf("warm read touched flash: %d pages", warmStats.PagesRead)
	}
	cs = st.CacheStats()
	if cs.Hits != coldStats.PagesRead {
		t.Fatalf("warm read hits=%d, want %d", cs.Hits, coldStats.PagesRead)
	}
	if cs.HitBytes != 64*64*4 {
		t.Fatalf("hit bytes=%d, want %d", cs.HitBytes, 64*64*4)
	}
	if warmElapsed, coldElapsed := warmDone-coldDone, coldDone-wDone; warmElapsed >= coldElapsed {
		t.Fatalf("warm read (%v) not faster than cold read (%v)", warmElapsed, coldElapsed)
	}
}

// The same warm hit charges the configured DRAM streaming cost: zero
// bandwidth means instantaneous, finite bandwidth means TransferTime.
func TestCacheHitDRAMCost(t *testing.T) {
	elapsed := func(bw float64) sim.Time {
		st := newCachedSTL(t, false, 1<<20, 0, bw)
		sp := mustSpace(t, st, 4, 64, 64)
		v := mustView(t, sp, 64, 64)
		wDone, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, make([]byte, 64*64*4))
		if err != nil {
			t.Fatal(err)
		}
		_, coldDone, _, err := st.ReadPartition(wDone, v, []int64{0, 0}, []int64{64, 64})
		if err != nil {
			t.Fatal(err)
		}
		_, warmDone, _, err := st.ReadPartition(coldDone, v, []int64{0, 0}, []int64{64, 64})
		if err != nil {
			t.Fatal(err)
		}
		return warmDone - coldDone
	}
	if d := elapsed(0); d != 0 {
		t.Fatalf("unmetered warm read took %v, want 0", d)
	}
	want := sim.TransferTime(64*64*4, 1e9)
	if d := elapsed(1e9); d != want {
		t.Fatalf("warm read at 1 GB/s took %v, want %v", d, want)
	}
}

// Overwriting a cached block drops it: the next read misses and returns the
// new bytes, never the cached old ones.
func TestCacheInvalidationOnWrite(t *testing.T) {
	st := newCachedSTL(t, false, 1<<20, 0, 0)
	sp := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, sp, 64, 64)
	old := bytes.Repeat([]byte{0xAA}, 64*64*4)
	at, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, old)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, _, err = st.ReadPartition(at, v, []int64{0, 0}, []int64{64, 64}); err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0x55}, 32*32*4)
	if at, _, err = st.WritePartition(at, v, []int64{1, 1}, []int64{32, 32}, fresh); err != nil {
		t.Fatal(err)
	}
	cs := st.CacheStats()
	if cs.Invalidations == 0 {
		t.Fatal("overwrite did not invalidate the cached block")
	}
	got, _, _, err := st.ReadPartition(at, v, []int64{1, 1}, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("read after overwrite returned stale cached bytes")
	}
}

// A cache smaller than the working set evicts under CLOCK and never holds
// more than its capacity; a cache smaller than one block caches nothing.
func TestCacheEviction(t *testing.T) {
	// smallGeo blocks are 32x32x4 B = 4 KB; cap the cache at two blocks and
	// stream eight.
	st := newCachedSTL(t, false, 2*4096, 0, 0)
	sp := mustSpace(t, st, 4, 64, 128)
	v := mustView(t, sp, 64, 128)
	at, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 128}, make([]byte, 64*128*4))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for j := int64(0); j < 4; j++ {
			if _, at, _, err = st.ReadPartition(at, v, []int64{0, j}, []int64{64, 32}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := st.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("streaming 8 blocks through a 2-block cache evicted nothing: %+v", cs)
	}
	if cs.ResidentBytes > cs.CapacityBytes {
		t.Fatalf("resident %d exceeds capacity %d", cs.ResidentBytes, cs.CapacityBytes)
	}

	tiny := newCachedSTL(t, false, 1024, 0, 0) // < one block
	sp2 := mustSpace(t, tiny, 4, 64, 64)
	v2 := mustView(t, sp2, 64, 64)
	at, _, err = tiny.WritePartition(0, v2, []int64{0, 0}, []int64{64, 64}, make([]byte, 64*64*4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, at, _, err = tiny.ReadPartition(at, v2, []int64{0, 0}, []int64{64, 64}); err != nil {
			t.Fatal(err)
		}
	}
	if cs := tiny.CacheStats(); cs.ResidentBytes != 0 || cs.Hits != 0 {
		t.Fatalf("oversized blocks were cached anyway: %+v", cs)
	}
}

// Phantom devices cache no bytes but keep exact hit accounting and timing.
func TestCachePhantom(t *testing.T) {
	st := newCachedSTL(t, true, 1<<20, 0, 25.6e9)
	sp := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, sp, 64, 64)
	at, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, coldDone, _, err := st.ReadPartition(at, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	data, warmDone, warmStats, err := st.ReadPartition(coldDone, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatal("phantom read returned data")
	}
	if warmStats.PagesRead != 0 {
		t.Fatalf("phantom warm read touched flash: %d pages", warmStats.PagesRead)
	}
	if cs := st.CacheStats(); cs.Hits == 0 {
		t.Fatalf("phantom warm read recorded no hits: %+v", cs)
	}
	if warmDone-coldDone >= coldDone-at {
		t.Fatal("phantom warm read not faster than cold read")
	}
}

// Shrinking a space and growing it back must read zeros where blocks were
// dropped, not resurrect cached bytes.
func TestCacheInvalidationOnResize(t *testing.T) {
	st := newCachedSTL(t, false, 1<<20, 0, 0)
	sp := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, sp, 64, 64)
	payload := bytes.Repeat([]byte{0xCC}, 64*64*4)
	at, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, at, _, err = st.ReadPartition(at, v, []int64{0, 0}, []int64{64, 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ResizeSpace(at, sp.ID(), 32); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ResizeSpace(at, sp.ID(), 64); err != nil {
		t.Fatal(err)
	}
	v = mustView(t, sp, 64, 64)
	got, _, _, err := st.ReadPartition(at, v, []int64{1, 0}, []int64{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 32*64*4)) {
		t.Fatal("re-grown region served stale cached bytes instead of zeros")
	}
}

// Deleting a space purges its cache entries even though block indexes of a
// later space may collide.
func TestCacheInvalidationOnDelete(t *testing.T) {
	st := newCachedSTL(t, false, 1<<20, 0, 0)
	sp := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, sp, 64, 64)
	at, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, bytes.Repeat([]byte{0xEE}, 64*64*4))
	if err != nil {
		t.Fatal(err)
	}
	if _, at, _, err = st.ReadPartition(at, v, []int64{0, 0}, []int64{64, 64}); err != nil {
		t.Fatal(err)
	}
	if st.CacheStats().ResidentBytes == 0 {
		t.Fatal("nothing cached before delete")
	}
	if err := st.DeleteSpace(sp.ID()); err != nil {
		t.Fatal(err)
	}
	if rb := st.CacheStats().ResidentBytes; rb != 0 {
		t.Fatalf("deleted space still holds %d cached bytes", rb)
	}
}

// Stream detection: two consecutive single-axis advances arm the prefetcher;
// axis changes and jumps reset it.
func TestPrefetcherObserve(t *testing.T) {
	var st streamState
	step := func(g ...int64) (int, int64, bool) { return st.observe(g) }
	if _, _, ok := step(0, 0); ok {
		t.Fatal("first sighting triggered")
	}
	if _, _, ok := step(0, 1); ok {
		t.Fatal("run of 1 triggered")
	}
	axis, dir, ok := step(0, 2)
	if !ok || axis != 1 || dir != 1 {
		t.Fatalf("run of 2 => (%d,%d,%v), want (1,1,true)", axis, dir, ok)
	}
	// A jump resets the run.
	if _, _, ok := step(5, 7); ok {
		t.Fatal("jump triggered")
	}
	if _, _, ok := step(4, 7); ok {
		t.Fatal("run of 1 after reset triggered")
	}
	axis, dir, ok = step(3, 7)
	if !ok || axis != 0 || dir != -1 {
		t.Fatalf("descending run => (%d,%d,%v), want (0,-1,true)", axis, dir, ok)
	}
	// Repeating the same coordinate neither extends nor resets.
	if _, _, ok := step(3, 7); ok {
		t.Fatal("repeat triggered")
	}
	axis, dir, ok = step(2, 7)
	if !ok || axis != 0 || dir != -1 {
		t.Fatalf("run resumed after repeat => (%d,%d,%v), want (0,-1,true)", axis, dir, ok)
	}
	// Diagonal movement (two axes at once) resets.
	if _, _, ok := step(1, 6); ok {
		t.Fatal("diagonal triggered")
	}
}

// A streaming scan along one grid axis warms the next blocks: later demand
// reads hit prefetched pages without touching flash again.
func TestCachePrefetchStreamingScan(t *testing.T) {
	st := newCachedSTL(t, false, 1<<20, 2, 0)
	sp := mustSpace(t, st, 4, 32, 256) // 1x8 grid of 32x32 blocks
	v := mustView(t, sp, 32, 256)
	payload := make([]byte, 32*256*4)
	rand.New(rand.NewSource(3)).Read(payload)
	at, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{32, 256}, payload)
	if err != nil {
		t.Fatal(err)
	}
	var flashReads int64
	for j := int64(0); j < 8; j++ {
		got, done, stats, err := st.ReadPartition(at, v, []int64{0, j}, []int64{32, 32})
		if err != nil {
			t.Fatal(err)
		}
		if want := payload[j*32*4 : j*32*4+32*4]; !bytes.Equal(got[:32*4], want) {
			t.Fatalf("block %d first row wrong", j)
		}
		flashReads += stats.PagesRead
		at = done
	}
	cs := st.CacheStats()
	if cs.PrefetchIssued == 0 {
		t.Fatalf("streaming scan issued no prefetches: %+v", cs)
	}
	if cs.PrefetchUsed == 0 {
		t.Fatalf("no prefetched page was hit: %+v", cs)
	}
	// Demand flash reads + prefetched pages should cover the allocated pages
	// at most once: the scan must not read any page twice.
	if total := flashReads + cs.PrefetchIssued; total > int64(8*sp.PagesPerBlock()) {
		t.Fatalf("scan read %d pages for %d allocated", total, 8*sp.PagesPerBlock())
	}
}

// TestPrefetchDetectsPerView: a view's stride detector is the view's own, so
// however many views stream at once each arms on its third step. 300 views of
// one space step along the column axis, each through a row band of its own, in
// round-robin rounds; with all of them armed, every page of the last two
// columns is a prefetched page hit once. (A device-wide table of 256 detectors
// evicted live streams here and armed only some.)
func TestPrefetchDetectsPerView(t *testing.T) {
	const views, steps, depth = 300, 5, 2
	geo := smallGeo() // 32x32 blocks of float32, 8 pages each
	geo.BlocksPerBank = 128
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = 16 << 20 // holds the whole space: nothing is evicted
	cfg.PrefetchDepth = depth
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpace(t, st, 4, views*32, steps*32)
	band := make([]byte, 32*steps*32*4)
	rand.New(rand.NewSource(8)).Read(band)
	vs := make([]*View, views)
	var at sim.Time
	for i := range vs {
		vs[i] = mustView(t, sp, views*32, steps*32)
		if at, _, err = st.WritePartition(at, vs[i], []int64{int64(i), 0}, []int64{32, steps * 32}, band); err != nil {
			t.Fatal(err)
		}
	}
	perBlock := int64(sp.PagesPerBlock())
	for j := int64(0); j < steps; j++ {
		for i, v := range vs {
			_, done, stats, err := st.ReadPartition(at, v, []int64{int64(i), j}, []int64{32, 32})
			if err != nil {
				t.Fatal(err)
			}
			if j > prefetchTrigger && stats.PagesRead != 0 {
				t.Fatalf("view %d step %d read %d pages from flash: its stream was not armed", i, j, stats.PagesRead)
			}
			at = done
		}
		if cs := st.CacheStats(); j == prefetchTrigger && cs.PrefetchIssued != views*depth*perBlock {
			t.Fatalf("%d pages warmed after every view's third step, want %d", cs.PrefetchIssued, views*depth*perBlock)
		}
	}
	if cs := st.CacheStats(); cs.PrefetchUsed != views*depth*perBlock {
		t.Fatalf("%d prefetched pages hit, want %d (all %d views armed): %+v", cs.PrefetchUsed, views*depth*perBlock, views, cs)
	}
}

// cacheDiffPair drives one cached and one uncached STL through the same
// operations and requires byte-identical read results. Timing and flash-op
// statistics legitimately differ (that is the point of the cache), so only
// payload bytes are compared. After every operation the cached side's entries
// are audited against the lease they hold their pages under (auditCache).
type cacheDiffPair struct {
	on, off   *STL
	vOn, vOff *View
	atOn      sim.Time
	atOff     sim.Time
}

func newCacheDiffPair(t *testing.T, mutate func(*Config)) *cacheDiffPair {
	t.Helper()
	mk := func(cacheBytes int64, depth int) (*STL, *View) {
		dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		cfg.CacheBytes = cacheBytes
		cfg.PrefetchDepth = depth
		st, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := st.CreateSpace(4, []int64{128, 128})
		if err != nil {
			t.Fatal(err)
		}
		return st, mustView(t, sp, 128, 128)
	}
	p := &cacheDiffPair{}
	p.on, p.vOn = mk(64<<10, 2) // 16 of the space's 16 blocks fit
	p.off, p.vOff = mk(0, 0)
	return p
}

func (p *cacheDiffPair) write(t *testing.T, coord, sub []int64, data []byte) {
	t.Helper()
	dOn, _, errOn := p.on.WritePartition(p.atOn, p.vOn, coord, sub, data)
	dOff, _, errOff := p.off.WritePartition(p.atOff, p.vOff, coord, sub, data)
	if (errOn == nil) != (errOff == nil) {
		t.Fatalf("write %v/%v: cached err=%v uncached err=%v", coord, sub, errOn, errOff)
	}
	p.atOn, p.atOff = dOn, dOff
	auditCache(t, p.on, true)
}

func (p *cacheDiffPair) read(t *testing.T, coord, sub []int64) {
	t.Helper()
	bOn, dOn, _, errOn := p.on.ReadPartition(p.atOn, p.vOn, coord, sub)
	bOff, dOff, _, errOff := p.off.ReadPartition(p.atOff, p.vOff, coord, sub)
	if (errOn == nil) != (errOff == nil) {
		t.Fatalf("read %v/%v: cached err=%v uncached err=%v", coord, sub, errOn, errOff)
	}
	if !bytes.Equal(bOn, bOff) {
		t.Fatalf("read %v/%v: cached device returned different bytes", coord, sub)
	}
	p.atOn, p.atOff = dOn, dOff
	auditCache(t, p.on, true)
}

// A cached device must be a pure performance optimization: the same mixed
// row/column/tile read-write workload yields byte-identical results with the
// cache on and off, including under GC pressure that relocates cached units.
func TestCacheDifferentialMixedWorkload(t *testing.T) {
	p := newCacheDiffPair(t, nil)
	driveCacheDiff(t, p, 6)
	if cs := p.on.CacheStats(); cs.Hits == 0 {
		t.Fatalf("workload never hit the cache: %+v", cs)
	}
}

func TestCacheDifferentialGCPressure(t *testing.T) {
	p := newCacheDiffPair(t, func(c *Config) { c.OverProvision = 0.5; c.GCLowWater = 0.3 })
	rng := rand.New(rand.NewSource(13))
	for r := 0; r < 60; r++ {
		data := make([]byte, 64*128*4)
		rng.Read(data)
		p.write(t, []int64{int64(r % 2), 0}, []int64{64, 128}, data)
		p.read(t, []int64{0, int64(r % 2)}, []int64{128, 64})
	}
	if e, _ := p.on.GCStats(); e == 0 {
		t.Fatal("workload never triggered GC; raise the pressure")
	}
	p.read(t, []int64{0, 0}, []int64{128, 128})
	if cs := p.on.CacheStats(); cs.Invalidations == 0 {
		t.Fatalf("GC pressure invalidated nothing: %+v", cs)
	}
}

func driveCacheDiff(t *testing.T, p *cacheDiffPair, rounds int) {
	rng := rand.New(rand.NewSource(42))
	payload := func(n int64, tag byte) []byte {
		b := make([]byte, n*4)
		rng.Read(b)
		for i := int64(0); i < n; i += 5 {
			b[i*4] = tag
		}
		return b
	}
	for r := 0; r < rounds; r++ {
		p.write(t, []int64{int64(r % 4), 0}, []int64{32, 128}, payload(32*128, byte(r)))
		p.read(t, []int64{0, int64(r % 4)}, []int64{128, 32})
		p.read(t, []int64{0, int64(r % 4)}, []int64{128, 32}) // warm repeat
		p.write(t, []int64{int64(r % 2), int64(r % 2)}, []int64{64, 64}, payload(64*64, byte(r+1)))
		p.read(t, []int64{int64(r % 4), int64(r % 4)}, []int64{32, 32})
	}
	p.read(t, []int64{0, 0}, []int64{128, 128})
}
