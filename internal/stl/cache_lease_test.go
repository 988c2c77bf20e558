package stl

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"nds/internal/nvm"
)

// auditCache checks the lease the cache holds its pages under (cache.go): a
// resident entry names a live, uncompressed building block of a live space,
// every filled page belongs to a slot that is allocated now, and — with
// aliased set, that is with no cipher, whose Open hands the cache a plaintext
// page of its own — the page is the very frame the device stores at the
// address the slot is bound to now. So no entry has survived a rebind, a
// release or an erase. The STL must be quiescent.
func auditCache(t testing.TB, st *STL, aliased bool) {
	t.Helper()
	c := st.cache
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			s := st.spaces[k.space]
			if s == nil {
				t.Errorf("cache audit: block %d of space %d is resident, the space is gone", k.block, k.space)
				continue
			}
			g := make([]int64, len(s.grid))
			s.GridCoord(k.block, g)
			blk, _ := st.block(s, g, false)
			if blk == nil || blk.compressed {
				t.Errorf("cache audit: block %d of space %d is resident but missing or compressed", k.block, k.space)
				continue
			}
			for p := range e.pages {
				pg := &e.pages[p]
				if pg.state == pageEmpty {
					continue
				}
				slot := blk.pages[p].load()
				if !slot.allocated() {
					t.Errorf("cache audit: space %d block %d page %d is filled, its slot is unallocated", k.space, k.block, p)
					continue
				}
				if st.dev.Phantom() {
					continue
				}
				at := st.lay.PPA(slot.word())
				raw := st.dev.RawPage(at)
				if raw == nil {
					t.Errorf("cache audit: space %d block %d page %d is filled, %v holds no frame", k.space, k.block, p, at)
				} else if aliased && &pg.data[0] != &raw[0] {
					t.Errorf("cache audit: space %d block %d page %d is not the frame stored at %v", k.space, k.block, p, at)
				}
			}
		}
		sh.mu.Unlock()
	}
}

// resident reports whether building block (s, block) has a cache entry.
func resident(st *STL, s *Space, block int64) bool {
	k := cacheKey{s.id, block}
	sh := st.cache.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.entries[k] != nil
}

// TestCacheLeaseUnderGC is the race check for a cache that lends: entries
// alias the device's frames, so an entry that outlived a rebind, a release or
// an erase would serve whatever the frame's next owner wrote into it. Two
// spaces share a four-entry cache with the prefetcher on; a writer per space
// overwrites blocks and quarter blocks (now and then with zeros, which
// elision releases without binding anything) on a nine-block-per-die array
// where each writer's inline collection relocates and erases underneath the
// other space's readers, and two readers check row bands, column bands and
// tiles of both spaces byte for byte against the host images. The arena is
// primed with 0xFF frames and no payload holds 0xFF, as in
// TestWriteStaleFrameHoles. A test-side lock per space orders each read
// against the writes of its image; the device sees readers of one space and
// the writer of the other, collecting, at once.
//
// The writers give the frames of the units they replace back as their
// programs land, on dies the other writer may be collecting: "eight dies" is
// the array above, "four dies" the same pages on half the dies, where a
// writer's discard meets the other's collection more often (a few dozen
// times a run; the discard then leaves the frame to the block's erase). At
// quiesce the audits must be clean — the cache's lease, and no frame with two
// owners — and the two hooks are held to their contract one at a time,
// because every rebind calls both and either alone
// would hide the other's absence: a first write into a hole of a resident
// block binds and releases nothing, a zero-elided overwrite releases and
// binds nothing, and each must drop the entry.
func TestCacheLeaseUnderGC(t *testing.T) {
	for _, arm := range []struct {
		name string
		geo  nvm.Geometry
	}{
		{"eight dies", nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 9, PagesPerBlock: 8, PageSize: 512}},
		{"four dies", nvm.Geometry{Channels: 4, Banks: 1, BlocksPerBank: 18, PagesPerBlock: 8, PageSize: 512}},
	} {
		t.Run(arm.name, func(t *testing.T) { cacheLeaseUnderGC(t, arm.geo) })
	}
}

// cacheLeaseUnderGC is one arm of TestCacheLeaseUnderGC, on geo.
func cacheLeaseUnderGC(t *testing.T, geo nvm.Geometry) {
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	primeArena(dev, 64, fillFF)
	const (
		rows, cols = 128, 32 // float32 per space: a column of four 32x32 building blocks of eight pages
		bb         = 32
		iters      = 400
	)
	cfg := DefaultConfig()
	cfg.ZeroPageElision = true
	cfg.CacheBytes = 4 * bb * bb * 4
	cfg.PrefetchDepth = 2
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}

	type client struct {
		mu   sync.RWMutex // orders reads of img against the writes behind it
		s    *Space
		rows int64
		img  []byte
	}
	// Two spaces under churn and, third, 256 pages of ballast written once:
	// with the array half full of data that never dies, the blocks the churn
	// cycles through are few and a victim usually holds live pages.
	spaces := make([]*client, 3)
	for i := range spaces {
		c := &client{rows: rows}
		if i == 2 {
			c.rows = 8 * rows
		}
		s, err := st.CreateSpace(4, []int64{c.rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		c.s, c.img = s, make([]byte, c.rows*cols*4)
		fillNoFF(rand.New(rand.NewSource(int64(70+i))), c.img)
		if _, _, err := st.WritePartition(0, mustView(t, s, c.rows, cols), []int64{0, 0}, []int64{c.rows, cols}, c.img); err != nil {
			t.Fatal(err)
		}
		spaces[i] = c
	}
	clients := spaces[:2]

	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(2)
		go func(i int, c *client) { // writer of space i
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(80 + i)))
			v, err := NewView(c.s, []int64{rows, cols})
			if err != nil {
				t.Error(err)
				return
			}
			tile := make([]byte, bb*bb*4)
			for k := 0; k < iters; k++ {
				sub := int64(bb)
				if k%2 == 1 {
					sub = bb / 2 // leaves victims with live pages to relocate
				}
				data := tile[:sub*sub*4]
				if k%8 == 6 { // a whole block of zeros: eight elided releases
					clear(data)
				} else {
					fillNoFF(rng, data)
				}
				coord := []int64{rng.Int63n(rows / sub), rng.Int63n(cols / sub)}
				c.mu.Lock()
				_, _, err := st.WritePartition(0, v, coord, []int64{sub, sub}, data)
				pasteTile(c.img, cols, 4, coord, []int64{sub, sub}, data)
				c.mu.Unlock()
				if err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i, c)
		go func(i int) { // reader i, of both spaces
			defer wg.Done()
			views := make([]*View, len(clients))
			for j, c := range clients {
				v, err := NewView(c.s, []int64{rows, cols})
				if err != nil {
					t.Error(err)
					return
				}
				views[j] = v
			}
			// Row bands and tiles sweep down the column of blocks, eight
			// reads of a space to a shape, so that the prefetcher arms; a
			// column band crosses all four blocks.
			shapes := [][]int64{{bb / 2, cols}, {rows, bb / 2}, {bb, bb}}
			var buf []byte
			for k := 0; k < 2*iters; k++ {
				j, step := k%len(clients), int64(k/2)
				c, sub := clients[j], shapes[(k/16+i)%len(shapes)]
				coord := []int64{step % (rows / sub[0]), step % (cols / sub[1])}
				c.mu.RLock()
				got, _, _, err := st.ReadPartitionInto(0, views[j], coord, sub, buf)
				var want []byte
				if err == nil {
					want = make([]byte, len(got))
					cutTile(want, c.img, cols, 4, coord, sub)
				}
				c.mu.RUnlock()
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("reader %d: space %d %v/%v differs from the host image (a 0xff is a recycled frame showing through a stale entry)", i, j, coord, sub)
					return
				}
				buf = got
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Whether a writer's collection met a victim with live pages is up to the
	// scheduler, and so is whether the churn left such a victim behind. So
	// relocation is asserted here, with the STL quiet, on a victim built by
	// hand the way TestGCUnderConcurrentWriters builds its own; the spaces
	// are read back warm before and after (the relocated pages' entries must
	// be gone) and audited.
	check := func(when string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ {
			for i, c := range spaces {
				got, _, _, err := st.ReadPartition(0, mustView(t, c.s, c.rows, cols), []int64{0, 0}, []int64{c.rows, cols})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, c.img) {
					t.Fatalf("%s: space %d diverged from its host image", when, i)
				}
			}
		}
		auditCache(t, st, true)
		if fs := st.dev.FrameStats(); fs.Lost != 0 {
			t.Fatalf("%s: frames %+v: %d with two owners", when, fs, fs.Lost)
		}
	}
	check("after the churn")
	rng := rand.New(rand.NewSource(60))
	page := make([]byte, geo.PageSize)
	moved := st.GCReport().PagesRelocated
	ch, bk := buildMixedVictim(t, st, func(e revEntry) {
		// A space is one column of blocks, and a page of a block four of its rows.
		c := spaces[e.space-spaces[0].s.id]
		coord, sub := []int64{int64(e.block)*8 + int64(e.page), 0}, []int64{4, cols}
		fillNoFF(rng, page)
		if _, _, err := st.WritePartition(0, mustView(t, c.s, c.rows, cols), coord, sub, page); err != nil {
			t.Fatal(err)
		}
		pasteTile(c.img, cols, 4, coord, sub, page)
	})
	check("before the collection")
	if _, err := st.collectDie(0, ch, bk, geo.PagesPerBank()); err != nil {
		t.Fatal(err)
	}
	check("after the collection")
	rep, cs := st.GCReport(), st.CacheStats()
	if rep.Erases == 0 || rep.PagesRelocated == moved || cs.Hits == 0 || cs.Evictions == 0 || cs.Invalidations == 0 || cs.PrefetchIssued == 0 {
		t.Fatalf("the churn left a path untested: GC %+v, cache %+v", rep, cs)
	}
	t.Logf("GC %+v; cache %+v", rep, cs)

	// The hooks, one at a time, on a block of a fresh space whose lower half
	// is a hole.
	s, err := st.CreateSpace(4, []int64{bb, bb})
	if err != nil {
		t.Fatal(err)
	}
	v := mustView(t, s, bb, bb)
	half := make([]byte, bb/2*bb*4)
	fillNoFF(rand.New(rand.NewSource(99)), half)
	write := func(row int64, data []byte) {
		t.Helper()
		if _, _, err := st.WritePartition(0, v, []int64{row, 0}, []int64{bb / 2, bb}, data); err != nil {
			t.Fatal(err)
		}
	}
	warm := func() []byte {
		t.Helper()
		got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{bb, bb})
		if err != nil {
			t.Fatal(err)
		}
		if !resident(st, s, 0) {
			t.Fatal("a read of the block left no entry")
		}
		return got
	}
	write(0, half)
	warm()
	write(1, half) // four first binds, no release
	if resident(st, s, 0) {
		t.Fatal("bindUnit left the block's entry resident")
	}
	warm()
	write(0, make([]byte, len(half))) // four zero-elided releases, no bind
	if resident(st, s, 0) {
		t.Fatal("invalidateUnit left the block's entry resident")
	}
	if got := warm(); !bytes.Equal(got[:len(half)], make([]byte, len(half))) || !bytes.Equal(got[len(half):], half) {
		t.Fatal("the block reads wrong after the elided overwrite")
	}
	auditCache(t, st, true)
}

// fillNoFF fills b with random bytes, none of them 0xFF.
func fillNoFF(rng *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte(rng.Intn(0xFF))
	}
}

// cutTile is pasteTile's inverse: it copies the tile at coord/sub of the
// row-major image img (cols elements of es bytes a row) into tile.
func cutTile(tile, img []byte, cols, es int64, coord, sub []int64) {
	rowBytes := sub[1] * es
	for r := int64(0); r < sub[0]; r++ {
		at := ((coord[0]*sub[0]+r)*cols + coord[1]*sub[1]) * es
		copy(tile[r*rowBytes:(r+1)*rowBytes], img[at:at+rowBytes])
	}
}
