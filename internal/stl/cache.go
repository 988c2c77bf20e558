package stl

import (
	"sync"
	"sync/atomic"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// The building-block cache. NDS makes the building block the natural caching
// unit: because every traversal direction — rows, columns, tiles — decomposes
// into whole building blocks, a cached block serves future accesses from any
// direction, unlike an LBA page cache that only helps the layout it was
// filled in. The cache models the DRAM a host-resident STL (SoftwareNDS) or a
// controller (HardwareNDS) would dedicate to block caching: hits skip flash
// entirely and instead charge a DRAM streaming cost on the sim timeline.
//
// Entries are block-granular with per-page fill state, so a block warmed by a
// row scan serves column reads of the same block without further flash work.
//
// An entry is bookkeeping and leases, not bytes. A fill stores the slice
// nvm.ReadWords returned — the frame the device itself keeps for the page, or,
// under a cipher, the plaintext page Open made for this read (a hit still
// saves the decrypt) — and a hit hands that slice on. Nothing is copied and
// nothing the size of a block is allocated: the DRAM the cache models is
// charged to ResidentBytes and to the sim clock, and the host memory behind
// it is the flash array's own. On phantom devices the slices are nil and the
// fill/ready state is kept all the same, so timing and statistics stay exact.
//
// The lease is the one uncached reads already hold (nvm.ReadWords, DESIGN.md
// "Aliases"), kept for longer. A frame goes back to the arena only when the
// page holding it is discarded, once its owner's replacement has landed
// (discardUnits), or its block is erased, whichever comes first — and never
// for a relocation's source: the frame stays with the relocated page. A unit
// stops being live in place — overwrite, zero elision, fault relocation,
// delete, resize — only through invalidateUnit, which runs before either, as
// a slot is bound to a new one only through bindUnit, and a block is erased
// only once none of its units is live. Both hooks drop the whole entry of the
// building block they touch (invalidateSpace drops a space's), under that
// space's write lock or an exclusive maintenance context: so before the
// discard or the erase, and with no reader of the space inside. A GC move
// drops the entry too (commitMove); a reader that planned before the move
// may fill it again with the source's frame, which holds the same bytes and
// outlives the source's discard and erase. Retirement
// (retireBlock) drops the entries of every live unit in the block. What
// bounds an entry's retention is therefore its own invalidation, never a
// reference count, and eviction and invalidation only ever forget references:
// there is no buffer to recycle and no pin to wait for. The slice a hit
// returned stays valid for as long as the request holds its space's read
// lock, whatever happens to the entry meanwhile.
//
// Concurrency: the cache is sharded; each shard has its own mutex guarding
// its entry map, its CLOCK ring and the entries in them. Shard mutexes sit at
// the bottom of the STL lock order (barrier -> space -> die -> shard), above
// only the free list's: nothing else is acquired while one is held. A request
// holds no pointer to an entry outside a shard's critical section, which is
// what lets a dropped entry's bookkeeping be reused at once. All mutators of
// translation state but the collector hold the owning space's write lock (or
// run in an exclusive maintenance context that excludes that space's
// readers), which is what makes strict invalidation (drop the whole block
// entry on any rebind) race-free against in-flight reads; a collector's move
// changes where a page is, not what it holds.
//
// A request deals with the cache a block at a time, not a page at a time: the
// read plan chains the pages it meets per block and puts each block's to the
// cache in one critical section (lookupWanted), and a flush's fills go in by
// runs of one block (fillPages). The decisions and their order — which page
// hits, which fill creates an entry, what CLOCK then evicts — are those of
// asking page by page; the cached configurations' golden traces, written by a
// page-at-a-time reference, pin them.
//
// With Config.CacheBytes zero the STL carries a nil cache and every hook is a
// single nil check: the device is bit- and simulated-time-identical to one
// built without the feature (the differential suite holds it to that).

// CacheStats is a snapshot of the building-block cache's counters.
type CacheStats struct {
	Hits     int64 // page accesses served from DRAM
	Misses   int64 // page accesses the cache did not hold, which went to flash
	HitBytes int64 // payload bytes served from DRAM

	PrefetchIssued int64 // pages warmed by the dimensional prefetcher
	PrefetchUsed   int64 // prefetched pages that later served a hit
	PrefetchWasted int64 // prefetched pages dropped before any hit

	Evictions     int64 // block entries evicted for capacity
	Invalidations int64 // block entries dropped by writes/GC/retirement/resize
	ResidentBytes int64 // bytes currently charged against the capacity
	CapacityBytes int64 // configured capacity (Config.CacheBytes)
}

// cacheKey names one building block of one space.
type cacheKey struct {
	space SpaceID
	block int64
}

// Per-page fill state of a cache entry.
const (
	pageEmpty    uint8 = iota
	pageValid          // filled by a demand read
	pagePrefetch       // filled by the prefetcher, not yet hit
)

// cachePage is one page of a resident building block.
type cachePage struct {
	data  []byte   // the page as the device lent it; nil on phantom devices
	ready sim.Time // sim time the bytes are DRAM-resident
	state uint8    // pageEmpty/pageValid/pagePrefetch
}

// cacheEntry is one resident building block. The entry charges the full
// block size against capacity on creation (the DRAM an implementation would
// reserve), regardless of how many pages are filled.
type cacheEntry struct {
	key     cacheKey
	pages   []cachePage
	unused  int   // pages in state pagePrefetch: prefetched, not yet hit
	bytes   int64 // capacity charge
	ref     bool  // CLOCK reference bit
	ringIdx int   // position in the owning shard's ring
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	ring    []*cacheEntry // CLOCK ring over resident entries
	hand    int

	// Counters (each guarded by mu; aggregated by stats).
	hits, misses, hitBytes           int64
	prefIssued, prefUsed, prefWasted int64
	evictions, invalidations         int64
}

const cacheShards = 8

// blockCache is the sharded, capacity-bounded building-block cache.
type blockCache struct {
	shards   [cacheShards]cacheShard
	capacity int64
	dramBW   float64 // bytes/s charged per hit byte; <= 0 is instantaneous
	resident atomic.Int64

	// free is the bookkeeping of dropped entries, page tables cleared, waiting
	// for the next creation. It is the cache's, not a shard's: a creation is
	// paid for by an eviction in the next shard round, so per-shard lists would
	// drift apart. It never holds more entries than were once resident
	// together. freeMu is a leaf below the shard locks.
	freeMu sync.Mutex
	free   []*cacheEntry
}

func newBlockCache(capacity int64, dramBW float64) *blockCache {
	c := &blockCache{capacity: capacity, dramBW: dramBW}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cacheEntry)
	}
	return c
}

func (c *blockCache) shard(k cacheKey) *cacheShard {
	h := uint64(k.block)*0x9E3779B97F4A7C15 ^ uint64(k.space)*0xBF58476D1CE4E5B9
	return &c.shards[h>>61]
}

// copyCost is the sim-time cost of streaming n cached bytes out of DRAM.
func (c *blockCache) copyCost(n int64) sim.Time {
	if c.dramBW <= 0 {
		return 0
	}
	return sim.TransferTime(n, c.dramBW)
}

// cacheable reports whether a building block of s can ever be resident. A
// block larger than the whole cache is never looked up, filled or prefetched:
// creating its entry would only evict everything else.
func (c *blockCache) cacheable(s *Space) bool { return s.bbBytes <= c.capacity }

// hit serves page p of e, which is nil when the block is not resident: the
// page's payload bytes (pb of them; nil on phantom devices), the sim time they
// are DRAM-resident, and true — or a counted miss. Caller holds mu.
func (sh *cacheShard) hit(e *cacheEntry, p int, pb int64) ([]byte, sim.Time, bool) {
	if e == nil || e.pages[p].state == pageEmpty {
		sh.misses++
		return nil, 0, false
	}
	pg := &e.pages[p]
	if pg.state == pagePrefetch {
		pg.state = pageValid
		e.unused--
		sh.prefUsed++
	}
	e.ref = true
	sh.hits++
	sh.hitBytes += pb
	if pg.data == nil {
		return nil, pg.ready, true
	}
	return pg.data[:pb:pb], pg.ready, true
}

// put installs data, a page the device lent (see the lease above), as page p
// of e; ready is the sim time the bytes become DRAM-resident (the flash batch
// completion that produced them). The first fill of a page wins and is never
// replaced while the entry lives. Caller holds mu.
func (sh *cacheShard) put(e *cacheEntry, p int, data []byte, ready sim.Time, prefetched bool) {
	pg := &e.pages[p]
	if pg.state != pageEmpty {
		return
	}
	pg.data, pg.ready = data, ready
	if prefetched {
		pg.state = pagePrefetch
		e.unused++
		sh.prefIssued++
	} else {
		pg.state = pageValid
	}
	e.ref = true
}

// create makes building block k of s resident with no page filled, taking its
// bookkeeping from the free list when it can. Caller holds mu and runs
// evictToCapacity once it has let go.
func (c *blockCache) create(sh *cacheShard, s *Space, k cacheKey) *cacheEntry {
	var e *cacheEntry
	c.freeMu.Lock()
	if n := len(c.free); n > 0 {
		e, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	}
	c.freeMu.Unlock()
	if e == nil {
		e = &cacheEntry{}
	}
	if cap(e.pages) < s.pagesPerBB {
		e.pages = make([]cachePage, s.pagesPerBB)
	}
	*e = cacheEntry{key: k, pages: e.pages[:s.pagesPerBB], bytes: s.bbBytes, ringIdx: len(sh.ring)}
	sh.entries[k] = e
	sh.ring = append(sh.ring, e)
	c.resident.Add(e.bytes)
	return e
}

// lookupWanted puts the wanted pages to the cache, one transaction per block:
// hits are resolved into pageData and summed into hitBytes/readyMax, misses
// join the device batch in the order they were met.
func (t *STL) lookupWanted(rs *requestScratch, stats *RequestStats) {
	s := rs.space
	for i := range rs.plans {
		bp := &rs.plans[i]
		if bp.wantHead == 0 {
			continue
		}
		k := cacheKey{s.id, bp.g}
		sh := t.cache.shard(k)
		sh.mu.Lock()
		e := sh.entries[k]
		for j := bp.wantHead; j != 0; j = rs.want[j-1].next {
			w := &rs.want[j-1]
			pb := s.pageBytes(t.geo, int(w.page))
			data, ready, ok := sh.hit(e, int(w.page), pb)
			if !ok {
				continue
			}
			w.hit = true
			rs.pageData[bp.pages[w.page]-1] = data
			rs.hitBytes += pb
			if ready > rs.readyMax {
				rs.readyMax = ready
			}
		}
		sh.mu.Unlock()
		bp.wantHead, bp.wantTail = 0, 0
	}
	for i := range rs.want {
		w := &rs.want[i]
		if w.hit {
			continue
		}
		bp := &rs.plans[w.plan]
		rs.words = append(rs.words, bp.blk.pages[w.page].load().word())
		rs.planOf = append(rs.planOf, bp.pages[w.page]-1)
		rs.fillKeys = append(rs.fillKeys, pageKey{bp.g, int(w.page)})
		stats.PagesRead++
	}
	rs.want = rs.want[:0]
}

// fillPages installs datas[i] as page keys[i] of s, which the caller has found
// cacheable. Each run of one block's pages is one transaction, except that a
// run which has to create its block's entry stops after the first page to
// evict: the entry it made may itself be CLOCK's victim, and the pages after
// it then belong to a new one, as they would filling page by page.
func (c *blockCache) fillPages(s *Space, keys []pageKey, datas [][]byte, ready sim.Time, prefetched bool) {
	for i := 0; i < len(keys); {
		k := cacheKey{s.id, keys[i].block}
		sh := c.shard(k)
		sh.mu.Lock()
		e := sh.entries[k]
		created := e == nil
		if created {
			e = c.create(sh, s, k)
		}
		for {
			sh.put(e, keys[i].page, datas[i], ready, prefetched)
			if i++; created || i == len(keys) || keys[i].block != k.block {
				break
			}
		}
		sh.mu.Unlock()
		if created {
			c.evictToCapacity(sh)
		}
	}
}

// missing appends to words and keys the allocated pages of blk, building
// block (s, block), that are not resident: what a warm-up of the block has to
// read.
func (c *blockCache) missing(s *Space, block int64, blk *BuildingBlock, words []nvm.Word, keys []pageKey) ([]nvm.Word, []pageKey) {
	k := cacheKey{s.id, block}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	for p := range blk.pages {
		if slot := blk.pages[p].load(); slot.allocated() && (e == nil || e.pages[p].state == pageEmpty) {
			words = append(words, slot.word())
			keys = append(keys, pageKey{block, p})
		}
	}
	return words, keys
}

// evictToCapacity runs CLOCK eviction until resident bytes fit the capacity,
// visiting shards round-robin starting after the shard that just grew. Locks
// one shard at a time, so concurrent fills may transiently overshoot; the
// loop converges because every pass either evicts or clears reference bits.
func (c *blockCache) evictToCapacity(grew *cacheShard) {
	if c.resident.Load() <= c.capacity {
		return
	}
	start := 0
	for i := range c.shards {
		if &c.shards[i] == grew {
			start = i + 1
			break
		}
	}
	misses := 0
	for i := start; c.resident.Load() > c.capacity; i++ {
		sh := &c.shards[i%cacheShards]
		sh.mu.Lock()
		if c.evictOne(sh) {
			misses = 0
		} else if misses++; misses >= cacheShards {
			sh.mu.Unlock()
			return // nothing resident anywhere else
		}
		sh.mu.Unlock()
	}
}

// evictOne runs the CLOCK hand over the shard's ring, evicting the first
// entry found with a clear reference bit (clearing bits as it passes).
// Reports false when the shard is empty. Caller holds sh.mu.
func (c *blockCache) evictOne(sh *cacheShard) bool {
	n := len(sh.ring)
	for i := 0; n > 0 && i <= 2*n; i++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		sh.evictions++
		c.drop(sh, e)
		return true
	}
	return false
}

// drop ends e's residency: it leaves the shard's map and ring, its never-hit
// prefetched pages are charged as wasted, its capacity is released, and its
// bookkeeping goes to the free list with every lent page let go — dropping
// only ever forgets references, there is no buffer to recycle. Caller holds
// sh.mu.
func (c *blockCache) drop(sh *cacheShard, e *cacheEntry) {
	delete(sh.entries, e.key)
	last := len(sh.ring) - 1
	moved := sh.ring[last]
	sh.ring[e.ringIdx] = moved
	moved.ringIdx = e.ringIdx
	sh.ring[last] = nil
	sh.ring = sh.ring[:last]
	sh.prefWasted += int64(e.unused)
	c.resident.Add(-e.bytes)
	clear(e.pages)
	c.freeMu.Lock()
	c.free = append(c.free, e)
	c.freeMu.Unlock()
}

// invalidateBlock drops building block (space, block) from the cache, if it
// is resident. Called from every path that rebinds or releases a unit of the
// block (writes, GC evacuation, program-fault relocation, retirement, resize,
// delete), always with the space write-locked or otherwise exclusive — which
// is what ends the lease on the block's frames before any of them can be
// erased.
func (c *blockCache) invalidateBlock(space SpaceID, block int64) {
	k := cacheKey{space, block}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[k]; e != nil {
		sh.invalidations++
		c.drop(sh, e)
	}
}

// invalidateSpace drops every cached block of one space (delete/resize).
func (c *blockCache) invalidateSpace(space SpaceID) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.space == space {
				sh.invalidations++
				c.drop(sh, e)
			}
		}
		sh.mu.Unlock()
	}
}

// stats aggregates the shard counters into one snapshot.
func (c *blockCache) stats() CacheStats {
	s := CacheStats{CapacityBytes: c.capacity, ResidentBytes: c.resident.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.HitBytes += sh.hitBytes
		s.PrefetchIssued += sh.prefIssued
		s.PrefetchUsed += sh.prefUsed
		s.PrefetchWasted += sh.prefWasted
		s.Evictions += sh.evictions
		s.Invalidations += sh.invalidations
		sh.mu.Unlock()
	}
	return s
}

// CacheStats snapshots the building-block cache's counters; zero-valued when
// the cache is disabled (Config.CacheBytes == 0).
func (t *STL) CacheStats() CacheStats {
	if t.cache == nil {
		return CacheStats{}
	}
	return t.cache.stats()
}
