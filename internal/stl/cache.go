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
// Page data is copied into cache-owned buffers at fill time — device read
// results alias arena frames that recycle after an erase (see nvm.ReadPage),
// so the cache must never retain them. On phantom devices entries carry no bytes but
// keep exact fill/ready state, so timing and statistics stay exact.
//
// Concurrency: the cache is sharded; each shard has its own mutex guarding
// its entry map and CLOCK ring. Shard mutexes are leaves of the STL lock
// order (maintMu -> space -> die -> shard): nothing is acquired while one is
// held. A page's data region is written exactly once — under the shard lock,
// before its fill state becomes visible — and invalidation only drops
// references, so a reader that observed the fill state may copy from the
// returned slice after unlocking. All mutators of translation state hold the
// owning space's write lock (or run in an exclusive maintenance context that
// excludes that space's readers), which is what makes strict invalidation
// (drop the whole block entry on any rebind) race-free against in-flight
// reads.
//
// With Config.CacheBytes zero the STL carries a nil cache and every hook is a
// single nil check: the device is bit- and simulated-time-identical to one
// built without the feature (the differential suite holds it to that).

// CacheStats is a snapshot of the building-block cache's counters.
type CacheStats struct {
	Hits     int64 // page accesses served from DRAM
	Misses   int64 // page accesses that had to touch flash
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

// cacheEntry is one resident building block. The entry charges the full
// block size against capacity on creation (the DRAM an implementation would
// reserve), regardless of how many pages are filled.
type cacheEntry struct {
	key     cacheKey
	data    []byte     // block-layout bytes; nil on phantom devices
	state   []uint8    // per page: pageEmpty/pageValid/pagePrefetch
	ready   []sim.Time // per page: sim time the bytes are DRAM-resident
	bytes   int64      // capacity charge
	ref     bool       // CLOCK reference bit
	ringIdx int        // position in the owning shard's ring
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
	geo      nvm.Geometry
	phantom  bool
	resident atomic.Int64
}

func newBlockCache(capacity int64, dramBW float64, geo nvm.Geometry, phantom bool) *blockCache {
	c := &blockCache{capacity: capacity, dramBW: dramBW, geo: geo, phantom: phantom}
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

// lookup serves page `page` of building block (s, block). On a hit it returns
// the page's payload bytes (nil on phantom devices), the sim time the bytes
// are DRAM-resident, and true. pb is the page's payload size
// (s.pageBytes(geo, page)), charged to the hit-byte counter.
func (c *blockCache) lookup(s *Space, block int64, page int, pb int64) ([]byte, sim.Time, bool) {
	k := cacheKey{s.id, block}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	if e == nil || e.state[page] == pageEmpty {
		sh.misses++
		return nil, 0, false
	}
	if e.state[page] == pagePrefetch {
		e.state[page] = pageValid
		sh.prefUsed++
	}
	e.ref = true
	sh.hits++
	sh.hitBytes += pb
	var data []byte
	if e.data != nil {
		ps := int64(c.geo.PageSize)
		off := int64(page) * ps
		data = e.data[off : off+pb : off+pb]
	}
	return data, e.ready[page], true
}

// fill installs page `page` of building block (s, block), copying data into
// cache-owned storage. ready is the sim time the bytes become DRAM-resident
// (the flash batch completion that produced them). Already-filled pages are
// left untouched, so the first fill of a page wins and its data region is
// never rewritten while the entry lives — the immutability reads rely on.
func (c *blockCache) fill(s *Space, block int64, page int, data []byte, ready sim.Time, prefetched bool) {
	if s.bbBytes > c.capacity {
		return // block can never fit; don't thrash the cache
	}
	k := cacheKey{s.id, block}
	sh := c.shard(k)
	sh.mu.Lock()
	e := sh.entries[k]
	if e == nil {
		e = &cacheEntry{
			key:   k,
			state: make([]uint8, s.pagesPerBB),
			ready: make([]sim.Time, s.pagesPerBB),
			bytes: s.bbBytes,
		}
		if !c.phantom {
			e.data = make([]byte, s.bbBytes)
		}
		sh.entries[k] = e
		e.ringIdx = len(sh.ring)
		sh.ring = append(sh.ring, e)
		c.resident.Add(e.bytes)
	}
	if e.state[page] != pageEmpty {
		sh.mu.Unlock()
		return
	}
	if e.data != nil && data != nil {
		ps := int64(c.geo.PageSize)
		pb := s.pageBytes(c.geo, page)
		if int64(len(data)) < pb {
			pb = int64(len(data))
		}
		copy(e.data[int64(page)*ps:], data[:pb])
	}
	e.ready[page] = ready
	if prefetched {
		e.state[page] = pagePrefetch
		sh.prefIssued++
	} else {
		e.state[page] = pageValid
	}
	e.ref = true
	sh.mu.Unlock()
	c.evictToCapacity(sh)
}

// missing appends to out the pages of (s, block) not resident in the cache,
// restricted to the caller-provided candidate set. Used by the prefetcher to
// avoid re-reading warm pages.
func (c *blockCache) missing(s *Space, block int64, candidates []int, out []int) []int {
	k := cacheKey{s.id, block}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	for _, p := range candidates {
		if e == nil || e.state[p] == pageEmpty {
			out = append(out, p)
		}
	}
	return out
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
		e := sh.evictOne()
		if e != nil {
			c.resident.Add(-e.bytes)
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
// Returns the evicted entry, or nil when the shard is empty. Caller holds mu.
func (sh *cacheShard) evictOne() *cacheEntry {
	n := len(sh.ring)
	if n == 0 {
		return nil
	}
	for i := 0; i <= 2*n; i++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		sh.removeLocked(e)
		sh.evictions++
		sh.countWasted(e)
		return e
	}
	return nil
}

// removeLocked unlinks e from the shard's map and ring. Caller holds mu.
func (sh *cacheShard) removeLocked(e *cacheEntry) {
	delete(sh.entries, e.key)
	last := len(sh.ring) - 1
	moved := sh.ring[last]
	sh.ring[e.ringIdx] = moved
	moved.ringIdx = e.ringIdx
	sh.ring[last] = nil
	sh.ring = sh.ring[:last]
}

// countWasted charges never-hit prefetched pages of a dropped entry.
func (sh *cacheShard) countWasted(e *cacheEntry) {
	for _, st := range e.state {
		if st == pagePrefetch {
			sh.prefWasted++
		}
	}
}

// invalidateBlock drops the cached copy of building block (space, block), if
// any. Called from every path that rebinds or releases a unit of the block
// (writes, GC evacuation, program-fault relocation, retirement, resize,
// delete), always under the device's exclusive lock.
func (c *blockCache) invalidateBlock(space SpaceID, block int64) {
	k := cacheKey{space, block}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	if e == nil {
		return
	}
	sh.removeLocked(e)
	sh.invalidations++
	sh.countWasted(e)
	c.resident.Add(-e.bytes)
}

// invalidateSpace drops every cached block of one space (delete/resize).
func (c *blockCache) invalidateSpace(space SpaceID) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.space != space {
				continue
			}
			sh.removeLocked(e)
			sh.invalidations++
			sh.countWasted(e)
			c.resident.Add(-e.bytes)
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
