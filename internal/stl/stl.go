package stl

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// Config holds STL policy parameters.
type Config struct {
	// BBMultiplier scales each blocked dimension beyond the Equation 2/4
	// minimum (>= 1). The paper's prototype uses 256x256 blocks where the
	// equations give 128x128, i.e. a multiplier of 2.
	BBMultiplier int
	// BBOrder forces the building-block dimensionality (1-3); 0 selects the
	// paper default (2-D for spaces with two or more dimensions).
	BBOrder int
	// OverProvision is the raw-capacity fraction reserved for GC headroom.
	OverProvision float64
	// GCLowWater triggers collection on a die at or below this free
	// fraction (the paper uses 10%). Collection runs inline on the writer
	// that carves from the die.
	GCLowWater float64
	// Deprecated: ignored. Collection always runs inline on the writer.
	BackgroundGC bool
	// Seed drives the allocation policy's randomized choices.
	Seed int64
	// NaiveAllocation disables the §4.2 channel/bank-spreading policy and
	// places each building block entirely within one die (round-robin by
	// block index). Exists only for the ablation benchmarks that quantify
	// what the policy buys.
	NaiveAllocation bool
	// Compress enables §5.3.4's software-managed compression: each building
	// block is a compression unit, stored in fewer access units when its
	// content deflates. Requires a data-bearing (non-phantom) device.
	Compress bool
	// ZeroPageElision enables the §8 page-zero optimization for sparse
	// content: all-zero pages are never programmed (reads of unwritten
	// units already return zeros).
	ZeroPageElision bool
	// WriteBuffering enables §4.4's sub-unit write staging: partitions
	// smaller than a basic access unit collect in STL memory and are
	// programmed once a unit fills (or on Flush). Ignored when Compress is
	// set (the compression path has its own block-granular staging).
	WriteBuffering bool
	// CacheBytes bounds the building-block cache (cache.go): DRAM the STL's
	// host (SoftwareNDS) or controller (HardwareNDS) dedicates to caching
	// whole building blocks. Zero disables the cache entirely — the device is
	// then bit- and simulated-time-identical to one without the feature.
	CacheBytes int64
	// PrefetchDepth is how many blocks ahead the dimensional prefetcher
	// (prefetch.go) warms once a view streams along one grid axis. Zero
	// disables prefetch; it also requires CacheBytes > 0 to take effect.
	PrefetchDepth int
	// CacheDRAMBandwidth is the DRAM streaming bandwidth (bytes/s) charged
	// for cache hits on the sim timeline. Zero or negative makes hits
	// instantaneous. The system layer defaults it per configuration (host
	// DRAM for SoftwareNDS, controller DRAM for HardwareNDS).
	CacheDRAMBandwidth float64
	// TenantQoS enables per-tenant weighted fair admission and token-bucket
	// rate limiting in front of the data path (qos.go) and sets the default
	// tenant's weight, rate and burst. Nil disables the feature entirely —
	// the device is then bit- and simulated-time-identical to one without
	// it, the same contract the cache's nil gating makes.
	TenantQoS *sim.FlowConfig
}

// DefaultConfig mirrors the paper's prototype settings.
func DefaultConfig() Config {
	return Config{BBMultiplier: 1, OverProvision: 0.10, GCLowWater: 0.10, Seed: 1}
}

// revEntry maps a physical access unit back to its building block — the
// reverse-lookup table of §4.2 that accelerates GC mapping updates. Each
// entry is guarded by the mutex of the die its unit lives on. It is 16 bytes:
// a space's grid holds at most 2³² blocks (CreateSpace), so the block's grid
// index is a uint32.
type revEntry struct {
	space SpaceID
	block uint32
	page  int32
	valid bool
}

// maxGridBlocks bounds a space's building-block grid: a block's grid index
// must fit revEntry.block.
const maxGridBlocks = 1 << 32

// STL is the space translation layer over a raw flash array. It owns the
// whole device (it replaces the FTL in an NDS-compliant drive, and drives an
// open-channel drive in the software-only configuration).
//
// Concurrency: the STL owns every space's lifetime. Create, delete and resize
// take the barrier exclusively; the data-path entries (ReadPartitionSegments,
// WritePartition) take it shared after tenant admission, refuse a stale view
// with ErrClosedView, and serialize per space (Space.mu: shared for reads,
// exclusive for writes). Flush is a writer of each space in turn. A space's
// §4.4 staged pages are its own, under its Space.mu (buffer.go). Allocation
// state is per die (die.mu), and garbage collection runs on the writers,
// taking no space's lock beyond the writing request's own: it commits each
// relocation to its page's slot by compare-and-swap and waits out the read
// grace set before an erase (gc.go).
// Lock order: QoS admission -> barrier -> Space.mu -> die.mu -> cache shard /
// device shard. Nothing holding a later lock acquires an earlier one, so a
// tenant asleep in its bucket blocks no one.
type STL struct {
	dev *nvm.Device
	geo nvm.Geometry
	lay nvm.Layout // packs the page words of slots and read batches
	cfg Config

	rngMu sync.Mutex
	rng   *rand.Rand

	// barrier guards spaces and nextID and, with Space.mu, each space's dims,
	// grid and gen (see the struct comment). No holder takes it twice.
	barrier sync.RWMutex

	spaces map[SpaceID]*Space
	nextID SpaceID
	// lba is the block device that owns this STL, if one does: space 0 of the
	// reverse table names its logical pages (slotAt).
	lba *LBA

	dies      []*die
	rev       []revEntry   // indexed by a unit's Linear page index
	naiveNext atomic.Int64 // round-robin cursor for the ablation allocator

	maxPages  int64        // allocation budget (raw minus over-provision)
	usedPages atomic.Int64 // live units across all spaces

	gcErases atomic.Int64
	gcMoves  atomic.Int64
	gcRuns   atomic.Int64 // collection passes that claimed a die
	progs    atomic.Int64 // host-initiated programs

	// Media-fault recovery state (see recover.go).
	retiredBlocks  atomic.Int64 // blocks permanently removed from service
	retiredPages   atomic.Int64 // raw pages those blocks represent
	programRetries atomic.Int64 // faulted programs successfully relocated

	compressedBlocks atomic.Int64
	zeroSkipped      atomic.Int64

	// simClock is the high-water completion time across requests. A shrink
	// has no issue time of its own, so clearTail rewrites the page astride
	// the new bound there.
	simClock atomic.Int64

	scratch sync.Pool // *requestScratch, reused across partition requests

	// cache is nil when Config.CacheBytes is zero; every data-path hook is
	// gated on that nil check, which is what keeps the cache-off device
	// identical to one built before the feature existed.
	cache *blockCache

	// qos is nil when Config.TenantQoS is nil, under the same contract: the
	// admission gate in the data path is a single nil check when disabled.
	qos *qosState

	// grace is the read grace set a collector waits out before an erase.
	grace readGrace

	// carved, when a test sets it, is called with every unit takeUnit hands
	// out, before the caller binds it: a window a collector must respect
	// (die.unlanded).
	carved func(nvm.PPA)
	// reading, when a test sets it, is called by a read plan between loading
	// page words and reading them: the window the grace set covers.
	reading func()
}

// New builds an STL over dev.
func New(dev *nvm.Device, cfg Config) (*STL, error) {
	if cfg.OverProvision < 0 || cfg.OverProvision >= 1 {
		return nil, fmt.Errorf("stl: over-provision fraction %v out of range [0,1)", cfg.OverProvision)
	}
	if cfg.BBMultiplier < 1 {
		cfg.BBMultiplier = 1
	}
	if cfg.Compress && dev.Phantom() {
		return nil, fmt.Errorf("stl: compression needs a data-bearing device (phantom devices store no bytes)")
	}
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("stl: cache capacity %d is negative", cfg.CacheBytes)
	}
	if cfg.PrefetchDepth < 0 {
		return nil, fmt.Errorf("stl: prefetch depth %d is negative", cfg.PrefetchDepth)
	}
	geo := dev.Geometry()
	t := &STL{
		dev:      dev,
		geo:      geo,
		lay:      dev.Layout(),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		spaces:   make(map[SpaceID]*Space),
		nextID:   1,
		dies:     make([]*die, geo.Channels*geo.Banks),
		rev:      make([]revEntry, geo.TotalPages()),
		maxPages: int64(float64(geo.TotalPages()) * (1 - cfg.OverProvision)),
	}
	for i := range t.dies {
		d := &die{
			validInBlk: make([]int32, geo.BlocksPerBank),
			unlanded:   make([]atomic.Int32, geo.BlocksPerBank),
			state:      make([]blockState, geo.BlocksPerBank),
			gen:        make([]uint32, geo.BlocksPerBank),
		}
		for s := range d.open {
			d.open[s].block = -1
		}
		d.freePages.Store(geo.PagesPerBank())
		for b := 0; b < geo.BlocksPerBank; b++ {
			d.freeBlocks = append(d.freeBlocks, b)
			d.state[b] = blockFree
		}
		t.dies[i] = d
	}
	if cfg.CacheBytes > 0 {
		t.cache = newBlockCache(cfg.CacheBytes, cfg.CacheDRAMBandwidth)
	}
	if cfg.TenantQoS != nil {
		t.qos = newQosState(*cfg.TenantQoS, geo.Channels)
	}
	return t, nil
}

// Close releases nothing: an STL holds no goroutine or other resource beyond
// its memory. It stays so that callers which close an STL keep compiling.
func (t *STL) Close() error { return nil }

// noteTime folds a request completion time into simClock.
func (t *STL) noteTime(done sim.Time) {
	d := int64(done)
	for {
		cur := t.simClock.Load()
		if d <= cur || t.simClock.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Device exposes the underlying array for instrumentation.
func (t *STL) Device() *nvm.Device { return t.dev }

// Geometry returns the device geometry.
func (t *STL) Geometry() nvm.Geometry { return t.geo }

// GCStats reports garbage-collection work done so far.
func (t *STL) GCStats() (erases, pageMoves int64) { return t.gcErases.Load(), t.gcMoves.Load() }

// GCReport describes the garbage collector's work: how often it ran, how much
// it moved, and the resulting write amplification. Runs counts the inline
// passes writers made; their time is part of the writes that made them.
// nds.GCStats is an alias of it.
type GCReport struct {
	Runs           int64   // collection passes that claimed a die
	Erases         int64   // victim blocks erased back to the free pool
	PagesRelocated int64   // valid units moved by evacuation
	StallNs        int64   // always zero: no write waits on a collector of its own
	WriteAmp       float64 // (host+GC programs)/host programs, 1.0 when idle
}

// GCReport returns a snapshot of the GC counters.
func (t *STL) GCReport() GCReport {
	r := GCReport{
		Runs:           t.gcRuns.Load(),
		Erases:         t.gcErases.Load(),
		PagesRelocated: t.gcMoves.Load(),
		WriteAmp:       1,
	}
	if progs := t.progs.Load(); progs != 0 {
		r.WriteAmp = float64(progs+r.PagesRelocated) / float64(progs)
	}
	return r
}

// UsedPages reports live access units across all spaces.
func (t *STL) UsedPages() int64 { return t.usedPages.Load() }

// CreateSpace creates a multi-dimensional address space: the paper's space
// creation API (§5.1), where a producer supplies dimensionality and element
// size and the STL sizes building blocks and builds the index skeleton.
// Like every maintenance operation it holds the barrier exclusively.
func (t *STL) CreateSpace(elemSize int, dims []int64) (*Space, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("stl: space needs at least one dimension: %w", ErrInvalid)
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("stl: dimension %d is %d, must be positive: %w", i, d, ErrInvalid)
		}
	}
	sizing, err := SizeBuildingBlock(t.geo, elemSize, len(dims), t.cfg.BBOrder, t.cfg.BBMultiplier)
	if err != nil {
		return nil, err
	}
	t.barrier.Lock()
	defer t.barrier.Unlock()
	s := &Space{
		id:         t.nextID,
		elemSize:   elemSize,
		dims:       append([]int64(nil), dims...),
		bb:         sizing.Dims,
		grid:       make([]int64, len(dims)),
		bbElems:    prod(sizing.Dims),
		bbBytes:    sizing.Bytes,
		pagesPerBB: sizing.PagesPerBB,
		staged:     make(map[pendingKey]*pendingPage),
	}
	for i := range dims {
		s.grid[i] = ceilDiv(dims[i], s.bb[i])
	}
	if !gridFits(s.grid) {
		return nil, fmt.Errorf("stl: a space of %v has a grid of %v building blocks, more than %d: %w", dims, s.grid, int64(maxGridBlocks), ErrInvalid)
	}
	t.spaces[s.id] = s
	t.nextID++
	return s, nil
}

// WithSpace runs fn on space id under the barrier's shared side, so no
// maintenance operation runs until fn returns. fn must not call into the STL.
func (t *STL) WithSpace(id SpaceID, fn func(*Space) error) error {
	t.barrier.RLock()
	defer t.barrier.RUnlock()
	s, ok := t.spaces[id]
	if !ok {
		return fmt.Errorf("stl: space %d: %w", id, ErrUnknownSpace)
	}
	return fn(s)
}

// SpaceIDs lists all live space identifiers in ascending order.
func (t *STL) SpaceIDs() []SpaceID {
	t.barrier.RLock()
	defer t.barrier.RUnlock()
	ids := make([]SpaceID, 0, len(t.spaces))
	for id := range t.spaces {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// DeleteSpace permanently removes a space, invalidating all of its building
// blocks and dropping its translation structures (the delete_space command
// of §5.3.1). Every view of it is stale from then on. Maintenance operation:
// see CreateSpace.
func (t *STL) DeleteSpace(id SpaceID) error {
	t.barrier.Lock()
	defer t.barrier.Unlock()
	s, ok := t.spaces[id]
	if !ok {
		return fmt.Errorf("stl: delete of space %d: %w", id, ErrUnknownSpace)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	t.discardUnits(t.invalidateSubtree(s.root, nil), 0)
	t.dropStaged(s, func(pendingKey) bool { return true })
	if t.cache != nil {
		// Belt and braces: every unit invalidation above already dropped its
		// block's cache entry; the space-wide purge also clears entries whose
		// pages were all invalidated earlier (e.g. by zero elision).
		t.cache.invalidateSpace(id)
	}
	delete(t.spaces, id)
	t.qosForgetSpace(id)
	return nil
}

// pageBytes is the number of payload bytes held by page idx of a building
// block (the final page may be partial when the block size is not a multiple
// of the page size).
func (s *Space) pageBytes(geo nvm.Geometry, idx int) int64 {
	ps := int64(geo.PageSize)
	remain := s.bbBytes - int64(idx)*ps
	if remain > ps {
		return ps
	}
	return remain
}
