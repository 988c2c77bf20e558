package nvm

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"nds/internal/sim"
	"nds/internal/zeromap"
)

// PageCipher is an inline encryption engine (§5.3.3): a size-preserving
// transformation applied per basic access unit, keyed by physical address.
// Datacenter controllers run these at line rate, so no extra latency is
// modelled.
type PageCipher interface {
	// Seal encrypts plain for storage at p into dst, which is at least as
	// long as plain and may be plain itself.
	Seal(p PPA, dst, plain []byte)
	Open(p PPA, sealed []byte) []byte
}

// frameArena is the device-wide supply of page frames. A frame is the unit of
// ownership on the write path: whoever assembles a page draws one (Frame), a
// program hands it to a die shard as the stored page, a same-die relocation
// carries it to its new address, and it comes back here when the page that
// then holds it is discarded (DiscardPages: its owner's replacement landed)
// or its block is erased, whichever comes first. Frames are handed out dirty
// — whoever fills one writes or clears every byte. The lock is a leaf below
// the die shards' locks.
//
// Frames are carved from chunks outside the Go heap (zeromap.Chunk, huge-page
// mappings on Linux, but for the first chunk, which is a plain zeromap.Make
// mapping; heap slices elsewhere and under the race detector), so a
// device's stored bytes do not raise the collector's heap goal, and a frame
// is named by its frameNo, which the frame table stores in 4 B. A frame is
// valid while its device is reachable and not closed: Close releases every
// chunk, and a chunk's mapping goes when its Table is collected, which the
// frames' aliases do not prevent (DESIGN.md "Frame ownership").
type frameArena struct {
	mu     sync.Mutex
	free   []frameNo        // frames of discarded pages and erased blocks, and frames handed back unprogrammed
	next   frameNo          // the number the current chunk carves next
	left   int              // frames the current chunk has left
	tables []*zeromap.Table // every chunk's owner, in carving order
	dir    atomic.Pointer[chunkDir]

	ps, perChunk int
	shift        uint // a frameNo's slot bits
}

// frameNo names a frame of the arena: 0 is none, and frame n ≥ 1 is slot
// (n-1) & (1<<shift - 1) of chunk (n-1) >> shift.
type frameNo uint32

// chunkDir is the arena's chunks as readers find them: a frame's bytes by its
// number, and a frame's number by its address. A new chunk publishes a new
// directory, so a reader loads one and needs no lock.
type chunkDir struct {
	base   []unsafe.Pointer // by chunk index
	sorted []chunkRef       // by address
	ps     int
	shift  uint
}

// chunkRef is a chunk's address and index.
type chunkRef struct {
	addr  uintptr
	chunk uint32
}

// newFrameArena returns an arena of ps-byte frames, which carves a chunk as
// many whole frames as fit a huge page (one, if a frame is larger).
func newFrameArena(ps int) frameArena {
	per := max(zeromap.HugePage/ps, 1)
	return frameArena{ps: ps, perChunk: per, shift: uint(bits.Len(uint(per - 1)))}
}

// frame returns frame n's bytes, nil for none.
func (d *chunkDir) frame(n frameNo) []byte {
	if n == 0 {
		return nil
	}
	i := uint32(n - 1)
	return unsafe.Slice((*byte)(unsafe.Add(d.base[i>>d.shift], int(i&(1<<d.shift-1))*d.ps)), d.ps)
}

// number returns the number of the frame pg is, 0 if pg is not a whole frame
// of the arena.
func (a *frameArena) number(pg []byte) frameNo {
	d := a.dir.Load()
	if d == nil || len(pg) != a.ps {
		return 0
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(pg)))
	i := d.above(p) - 1
	if i < 0 {
		return 0
	}
	c := d.sorted[i]
	off := p - c.addr
	if off%uintptr(a.ps) != 0 || off/uintptr(a.ps) >= uintptr(a.perChunk) {
		return 0
	}
	return frameNo(c.chunk<<a.shift|uint32(off/uintptr(a.ps))) + 1
}

// above returns the index in d.sorted of the first chunk that starts above p.
func (d *chunkDir) above(p uintptr) int {
	lo, hi := 0, len(d.sorted)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.sorted[m].addr <= p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// get draws a frame, from the free list while it holds one and otherwise from
// the current chunk, carving a new one when it runs out.
func (a *frameArena) get() frameNo {
	a.mu.Lock()
	defer a.mu.Unlock()
	if k := len(a.free); k > 0 {
		n := a.free[k-1]
		a.free = a.free[:k-1]
		return n
	}
	if a.left == 0 {
		a.grow()
	}
	a.next++
	a.left--
	return a.next - 1
}

// grow carves the next chunk and publishes a directory that holds it. The
// lock must be held.
func (a *frameArena) grow() {
	c := len(a.tables)
	if uint64(c+1)<<a.shift > 1<<32-1 {
		panic("nvm: the frame arena ran out of frame numbers")
	}
	chunk := zeromap.Chunk
	if c == 0 {
		// The first chunk takes no huge page: a device that stores less than
		// a chunk of frames, as a test's does, pays for the pages it touches.
		chunk = zeromap.Make[byte]
	}
	mem, t := chunk(a.perChunk * a.ps)
	a.tables = append(a.tables, t)
	base := unsafe.Pointer(unsafe.SliceData(mem))
	ref := chunkRef{addr: uintptr(base), chunk: uint32(c)}
	d := &chunkDir{base: []unsafe.Pointer{base}, sorted: []chunkRef{ref}, ps: a.ps, shift: a.shift}
	if old := a.dir.Load(); old != nil {
		d.base = append(slices.Clip(old.base), base)
		d.sorted = slices.Insert(slices.Clip(old.sorted), old.above(ref.addr), ref)
	}
	a.dir.Store(d)
	a.next, a.left = frameNo(c<<a.shift)+1, a.perChunk
}

// release gives back every chunk's memory (zeromap.Table.Release); a second
// call releases nothing more.
func (a *frameArena) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.tables {
		t.Release()
	}
}

// dieShard holds the mutable state of one (channel, bank) die: its programmed
// bitmap, per-block erase counts and stored page frames. Each shard carries
// its own lock, so concurrent streams touching distinct dies never contend on
// device state.
type dieShard struct {
	mu         sync.Mutex
	programmed bitmap  // over die-local page indices
	moved      bitmap  // pages a relocation read from, whose frames may be lent; made with data
	eraseCount []int64 // per die-local block
	// data is the frame table, one chunk per block: data[block][page] is the
	// number of the frame stored at that page, 0 for none. The die's table is
	// made at its first stored page and a block's chunk at the block's, and
	// an erase clears a chunk and keeps it, so a device holds table for the
	// blocks it has written, not for its raw array. A chunk holds no pointer,
	// so the collector does not scan it. Nil on a phantom device.
	data [][]frameNo

	// Fault-injection attempt counters (only touched when a FaultPlan is
	// installed): lifetime program/erase/read attempts on this die, the
	// deterministic clock the plan's per-die fault points tick against.
	progOps  int64
	eraseOps int64
	readOps  int64
}

// bitmap is one bit per die-local page index.
type bitmap []uint64

func (b bitmap) get(idx int64) bool { return b[idx/64]&(1<<(uint(idx)%64)) != 0 }

func (b bitmap) set(idx int64, v bool) {
	if v {
		b[idx/64] |= 1 << (uint(idx) % 64)
	} else {
		b[idx/64] &^= 1 << (uint(idx) % 64)
	}
}

// batchPlan groups the pages of one ReadWords or ProgramPages batch by the
// die they are on and by the channel they cross. §4.2's rule 2 stripes
// consecutive pages of a building block across channels, so a batch never
// arrives in same-die runs — hundreds of pages land one or two to a die — and
// runs have to be formed: each die's and each channel's pages are chained in
// batch order, so a timeline or a die shard is locked once per batch, not
// once per page. A plan lives in the device's pool between batches, with
// every head cleared.
type batchPlan struct {
	dieHead, chanHead []int32 // per die / channel: 1 + its first page of the batch, 0 for none
	dieNext, chanNext []int32 // per page: 1 + the next page on the same die / channel, 0 for none
	dieLen            []int32 // per die: how many pages its chain holds
	dies, chans       []int32 // the dies and channels the batch touches
	times             []sim.Time
	ends              []sim.Time // a die run's completions, in chain order (readWords)
	words             []Word     // ReadPages' addresses, packed
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// link chains page i of the batch, on die die and channel ch, ahead of the
// pages chained so far. Called back to front, so that each chain runs in
// batch order.
func (b *batchPlan) link(i, die, ch int) {
	if b.dieNext[i] = b.dieHead[die]; b.dieNext[i] == 0 {
		b.dies = append(b.dies, int32(die))
	}
	b.dieHead[die] = int32(i + 1)
	b.dieLen[die]++
	if b.chanNext[i] = b.chanHead[ch]; b.chanNext[i] == 0 {
		b.chans = append(b.chans, int32(ch))
	}
	b.chanHead[ch] = int32(i + 1)
}

// Device is a simulated flash array. It is safe for concurrent use: each
// channel and bank timeline carries its own lock (per-die in-flight
// tracking), so operations from concurrent request streams overlap when they
// target distinct dies and queue behind each other when they collide, and the
// device state itself (programmed bitmap, stored bytes, wear) is sharded
// per die, so streams touching distinct dies never contend on a lock at all.
// Callers remain responsible for flash-rule discipline (no two concurrent
// programs of the same page) — in this repository the STL guarantees it by
// serializing writers per space (a unit is programmed at most once before it
// is erased) and claiming dies for GC.
type Device struct {
	geo Geometry
	lay Layout
	tim Timing

	cipher atomic.Value // PageCipher; nil until SetCipher
	faults atomic.Value // *faultState; nil until SetFaultPlan
	cfgMu  sync.Mutex   // serializes SetCipher/SetFaultPlan

	// Phantom devices skip byte storage so paper-scale datasets can be
	// simulated without allocating their contents. State (programmed bits,
	// wear) and timing are still fully tracked.
	phantom bool

	channels  []*sim.Resource
	banks     []*sim.Resource // indexed channel*Banks+bank
	timelines *zeromap.Table  // the windows of every channel and bank (sim.NewResources)
	shards    []dieShard      // indexed channel*Banks+bank
	frames    frameArena
	plans     sync.Pool // *batchPlan

	// zero is the canonical erased-page image returned by reads of
	// never-programmed pages. Callers must not modify returned read slices,
	// so one shared instance serves every such read.
	zero []byte

	reads    atomic.Int64
	programs atomic.Int64
	erases   atomic.Int64
}

// ProgramOp is one page program in a batch handed to ProgramPages.
type ProgramOp struct {
	At   sim.Time
	P    PPA
	Data []byte

	// Owned hands Data itself to the device: a whole-page frame (see Frame)
	// becomes the stored page without a copy, and the caller must not touch
	// it once the op has landed. The frames of ops that did not land — every
	// op of a batch that failed validation, op Index and later of a
	// *ProgramError — stay the caller's. A shorter Data is copied like any
	// other.
	Owned bool

	// Move marks a relocation of the page stored at From, with Data its
	// contents as read. When From and P share a die and no cipher is
	// installed P stores From's very frame instead of a copy of its bytes.
	// Otherwise (another die; a cipher, whose keystream is tied to the
	// address) Data is copied. Either way From keeps reading its frame until
	// its block is erased, and without a cipher neither that erase nor a
	// discard of From recycles the frame: it is P's and its aliases'
	// (EraseBlock, DiscardPages).
	Move bool
	From PPA
}

// Frame returns a page-sized buffer to assemble a page in before handing it
// over with ProgramOp.Owned. Its contents are unspecified: frames of erased
// blocks come back as they were.
func (d *Device) Frame() []byte {
	n := d.frames.get() // first: it may publish the directory that holds n
	return d.frames.dir.Load().frame(n)
}

// Recycle takes back a frame that will not be programmed after all. Anything
// that is not a whole frame of this device's arena is ignored.
func (d *Device) Recycle(pg []byte) {
	if n := d.frames.number(pg); n != 0 {
		d.frames.mu.Lock()
		d.frames.free = append(d.frames.free, n)
		d.frames.mu.Unlock()
	}
}

// NewDevice builds a device with the given geometry and timing. If phantom is
// true the device tracks state and timing but stores no page bytes. A
// geometry whose page addresses do not fit a Word is refused (NewLayout).
func NewDevice(geo Geometry, tim Timing, phantom bool) (*Device, error) {
	lay, err := NewLayout(geo)
	if err != nil {
		return nil, err
	}
	dies := geo.Channels * geo.Banks
	d := &Device{
		geo:     geo,
		lay:     lay,
		tim:     tim,
		phantom: phantom,
		shards:  make([]dieShard, dies),
		frames:  newFrameArena(geo.PageSize),
		zero:    make([]byte, geo.PageSize),
	}
	pagesPerDie := int64(geo.BlocksPerBank) * int64(geo.PagesPerBlock)
	for i := range d.shards {
		d.shards[i].programmed = make(bitmap, (pagesPerDie+63)/64)
		d.shards[i].eraseCount = make([]int64, geo.BlocksPerBank)
	}
	var tl []*sim.Resource
	tl, d.timelines = sim.NewResources(geo.Channels+dies, func(i int) string {
		if i < geo.Channels {
			return fmt.Sprintf("channel%d", i)
		}
		i -= geo.Channels
		return fmt.Sprintf("bank%d.%d", i/geo.Banks, i%geo.Banks)
	})
	d.channels, d.banks = tl[:geo.Channels:geo.Channels], tl[geo.Channels:]
	return d, nil
}

// Close gives the memory of the device's timelines and page frames back at
// once instead of when the device is collected. A closed device must not be
// used, nor any frame of it (Frame, ReadWords) be read: its bytes are gone. A
// second Close does nothing.
func (d *Device) Close() {
	d.timelines.Release()
	d.frames.release()
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Layout returns the packing of the device's page words.
func (d *Device) Layout() Layout { return d.lay }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.tim }

// Phantom reports whether the device stores page bytes.
func (d *Device) Phantom() bool { return d.phantom }

func (d *Device) getCipher() PageCipher {
	if c, ok := d.cipher.Load().(PageCipher); ok {
		return c
	}
	return nil
}

// SetCipher installs an inline encryption engine. All subsequent programs
// store sealed bytes; reads return plaintext. Installing a cipher on a
// device that already holds data would make that data unreadable, so it is
// rejected.
func (d *Device) SetCipher(c PageCipher) error {
	d.cfgMu.Lock()
	defer d.cfgMu.Unlock()
	if d.programs.Load() > 0 {
		return fmt.Errorf("nvm: cannot install cipher on a device with programmed data")
	}
	d.cipher.Store(c)
	return nil
}

// die returns the shard index for p.
func (d *Device) die(p PPA) int { return p.Channel*d.geo.Banks + p.Bank }

// dieIndex returns p's page index within its die.
func (d *Device) dieIndex(p PPA) int64 {
	return int64(p.Block)*int64(d.geo.PagesPerBlock) + int64(p.Page)
}

// RawPage exposes the bytes on the medium (post-cipher) for inspection; nil
// if the page is unprogrammed or the device is phantom. Test/diagnostic use.
func (d *Device) RawPage(p PPA) []byte {
	if d.phantom || !p.Valid(d.geo) {
		return nil
	}
	s := &d.shards[d.die(p)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.frames.dir.Load().frame(s.frameLocked(p.Block, p.Page))
}

// Programmed reports whether the page at p has been programmed since its
// block was last erased.
func (d *Device) Programmed(p PPA) bool {
	if !p.Valid(d.geo) {
		return false
	}
	s := &d.shards[d.die(p)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.programmed.get(d.dieIndex(p))
}

// frameLocked returns the number of the frame stored at page pg of block blk
// of s, 0 for a page that holds none. The shard lock must be held.
func (s *dieShard) frameLocked(blk, pg int) frameNo {
	if s.data == nil || s.data[blk] == nil {
		return 0
	}
	return s.data[blk][pg]
}

// sensed is what a read of the page at w returns when pg is the frame stored
// there: the shared erased page for none, else pg — opened first when a
// cipher c is installed.
func (d *Device) sensed(pg []byte, c PageCipher, w Word) []byte {
	switch {
	case pg == nil:
		return d.zero
	case c != nil:
		return c.Open(d.lay.PPA(w), pg)
	}
	return pg
}

// senseTime returns the bank occupancy of one page sense under fault plan f:
// the plain sense time, or (1+ReadRetrySenses)× when this read hits an ECC
// retry point. Consumes one read-attempt tick on the die.
func (d *Device) senseTime(f *faultState, die int) sim.Time {
	s := &d.shards[die]
	s.mu.Lock()
	n := s.readOps
	s.readOps++
	s.mu.Unlock()
	if f.readNeedsRetry(die, n) {
		f.readRetries.Add(1)
		return d.tim.ReadPage * sim.Time(1+f.plan.ReadRetrySenses)
	}
	return d.tim.ReadPage
}

// ReadWords senses every page in ws (all arriving at time at), storing the
// contents in out[i] and returning the latest completion time. Reading a
// never-programmed page is legal and yields a zero-filled page (erased
// state). A page's sense occupies its bank, then its transfer its channel.
//
// The batch contract: a batch is timing-equivalent to the same words issued
// as one-word batches in slice order — every bank and every channel sees the
// same bookings in the same order, and a fault plan's read retries strike the
// same pages — but takes each timeline and each die shard once for the batch,
// not once per page. out must have len(ws) entries. On a phantom device the
// out entries are set to nil, and out may be nil itself: a caller that only
// books passes none. A batch with an invalid word reads nothing.
//
// The alias contract: out[i] aliases the page's frame; callers must not
// modify it. A stored frame is never mutated (overwrites program a fresh
// unit), so the alias stays valid until the frame is recycled, which is when
// the page holding it is discarded (DiscardPages) or its block erased,
// whichever comes first — and a relocation's source does not count: a
// relocation (ProgramOp.Move) leaves its source the frame, and neither a
// discard nor the erase of the source takes it back; it stays with the
// destination, which a same-die move stores it at, and with its aliases. Only
// discarding or erasing a page that still holds the frame and was never
// moved out of ends the alias. Callers that need the data past that point
// must copy. In this repository a page goes that way only once its owner
// overwrote or released it, under the write lock of its space that no reader
// of the space shares; the STL discards it once the replacement has landed
// (stl/alloc.go), and its collector moves pages out of a block first, under
// no space's lock, and erases the block only after every read that loaded one
// of their old words has been issued (stl/gc.go).
//
// One caller retains the alias past its request: the STL's building-block
// cache keeps the returned slice in the block's entry and hands it to later
// reads. Its retention is bounded the same way: an overwrite or release drops
// the entry of the building block under that space's write lock, before the
// unit can be discarded or its block erased (stl/cache.go).
func (d *Device) ReadWords(at sim.Time, ws []Word, out [][]byte) (sim.Time, error) {
	b := d.plan(len(ws))
	defer d.putPlan(b)
	return d.readWords(at, ws, out, b)
}

// ReadPages is ReadWords for addresses given as PPAs: it packs them into the
// batch plan's word buffer and reads those. Its only caller outside the
// tests is the repository benchmark's nvm rung (bench/); everything else
// reads words.
func (d *Device) ReadPages(at sim.Time, ppas []PPA, out [][]byte) (sim.Time, error) {
	b := d.plan(len(ppas))
	defer d.putPlan(b)
	ws := b.words[:0]
	for _, p := range ppas {
		if !p.Valid(d.geo) {
			return at, fmt.Errorf("nvm: read of invalid address %v", p)
		}
		ws = append(ws, d.lay.Word(p))
	}
	b.words = ws
	return d.readWords(at, ws, out, b)
}

// readWords is ReadWords on a plan sized for ws. One pass, back to front,
// validates each word and chains it on its die and channel; the bookings and
// the frame lookups then follow the chains.
func (d *Device) readWords(at sim.Time, ws []Word, out [][]byte, b *batchPlan) (sim.Time, error) {
	if len(out) < len(ws) && (out != nil || !d.phantom) {
		return at, fmt.Errorf("nvm: ReadWords out has %d entries for %d addresses", len(out), len(ws))
	}
	l := &d.lay
	for i := len(ws) - 1; i >= 0; i-- {
		w := ws[i]
		if !l.Valid(w) {
			return at, fmt.Errorf("nvm: read of invalid address %v (word %#x)", l.PPA(w), uint32(w))
		}
		ch := l.Channel(w)
		b.link(i, ch*l.banks+l.Bank(w), ch)
	}
	// A page's sense books its bank, and the sense's end is when its transfer
	// arrives at the channel. Bookings on different timelines are independent,
	// so every bank's senses are booked first, bank by bank, then every
	// channel's transfers. A die's senses all arrive at at and, without a fault
	// plan to vary them, last one sense each: a chain of several is one run
	// (sim.Resource.AcquireRunHeld).
	faults := d.faultPlan()
	for _, die := range b.dies {
		bank := d.banks[die]
		bank.Hold()
		if k := b.dieLen[die]; faults == nil && k > 1 {
			ends := b.ends[:k]
			bank.AcquireRunHeld(at, d.tim.ReadPage, ends)
			for i, j := b.dieHead[die], 0; i != 0; i, j = b.dieNext[i-1], j+1 {
				b.times[i-1] = ends[j]
			}
		} else {
			for i := b.dieHead[die]; i != 0; i = b.dieNext[i-1] {
				sense := d.tim.ReadPage
				if faults != nil {
					sense = d.senseTime(faults, int(die))
				}
				_, b.times[i-1] = bank.AcquireHeld(at, sense)
			}
		}
		bank.Release()
	}
	done := at
	xfer := d.tim.TransferTime(d.geo.PageSize)
	for _, ch := range b.chans {
		channel := d.channels[ch]
		channel.Hold()
		for i := b.chanHead[ch]; i != 0; i = b.chanNext[i-1] {
			_, end := channel.AcquireHeld(b.times[i-1], xfer)
			done = sim.Max(done, end)
		}
		channel.Release()
	}
	d.reads.Add(int64(len(ws)))
	if d.phantom {
		if out != nil {
			clear(out[:len(ws)])
		}
		return done, nil
	}
	c := d.getCipher()
	for _, die := range b.dies {
		s := &d.shards[die]
		s.mu.Lock()
		dir := d.frames.dir.Load() // after the lock: it holds every chunk the die's frames are in
		for i := b.dieHead[die]; i != 0; i = b.dieNext[i-1] {
			w := ws[i-1]
			out[i-1] = d.sensed(dir.frame(s.frameLocked(l.Block(w), l.Page(w))), c, w)
		}
		s.mu.Unlock()
	}
	return done, nil
}

// plan takes a batch plan from the pool, sized for a batch of n pages and
// with nothing chained yet.
func (d *Device) plan(n int) *batchPlan {
	b, _ := d.plans.Get().(*batchPlan)
	if b == nil {
		b = &batchPlan{
			dieHead:  make([]int32, len(d.banks)),
			dieLen:   make([]int32, len(d.banks)),
			chanHead: make([]int32, len(d.channels)),
		}
	}
	b.dieNext, b.chanNext = growInt32(b.dieNext, n), growInt32(b.chanNext, n)
	if cap(b.times) < n {
		b.times, b.ends = make([]sim.Time, n), make([]sim.Time, n)
	}
	b.times = b.times[:n]
	return b
}

// putPlan returns b to the pool, its chains undone.
func (d *Device) putPlan(b *batchPlan) {
	b.unlink()
	d.plans.Put(b)
}

// unlink clears the heads the batch set: b chains nothing.
func (b *batchPlan) unlink() {
	for _, die := range b.dies {
		b.dieHead[die], b.dieLen[die] = 0, 0
	}
	for _, ch := range b.chans {
		b.chanHead[ch] = 0
	}
	b.dies, b.chans = b.dies[:0], b.chans[:0]
}

// linkOps chains every op of ops on its die and channel.
func (d *Device) linkOps(b *batchPlan, ops []ProgramOp) {
	for i := len(ops) - 1; i >= 0; i-- {
		p := ops[i].P
		b.link(i, d.die(p), p.Channel)
	}
}

// storeLocked makes op's page the stored page at op.P, touching its bytes at
// most once: an owned frame is kept as it is, a relocation within the die
// shares the source's frame, and only a borrowed or short payload is copied
// into a frame of the arena (its tail cleared, since frames arrive dirty). A
// cipher seals the frame in place. The lock of op.P's shard s must be held.
func (d *Device) storeLocked(s *dieShard, op *ProgramOp) {
	if s.data == nil {
		n := int64(d.geo.BlocksPerBank) * int64(d.geo.PagesPerBlock)
		s.data, s.moved = make([][]frameNo, d.geo.BlocksPerBank), make(bitmap, (n+63)/64)
	}
	chunk := s.data[op.P.Block]
	if chunk == nil {
		chunk = make([]frameNo, d.geo.PagesPerBlock)
		s.data[op.P.Block] = chunk
	}
	c := d.getCipher()
	if op.Move && c == nil && d.die(op.From) == d.die(op.P) {
		chunk[op.P.Page] = s.frameLocked(op.From.Block, op.From.Page)
		s.moved.set(d.dieIndex(op.From), true)
		return
	}
	pg, n := op.Data, frameNo(0)
	if op.Owned {
		n = d.frames.number(pg)
	}
	if n == 0 {
		n = d.frames.get()
		pg = d.frames.dir.Load().frame(n)
		clear(pg[copy(pg, op.Data):])
	}
	if c != nil {
		c.Seal(op.P, pg, pg)
	}
	chunk[op.P.Page] = n
}

// checkOp validates one op's address and payload size.
func (d *Device) checkOp(op *ProgramOp) error {
	switch {
	case !op.P.Valid(d.geo):
		return fmt.Errorf("nvm: program of invalid address %v", op.P)
	case len(op.Data) > d.geo.PageSize:
		return fmt.Errorf("nvm: program of %d bytes exceeds page size %d", len(op.Data), d.geo.PageSize)
	case op.Move && !op.From.Valid(d.geo):
		return fmt.Errorf("nvm: relocation from invalid address %v", op.From)
	}
	return nil
}

// ProgramPages issues a batch of page programs, returning the latest
// completion time. Each op writes its Data (at most one page) to its P,
// arriving at its At: the transfer occupies the channel, then the program the
// bank. Programming an already-programmed page is a flash-rule violation and
// fails.
//
// The batch contract: a batch is timing-equivalent to the same ops issued as
// one-op batches in slice order, stopping at the first that fails, but
// validates the whole span, claims each die's pages under one lock, then books
// each channel's transfers and each bank's programs as one run and stores
// each die's pages under one lock.
// Unlike that loop, the batch is atomic with respect to validation errors:
// every op is checked (address, size, flash rules) before any timeline slot
// is reserved or any byte stored, and a validation failure leaves the device
// untouched.
//
// The fault contract: under an installed FaultPlan a program attempt may fail
// with a *ProgramError (unwrapping to ErrProgramFault). Faults are not atomic
// — they mirror the op-by-op loop that aborts at the failure: Index=k means
// ops[:k] stored normally; op k's attempt still occupied the channel and bank
// (Done is its completion) and consumed its page — the content is
// indeterminate and the page cannot be programmed again before an erase; and
// ops[k+1:] were not attempted (their pages remain unprogrammed). The caller
// is expected to retire op k's block and relocate its data.
func (d *Device) ProgramPages(ops []ProgramOp) (sim.Time, error) {
	// Pass 1: validate everything, chain the ops on their dies and channels,
	// and claim the programmed bits die by die, unwinding on failure so an
	// invalid batch leaves no trace. Only the ops before the first invalid
	// one are chained and claimed, so a page programmed already among them
	// fails the batch before that op does, as in the op-by-op loop.
	var err error
	valid := len(ops)
	for i := range ops {
		if err = d.checkOp(&ops[i]); err != nil {
			valid = i
			break
		}
	}
	b := d.plan(valid)
	defer d.putPlan(b)
	d.linkOps(b, ops[:valid])
	if k := d.claim(ops, b); k >= 0 {
		err = fmt.Errorf("nvm: program to already-programmed page %v (erase first)", ops[k].P)
	} else if err != nil {
		d.unclaim(ops, b, b.dies, 0)
	}
	if err != nil {
		if len(ops) > 0 {
			return ops[0].At, err
		}
		return 0, err
	}
	// Pass 1.5: with a fault plan installed, walk the batch in slice order
	// consuming per-die attempt ticks until the first fault point, a lock per
	// run of same-die ops: a die's ticks are taken in one hold each, so that
	// concurrent batches on a die never share one. Ops after a faulted op are
	// not attempted (an op-by-op loop would abort there): their claims are
	// released, their attempt ticks are not consumed, and the plan is chained
	// again over the attempted ops. The faulted op's page stays claimed — the
	// failed attempt consumed it.
	attempted, landed := ops, len(ops)
	var faultIdx = -1
	if f := d.faultPlan(); f != nil {
		for i := 0; i < len(ops) && faultIdx < 0; {
			die := d.die(ops[i].P)
			j := i + 1
			for j < len(ops) && d.die(ops[j].P) == die {
				j++
			}
			s := &d.shards[die]
			s.mu.Lock()
			for k := i; k < j; k++ {
				n := s.progOps
				s.progOps++
				if f.programFails(die, n) {
					faultIdx = k
					break
				}
			}
			s.mu.Unlock()
			i = j
		}
		if faultIdx >= 0 {
			f.programFaults.Add(1)
			d.unclaim(ops, b, b.dies, faultIdx+1)
			attempted, landed = ops[:faultIdx+1], faultIdx
			b.unlink()
			d.linkOps(b, attempted)
		}
	}
	// Pass 2: timeline reservations. Each channel, then each bank, books its
	// ops in slice order — the acquire sequence every timeline sees from the
	// op-by-op loop, so completions are bit-identical. On a fault the failed
	// attempt still occupies the timelines; unattempted ops do not.
	var done, faultDone sim.Time
	xfer := d.tim.TransferTime(d.geo.PageSize)
	for _, ch := range b.chans {
		channel := d.channels[ch]
		channel.Hold()
		for i := b.chanHead[ch]; i != 0; i = b.chanNext[i-1] {
			_, b.times[i-1] = channel.AcquireHeld(attempted[i-1].At, xfer)
		}
		channel.Release()
	}
	for _, die := range b.dies {
		bank := d.banks[die]
		bank.Hold()
		for i := b.dieHead[die]; i != 0; i = b.dieNext[i-1] {
			_, end := bank.AcquireHeld(b.times[i-1], d.tim.ProgramPage)
			done = sim.Max(done, end)
			if int(i-1) == faultIdx {
				faultDone = end
			}
		}
		bank.Release()
	}
	// Pass 3: store bytes and bump counters, die by die.
	d.programs.Add(int64(landed))
	if !d.phantom {
		for _, die := range b.dies {
			s := &d.shards[die]
			s.mu.Lock()
			for i := b.dieHead[die]; i != 0; i = b.dieNext[i-1] {
				if int(i-1) != faultIdx {
					d.storeLocked(s, &attempted[i-1])
				}
			}
			s.mu.Unlock()
		}
		// A relocation to another die copied; its source's frame may be lent.
		for i := range attempted[:landed] {
			if op := &attempted[i]; op.Move && d.die(op.From) != d.die(op.P) && d.getCipher() == nil {
				s := &d.shards[d.die(op.From)]
				s.mu.Lock()
				s.moved.set(d.dieIndex(op.From), true)
				s.mu.Unlock()
			}
		}
	}
	if faultIdx >= 0 {
		return done, &ProgramError{Index: faultIdx, P: ops[faultIdx].P, Done: faultDone}
	}
	return done, nil
}

// claim sets the programmed bit of every op b chains, one die at a time. A
// page that is programmed already — or claimed by an earlier op of the batch
// — breaks the flash rules: then claim unwinds what it set and returns that
// op's index. It returns -1 once every op is claimed.
func (d *Device) claim(ops []ProgramOp, b *batchPlan) int {
	for n, die := range b.dies {
		s := &d.shards[die]
		s.mu.Lock()
		for i := b.dieHead[die]; i != 0; i = b.dieNext[i-1] {
			idx := d.dieIndex(ops[i-1].P)
			if !s.programmed.get(idx) {
				s.programmed.set(idx, true)
				continue
			}
			for j := b.dieHead[die]; j != i; j = b.dieNext[j-1] {
				s.programmed.set(d.dieIndex(ops[j-1].P), false)
			}
			s.mu.Unlock()
			d.unclaim(ops, b, b.dies[:n], 0)
			return int(i - 1)
		}
		s.mu.Unlock()
	}
	return -1
}

// unclaim releases the programmed bits claimed for the ops b chains on dies,
// those from index from on.
func (d *Device) unclaim(ops []ProgramOp, b *batchPlan, dies []int32, from int) {
	for _, die := range dies {
		s := &d.shards[die]
		s.mu.Lock()
		for i := b.dieHead[die]; i != 0; i = b.dieNext[i-1] {
			if int(i-1) >= from {
				s.programmed.set(d.dieIndex(ops[i-1].P), false)
			}
		}
		s.mu.Unlock()
	}
}

// EraseBlock erases the block containing p (its Page field is ignored),
// arriving at time at, returning the completion time. The frames the block
// still holds return to the arena — an alias of one of them (see ReadWords)
// is invalid once a later program reuses the frame — except the frames of
// pages a relocation read from, which it only lets go of: their destinations
// and their readers may still hold them. A page discarded before the erase
// (DiscardPages) gave its frame back then and holds none.
//
// Under an installed FaultPlan an erase may fail with ErrEraseFault (a
// transient fault: block contents unchanged, block should be retired) or
// ErrWornOut (the block's erase count reached the endurance limit; every
// further erase fails the same way). Either way the failed attempt still
// occupies the bank timeline, and the block keeps its frames: a caller that
// retires it gives back those of its dead pages with DiscardPages.
func (d *Device) EraseBlock(at sim.Time, p PPA) (sim.Time, error) {
	if !p.Valid(d.geo) && !(PPA{p.Channel, p.Bank, p.Block, 0}).Valid(d.geo) {
		return at, fmt.Errorf("nvm: erase of invalid address %v", p)
	}
	die := d.die(p)
	_, done := d.banks[die].Acquire(at, d.tim.EraseBlock)
	base := int64(p.Block) * int64(d.geo.PagesPerBlock)
	s := &d.shards[die]
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := d.faultPlan(); f != nil {
		// Wear-out is a permanent property of the block, checked before the
		// transient-fault counter so it never consumes an attempt tick.
		if f.wornOut(s.eraseCount[p.Block]) {
			f.wearoutFaults.Add(1)
			return done, fmt.Errorf("nvm: erase of %v: %w", p, ErrWornOut)
		}
		n := s.eraseOps
		s.eraseOps++
		if f.eraseFails(die, n) {
			f.eraseFaults.Add(1)
			return done, fmt.Errorf("nvm: erase of %v: %w", p, ErrEraseFault)
		}
	}
	d.frames.mu.Lock()
	for i := 0; i < d.geo.PagesPerBlock; i++ {
		idx := base + int64(i)
		s.programmed.set(idx, false)
		if s.data == nil {
			continue
		}
		if n := s.frameLocked(p.Block, i); n != 0 && !s.moved.get(idx) {
			d.frames.free = append(d.frames.free, n)
		}
		s.moved.set(idx, false)
	}
	d.frames.mu.Unlock()
	if s.data != nil {
		clear(s.data[p.Block])
	}
	s.eraseCount[p.Block]++
	d.erases.Add(1)
	return done, nil
}

// DiscardPages gives the frames of the pages at ws back to the arena: their
// contents are dead. A discarded page holds no bytes (a read of it returns
// the erased image) and stays programmed until its block is erased. A page a
// relocation read from keeps its frame, which is its destination's
// (ProgramOp.Move), and a page holding none is left as it is. It books no
// timeline and counts no operation: flash has no such command, and a discard
// is the simulator forgetting bytes that nothing can read any more, so
// simulated time cannot depend on it. Pages are locked a die at a time, so a
// batch grouped by die takes each shard once; an invalid word is skipped.
//
// The caller guarantees two things for each page. Nothing reaches its frame
// any more: no translation names the page, no alias of it is held or lent
// (see ReadWords), and no relocation is reading it. And it is still the page
// the caller means: its block was not erased since it died, or the discard
// would take the frame of a page programmed there afterwards.
func (d *Device) DiscardPages(ws []Word) {
	if d.phantom {
		return
	}
	l := &d.lay
	for i := 0; i < len(ws); {
		if !l.Valid(ws[i]) {
			i++
			continue
		}
		die := l.Die(ws[i])
		s := &d.shards[die]
		s.mu.Lock()
		d.frames.mu.Lock()
		for ; i < len(ws) && l.Valid(ws[i]) && l.Die(ws[i]) == die; i++ {
			w := ws[i]
			blk, page := l.Block(w), l.Page(w)
			if n := s.frameLocked(blk, page); n != 0 && !s.moved.get(l.DieIndex(w)) {
				d.frames.free = append(d.frames.free, n)
				s.data[blk][page] = 0
			}
		}
		d.frames.mu.Unlock()
		s.mu.Unlock()
	}
}

// FrameStats counts the device's page frames by where they are.
type FrameStats struct {
	Held int // distinct frames stored at pages that own them (a relocation's source does not)
	Free int // frames waiting in the arena's free list
	// Lost counts the second owners of frames: a frame stored at two owning
	// pages, listed free twice, or listed free while a page owns it. Each is a
	// frame two writers may fill, and any but zero is a bug.
	Lost int
}

// FrameStats reports where the device's frames are. Test and diagnostic
// use: it locks every shard in turn and allocates a set of the frames.
func (d *Device) FrameStats() FrameStats {
	owners := make(map[frameNo]int)
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for blk, chunk := range s.data {
			for page, n := range chunk {
				if n != 0 && !s.moved.get(int64(blk*d.geo.PagesPerBlock+page)) {
					owners[n]++
				}
			}
		}
		s.mu.Unlock()
	}
	fs := FrameStats{Held: len(owners)}
	d.frames.mu.Lock()
	fs.Free = len(d.frames.free)
	for _, n := range d.frames.free {
		owners[n]++
	}
	d.frames.mu.Unlock()
	for _, n := range owners {
		fs.Lost += n - 1
	}
	return fs
}

// EraseCount reports how many times the block containing p has been erased.
func (d *Device) EraseCount(p PPA) int64 {
	s := &d.shards[d.die(p)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eraseCount[p.Block]
}

// Counters reports lifetime operation counts (reads, programs, erases).
func (d *Device) Counters() (reads, programs, erases int64) {
	return d.reads.Load(), d.programs.Load(), d.erases.Load()
}

// ChannelUtilization reports the busy fraction of each channel over horizon.
func (d *Device) ChannelUtilization(horizon sim.Time) []float64 {
	u := make([]float64, len(d.channels))
	for i, c := range d.channels {
		u[i] = c.Utilization(horizon)
	}
	return u
}

// BusyDies reports how many (channel,bank) dies still have work in flight at
// simulated time at — i.e. their bank timeline extends beyond at. Concurrency
// diagnostics: a concurrent request mix engaging the whole array shows many
// busy dies, a serialized one at most a handful.
func (d *Device) BusyDies(at sim.Time) int {
	n := 0
	for _, b := range d.banks {
		if b.FreeAt() > at {
			n++
		}
	}
	return n
}

// NextIdle reports the earliest time at which every channel and bank is idle:
// the completion horizon of all issued operations.
func (d *Device) NextIdle() sim.Time {
	var t sim.Time
	for _, c := range d.channels {
		t = sim.Max(t, c.FreeAt())
	}
	for _, b := range d.banks {
		t = sim.Max(t, b.FreeAt())
	}
	return t
}

// ResetTimeline returns all channel/bank timelines to the epoch without
// touching stored data or programmed state. Experiment harnesses use this to
// run independent phases on a pre-loaded device.
func (d *Device) ResetTimeline() {
	for _, c := range d.channels {
		c.Reset()
	}
	for _, b := range d.banks {
		b.Reset()
	}
}
