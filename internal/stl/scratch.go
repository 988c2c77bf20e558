package stl

import (
	"cmp"
	"slices"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// requestScratch is the reusable working state of one partition request: the
// walk and its batch of extents (a read's walkBatch at a time, a write's whole
// list), the block plan, the read plan's word batch and page table, the
// write's stages and queued programs, and the segment list. Instances live in
// the STL's sync.Pool; a request takes one, uses it exclusively, and returns
// it, so the steady-state data path allocates nothing per request.
//
// Ownership rule: nothing in a scratch outlives the request. It owns no page
// bytes: the slices it holds alias device frames, cache entries, staged
// buffers or the caller's payload, and putScratch clears them so the pool pins
// none. The one exception is a write's queued ProgramOps, whose Owned frames
// the scratch holds from the arena until their flush lands them (the device's
// from then on) or hands them back (DESIGN.md "Frame ownership").
type requestScratch struct {
	exts  []Extent
	shape []int64
	walk  extentWalk
	gcrd  []int64 // grid-coordinate scratch

	// Block plan: the building blocks the request touches, in first-touch
	// order. A row-major extent walk revisits them in cycles — one partition
	// row crosses blocks g..g+k, the next row the same ones — so each entry
	// remembers which entry the walk went to after it last time (blockPlan.next)
	// and a lookup tries that (followBlock), then the last hit, before it scans
	// (resolveBlock). Entries past len(plans) keep their page tables, zeroed,
	// for the next request.
	plans []blockPlan
	last  int // index of the entry the last lookup hit

	// Read plan: a block plan's page table maps a touched page to its slot in
	// pageData; device reads batch into words/planOf until a flush fills the
	// corresponding pageData entries via nvm.ReadWords. Through the cache,
	// fillKeys parallels words with each read's building-block page, so the
	// flush can lend the results to the block cache; otherwise it is empty.
	//
	// A data-bearing read also notes every page piece it meets as a segRef, in
	// extent (= Dst) order, so that once the flushes have filled pageData the
	// segment list is one pass over refs and not a second extent walk. A
	// compressed block's decompressed image takes a pageData slot like a page.
	pageData [][]byte
	refs     []segRef
	words    []nvm.Word
	planOf   []int32
	fillKeys []pageKey
	datas    [][]byte

	// Cache plan (reads of a cacheable space): the allocated pages met since
	// the last flush, in first-touch order and chained per block
	// (blockPlan.wantHead), so the flush can put each block's pages to the
	// cache in one transaction and still queue the misses in the order they
	// were met. hitBytes and readyMax sum up the request's hits: payload bytes
	// served from the cache and the latest DRAM-residency time among them.
	want     []wantedPage
	hitBytes int64
	readyMax sim.Time

	// Write plan: stages in first-touch order, located via the block plan's
	// page table, each page's program queued on the programQueue until a
	// flush point. fills names the queued ops whose frames do not hold their
	// page yet: the flush copies the stage's pieces of payload, the caller's
	// buffer, into each before it programs the batch (fillPending).
	stages  []writeStage
	fills   []pendingFill
	payload []byte
	// A write's queued programs. The queue's space is the request's, which a
	// read's cache fills name too.
	programQueue

	// Segment emission (segments.go): reused across requests; Src pointers
	// are cleared on put so the pool never pins arena frames.
	segs []Segment
}

// blockPlan is one building block of a request. pages is indexed by page
// number within the block and holds slot+1 — into pageData on a read, into
// stages on a write — with 0 for a page the request has not met. The table is
// as long as the block has pages, and a scratch is pooled across spaces whose
// blocks differ in size, so putScratch zeroes every table the request used
// and addBlock re-lengthens a retained one. The count's tables are retained
// too, and counted afresh by each request that places a unit in the block.
type blockPlan struct {
	g     int64          // grid index
	blk   *BuildingBlock // nil: the block was never written
	pages []int32
	use   blockUse // the block's units, counted by the write's first fresh unit there
	image int32    // a compressed block's decompressed image (reads): slot+1 in pageData
	next  int32    // 1 + the entry looked up after this one last time, 0 for none yet

	// The block's chain through requestScratch.want: 1 + the index of its
	// first and of its last page there, 0 for none.
	wantHead, wantTail int32
}

// segRef is one source piece of a read before its bytes are known: n bytes at
// lo of pageData[slot], bound for partition offset dst.
type segRef struct {
	dst, lo int64
	slot, n int32
}

// wantedPage is one allocated page a read has met and not yet put to the
// cache.
type wantedPage struct {
	plan int32 // index of the page's block in requestScratch.plans
	page int32
	next int32 // 1 + the index of the block's next wanted page, 0 for none
	hit  bool  // set by the block's cache transaction
}

// writeStage is one destination page of a write request: page page of the
// block of plans[plan], and the extents that land on it (indexes into the
// request's extent list).
type writeStage struct {
	plan    int32
	page    int
	covered int64
	extents []int32
}

// pendingFill names a queued program whose frame is still as the arena handed
// it out: ops[op]'s page is stages[stage]'s payload pieces over zeros.
type pendingFill struct {
	op, stage int32
}

// stagedOp names a queued program of a staged page: ops[op] lands page key.
type stagedOp struct {
	op  int32
	key pageKey
}

// programQueue is a writer's queue of programs, and flushPrograms the one
// function that lands it. Every writer of the STL but the collector queues
// here: a partition write, a compressed block's store and Flush on a request
// scratch, the baseline's block device (LBA) on its own. It holds the queued
// ops, the plan of their fresh units not yet carved, the units they replace
// and the staged pages among them.
type programQueue struct {
	ops []nvm.ProgramOp
	// dead names the units the queued ops replace, and the units the writer
	// released, for the flush that lands their successors to discard.
	dead []deadUnit
	// staged names the queued ops of staged pages (queueStaged), which leave
	// space's staging map only if the flush lands them.
	staged []stagedOp
	space  *Space
	// plan holds the fresh units placed and not yet carved (unitPlan); every
	// flush carves it before it lands ops.
	plan unitPlan
}

// getScratch takes a scratch from the pool, sized for space s.
func (t *STL) getScratch(s *Space) *requestScratch {
	rs, _ := t.scratch.Get().(*requestScratch)
	if rs == nil {
		rs = &requestScratch{}
	}
	if rs.plan.owner == nil {
		rs.plan.ops, rs.plan.owner = &rs.ops, rs
	}
	rs.gcrd = growInt64(rs.gcrd, len(s.grid))
	rs.space = s
	return rs
}

// putScratch resets rs and returns it to the pool. Data-bearing pointers are
// cleared so a pooled scratch never pins device arenas or caller buffers.
func (t *STL) putScratch(rs *requestScratch) {
	rs.exts = rs.exts[:0]
	rs.space = nil
	for i := range rs.plans {
		bp := &rs.plans[i]
		clear(bp.pages)
		*bp = blockPlan{pages: bp.pages[:0], use: bp.use}
		bp.use.counted = false
	}
	rs.plans = rs.plans[:0]
	for i := range rs.pageData {
		rs.pageData[i] = nil
	}
	rs.pageData = rs.pageData[:0]
	rs.refs = rs.refs[:0]
	rs.words = rs.words[:0]
	rs.planOf = rs.planOf[:0]
	rs.fillKeys = rs.fillKeys[:0]
	rs.want = rs.want[:0]
	rs.hitBytes, rs.readyMax = 0, 0
	for i := range rs.datas {
		rs.datas[i] = nil
	}
	rs.datas = rs.datas[:0]
	rs.stages = rs.stages[:0]
	clear(rs.ops)
	rs.ops = rs.ops[:0]
	rs.fills = rs.fills[:0]
	rs.dead = rs.dead[:0]
	rs.staged = rs.staged[:0]
	rs.payload = nil
	for i := range rs.segs {
		rs.segs[i].Src = nil
	}
	rs.segs = rs.segs[:0]
	t.scratch.Put(rs)
}

// sized returns s with at least n elements (contents unspecified).
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// nextStage appends a stage slot, reusing retained extent-index capacity.
func (rs *requestScratch) nextStage() int32 {
	if len(rs.stages) < cap(rs.stages) {
		rs.stages = rs.stages[:len(rs.stages)+1]
		st := &rs.stages[len(rs.stages)-1]
		st.plan, st.page, st.covered = 0, 0, 0
		st.extents = st.extents[:0]
	} else {
		rs.stages = append(rs.stages, writeStage{})
	}
	return int32(len(rs.stages) - 1)
}

// page resolves a planned unit's page: stage ref of the request.
func (rs *requestScratch) page(ref uint32) (*pageSlot, revEntry) {
	st := &rs.stages[ref]
	bp := &rs.plans[st.plan]
	return &bp.blk.pages[st.page], revEntry{space: rs.space.id, block: uint32(bp.g), page: int32(st.page)}
}

// pagePiece is the part of extent e that lands on page page of its block: n
// bytes at off of the page, from src of the request's payload.
func pagePiece(e *Extent, page int, ps int64) (off, src, n int64) {
	base := int64(page) * ps
	lo := max(e.Off, base)
	hi := min(e.Off+e.Len, base+ps)
	return lo - base, e.Dst + (lo - e.Off), hi - lo
}

// copyPayload writes stage st's pieces of the payload into frame, the whole
// page. Pieces that follow one another both in the page and in the payload
// move as one copy: the rows of a partition as wide as its building block,
// two to a page, are one page-sized move. Only the copies merge — the extent
// list, which times the request, is as the walk made it. With stream the
// moves go through streamCopy, and the caller fences (storeFence).
func (rs *requestScratch) copyPayload(frame []byte, st *writeStage, ps int64, stream bool) {
	move := func(off, src, n int64) {
		if stream {
			streamCopy(frame[off:], rs.payload[src:src+n])
		} else {
			copy(frame[off:], rs.payload[src:src+n])
		}
	}
	var off, src, n int64 // the run being grown
	for _, ei := range st.extents {
		o, s, m := pagePiece(&rs.exts[ei], st.page, ps)
		if o == off+n && s == src+n {
			n += m
			continue
		}
		move(off, src, n)
		off, src, n = o, s, m
	}
	move(off, src, n)
}

// payloadZero reports whether every payload byte bound for stage st is zero.
func (rs *requestScratch) payloadZero(st *writeStage, ps int64) bool {
	for _, ei := range st.extents {
		_, src, n := pagePiece(&rs.exts[ei], st.page, ps)
		if !allZero(rs.payload[src : src+n]) {
			return false
		}
	}
	return true
}

// fillBurst is how many booked pages wait for their bytes at most. The saving
// is in the run — a quarter megabyte of stores to cold frames with no fence
// among them — and is as large at 64 pages as at 256 (EXPERIMENTS.md "book
// first, fill last"). Which frames a burst streams past the cache is
// fillPending's; the burst's one SFENCE is what makes a streamed frame the
// device's to read.
const fillBurst = 64

// fillPending makes the queued frames the pages their ops program: zeros
// where the extents leave a page uncovered (frames arrive dirty), then the
// payload. Nothing but copies runs between one page and the next — no lock,
// no atomic, no call into the device — so the stores to cold frames drain
// behind one another instead of at each page's next fence.
//
// A whole page is streamed (streamCopy): its stores skip the read of each line
// a plain store makes first. No frame is in cache when it is drawn — a
// recycled one was written long ago, and a fresh one lies in a chunk the
// system zeroes at its first touch, a huge page at a time where it grants
// one — so every whole page streams; only a page the extents leave gaps in
// keeps plain stores, since its clear has just cached the frame. The burst
// ends in one storeFence, which orders the streamed stores before
// flushPrograms hands the frames to ProgramPages (and so to any reader).
func (rs *requestScratch) fillPending(ps int64) {
	streamed := false
	for _, f := range rs.fills {
		frame, st := rs.ops[f.op].Data, &rs.stages[f.stage]
		if st.covered < ps {
			clear(frame)
		}
		stream := st.covered >= ps
		rs.copyPayload(frame, st, ps, stream)
		streamed = streamed || stream
	}
	if streamed {
		storeFence()
	}
	rs.fills = rs.fills[:0]
}

// startWalk starts rs.walk at the partition at coord/sub of v, returning the
// partition's payload byte count.
func (rs *requestScratch) startWalk(v *View, coord, sub []int64) (int64, error) {
	rs.shape = growInt64(rs.shape, len(v.dims))
	elems, err := v.partitionShapeInto(coord, sub, rs.shape)
	if err != nil {
		return 0, err
	}
	rs.walk.start(v, coord, sub, rs.shape, elems)
	return elems * int64(v.space.elemSize), nil
}

// translate fills rs.exts with the partition's whole extent decomposition,
// returning the extent list and payload byte count: a write keeps the list,
// because its stages index into it.
func (rs *requestScratch) translate(v *View, coord, sub []int64) ([]Extent, int64, error) {
	want, err := rs.startWalk(v, coord, sub)
	if err != nil {
		return nil, 0, err
	}
	exts := rs.exts[:0]
	for more := true; more; {
		exts, more = rs.walk.next(slices.Grow(exts, walkBatch))
	}
	rs.exts = exts
	return exts, want, nil
}

// walkBatch is how many extents a read holds at once: it takes the walk a
// batch this long at a time, in rs.exts, and never holds the list whole.
const walkBatch = 128

// nextBatch is a read's next batch of at most walkBatch extents from rs.walk,
// and whether the walk has more.
func (rs *requestScratch) nextBatch() ([]Extent, bool) {
	if cap(rs.exts) < walkBatch {
		rs.exts = make([]Extent, 0, walkBatch)
	}
	return rs.walk.next(rs.exts[:0:walkBatch])
}

// addBlock appends the plan entry for grid index g, reusing a retained page
// table when it is long enough for blk.
func (rs *requestScratch) addBlock(g int64, blk *BuildingBlock) *blockPlan {
	n := len(rs.plans)
	if n < cap(rs.plans) {
		rs.plans = rs.plans[:n+1]
	} else {
		rs.plans = append(rs.plans, blockPlan{})
	}
	if n > 0 {
		rs.plans[rs.last].next = int32(n + 1)
	}
	bp := &rs.plans[n]
	bp.g, bp.blk = g, blk
	if blk != nil {
		if np := len(blk.pages); cap(bp.pages) < np {
			bp.pages = make([]int32, np)
		} else {
			bp.pages = bp.pages[:np]
		}
	}
	rs.last = n
	return bp
}

// followBlock returns the plan entry the walk went to after the last hit last
// time, if that is grid index g's: the step a row-major walk repeats for every
// extent of every partition row after the first, kept small enough to inline
// into the plan loops. Nil sends the caller to resolveBlock.
func (rs *requestScratch) followBlock(g int64) *blockPlan {
	if rs.last < len(rs.plans) {
		if i := int(rs.plans[rs.last].next) - 1; i >= 0 && rs.plans[i].g == g {
			rs.last = i
			return &rs.plans[i]
		}
	}
	return nil
}

// resolveBlock returns the plan entry for grid index g when followBlock did
// not: the last hit itself, or an entry found by a scan from the newest, which
// the last hit then remembers — or a new one, looked up in the index and
// charged its traversals and, once per distinct block, Blocks. The pointer is
// valid until the next new entry.
func (t *STL) resolveBlock(rs *requestScratch, s *Space, g int64, alloc bool, stats *RequestStats) *blockPlan {
	if rs.last < len(rs.plans) {
		prev := &rs.plans[rs.last]
		if prev.g == g {
			return prev
		}
		for i := len(rs.plans) - 1; i >= 0; i-- {
			if rs.plans[i].g == g {
				prev.next = int32(i + 1)
				rs.last = i
				return &rs.plans[i]
			}
		}
	}
	s.GridCoord(g, rs.gcrd)
	blk, steps := t.block(s, rs.gcrd, alloc)
	stats.Traversals += steps
	if blk != nil {
		stats.Blocks++
	}
	return rs.addBlock(g, blk)
}

// wantPage notes page p of the block the last resolveBlock returned
// for the flush's cache transaction.
func (rs *requestScratch) wantPage(p int32) {
	bp := &rs.plans[rs.last]
	rs.want = append(rs.want, wantedPage{plan: int32(rs.last), page: p})
	n := int32(len(rs.want))
	if bp.wantTail != 0 {
		rs.want[bp.wantTail-1].next = n
	} else {
		bp.wantHead = n
	}
	bp.wantTail = n
}

// flushReads puts the pages wanted so far to the cache, issues the batched
// page reads — the misses, or with the cache off every page — storing each
// result in its plan slot, lends the results to the cache, and folds the batch
// completion into done. A batch whose pages have no plan slots (a phantom
// device, the cache off: planPartitionRead) only books: it reads into no out.
func (t *STL) flushReads(rs *requestScratch, at sim.Time, done *sim.Time, stats *RequestStats) error {
	if len(rs.want) > 0 {
		t.lookupWanted(rs, stats)
	}
	if len(rs.words) == 0 {
		return nil
	}
	if t.reading != nil {
		t.reading()
	}
	var out [][]byte
	if len(rs.planOf) != 0 {
		for len(rs.datas) < len(rs.words) {
			rs.datas = append(rs.datas, nil)
		}
		out = rs.datas
	}
	d, err := t.dev.ReadWords(at, rs.words, out)
	if err != nil {
		return err
	}
	*done = sim.Max(*done, d)
	if out != nil {
		for i := range rs.words {
			rs.pageData[rs.planOf[i]] = rs.datas[i]
		}
		if len(rs.fillKeys) != 0 {
			// lookupWanted queued this batch, a key to a read; filling whatever
			// lines up of anything else would hide a bug in the plan.
			if len(rs.fillKeys) != len(rs.words) {
				panic("stl: a read batch and its cache fill keys diverged")
			}
			t.cache.fillPages(rs.space, rs.fillKeys, rs.datas[:len(rs.words)], d, false)
		}
		clear(rs.datas[:len(rs.words)])
	}
	rs.words = rs.words[:0]
	rs.planOf = rs.planOf[:0]
	rs.fillKeys = rs.fillKeys[:0]
	return nil
}

// flushPrograms lands q. Every writer calls it at every point where its
// programs must reach the device before its next operation (a
// read-modify-write or compressed block's read, a collection, request end),
// which is what keeps the issue order, and so the timing, that of programming
// page by page (batch.go).
//
// It carves q's planned units first (carvePlan); every other queued op was
// bound when appended, so landPrograms relocates a faulted op through the
// reverse-lookup table (rebindFaulted). If the carve left an op without a
// unit, only the ops before it may land, and the flush fails. Frames the
// owner queued and has not filled yet are filled before anything programs
// (fillPending), so no path — a collection's flush hook, the error path
// landing what is queued — programs a frame as the arena handed it out.
//
// What landed is the device's: a staged page leaves its space's staging map,
// and the units the landed programs replaced give their frames back
// (discardUnits). What did not land is unbound, so bound units are always
// programmed units; a staged page keeps its frame in the staging map, and
// any other Owned op's frame goes back to the arena. An op without Owned
// (the LBA's, a compressed block's) carries bytes that are not the arena's,
// and the arena must not take them.
func (t *STL) flushPrograms(q *programQueue, done *sim.Time, stats *RequestStats) error {
	n, cerr := t.landable(&q.plan, len(q.ops))
	q.plan.owner.fillPending(int64(t.geo.PageSize))
	d, landed, retries, err := t.landPrograms(q.ops[:n], t.rebindFaulted)
	*done = sim.Max(*done, d)
	stats.ProgramRetries += retries
	for _, sp := range q.staged {
		if int(sp.op) < landed {
			delete(q.space.staged, sp.key)
		} else {
			q.ops[sp.op].Owned = false
		}
	}
	q.staged = q.staged[:0]
	rest := q.ops[landed:]
	t.unbindOps(rest)
	for i := range rest {
		if rest[i].Owned {
			t.dev.Recycle(rest[i].Data)
		}
	}
	clear(q.ops)
	q.ops = q.ops[:0]
	t.discardUnits(q.dead, landed)
	q.dead = q.dead[:0]
	return cmp.Or(err, cerr)
}
