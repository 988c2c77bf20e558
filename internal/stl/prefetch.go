package stl

import (
	"sync"

	"nds/internal/sim"
)

// The dimensional prefetcher. A partition stream that walks the space along
// one grid axis — row bands, column bands, tile sweeps — touches consecutive
// building blocks whose grid coordinates advance by one in exactly one
// dimension. Once a view's accesses advance that way prefetchTrigger times in
// a row, the prefetcher warms the next Config.PrefetchDepth blocks along the
// axis through the device's batched read path, issued at the triggering
// request's completion time. The warm-up is asynchronous in simulated time:
// it never extends the triggering request, and a later demand read that
// arrives before the prefetch batch completes waits only for the batch (the
// per-page ready times the cache records).
//
// Detection is per view — each view is one command stream (the moral
// equivalent of a submission queue), so a view's access sequence is exactly
// one client's stream and strides from different clients never interleave
// into false runs.

// prefetchTrigger is how many consecutive one-dimensional advances arm the
// prefetcher.
const prefetchTrigger = 2

// streamState is one view's stride detector. It lives in the View, so it goes
// when the view does; mu orders the view's concurrent readers and is
// otherwise uncontended.
type streamState struct {
	mu   sync.Mutex
	last []int64 // grid coordinate of the previous access's primary block; nil before the first
	axis int     // dimension of the detected stride
	dir  int64   // +1 or -1 along axis
	run  int     // consecutive advances observed
}

// observe records the grid coordinate of the view's latest primary block and,
// when a streaming run is armed, returns the axis and direction to warm
// (ok=true). g is copied; callers may reuse it.
func (st *streamState) observe(g []int64) (axis int, dir int64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.last == nil {
		st.last, st.axis = append([]int64(nil), g...), -1
		return 0, 0, false
	}
	axis, dir = -1, 0
	same := true
	for i := range g {
		switch d := g[i] - st.last[i]; {
		case d == 0:
		case (d == 1 || d == -1) && axis == -1:
			axis, dir, same = i, d, false
		default:
			// Multi-axis or long jump: not a stream step.
			axis, same = -2, false
		}
	}
	copy(st.last, g)
	switch {
	case same:
		// Repeat access to the same block: neither advances nor breaks a run.
		return 0, 0, false
	case axis < 0:
		st.axis, st.run = -1, 0
		return 0, 0, false
	case axis == st.axis && dir == st.dir:
		st.run++
	default:
		st.axis, st.dir, st.run = axis, dir, 1
	}
	if st.run < prefetchTrigger {
		return 0, 0, false
	}
	return st.axis, st.dir, true
}

// maybePrefetch runs streaming detection for the partition access at
// coord/sub on view v and, when armed, warms the next blocks along the
// detected axis. done is the triggering request's completion time — the
// issue time of the warm-up reads. Runs on the read path under the space's
// read lock, and in the grace set while it loads page words: it only reads
// translation state (t.block with alloc=false never mutates) and fills the
// cache, whose lease then bounds the pages it lends (cache.go). Its
// working memory is a pooled request scratch, so a read that warms nothing
// allocates nothing.
func (t *STL) maybePrefetch(done sim.Time, v *View, coord, sub []int64) {
	if t.cache == nil {
		return
	}
	s := v.space
	if s.root == nil || !t.cache.cacheable(s) {
		return
	}
	rs := t.getScratch(s)
	defer t.putScratch(rs)
	g := rs.gcrd
	if !primaryGrid(v, coord, sub, g) {
		return
	}
	axis, dir, ok := v.stream.observe(g)
	if !ok {
		return
	}
	defer t.grace.exit(t.grace.enter()) // it loads page words and reads them
	for k := 1; k <= t.cfg.PrefetchDepth; k++ {
		g[axis] += dir
		if g[axis] < 0 || g[axis] >= s.grid[axis] {
			break
		}
		blk, _ := t.block(s, g, false)
		if blk == nil || blk.compressed {
			continue
		}
		rs.words, rs.fillKeys = t.cache.missing(s, s.BlockGridIndex(g), blk, rs.words, rs.fillKeys)
	}
	if len(rs.words) == 0 {
		return
	}
	for len(rs.datas) < len(rs.words) {
		rs.datas = append(rs.datas, nil)
	}
	d, err := t.dev.ReadWords(done, rs.words, rs.datas)
	if err != nil {
		return // warm-up is best-effort; demand reads surface real errors
	}
	t.cache.fillPages(s, rs.fillKeys, rs.datas[:len(rs.words)], d, true)
}

// primaryGrid computes the grid coordinate of the building block holding the
// partition's first element, translating through the view's shape when it
// differs from the space's. Returns false for out-of-range coordinates (the
// caller's read already failed or will).
func primaryGrid(v *View, coord, sub []int64, out []int64) bool {
	if len(coord) != len(v.dims) || len(sub) != len(coord) {
		return false
	}
	var lin int64
	for i := range v.dims {
		o := coord[i] * sub[i]
		if o < 0 || o >= v.dims[i] {
			return false
		}
		lin = lin*v.dims[i] + o
	}
	s := v.space
	for i := len(s.dims) - 1; i >= 0; i-- {
		out[i] = (lin % s.dims[i]) / s.bb[i]
		lin /= s.dims[i]
	}
	return true
}
