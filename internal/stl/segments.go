package stl

import "nds/internal/sim"

// Segment is one contiguous source piece of an assembled partition read: the
// bytes Src land at partition offset Dst of the row-major result. Segments
// are emitted in ascending Dst order and never overlap; partition regions no
// segment covers are unwritten storage and read as zeros.
//
// Src aliases storage the STL owns — device arena frames, cache entries,
// staged write buffers, or decompressed block images. It is valid only for
// the duration of the callback that received it (the request still holds the
// space lock and its scratch); consumers must gather or copy before
// returning and must never mutate Src.
type Segment struct {
	Dst int64
	Src []byte
}

// Gather assembles a segment list into dst, the partition's row-major buffer
// (len(dst) is the want the segments came with): each segment is copied to
// its Dst offset, and the stretches no segment covers — unwritten storage —
// are zeroed. Every byte of dst is written exactly once, so dst may be a
// reused buffer full of stale bytes; the gap zeroing is all that keeps them
// out of the result.
func Gather(dst []byte, segs []Segment) {
	var pos int64
	for _, sg := range segs {
		if sg.Dst > pos {
			clear(dst[pos:sg.Dst])
		}
		pos = sg.Dst + int64(copy(dst[sg.Dst:], sg.Src))
	}
	clear(dst[pos:])
}

// ReadPartitionSegments is the partition read: the one function that plans
// and executes a read of the partition at coord/sub of view v. It hands the
// result to fn as an ordered list of source segments; want is the
// partition's total payload size in bytes, and segs covers every written
// byte of it (gaps are zeros). Everything else that reads is a sink on it:
// ReadPartitionInto gathers into the caller's buffer, ScanPartition and
// ReducePartition fold the segments into a kernel, and a consumer that can
// gather for itself — encode a wire frame, checksum, scatter into its own
// layout — skips the partition-buffer copy entirely.
//
// fn runs while the request holds the barrier and the space's read lock, so
// no write changes the segment sources under it, nor discards their pages; a
// collector may relocate their pages, but a relocation's source keeps its
// frame past the erase of its block (nvm.ReadWords), so the bytes stay. The lease ends
// when fn returns, and fn must not call back into the STL. An error from fn
// aborts the request and is returned verbatim. On a phantom device fn
// receives (want, nil) — which an all-holes partition on a data-bearing
// device also produces, so a sink that must tell the two apart asks the
// device, not the list. A stale view fails with ErrClosedView.
func (t *STL) ReadPartitionSegments(at sim.Time, v *View, coord, sub []int64, fn func(want int64, segs []Segment) error) (sim.Time, RequestStats, error) {
	var (
		done  sim.Time
		stats RequestStats
		err   error
	)
	s := v.space
	if tk := t.qosAdmit(s.id, qosBytes(s, sub)); tk != nil {
		defer func() { tk.finish(at, done, err == nil) }()
	}
	t.barrier.RLock()
	defer t.barrier.RUnlock()
	if err = v.live(); err != nil {
		return at, stats, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	done, stats, err = t.readPartitionSegments(at, v, coord, sub, fn)
	if err == nil && t.cfg.PrefetchDepth > 0 {
		t.maybePrefetch(done, v, coord, sub)
	}
	return done, stats, err
}

// readPartitionSegments is the batched plan and emitter: planPartitionRead
// resolves every touched page's bytes and notes each page piece it met, and
// the pieces whose pages hold bytes become the (Dst, Src) list.
func (t *STL) readPartitionSegments(at sim.Time, v *View, coord, sub []int64, fn func(int64, []Segment) error) (sim.Time, RequestStats, error) {
	var stats RequestStats
	s := v.space
	rs := t.getScratch(s)
	defer t.putScratch(rs)
	// The plan loads page words a collector may relocate: it runs in the grace set.
	g := t.grace.enter()
	want, done, err := t.planPartitionRead(rs, at, v, coord, sub, &stats)
	t.grace.exit(g)
	if err != nil {
		return at, stats, err
	}

	// The plan noted every page piece in Dst order; now that the pages are
	// resolved, a piece whose page holds bytes is a segment.
	segs := rs.segs[:0]
	for _, r := range rs.refs {
		if data := rs.pageData[r.slot]; data != nil {
			segs = append(segs, Segment{Dst: r.dst, Src: data[r.lo : r.lo+int64(r.n)]})
		}
	}
	rs.segs = segs // retain capacity in the pooled scratch

	// The callback runs before putScratch and under the space's read lock:
	// arena frames, cache entries, staged buffers, and the scratch-held block
	// images all stay pinned for its duration.
	if err := fn(want, segs); err != nil {
		return at, stats, err
	}
	return done, stats, nil
}
