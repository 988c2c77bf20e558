package sim

import (
	"sync"
	"sync/atomic"

	"nds/internal/zeromap"
)

// Resource models a unit that can serve one operation at a time: a flash
// channel, a bank, a DMA engine, a controller core, an interconnect link.
//
// A Resource is safe for concurrent use: multiple request streams reserve
// intervals on the same timeline, and each Acquire atomically claims the
// earliest idle interval at or after the operation's arrival time. The
// timeline keeps its recent busy intervals (not just a single horizon), so a
// stream whose command carries an early issue time backfills idle gaps even
// when another stream has already reserved later work — simulated-time
// scheduling is therefore independent of the wall-clock order in which
// concurrent goroutines happen to call Acquire. This is the per-unit
// in-flight tracking that lets concurrent host commands overlap on disjoint
// channels/banks, queue where they collide, and complete out of order.
//
// Sharded-clock model: each resource's timeline is its own shard, guarded by
// its own mutex, and every cross-resource observation on a request's path
// (FreeAt, Pool dispatch, BusyDies, NextIdle) reads the atomically published
// horizon instead of taking the timeline mutex. Independent channel/bank/die
// timelines therefore advance with no shared lock between them; timelines
// reconcile only at genuine joins, where one operation's completion on one
// resource becomes the arrival time of its next operation on another.
type Resource struct {
	Name string
	mu   sync.Mutex
	// ivals are the busy intervals still eligible for backfill, sorted,
	// disjoint, and coalesced; everything before the floor (floorLocked) is
	// considered busy. It is a window of at most maxIntervals entries sliding
	// through buf, so dropping the oldest interval is a reslice and a
	// steady-state Acquire allocates nothing.
	ivals []interval
	// buf is the window's 2*maxIntervals backing array: carved from the
	// shared table of NewResources, whose pages cost memory only as the
	// window reaches them, or, for a resource of NewResource, made at its
	// first insert. Once it exists ivals is always a slice of it.
	buf   []interval
	table *zeromap.Table // owns buf when NewResources carved it

	// horizon mirrors horizonLocked() — the end of the last reserved
	// interval — republished by Release, before mu is dropped.
	// Readers that only need "when does this timeline drain" (Pool dispatch,
	// BusyDies, NextIdle) load it without touching mu, so observing one
	// resource never stalls streams advancing another.
	horizon atomic.Int64
	// busy and ops are only written under mu, so they are plain fields, not
	// atomics paying a locked read-modify-write per Acquire; their readers
	// are reports, which take mu.
	busy Time  // accumulated service time
	ops  int64 // operations served
}

type interval struct{ start, end Time }

// maxIntervals bounds the backfill window: after every mutation, on every
// path, a timeline holds at most this many intervals. When one more arrives
// the oldest interval (and the gap before it) collapses into the floor —
// degrading gracefully toward the pure-horizon model rather than growing
// without bound.
const maxIntervals = 256

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// NewResources returns n idle resources, resource i named name(i), whose
// windows are carved from one zero-filled table (zeromap): a timeline that
// books little touches only the first page of its window, and one that books
// nothing touches none. The table is returned too; its Release drops every
// window at once, after which none of the resources may be used.
func NewResources(n int, name func(i int) string) ([]*Resource, *zeromap.Table) {
	const w = 2 * maxIntervals
	bufs, table := zeromap.Make[interval](n * w)
	rs, ps := make([]Resource, n), make([]*Resource, n)
	for i := range rs {
		rs[i].Name, rs[i].buf, rs[i].table = name(i), bufs[i*w:(i+1)*w:(i+1)*w], table
		rs[i].ivals = rs[i].buf[:0]
		ps[i] = &rs[i]
	}
	return ps, table
}

// Acquire reserves the resource for duration d for an operation arriving at
// time at. It returns the operation's start and completion times: the
// earliest interval of length d that is idle and begins at or after at.
// Operations contending for the same instant serialize; operations arriving
// for an idle gap start immediately, even if later work is already queued.
func (r *Resource) Acquire(at, d Time) (start, end Time) {
	r.Hold()
	start, end = r.AcquireHeld(at, d)
	r.Release()
	return start, end
}

// Hold, AcquireHeld and Release are Acquire taken apart, for a caller with a
// run of operations for this resource: Hold locks the timeline, AcquireHeld
// books one operation exactly as Acquire would, and Release publishes the
// horizon and unlocks. Bookings on different resources are independent, so a
// batch may book each resource's operations as one run, in their batch
// order, and get the grants a per-operation loop would have. A holder must
// not hold a second resource.
func (r *Resource) Hold() { r.mu.Lock() }

// Release ends a Hold.
func (r *Resource) Release() {
	r.horizon.Store(int64(r.horizonLocked()))
	r.mu.Unlock()
}

// AcquireHeld is Acquire for the holder of the timeline (see Hold).
func (r *Resource) AcquireHeld(at, d Time) (start, end Time) {
	if d <= 0 {
		// Zero-length operations synchronize with the busy horizon but
		// reserve nothing.
		start = Max(at, r.horizonLocked())
		return start, start
	}
	n := len(r.ivals)
	// Tail path: a gap can host the operation only if the interval after it
	// starts at or after at+d, so an arrival at or after the last interval's
	// start has no gap behind it. It queues at the horizon — extending the
	// last interval when it touches it, which is every page after the first
	// on a busy bank — or, past the horizon, opens a new interval. O(1), and
	// the common case for streaming and for same-arrival batches alike.
	if n == 0 || at >= r.ivals[n-1].start {
		start = Max(at, r.horizonLocked())
		end = start + d
		if n > 0 && r.ivals[n-1].end == start {
			r.ivals[n-1].end = end
		} else {
			r.insertLocked(n, interval{start, end})
		}
		r.busy += d
		r.ops++
		return start, end
	}
	// Backfill: binary search to the first interval starting at or after
	// at+d; all earlier intervals are irrelevant except for the
	// predecessor's end (the candidate start is always >= at).
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); r.ivals[m].start >= at+d {
			hi = m
		} else {
			lo = m + 1
		}
	}
	var prevEnd Time
	if lo > 0 {
		prevEnd = r.ivals[lo-1].end
	} else {
		prevEnd = r.floorLocked()
	}
	pos := n
	for i := lo; i < n; i++ {
		iv := r.ivals[i]
		s := Max(at, prevEnd)
		if s+d <= iv.start {
			start, pos = s, i
			break
		}
		prevEnd = iv.end
	}
	if pos == n {
		start = Max(at, prevEnd)
	}
	end = start + d
	switch {
	case pos > 0 && r.ivals[pos-1].end == start:
		r.ivals[pos-1].end = end
		if pos < n && r.ivals[pos].start == end {
			r.ivals[pos-1].end = r.ivals[pos].end
			r.ivals = append(r.ivals[:pos], r.ivals[pos+1:]...)
		}
	case pos < n && r.ivals[pos].start == end:
		r.ivals[pos].start = start
	default:
		r.insertLocked(pos, interval{start, end})
	}
	r.busy += d
	r.ops++
	return start, end
}

// AcquireRunHeld books len(ends) operations of length d that all arrive at at,
// for the holder of the timeline, and sets ends[j] to the completion of the
// j-th: what as many AcquireHeld calls in a row would grant. When the first
// lands on the tail (AcquireHeld's path for an arrival at or after the last
// interval's start), every next one queues right behind it, so the run is one
// interval, operation j ending at start+(j+1)·d, booked in one step. A run
// whose first operation must backfill, or of zero-length operations, is
// booked one operation at a time.
func (r *Resource) AcquireRunHeld(at, d Time, ends []Time) {
	n := len(r.ivals)
	if d <= 0 || len(ends) == 0 || n > 0 && at < r.ivals[n-1].start {
		for j := range ends {
			_, ends[j] = r.AcquireHeld(at, d)
		}
		return
	}
	start := Max(at, r.horizonLocked())
	for j := range ends {
		ends[j] = start + Time(j+1)*d
	}
	end := ends[len(ends)-1]
	if n > 0 && r.ivals[n-1].end == start {
		r.ivals[n-1].end = end
	} else {
		r.insertLocked(n, interval{start, end})
	}
	r.busy += end - start
	r.ops += int64(len(ends))
}

// insertLocked places iv, which touches neither neighbour, at index pos and
// slides the window: past maxIntervals the oldest interval and the gap
// before it fold into the floor, which is that interval's end, left where it
// lies in buf, just before the window (floorLocked); the slide does not load
// it. The window lives in a fixed 2*maxIntervals array; when its tail reaches
// the end of the array one copy moves the live intervals, and the floor's slot
// before them, back to the front, an amortised one interval per insertion.
// The window stays one contiguous sorted slice, which a modular ring would
// not.
func (r *Resource) insertLocked(pos int, iv interval) {
	n := len(r.ivals)
	if n == cap(r.ivals) {
		if r.buf == nil {
			r.buf = make([]interval, 2*maxIntervals)
			r.ivals = r.buf[:0]
		} else {
			// The tail is at the array's end, so the window has slid at least
			// maxIntervals times and the slot before it holds the floor.
			k := cap(r.buf) - cap(r.ivals)
			copy(r.buf, r.buf[k-1:k+n])
			r.ivals = r.buf[1 : 1+n]
		}
	}
	r.ivals = r.ivals[:n+1]
	copy(r.ivals[pos+1:], r.ivals[pos:n])
	r.ivals[pos] = iv
	if n+1 > maxIntervals {
		r.ivals = r.ivals[1:]
	}
}

// floorLocked is the floor: the end of the last interval the window dropped,
// before which everything counts as busy. That interval is the slot of buf
// just before the window; a window at the front of buf (or with no buf) has
// dropped nothing, and its floor is 0.
func (r *Resource) floorLocked() Time {
	if k := cap(r.buf) - cap(r.ivals); k > 0 {
		return r.buf[k-1].end
	}
	return 0
}

func (r *Resource) horizonLocked() Time {
	if n := len(r.ivals); n > 0 {
		return r.ivals[n-1].end
	}
	return r.floorLocked()
}

// FreeAt reports when the resource's timeline drains: the end of its last
// reserved interval. Lock-free: it loads the atomically published horizon, so
// observers and pool dispatchers never contend with streams mutating the
// timeline.
func (r *Resource) FreeAt() Time { return Time(r.horizon.Load()) }

// BusyTime reports accumulated service time.
func (r *Resource) BusyTime() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// Ops reports the number of operations served.
func (r *Resource) Ops() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops
}

// Utilization reports busy time as a fraction of horizon.
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return r.BusyTime().Seconds() / horizon.Seconds()
}

// Reset returns the resource to the idle state at the epoch.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ivals = r.buf[:0]
	r.horizon.Store(0)
	r.busy, r.ops = 0, 0
}

// Pool is a set of identical resources; Acquire picks the earliest-free
// member, modelling k-way parallel units behind one dispatcher. The
// dispatcher itself is serialized (a pool-level lock) so that concurrent
// acquisitions see a consistent earliest-free choice; the scan reads each
// member's cached horizon, so dispatch costs one pool lock plus one lock on
// the chosen member, not two lock acquisitions per member.
type Pool struct {
	mu      sync.Mutex
	Members []*Resource
}

// NewPool creates a pool of n resources named name#i.
func NewPool(name string, n int) *Pool {
	p := &Pool{Members: make([]*Resource, n)}
	for i := range p.Members {
		p.Members[i] = NewResource(name)
	}
	return p
}

// Acquire reserves duration d on the earliest-free member for an operation
// arriving at time at, returning start, end, and the chosen member index.
func (p *Pool) Acquire(at, d Time) (start, end Time, idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx = 0
	best := p.Members[0].FreeAt()
	for i, m := range p.Members[1:] {
		if t := m.FreeAt(); t < best {
			best, idx = t, i+1
		}
	}
	start, end = p.Members[idx].Acquire(at, d)
	return start, end, idx
}

// FreeAt reports when the earliest member becomes idle. Lock-free: member
// horizons are atomically published, so the scan needs no lock at all.
func (p *Pool) FreeAt() Time {
	if len(p.Members) == 0 {
		return 0
	}
	t := p.Members[0].FreeAt()
	for _, m := range p.Members[1:] {
		t = Min(t, m.FreeAt())
	}
	return t
}

// Reset resets every member.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.Members {
		m.Reset()
	}
}
