package sim

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// fragmentPast fills r with more than maxIntervals disjoint busy intervals by
// reserving 1-unit operations at widely spaced arrival times, forcing the
// backfill window to prune and raise the floor. Returns the reserved
// intervals in acquisition order.
func fragmentPast(r *Resource, n int) []interval {
	ivs := make([]interval, 0, n)
	for i := 0; i < n; i++ {
		s, e := r.Acquire(Time(i*10), 1)
		ivs = append(ivs, interval{s, e})
	}
	return ivs
}

// TestResourceWindowCollapseMonotone: when maxIntervals pruning collapses the
// oldest intervals into the floor, Acquire results must stay monotone — a
// reservation never starts before its arrival time, never lands below the
// floor the collapse established, and never overlaps a prior reservation.
func TestResourceWindowCollapseMonotone(t *testing.T) {
	r := NewResource("bank")
	// 4x the window of fragmented 1-unit ops with 9-unit gaps: the timeline
	// prunes repeatedly, so the floor has risen well past zero.
	reserved := fragmentPast(r, 4*maxIntervals)

	// The floor is at least where the pruned prefix ended. An operation
	// arriving at time 0 must not start below it: the collapsed region is
	// considered busy even though its gaps were once backfillable.
	s, e := r.Acquire(0, 5)
	if s < 0 || e != s+5 {
		t.Fatalf("Acquire(0,5) = [%d,%d), not a 5-unit interval at a non-negative start", s, e)
	}
	reserved = append(reserved, interval{s, e})

	// A later arrival is still honored: start >= at always.
	s2, e2 := r.Acquire(e+1000, 7)
	if s2 < e+1000 {
		t.Fatalf("Acquire(at=%d) started at %d, before its arrival", e+1000, s2)
	}
	reserved = append(reserved, interval{s2, e2})

	// No two reservations the resource ever granted may overlap: collapse
	// must only *forbid* backfill into the pruned region, never double-book.
	sort.Slice(reserved, func(i, j int) bool { return reserved[i].start < reserved[j].start })
	for i := 1; i < len(reserved); i++ {
		if reserved[i].start < reserved[i-1].end {
			t.Fatalf("reservations overlap: [%d,%d) then [%d,%d)",
				reserved[i-1].start, reserved[i-1].end, reserved[i].start, reserved[i].end)
		}
	}

	// The published horizon matches the last interval end.
	if got, want := r.FreeAt(), reserved[len(reserved)-1].end; got != want {
		t.Fatalf("FreeAt() = %d, want %d", got, want)
	}
}

// TestResourceWindowCollapseDeterministic: the same Acquire sequence produces
// bit-identical results on two fresh resources, including across window
// collapses — pruning depends only on the timeline's state, never on wall
// clock or allocation behavior.
func TestResourceWindowCollapseDeterministic(t *testing.T) {
	run := func() []interval {
		r := NewResource("bank")
		rng := rand.New(rand.NewSource(42))
		out := make([]interval, 0, 3*maxIntervals)
		for i := 0; i < 3*maxIntervals; i++ {
			at := Time(rng.Int63n(int64(i)*8 + 1))
			d := Time(rng.Int63n(5) + 1)
			s, e := r.Acquire(at, d)
			out = append(out, interval{s, e})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("acquire %d diverged between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestResourceWindowCollapseConcurrent: concurrent streams hammering one
// resource past the backfill window must keep the single-server invariants —
// all granted intervals disjoint, starts at or after arrivals, counters
// exact, horizon equal to the latest end. Run under -race in CI this also
// checks the atomic horizon publication.
func TestResourceWindowCollapseConcurrent(t *testing.T) {
	const (
		streams = 8
		perStr  = 2 * maxIntervals
	)
	r := NewResource("bank")
	got := make([][]interval, streams)
	var wg sync.WaitGroup
	for c := 0; c < streams; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			ivs := make([]interval, 0, perStr)
			var cursor Time
			for i := 0; i < perStr; i++ {
				// Mix of stream-ordered arrivals (cursor) and early arrivals
				// that try to backfill gaps, some below the risen floor.
				at := cursor
				if rng.Intn(3) == 0 {
					at = Time(rng.Int63n(int64(cursor) + 1))
				}
				d := Time(rng.Int63n(4) + 1)
				s, e := r.Acquire(at, d)
				if s < at {
					t.Errorf("stream %d op %d: start %d before arrival %d", c, i, s, at)
					return
				}
				cursor = e
				ivs = append(ivs, interval{s, e})
			}
			got[c] = ivs
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var all []interval
	var busy Time
	for _, ivs := range got {
		all = append(all, ivs...)
		for _, iv := range ivs {
			busy += iv.end - iv.start
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	for i := 1; i < len(all); i++ {
		if all[i].start < all[i-1].end {
			t.Fatalf("double-booked: [%d,%d) overlaps [%d,%d)",
				all[i-1].start, all[i-1].end, all[i].start, all[i].end)
		}
	}
	if r.BusyTime() != busy {
		t.Errorf("BusyTime() = %d, want the sum of granted durations %d", r.BusyTime(), busy)
	}
	if r.Ops() != streams*perStr {
		t.Errorf("Ops() = %d, want %d", r.Ops(), streams*perStr)
	}
	if got, want := r.FreeAt(), all[len(all)-1].end; got != want {
		t.Errorf("FreeAt() = %d, want latest end %d", got, want)
	}
}

// TestPoolCachedHorizonDispatch: Pool.Acquire must pick the same
// earliest-free member that a locked FreeAt scan would have picked, using
// only the cached horizons — and keep doing so as the members' timelines
// grow at different rates.
func TestPoolCachedHorizonDispatch(t *testing.T) {
	p := NewPool("die", 4)
	rng := rand.New(rand.NewSource(7))
	var at Time
	for i := 0; i < 500; i++ {
		// Reference choice from the published horizons before dispatch.
		want := 0
		for j, m := range p.Members {
			if m.FreeAt() < p.Members[want].FreeAt() {
				want = j
			}
		}
		d := Time(rng.Int63n(20) + 1)
		start, end, idx := p.Acquire(at, d)
		if idx != want {
			t.Fatalf("op %d: dispatched to member %d, earliest-free was %d", i, idx, want)
		}
		if start < at || end != start+d {
			t.Fatalf("op %d: bad interval [%d,%d) for at=%d d=%d", i, start, end, at, d)
		}
		if rng.Intn(4) == 0 {
			at += Time(rng.Int63n(30))
		}
	}
	// The pool drains when its earliest member does.
	min := p.Members[0].FreeAt()
	for _, m := range p.Members[1:] {
		min = Min(min, m.FreeAt())
	}
	if got := p.FreeAt(); got != min {
		t.Fatalf("Pool.FreeAt() = %d, want %d", got, min)
	}
}

// TestPoolConcurrentDispatch: concurrent dispatchers must never double-book a
// member and must conserve busy time. The pool lock serializes the choice;
// this holds the result to it under -race.
func TestPoolConcurrentDispatch(t *testing.T) {
	const (
		streams = 8
		perStr  = 400
	)
	p := NewPool("die", 3)
	type grant struct {
		start, end Time
		idx        int
	}
	grants := make([][]grant, streams)
	var wg sync.WaitGroup
	for c := 0; c < streams; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			var cursor Time
			out := make([]grant, 0, perStr)
			for i := 0; i < perStr; i++ {
				d := Time(rng.Int63n(10) + 1)
				s, e, idx := p.Acquire(cursor, d)
				cursor = e
				out = append(out, grant{s, e, idx})
			}
			grants[c] = out
		}(c)
	}
	wg.Wait()

	perMember := make([][]interval, len(p.Members))
	var busy Time
	for _, gs := range grants {
		for _, g := range gs {
			perMember[g.idx] = append(perMember[g.idx], interval{g.start, g.end})
			busy += g.end - g.start
		}
	}
	for mi, ivs := range perMember {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				t.Fatalf("member %d double-booked: [%d,%d) overlaps [%d,%d)",
					mi, ivs[i-1].start, ivs[i-1].end, ivs[i].start, ivs[i].end)
			}
		}
	}
	var total Time
	for _, m := range p.Members {
		total += m.BusyTime()
	}
	if total != busy {
		t.Fatalf("members report %d busy time, grants sum to %d", total, busy)
	}
}

// TestCarvedWindowsMatchOwnWindows: resources whose windows NewResources
// carved from one table book exactly as resources of NewResource do, each in
// its own window: mixed operations on every carved resource in turn, enough to
// slide each window through its backing array many times and across a Reset,
// grant what the same operations grant on a resource of its own. Neighbours
// carved from one table must never see each other's intervals, and Acquire on
// a carved window allocates nothing, not even the first time.
func TestCarvedWindowsMatchOwnWindows(t *testing.T) {
	const n = 5
	carved, table := NewResources(n, func(i int) string { return "bank" + string(rune('0'+i)) })
	if carved[3].Name != "bank3" {
		t.Fatalf("resource 3 is named %q", carved[3].Name)
	}
	if allocs := testing.AllocsPerRun(1, func() { carved[0].Acquire(0, 1) }); allocs != 0 {
		t.Fatalf("a carved window's first interval allocates %.0f times", allocs)
	}
	carved[0].Reset()
	own := make([]*Resource, n)
	for i := range own {
		own[i] = NewResource("own")
	}
	rng := rand.New(rand.NewSource(53))
	last := make([]Time, n)
	for op := 0; op < 40_000; op++ {
		if op == 20_000 {
			for i := range carved {
				carved[i].Reset()
				own[i].Reset()
			}
		}
		i := op % n
		at, d := mixedOp(rng, own[i], last[i])
		last[i] = at
		s1, e1 := carved[i].Acquire(at, d)
		s2, e2 := own[i].Acquire(at, d)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("op %d on resource %d: carved window grants [%d,%d), own window [%d,%d)", op, i, s1, e1, s2, e2)
		}
	}
	for i := range carved {
		if carved[i].FreeAt() != own[i].FreeAt() || carved[i].BusyTime() != own[i].BusyTime() || carved[i].Ops() != own[i].Ops() {
			t.Fatalf("resource %d: carved and own timelines end apart", i)
		}
	}
	table.Release()
}
