package sim

import (
	"math/rand"
	"testing"
)

// refTimeline is the timeline as it was before the sliding window — an
// append fast path at the horizon, sort.Search-style backfill everywhere
// else, reslice-and-append storage — with the one rule the window makes
// universal: the maxIntervals cap is applied after every mutation, not only
// after a non-coalescing insert. The window must be indistinguishable from it.
type refTimeline struct {
	ivals []interval
	floor Time
	busy  Time
	ops   int64
}

func (r *refTimeline) horizon() Time {
	if n := len(r.ivals); n > 0 {
		return r.ivals[n-1].end
	}
	return r.floor
}

func (r *refTimeline) prune() {
	if drop := len(r.ivals) - maxIntervals; drop > 0 {
		r.floor = r.ivals[drop-1].end
		r.ivals = append(r.ivals[:0], r.ivals[drop:]...)
	}
}

func (r *refTimeline) acquire(at, d Time) (start, end Time) {
	if d <= 0 {
		start = Max(at, r.horizon())
		return start, start
	}
	r.busy += d
	r.ops++
	defer r.prune()
	if n := len(r.ivals); n == 0 || at >= r.ivals[n-1].end {
		start = Max(at, r.horizon())
		end = start + d
		if n > 0 && r.ivals[n-1].end == start {
			r.ivals[n-1].end = end
		} else {
			r.ivals = append(r.ivals, interval{start, end})
		}
		return start, end
	}
	lo := 0
	for lo < len(r.ivals) && r.ivals[lo].start < at+d {
		lo++
	}
	prevEnd := r.floor
	if lo > 0 {
		prevEnd = r.ivals[lo-1].end
	}
	pos := len(r.ivals)
	for i := lo; i < len(r.ivals); i++ {
		s := Max(at, prevEnd)
		if s+d <= r.ivals[i].start {
			start, pos = s, i
			break
		}
		prevEnd = r.ivals[i].end
	}
	if pos == len(r.ivals) {
		start = Max(at, prevEnd)
	}
	end = start + d
	switch {
	case pos > 0 && r.ivals[pos-1].end == start:
		r.ivals[pos-1].end = end
		if pos < len(r.ivals) && r.ivals[pos].start == end {
			r.ivals[pos-1].end = r.ivals[pos].end
			r.ivals = append(r.ivals[:pos], r.ivals[pos+1:]...)
		}
	case pos < len(r.ivals) && r.ivals[pos].start == end:
		r.ivals[pos].start = start
	default:
		r.ivals = append(r.ivals, interval{})
		copy(r.ivals[pos+1:], r.ivals[pos:])
		r.ivals[pos] = interval{start, end}
	}
	return start, end
}

// checkAgainst holds r to ref after one operation: the grant, the published
// counters, and the window itself.
func checkAgainst(t *testing.T, op int, r *Resource, ref *refTimeline, at, d Time) {
	t.Helper()
	s, e := r.Acquire(at, d)
	ws, we := ref.acquire(at, d)
	if s != ws || e != we {
		t.Fatalf("op %d Acquire(%d,%d) = [%d,%d), reference [%d,%d)", op, at, d, s, e, ws, we)
	}
	checkWindow(t, op, r, ref)
}

// checkRun holds a run of k operations booked in one AcquireRunHeld to ref
// taking them one at a time: every completion, then the counters and the
// window.
func checkRun(t *testing.T, op int, r *Resource, ref *refTimeline, at, d Time, k int) {
	t.Helper()
	ends := make([]Time, k)
	r.Hold()
	r.AcquireRunHeld(at, d, ends)
	r.Release()
	for j := range ends {
		if _, we := ref.acquire(at, d); ends[j] != we {
			t.Fatalf("op %d AcquireRunHeld(%d,%d) x%d: operation %d ends at %d, reference %d", op, at, d, k, j, ends[j], we)
		}
	}
	checkWindow(t, op, r, ref)
}

// checkWindow holds r's published counters and its window to ref's.
func checkWindow(t *testing.T, op int, r *Resource, ref *refTimeline) {
	t.Helper()
	if r.FreeAt() != ref.horizon() || r.BusyTime() != ref.busy || r.Ops() != ref.ops {
		t.Fatalf("op %d: FreeAt/BusyTime/Ops = %d/%d/%d, reference %d/%d/%d",
			op, r.FreeAt(), r.BusyTime(), r.Ops(), ref.horizon(), ref.busy, ref.ops)
	}
	if len(r.ivals) > maxIntervals {
		t.Fatalf("op %d: window holds %d intervals, cap is %d", op, len(r.ivals), maxIntervals)
	}
	if r.floorLocked() != ref.floor || len(r.ivals) != len(ref.ivals) {
		t.Fatalf("op %d: floor %d with %d intervals, reference floor %d with %d",
			op, r.floorLocked(), len(r.ivals), ref.floor, len(ref.ivals))
	}
	for i := range r.ivals {
		if r.ivals[i] != ref.ivals[i] {
			t.Fatalf("op %d: interval %d is %v, reference %v", op, i, r.ivals[i], ref.ivals[i])
		}
	}
}

// decodeOps turns fuzz bytes into an (at, d) sequence, three bytes an
// operation, around a cursor that follows the stream: arrivals at the cursor
// (streaming), past it (idle gaps), at the previous arrival again (a batch
// hitting a busy bank), and behind it by up to 64 Ki ticks (backfill, some of
// it below the floor). d is 0..15, so zero-length operations are in the mix.
// Each operation also carries a run length k of 1..4, from the first byte's
// top bits, for a timeline that books it as a run of k.
func decodeOps(data []byte, fn func(at, d Time, k int)) {
	var cursor, last Time
	for ; len(data) >= 3; data = data[3:] {
		delta, d, k := Time(data[1]), Time(data[2]%16), 1+int(data[0]>>6)
		at := cursor
		switch data[0] % 4 {
		case 1:
			at = cursor + delta
		case 2:
			at = last
		case 3:
			at = Max(0, cursor-delta*Time(1+data[0]/4)*4)
		}
		fn(at, d, k)
		last = at
		if at >= cursor {
			cursor = at + d
		}
	}
}

// FuzzAcquireWindow: any (at, d) sequence books exactly as the reference
// does — grants, horizon, counters, floor and every interval of the window.
// A second timeline books each operation as a run of k (AcquireRunHeld), and
// must book as k single operations do: runs that start on the tail, which
// book in one step, and runs that start in a backfill, which book one
// operation at a time.
func FuzzAcquireWindow(f *testing.F) {
	// Enough gapped appends to slide the window several times, then
	// backfills reaching behind the floor; and the busy-bank pattern.
	var gapped, busy []byte
	for i := 0; i < 3*maxIntervals; i++ {
		gapped = append(gapped, 1, 7, 3)
		busy = append(busy, 1, 200, 5, 2, 0, 5, 2, 0, 5, 2, 0, 5)
	}
	for i := 0; i < maxIntervals; i++ {
		gapped = append(gapped, byte(3+4*(i%60)), byte(i), byte(1+i%5))
	}
	f.Add(gapped)
	f.Add(busy)
	f.Add([]byte{0, 0, 4, 3, 9, 2, 1, 30, 0, 2, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ref := NewResource("fuzz"), &refTimeline{}
		run, runRef := NewResource("run"), &refTimeline{}
		op := 0
		decodeOps(data, func(at, d Time, k int) {
			checkAgainst(t, op, r, ref, at, d)
			checkRun(t, op, run, runRef, at, d, k)
			op++
		})
	})
}

// mixedOp draws the next operation of TestTimelineBounded's mix: streaming
// appends with idle gaps, the busy-bank pattern (several operations sharing
// one arrival), and backfills behind the horizon.
func mixedOp(rng *rand.Rand, r *Resource, last Time) (at, d Time) {
	d = Time(rng.Intn(9) + 1)
	switch k := rng.Intn(10); {
	case k < 3:
		return r.FreeAt() + Time(rng.Intn(40)), d // append, often past a gap
	case k < 7:
		return last, d // same arrival as the previous operation
	default:
		return Max(0, r.FreeAt()-Time(rng.Intn(6000))), d // backfill
	}
}

// TestTimelineBounded: over 10^6 mixed operations no path lets the window
// exceed maxIntervals — the append path and the coalescing paths included,
// which used to grow a timeline by one interval per request for as long as
// the device lived — and once the backing array exists Acquire allocates
// nothing.
func TestTimelineBounded(t *testing.T) {
	r := NewResource("bank")
	rng := rand.New(rand.NewSource(16))
	var last Time
	step := func() {
		at, d := mixedOp(rng, r, last)
		r.Acquire(at, d)
		last = at
	}
	slid := false
	for i := 0; i < 1_000_000; i++ {
		step()
		if n := len(r.ivals); n > maxIntervals {
			t.Fatalf("op %d: window holds %d intervals, cap is %d", i, n, maxIntervals)
		}
		slid = slid || r.floorLocked() > 0
	}
	if !slid || len(r.ivals) < maxIntervals/2 {
		t.Fatalf("the mix never filled the window (%d intervals, floor %d)", len(r.ivals), r.floorLocked())
	}
	if allocs := testing.AllocsPerRun(10_000, step); allocs != 0 {
		t.Fatalf("steady-state Acquire allocates %.2f times per call, want 0", allocs)
	}
}

// TestWindowRuleOnBothPaths pins the window rule: a gap older than the
// newest maxIntervals intervals is not backfillable, whether the interval
// that pushed it out arrived by append or by insert.
func TestWindowRuleOnBothPaths(t *testing.T) {
	// maxIntervals intervals [10i+5, 10i+10), a 5-tick gap before each.
	fill := func() *Resource {
		r := NewResource("bank")
		for i := Time(0); i < maxIntervals; i++ {
			r.Acquire(10*i+5, 5)
		}
		return r
	}
	if s, _ := fill().Acquire(0, 5); s != 0 {
		t.Fatalf("with the window exactly full the oldest gap must still be open, got start %d", s)
	}
	for _, c := range []struct {
		name  string
		at, d Time
		want  interval
	}{
		{"append", 10*maxIntervals + 5, 5, interval{10*maxIntervals + 5, 10*maxIntervals + 10}},
		{"insert", 1001, 2, interval{1001, 1003}},
	} {
		r := fill()
		if s, e := r.Acquire(c.at, c.d); (interval{s, e}) != c.want {
			t.Fatalf("%s: the extra interval landed at [%d,%d), want %v", c.name, s, e, c.want)
		}
		if len(r.ivals) != maxIntervals || r.floorLocked() != 10 {
			t.Fatalf("%s: %d intervals, floor %d; want %d and 10", c.name, len(r.ivals), r.floorLocked(), maxIntervals)
		}
		// [0,5) now lies behind the floor; the next gap, [10,15), is open.
		if s, _ := r.Acquire(0, 5); s != 10 {
			t.Fatalf("%s: Acquire(0,5) started at %d, want 10", c.name, s)
		}
	}
}
