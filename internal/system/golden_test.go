package system

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"nds/internal/sim"
	"nds/internal/spec"
	"nds/internal/stl"
)

// goldenTests are the package's tests that check golden traces, under the
// name of the trace each writes.
var goldenTests = map[string]func(*testing.T){
	"TestStageBookings": TestStageBookings,
}

// TestGoldenTraces runs every traced test of the package (spec.GoldenSet):
// go test -run Golden checks every trace, and with -update rewrites them.
func TestGoldenTraces(t *testing.T) { spec.GoldenSet(t, goldenTests) }

// elementNames name the elements in a trace line.
var elementNames = [numElements]string{"io", "worker", "link", "cmd", "translate", "assemble", "channels"}

// elementTimes renders every element's busy time and horizon.
func elementTimes(s *System) string {
	var b strings.Builder
	for el := range s.res {
		if el > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d/%d", elementNames[el], int64(s.res[el].BusyTime()), int64(s.res[el].FreeAt()))
	}
	return b.String()
}

// TestStageBookings pins the stage model of every entry point on every Kind:
// after each command the trace holds its error, its record, and every
// element's busy time and horizon, so a change that books one stage earlier,
// later, longer or on another element shows on the line of the command that
// did it. The script issues some commands at time zero, where they queue
// behind each other, and some at the previous command's completion.
func TestStageBookings(t *testing.T) {
	var tr spec.Trace
	const elem = 4
	dims := []int64{512, 512}
	noop := func(int64, []stl.Segment) error { return nil }
	rng := rand.New(rand.NewSource(38))
	payload := func(n int64) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	line := func(s *System, label string, st OpStats, err error, extra string) {
		tr.Add("%s err=%v done=%d %+v%s", label, err, int64(st.Done), st, extra)
		r, p, e := s.Dev.Counters()
		tr.Add("  %s dev=%d/%d/%d", elementTimes(s), r, p, e)
	}
	sum := func(b []byte) string { return fmt.Sprintf(" len=%d crc=%08x", len(b), crc32.ChecksumIEEE(b)) }

	for _, k := range []Kind{SoftwareNDS, HardwareNDS} {
		for _, blocked := range []bool{false, true} {
			tr.Add("== %v blocked=%v", k, blocked)
			s, err := New(k, smallConfig(false))
			if err != nil {
				t.Fatal(err)
			}
			s.BlockedAssembly = blocked
			sp, err := s.STL.CreateSpace(elem, dims)
			if err != nil {
				t.Fatal(err)
			}
			v, err := stl.NewView(sp, dims)
			if err != nil {
				t.Fatal(err)
			}
			var at sim.Time
			for _, c := range [][]int64{{0, 0}, {1, 0}, {0, 1}} {
				st, err := s.NDSWrite(0, v, c, []int64{256, 256}, payload(256*256*elem))
				line(s, fmt.Sprintf("NDSWrite %v at 0", c), st, err, "")
				at = max(at, st.Done)
			}
			st, err := s.NDSWrite(at, v, []int64{1, 1}, []int64{256, 256}, payload(256*256*elem))
			line(s, "NDSWrite [1 1] chained", st, err, "")
			at = st.Done
			for _, q := range []struct {
				coord, sub []int64
				chained    bool
			}{
				{[]int64{0, 0}, []int64{256, 256}, false},
				{[]int64{1, 0}, []int64{256, 512}, true},
				{[]int64{0, 3}, []int64{512, 64}, false},
				{[]int64{5, 1}, []int64{32, 256}, true},
			} {
				from := sim.Time(0)
				if q.chained {
					from = at
				}
				data, st, err := s.NDSRead(from, v, q.coord, q.sub)
				line(s, fmt.Sprintf("NDSRead %v/%v at %d", q.coord, q.sub, from), st, err, sum(data))
				at = max(at, st.Done)
				data, st, err = s.NDSReadInto(from, v, q.coord, q.sub, make([]byte, 0, 1<<20))
				line(s, fmt.Sprintf("NDSReadInto %v/%v at %d", q.coord, q.sub, from), st, err, sum(data))
				at = max(at, st.Done)
				st, err = s.NDSReadSegments(from, v, q.coord, q.sub, noop)
				line(s, fmt.Sprintf("NDSReadSegments %v/%v at %d", q.coord, q.sub, from), st, err, "")
				at = max(at, st.Done)
				res, st, err := s.NDSScan(from, v, q.coord, q.sub, stl.ScanQuery{Pred: stl.Predicate{Lo: 0, Hi: 1 << 24}})
				line(s, fmt.Sprintf("NDSScan %v/%v at %d", q.coord, q.sub, from), st, err,
					fmt.Sprintf(" total=%d matches=%d next=%d", res.Total, len(res.Matches), res.NextCursor))
				at = max(at, st.Done)
				red, st, err := s.NDSReduce(from, v, q.coord, q.sub, stl.ReduceQuery{Kind: stl.ReduceTopK, K: 8})
				line(s, fmt.Sprintf("NDSReduce topk %v/%v at %d", q.coord, q.sub, from), st, err,
					fmt.Sprintf(" count=%d topk=%d", red.Count, len(red.TopK)))
				at = max(at, st.Done)
				red, st, err = s.NDSReduce(from, v, q.coord, q.sub, stl.ReduceQuery{Kind: stl.ReduceSum})
				line(s, fmt.Sprintf("NDSReduce sum %v/%v at %d", q.coord, q.sub, from), st, err,
					fmt.Sprintf(" value=%v count=%d", red.Value, red.Count))
				at = max(at, st.Done)
				st, err = s.NDSSelect(from, v, q.coord, q.sub, 4096)
				line(s, fmt.Sprintf("NDSSelect %v/%v at %d", q.coord, q.sub, from), st, err, "")
				at = max(at, st.Done)
			}
			// Rejected by the STL after the submission and the translation.
			_, st, err = s.NDSRead(at, v, []int64{9, 0}, []int64{64, 64})
			line(s, "NDSRead out of bounds", st, err, "")
			st, err = s.NDSWrite(at, v, []int64{0, 0}, []int64{64, 64}, payload(100))
			line(s, "NDSWrite short payload", st, err, "")
			// The baseline's entry points, refused before anything is booked.
			_, st, err = s.BaselineRead(at, []Run{{Off: 0, Len: 4096}}, true, 1)
			line(s, "BaselineRead", st, err, "")
			st, err = s.BaselineWrite(at, []Run{{Off: 0, Len: 4096}}, payload(4096))
			line(s, "BaselineWrite", st, err, "")
		}
	}

	tr.Add("== baseline")
	s, err := New(Baseline, smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	const ps = 4096
	var at sim.Time
	for _, runs := range [][]Run{
		{{Off: 0, Len: 64 * ps}},
		{{Off: 64 * ps, Len: ps}, {Off: 96 * ps, Len: 3 * ps}, {Off: 128 * ps, Len: 32 * ps}},
	} {
		var n int64
		for _, r := range runs {
			n += r.Len
		}
		st, err := s.BaselineWrite(at, runs, payload(n))
		line(s, fmt.Sprintf("BaselineWrite %v", runs), st, err, "")
		at = st.Done
	}
	st, err := s.BaselineWrite(0, []Run{{Off: 200 * ps, Len: 2 * ps}}, nil)
	line(s, "BaselineWrite nil payload at 0", st, err, "")
	reads := []Run{{Off: 0, Len: 2048}, {Off: 3000, Len: 9000}, {Off: 64 * ps, Len: ps}, {Off: 16 * ps, Len: 16 * ps}, {Off: 100 * ps, Len: 40 * ps}}
	for _, qd := range []int{0, 1, 2, 64} {
		for _, marshal := range []bool{false, true} {
			for _, from := range []sim.Time{0, at} {
				data, st, err := s.BaselineRead(from, reads, marshal, qd)
				line(s, fmt.Sprintf("BaselineRead qd=%d marshal=%v at %d", qd, marshal, from), st, err, sum(data))
				at = max(at, st.Done)
			}
		}
	}
	// The NDS kinds' read-shaped entry points, refused before anything is
	// booked.
	_, st, err = s.NDSRead(at, nil, nil, nil)
	line(s, "NDSRead", st, err, "")
	_, st, err = s.NDSReadInto(at, nil, nil, nil, nil)
	line(s, "NDSReadInto", st, err, "")
	st, err = s.NDSReadSegments(at, nil, nil, nil, noop)
	line(s, "NDSReadSegments", st, err, "")
	_, st, err = s.NDSScan(at, nil, nil, nil, stl.ScanQuery{})
	line(s, "NDSScan", st, err, "")
	_, st, err = s.NDSReduce(at, nil, nil, nil, stl.ReduceQuery{})
	line(s, "NDSReduce", st, err, "")
	st, err = s.NDSSelect(at, nil, nil, nil, 0)
	line(s, "NDSSelect", st, err, "")
	tr.Check(t, "TestStageBookings")
}
