package system

import (
	"errors"
	"testing"

	"nds/internal/sim"
	"nds/internal/stl"
)

// timelines is everything a failed command could have left behind: every
// element's busy total and horizon, and the device's operation counters.
type timelines struct {
	busy, free        [numElements]sim.Time
	reads, progs, ers int64
}

func snapshot(s *System) timelines {
	var tl timelines
	for el := range s.res {
		tl.busy[el], tl.free[el] = s.res[el].BusyTime(), s.res[el].FreeAt()
	}
	tl.reads, tl.progs, tl.ers = s.Dev.Counters()
	return tl
}

// beforeDevice books by hand, on s, the stages a command arriving at at
// passes before its device half: the submission and the translation, and a
// write's payload of bytes in chunks pieces (write false: a read).
func beforeDevice(s *System, at sim.Time, write bool, bytes int64, chunks int) {
	book := func(el element, from, d sim.Time) sim.Time {
		_, end := s.res[el].Acquire(from, d)
		return end
	}
	wire := NVMeoF()
	sub := book(hostIO, at, hostSubmit)
	switch s.Kind {
	case Baseline:
		book(translator, book(cmdHandler, sub, ctrlCmdHandle), ctrlAddrLookup)
		if write {
			book(link, sub, wire.Duration(bytes))
		}
	case SoftwareNDS:
		tr := book(hostIO, sub, hostTraversal)
		if write {
			book(link, book(hostWorker, tr, copyTime(bytes, chunks, hostScatterChunk, hostMemcpyBW)), wire.Duration(bytes))
		}
	case HardwareNDS:
		cmd := book(cmdHandler, book(link, sub, wire.Duration(s.pageSize())), ctrlCmdHandle)
		tr := book(translator, cmd, ctrlTranslate)
		if write {
			book(assembler, max(tr, book(link, sub, wire.Duration(bytes))), copyTime(bytes, chunks, ctrlAssembleChunk, ctrlDisassembleBW))
		}
	}
}

// TestReadErrorPathParity pins what a failing command does to the system,
// one rule for all nine entry points: it returns its error and the zero
// record, and
//   - a wrong Kind or an argument rejected up front books nothing;
//   - a rejection by the device (the STL or the baseline's block device)
//     books exactly the stages ordered before the device — for a multi-run
//     baseline command, the runs before the failing one and the failing
//     run's submission and lookup (and payload);
//   - nothing after the device is booked.
func TestReadErrorPathParity(t *testing.T) {
	const at = 5 * sim.Microsecond
	type call func(s *System, v *stl.View, coord []int64) (OpStats, error)
	sub := []int64{64, 64}
	noop := func(int64, []stl.Segment) error { return nil }
	scan := func(q stl.ScanQuery) call {
		return func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			res, st, err := s.NDSScan(at, v, coord, sub, q)
			if err != nil && (res.Matches != nil || res.Total != 0) {
				t.Errorf("NDSScan returned a result with its error: %+v", res)
			}
			return st, err
		}
	}
	reduce := func(q stl.ReduceQuery) call {
		return func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			res, st, err := s.NDSReduce(at, v, coord, sub, q)
			if err != nil && (res.TopK != nil || res.Count != 0) {
				t.Errorf("NDSReduce returned a result with its error: %+v", res)
			}
			return st, err
		}
	}
	ndsWrite := func(n int) call {
		return func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			return s.NDSWrite(at, v, coord, sub, make([]byte, n))
		}
	}
	baselineRead := func(runs ...Run) call {
		return func(s *System, _ *stl.View, _ []int64) (OpStats, error) {
			data, st, err := s.BaselineRead(at, runs, true, 0)
			if err != nil && data != nil {
				t.Error("BaselineRead returned data with its error")
			}
			return st, err
		}
	}
	baselineWrite := func(n int, runs ...Run) call {
		return func(s *System, _ *stl.View, _ []int64) (OpStats, error) {
			return s.BaselineWrite(at, runs, make([]byte, n))
		}
	}
	ndsOps := []struct {
		name string // the op name in the wrong-Kind error
		do   call
	}{
		{"NDSRead", func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			data, st, err := s.NDSRead(at, v, coord, sub)
			if err != nil && data != nil {
				t.Error("NDSRead returned data with its error")
			}
			return st, err
		}},
		{"NDSRead", func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			data, st, err := s.NDSReadInto(at, v, coord, sub, make([]byte, 64*64*4))
			if err != nil && data != nil {
				t.Error("NDSReadInto returned data with its error")
			}
			return st, err
		}},
		{"NDSReadSegments", func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			return s.NDSReadSegments(at, v, coord, sub, noop)
		}},
		{"NDSScan", scan(stl.ScanQuery{Pred: stl.Predicate{Lo: 0, Hi: 9}})},
		{"NDSReduce", reduce(stl.ReduceQuery{Kind: stl.ReduceSum})},
		{"NDSSelect", func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			return s.NDSSelect(at, v, coord, sub, 48)
		}},
	}
	const ps = 4096
	inBounds, outOfBounds := Run{Off: 0, Len: 2 * ps}, Run{Off: 1 << 40, Len: ps}
	baselineOps := []struct {
		name string
		do   call
	}{
		{"BaselineRead", baselineRead(inBounds)},
		{"BaselineWrite", baselineWrite(2*ps, inBounds)},
	}

	fresh := func(k Kind) (*System, *stl.View) {
		s, err := New(k, smallConfig(false))
		if err != nil {
			t.Fatal(err)
		}
		if k == Baseline {
			return s, nil
		}
		sp, err := s.STL.CreateSpace(4, []int64{256, 256})
		if err != nil {
			t.Fatal(err)
		}
		v, err := stl.NewView(sp, []int64{256, 256})
		if err != nil {
			t.Fatal(err)
		}
		return s, v
	}
	// check runs do on a fresh system and expect on a fresh twin, which books
	// by hand what the failure may leave behind.
	check := func(t *testing.T, k Kind, do call, coord []int64, expect func(*System, *stl.View), wantErr func(error) bool) {
		t.Helper()
		s, v := fresh(k)
		twin, tv := fresh(k)
		expect(twin, tv)
		st, err := do(s, v, coord)
		if err == nil || !wantErr(err) {
			t.Errorf("error = %v", err)
		}
		if st != (OpStats{}) {
			t.Errorf("OpStats = %+v, want zero", st)
		}
		if got, want := snapshot(s), snapshot(twin); got != want {
			t.Errorf("timelines after the failure:\n  got  %+v\n  want %+v", got, want)
		}
	}
	nothing := func(*System, *stl.View) {}
	read := func(s *System, _ *stl.View) { beforeDevice(s, at, false, 0, 0) }
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	says := func(msg string) func(error) bool {
		return func(err error) bool { return err.Error() == msg }
	}

	_, v := fresh(SoftwareNDS)
	extents, elems, err := v.ExtentCount([]int64{0, 0}, sub)
	if err != nil {
		t.Fatal(err)
	}
	shortWrite := func(s *System, _ *stl.View) { beforeDevice(s, at, true, elems*4, extents) }

	for _, k := range []Kind{SoftwareNDS, HardwareNDS} {
		for _, op := range ndsOps {
			t.Run(k.String()+"/"+op.name+"/out of bounds", func(t *testing.T) {
				check(t, k, op.do, []int64{4, 0}, read, is(stl.ErrBounds))
			})
		}
		// Well-formed coordinates, malformed queries and payloads: rejected
		// by the STL after the stages before it ran — except NDSSelect's own
		// argument check and NDSWrite's extent count, which run before
		// anything is booked.
		for _, bq := range []struct {
			name    string
			do      call
			expect  func(*System, *stl.View)
			wantErr func(error) bool
		}{
			{"scan inverted range", scan(stl.ScanQuery{Pred: stl.Predicate{Lo: 9, Hi: 1}}), read, is(stl.ErrInvalid)},
			{"scan negative cursor", scan(stl.ScanQuery{Cursor: -1}), read, is(stl.ErrInvalid)},
			{"reduce unknown kind", reduce(stl.ReduceQuery{Kind: 99}), read, is(stl.ErrInvalid)},
			{"reduce top-0", reduce(stl.ReduceQuery{Kind: stl.ReduceTopK}), read, is(stl.ErrInvalid)},
			{"reduce inverted range", reduce(stl.ReduceQuery{Kind: stl.ReduceSum, Pred: &stl.Predicate{Lo: 9, Hi: 1}}), read, is(stl.ErrInvalid)},
			{"write short payload", ndsWrite(100), shortWrite, is(stl.ErrInvalid)},
			{"select negative result", func(s *System, v *stl.View, coord []int64) (OpStats, error) {
				return s.NDSSelect(at, v, coord, sub, -1)
			}, nothing, says("system: NDSSelect with -1 result bytes")},
		} {
			t.Run(k.String()+"/"+bq.name, func(t *testing.T) {
				check(t, k, bq.do, []int64{0, 0}, bq.expect, bq.wantErr)
			})
		}
		t.Run(k.String()+"/NDSWrite/out of bounds", func(t *testing.T) {
			check(t, k, ndsWrite(64*64*4), []int64{4, 0}, nothing, is(stl.ErrBounds))
		})
		for _, op := range baselineOps {
			t.Run(k.String()+"/"+op.name, func(t *testing.T) {
				check(t, k, op.do, nil, nothing, says("system: "+op.name+" on "+k.String()+" system"))
			})
		}
	}

	ndsOps = append(ndsOps, struct {
		name string
		do   call
	}{"NDSWrite", ndsWrite(64 * 64 * 4)})
	for _, op := range ndsOps {
		t.Run("baseline/"+op.name, func(t *testing.T) {
			check(t, Baseline, op.do, []int64{0, 0}, nothing, says("system: "+op.name+" on baseline system"))
		})
	}
	t.Run("baseline/BaselineRead/out of bounds", func(t *testing.T) {
		check(t, Baseline, baselineRead(inBounds, outOfBounds), nil, func(s *System, _ *stl.View) {
			if _, _, err := s.BaselineRead(at, []Run{inBounds}, true, 0); err != nil {
				t.Fatal(err)
			}
			beforeDevice(s, at, false, 0, 0)
		}, is(stl.ErrBounds))
	})
	t.Run("baseline/BaselineWrite/out of bounds", func(t *testing.T) {
		check(t, Baseline, baselineWrite(3*ps, inBounds, outOfBounds), nil, func(s *System, _ *stl.View) {
			st, err := s.BaselineWrite(at, []Run{inBounds}, make([]byte, inBounds.Len))
			if err != nil {
				t.Fatal(err)
			}
			beforeDevice(s, st.Done, true, outOfBounds.Len, 0)
		}, is(stl.ErrBounds))
	})
	for _, bw := range []struct {
		name string
		do   call
	}{
		{"unaligned second run", baselineWrite(2*ps+100, inBounds, Run{Off: 4 * ps, Len: 100})},
		{"short data", baselineWrite(ps, inBounds)},
		{"long data", baselineWrite(3*ps, inBounds)},
		{"negative run", baselineWrite(0, Run{Off: 0, Len: -ps})},
	} {
		t.Run("baseline/BaselineWrite/"+bw.name, func(t *testing.T) {
			check(t, Baseline, bw.do, nil, nothing, func(err error) bool { return err != nil })
		})
	}
}
