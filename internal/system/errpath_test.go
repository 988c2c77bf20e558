package system

import (
	"errors"
	"testing"

	"nds/internal/sim"
	"nds/internal/stl"
)

// timelines is everything a failed command could have left behind on the
// shared resources: busy totals and horizons of host, link and controller,
// and the device's operation counters.
type timelines struct {
	hostBusy, hostFree sim.Time
	linkBusy, linkFree sim.Time
	ctrl               [4]sim.Time
	reads, progs, ers  int64
}

func snapshot(s *System) timelines {
	tl := timelines{
		hostBusy: s.Host.BusyTime(), hostFree: s.Host.FreeAt(),
		linkBusy: s.Link.BusyTime(), linkFree: s.Link.FreeAt(),
	}
	tl.ctrl[0], tl.ctrl[1], tl.ctrl[2], tl.ctrl[3] = s.Ctrl.BusyTimes()
	tl.reads, tl.progs, tl.ers = s.Dev.Counters()
	return tl
}

// TestReadErrorPathParity pins what a failing read-shaped command does to the
// system, the same for every entry point of the shared stage model: it
// returns the STL's (or the Kind check's) error and a zero OpStats, and it
// books the whole prologue when the STL rejects the request (the command was
// submitted and translated before anyone looked at its coordinates), nothing
// at all when the system has no STL or the arguments are rejected up front —
// and never a consumer or link-return stage.
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
	ops := []struct {
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
	// Well-formed coordinates, malformed queries: rejected by the STL after
	// the prologue ran (except NDSSelect's own argument check, which runs
	// before anything is booked).
	badQueries := []struct {
		name     string
		do       call
		prologue bool
	}{
		{"scan inverted range", scan(stl.ScanQuery{Pred: stl.Predicate{Lo: 9, Hi: 1}}), true},
		{"scan negative cursor", scan(stl.ScanQuery{Cursor: -1}), true},
		{"reduce unknown kind", reduce(stl.ReduceQuery{Kind: 99}), true},
		{"reduce top-0", reduce(stl.ReduceQuery{Kind: stl.ReduceTopK}), true},
		{"reduce inverted range", reduce(stl.ReduceQuery{Kind: stl.ReduceSum, Pred: &stl.Predicate{Lo: 9, Hi: 1}}), true},
		{"select negative result", func(s *System, v *stl.View, coord []int64) (OpStats, error) {
			return s.NDSSelect(at, v, coord, sub, -1)
		}, false},
	}

	// prologue books by hand, on a fresh twin, the stages a command passes
	// before the STL sees it.
	prologue := func(s *System) {
		_, subEnd := s.Host.SubmitIO(at)
		if s.Kind == SoftwareNDS {
			s.Host.Translate(subEnd)
			return
		}
		_, cmdXfer := s.Link.Transfer(subEnd, int64(s.Cfg.Geometry.PageSize))
		_, cmdEnd := s.Ctrl.HandleCommand(cmdXfer)
		s.Ctrl.Translate(cmdEnd)
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
	check := func(t *testing.T, k Kind, do call, coord []int64, bookPrologue bool, wantErr func(error) bool) {
		t.Helper()
		s, v := fresh(k)
		twin, _ := fresh(k)
		if bookPrologue {
			prologue(twin)
		}
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
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}

	for _, k := range []Kind{SoftwareNDS, HardwareNDS} {
		for _, op := range ops {
			t.Run(k.String()+"/"+op.name+"/out of bounds", func(t *testing.T) {
				check(t, k, op.do, []int64{4, 0}, true, is(stl.ErrBounds))
			})
		}
		for _, bq := range badQueries {
			t.Run(k.String()+"/"+bq.name, func(t *testing.T) {
				wantErr := is(stl.ErrInvalid)
				if !bq.prologue {
					wantErr = func(err error) bool { return err.Error() == "system: NDSSelect with -1 result bytes" }
				}
				check(t, k, bq.do, []int64{0, 0}, bq.prologue, wantErr)
			})
		}
	}
	for _, op := range ops {
		t.Run("baseline/"+op.name, func(t *testing.T) {
			check(t, Baseline, op.do, []int64{0, 0}, false, func(err error) bool {
				return err.Error() == "system: "+op.name+" on baseline system"
			})
		})
	}
}
