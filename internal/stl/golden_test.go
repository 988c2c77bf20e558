package stl

import (
	"bytes"
	"errors"
	"hash/fnv"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
	"nds/internal/spec"
)

// The package's fixed scripts run against two references (DESIGN.md
// "Correctness: model and goldens"): every read's bytes against the model of
// spaces (internal/spec), and every operation's completion and RequestStats,
// with the STL's end-of-script counters, against the script's golden trace in
// testdata/golden.

// script is one STL under test, the model of what its spaces hold, and the
// trace its operations leave.
type script struct {
	st    *STL
	model *spec.Model
	tr    spec.Trace
	dst   []byte       // reused ReadPartitionInto buffer
	last  RequestStats // the record of the latest read or write
	// lend, when set, runs each of the script's STL requests: a test that
	// lends the STL one scratch (oneScratch) runs the request alone inside it.
	lend func(request func())
	// after, when set, runs after each of the script's STL requests: a test
	// that audits the allocator between operations (auditDies) sets it.
	after func()
}

// checked is a view of a space of the STL beside the model's view of it.
type checked struct {
	v *View
	m *spec.View
}

func newScript(t *testing.T, dev *nvm.Device, cfg Config) *script {
	t.Helper()
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &script{st: st, model: spec.New()}
}

// do runs one STL request.
func (sc *script) do(request func()) {
	if sc.lend != nil {
		sc.lend(request)
	} else {
		request()
	}
	if sc.after != nil {
		sc.after()
	}
}

// space creates a space of elem-byte elements shaped dims and opens it as
// view on both sides.
func (sc *script) space(t *testing.T, elem int, dims, view []int64) *checked {
	t.Helper()
	s, err := sc.st.CreateSpace(elem, dims)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, view)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sc.model.Create(elem, dims)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sc.model.Open(id, view)
	if err != nil {
		t.Fatal(err)
	}
	return &checked{v: v, m: m}
}

// write writes data through c and, if the STL takes it, the model; a write the
// STL refuses leaves the model as it was and the trace a "failed" line, and
// its error is the caller's to judge.
func (sc *script) write(t *testing.T, at sim.Time, c *checked, coord, sub []int64, data []byte) (sim.Time, error) {
	t.Helper()
	var (
		done sim.Time
		st   RequestStats
		err  error
	)
	sc.do(func() { done, st, err = sc.st.WritePartition(at, c.v, coord, sub, data) })
	if err != nil {
		sc.tr.Add("write %v/%v failed", coord, sub)
		return at, err
	}
	if err := c.m.Write(coord, sub, data); err != nil {
		t.Fatalf("write %v/%v: the STL took it, the model says %v", coord, sub, err)
	}
	sc.last = st
	sc.tr.Add("write %v/%v done=%d %+v", coord, sub, done, st)
	return done, nil
}

// sameError reports whether the STL's error is in the model's error's class.
func sameError(stlErr, modelErr error) bool {
	return errors.Is(stlErr, ErrBounds) && errors.Is(modelErr, spec.ErrBounds) ||
		errors.Is(stlErr, ErrInvalid) && errors.Is(modelErr, spec.ErrInvalid)
}

// mustWrite is write for a script none of whose writes may fail.
func (sc *script) mustWrite(t *testing.T, at sim.Time, c *checked, coord, sub []int64, data []byte) sim.Time {
	t.Helper()
	done, err := sc.write(t, at, c, coord, sub, data)
	if err != nil {
		t.Fatalf("write %v/%v: %v", coord, sub, err)
	}
	return done
}

// read reads through c into the reused buffer — which must come back exactly
// as a fresh one would — and checks the bytes against the model. A read the
// model refuses must fail alike.
func (sc *script) read(t *testing.T, at sim.Time, c *checked, coord, sub []int64) sim.Time {
	t.Helper()
	want, err := c.m.Read(coord, sub)
	if err != nil {
		var serr error
		sc.do(func() { _, _, _, serr = sc.st.ReadPartition(at, c.v, coord, sub) })
		if !sameError(serr, err) {
			t.Fatalf("read %v/%v: the model says %v, the STL %v", coord, sub, err, serr)
		}
		sc.tr.Add("read %v/%v failed", coord, sub)
		return at
	}
	got, done, st := sc.readRaw(t, at, c, coord, sub)
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("read %v/%v: %d bytes, the model's %d, first differing at byte %d", coord, sub, len(got), len(want), i)
	}
	sc.tr.Add("read %v/%v done=%d %+v", coord, sub, done, st)
	return done
}

// readPinned is read for a partition the model cannot speak for — a write
// failed part-way into it — whose bytes the golden trace pins by digest.
func (sc *script) readPinned(t *testing.T, at sim.Time, c *checked, coord, sub []int64) sim.Time {
	t.Helper()
	got, done, st := sc.readRaw(t, at, c, coord, sub)
	h := fnv.New64a()
	h.Write(got)
	sc.tr.Add("read %v/%v done=%d %+v sum=%016x", coord, sub, done, st, h.Sum64())
	return done
}

func (sc *script) readRaw(t *testing.T, at sim.Time, c *checked, coord, sub []int64) ([]byte, sim.Time, RequestStats) {
	t.Helper()
	_, n, err := c.v.PartitionShape(coord, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := n * int64(c.v.space.elemSize)
	if int64(cap(sc.dst)) < want {
		sc.dst = make([]byte, want)
	}
	stale := sc.dst[:want]
	for i := range stale {
		stale[i] = 0xA5 // stale bytes a read must overwrite or zero
	}
	var (
		got  []byte
		done sim.Time
		st   RequestStats
	)
	sc.do(func() { got, done, st, err = sc.st.ReadPartitionInto(at, c.v, coord, sub, sc.dst) })
	if err != nil {
		t.Fatalf("read %v/%v: %v", coord, sub, err)
	}
	sc.last = st
	return got, done, st
}

// flush runs Flush and traces its completion.
func (sc *script) flush(t *testing.T, at sim.Time) sim.Time {
	t.Helper()
	done, err := sc.st.Flush(at)
	if err != nil {
		t.Fatal(err)
	}
	sc.tr.Add("flush done=%d", done)
	return done
}

// golden closes the trace with the STL's counters and checks it against
// testdata/golden/name.txt.
func (sc *script) golden(t *testing.T, name string) {
	t.Helper()
	sc.tr.Add("end used=%d zero-skipped=%d compressed=%d pending=%d gc=%+v reliability=%+v",
		sc.st.UsedPages(), sc.st.ZeroPagesSkipped(), sc.st.CompressedBlocks(), sc.st.PendingPages(), sc.st.GCReport(), sc.st.Reliability())
	sc.tr.Check(t, name)
}

// goldenTests are the package's tests that check golden traces, under the
// name their traces start with.
var goldenTests = map[string]func(*testing.T){
	"TestDifferentialMixedWorkload":      TestDifferentialMixedWorkload,
	"TestDifferentialWriteBuffering":     TestDifferentialWriteBuffering,
	"TestDifferentialZeroPageElision":    TestDifferentialZeroPageElision,
	"TestDifferentialCompression":        TestDifferentialCompression,
	"TestDifferentialGCPressure":         TestDifferentialGCPressure,
	"TestDifferentialCipher":             TestDifferentialCipher,
	"TestDifferentialProgramFault":       TestDifferentialProgramFault,
	"TestDifferentialMixedPages":         TestDifferentialMixedPages,
	"TestPageRangesOddPageSize":          TestPageRangesOddPageSize,
	"TestReadHoldsOneExtentBatch":        TestReadHoldsOneExtentBatch,
	"TestBlockPlanTablesAcrossSpaces":    TestBlockPlanTablesAcrossSpaces,
	"TestFaultMatrixDeterministic":       TestFaultMatrixDeterministic,
	"TestLBAAgeing":                      TestLBAAgeing,
	"TestFlushCrossSpaceOrder":           TestFlushCrossSpaceOrder,
	"TestPlanStopsWhereCollectionStarts": TestPlanStopsWhereCollectionStarts,
}

// TestGoldenTraces runs every traced test of the package (spec.GoldenSet):
// go test -run Golden checks every trace, and with -update rewrites them.
func TestGoldenTraces(t *testing.T) { spec.GoldenSet(t, goldenTests) }
