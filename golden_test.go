package nds

import (
	"testing"

	"nds/internal/spec"
)

// The package's fixed scripts hold a device to two references (DESIGN.md
// "Correctness: model and goldens"): bytes and pushdown results to the model
// of spaces (internal/spec), and each operation's Stats to the script's golden
// trace in testdata/golden.

// openTraced opens a device for a golden-traced script.
func openTraced(t *testing.T, opts Options) *Device {
	t.Helper()
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// traceOp adds one operation's line to a golden trace: the command, its
// partition, its completion in nanoseconds (Stats prints Done rounded) and
// its whole record.
func traceOp(tr *spec.Trace, op string, coord, sub []int64, st Stats) {
	tr.Add("%s %v/%v done=%d %+v", op, coord, sub, int64(st.Done), st)
}

// Conversions to and from the model's pushdown types, which mirror the API's
// field for field.

func specScan(q ScanQuery) spec.ScanQuery {
	return spec.ScanQuery{Pred: spec.Predicate(q.Pred), Cursor: q.Cursor, Max: q.Max}
}

func specReduce(q ReduceQuery) spec.ReduceQuery {
	return spec.ReduceQuery{Kind: spec.ReduceKind(q.Kind), K: q.K, Pred: (*spec.Predicate)(q.Pred)}
}

func sameMatches(a []Match, b []spec.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if spec.Match(a[i]) != b[i] {
			return false
		}
	}
	return true
}

func sameScan(a ScanResult, b spec.ScanResult) bool {
	return a.Total == b.Total && a.NextCursor == b.NextCursor && sameMatches(a.Matches, b.Matches)
}

func sameReduce(a ReduceResult, b spec.ReduceResult) bool {
	return a.Value == b.Value && a.Index == b.Index && a.Count == b.Count && sameMatches(a.TopK, b.TopK)
}

// goldenTests are the package's tests that check golden traces, under the
// name of the trace each writes.
var goldenTests = map[string]func(*testing.T){
	"TestDifferentialConcurrentStreams": TestDifferentialConcurrentStreams,
	"TestDifferentialSegmentsVsRead":    TestDifferentialSegmentsVsRead,
	"TestDifferentialPushdownVsRead":    TestDifferentialPushdownVsRead,
}

// TestGoldenTraces runs every traced test of the package (spec.GoldenSet):
// go test -run Golden checks every trace, and with -update rewrites them.
func TestGoldenTraces(t *testing.T) { spec.GoldenSet(t, goldenTests) }
