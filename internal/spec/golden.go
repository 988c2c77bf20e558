package spec

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden traces pin what the model cannot: simulated time. A trace is a fixed
// script's record — one line per operation with its completion and its whole
// per-operation statistics record, then the device's end-of-script counters —
// committed under the test package's testdata/golden. A test replays the
// script and requires the same text; -update rewrites the file from the tree
// under test instead. Only a change that moves simulated time on purpose may
// run it, and says so (DESIGN.md "Correctness: model and goldens").

var update = flag.Bool("update", false, "rewrite the golden traces under testdata/golden from this tree")

// Trace accumulates a golden trace.
type Trace struct{ b bytes.Buffer }

// Add appends one line.
func (tr *Trace) Add(format string, args ...any) {
	fmt.Fprintf(&tr.b, format, args...)
	tr.b.WriteByte('\n')
}

// String returns the trace so far.
func (tr *Trace) String() string { return tr.b.String() }

// Check compares the trace with testdata/golden/name.txt, or writes it there
// under -update.
func (tr *Trace) Check(tb testing.TB, name string) {
	tb.Helper()
	path := GoldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, tr.b.Bytes(), 0o644); err != nil {
			tb.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("%v (a new script's trace is written with -update)", err)
	}
	got := tr.b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			tb.Fatalf("%s line %d differs from the golden trace:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	tb.Fatalf("%s: %d lines, the golden trace has %d", path, len(gl), len(wl))
}

// GoldenPath is where the golden trace called name lives.
func GoldenPath(name string) string { return filepath.Join("testdata", "golden", name+".txt") }

// GoldenSet is a package's TestGoldenTraces: it runs every traced test of the
// package — tests, keyed by the name of the trace each writes, further traces
// of one test being named key.suffix — so that go test -run Golden checks
// every trace and go test -run Golden -update rewrites every trace. It also
// fails on a trace on disk that no test writes.
func GoldenSet(t *testing.T, tests map[string]func(*testing.T)) {
	for name, f := range tests {
		t.Run(name, f)
	}
	files, err := filepath.Glob(GoldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name, _, _ := strings.Cut(strings.TrimSuffix(filepath.Base(f), ".txt"), "."); tests[name] == nil {
			t.Errorf("%s belongs to no traced test", f)
		}
	}
}
