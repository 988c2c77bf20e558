package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nds"
)

func TestPercentileRefusesBeyondItsSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond it", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples reported, but only 9 samples lie beyond it")
	}
	if v, ok := percentile(xs[:20], 0.50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.50); ok {
		t.Errorf("p50 of 19 samples reported, but only 9 samples lie beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of nothing reported")
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs, computed with Python 3.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{16, 1, 8, 2, 4}, [3]float64{1.5, 4, 12}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread([]float64{9, 10, 11, 10, 10, 10, 10, 10, 10, 10}); s != 0 {
		t.Errorf("spread with identical quartiles = %v, want 0", s)
	}
}

func TestMirrorAgreesWithBruteForce(t *testing.T) {
	m := newMirror(4, [2]int64{64, 96}, 7)
	coord, sub := [2]int64{1, 2}, [2]int64{16, 32}
	part := m.extract(coord, sub, make([]byte, 16*32*4))
	// Element (r, c) of the partition is element (16+r, 64+c) of the space.
	for _, rc := range [][2]int64{{0, 0}, {3, 31}, {15, 7}} {
		got := elemAt(part, 4, rc[0]*32+rc[1])
		want := elemAt(m.data, 4, (16+rc[0])*96+64+rc[1])
		if got != want {
			t.Fatalf("extract: element %v = %d, space holds %d", rc, got, want)
		}
	}
	// A write lands where a read of the same partition finds it.
	payload := make([]byte, len(part))
	fillRandom(payload, 99)
	m.apply(coord, sub, payload)
	if !bytes.Equal(m.extract(coord, sub, make([]byte, len(part))), payload) {
		t.Fatal("apply then extract does not round-trip")
	}

	type iv struct {
		i int64
		v uint64
	}
	var all []iv
	for i := int64(0); i < 16*32; i++ {
		all = append(all, iv{i, elemAt(payload, 4, i)})
	}
	lo, hi := uint64(1)<<30, uint64(3)<<30
	var wantScan []nds.Match
	for _, e := range all {
		if e.v >= lo && e.v <= hi {
			wantScan = append(wantScan, nds.Match{Index: e.i, Value: e.v})
		}
	}
	if got := m.scan(payload, lo, hi); !sameMatches(got, wantScan) || len(got) == 0 {
		t.Errorf("scan found %d matches, brute force %d", len(got), len(wantScan))
	}
	// Ties: force equal values at several indexes, the lowest indexes win.
	for _, i := range []int64{5, 100, 300} {
		payload[i*4], payload[i*4+1], payload[i*4+2], payload[i*4+3] = 0xff, 0xff, 0xff, 0xff
	}
	all = all[:0]
	for i := int64(0); i < 16*32; i++ {
		all = append(all, iv{i, elemAt(payload, 4, i)})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].v > all[b].v })
	got := m.topK(payload, 4)
	for k := range got {
		if got[k].Index != all[k].i || got[k].Value != all[k].v {
			t.Errorf("topK[%d] = %+v, brute force (%d, %d)", k, got[k], all[k].i, all[k].v)
		}
	}
}

// corrupting flips one byte of every read payload on its way back.
type corrupting struct{ target }

func (c corrupting) do(op *Op, cs *clientState) (opResult, error) {
	r, err := c.target.do(op, cs)
	if len(r.Payload) > 0 {
		r.Payload[len(r.Payload)/2] ^= 0x40
	}
	return r, err
}

func TestCorruptedPayloadFailsTheCommand(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-workload", "net_mixed", "-seconds", "0.2"}, &out, nil); code != 0 {
		t.Fatalf("clean run exited %d:\n%s", code, out.String())
	}
	out.Reset()
	code := run([]string{"-workload", "net_mixed", "-seconds", "0.2"}, &out,
		func(tg target) target { return corrupting{tg} })
	if code == 0 {
		t.Fatalf("run with corrupted read payloads exited 0:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct {
		t.Error("result says correct although every read payload was corrupted")
	}
}

func TestFailedOpsCountAndTheRunContinues(t *testing.T) {
	w, err := findWorkload("net_mixed")
	if err != nil {
		t.Fatal(err)
	}
	in := generate(w, 1, 1)
	// An op outside the space fails with a status; the ops around it go on.
	in.ops[3].Coord = [2]int64{1 << 20, 0}
	tg, _, err := setUp(w, in, w.replayRung(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	res := newResult(w)
	replay(w, in, tg, 0, 50, res, nil)
	if res.attempted != 50 || res.failed != 1 || !res.correct {
		t.Errorf("attempted %d failed %d correct %v; want 50, 1, true (%v)", res.attempted, res.failed, res.correct, res.problems)
	}
}

func TestSameSeedSameScriptAndExactMetrics(t *testing.T) {
	ws := workloads
	if testing.Short() {
		ws = []*workload{workloads[2], workloads[3]} // net_mixed, pushdown_scan
	}
	for _, w := range ws {
		t.Run(w.name, func(t *testing.T) {
			if err := selfCheck([]*workload{w}, 5); err != nil {
				t.Error(err)
			}
		})
	}
}

// A seed's data and exact metrics may not depend on how long a script the
// run generated for its timed pass.
func TestExactMetricsIgnoreRunLength(t *testing.T) {
	names := []string{"pushdown_scan", "net_mixed", "aged_write"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w, _ := findWorkload(name)
		short, err := runUntraced(w, 3, 0.2, nil) // a script sized for 1 s
		if err != nil {
			t.Fatal(err)
		}
		long, err := runUntraced(w, 3, 1.2, nil) // and for 2 s
		if err != nil {
			t.Fatal(err)
		}
		if !short.correct || !long.correct {
			t.Errorf("%s: outputs differ from the oracle: %v %v", name, short.problems, long.problems)
		}
		for _, m := range exactMetrics {
			if a, b := short.metrics[m], long.metrics[m]; a != b {
				t.Errorf("%s: %s reads %v with a 1 s script and %v with a 2 s script", name, m, a.Value, b.Value)
			}
		}
	}
}

// Every lap of paper_figs is the figures' own request set, whatever the seed.
func TestPaperFigsLapIsTheFigureRequests(t *testing.T) {
	w, _ := findWorkload("paper_figs")
	const matrix = figN * figN * 8
	for _, seed := range []int64{1, 2} {
		ops := w.gen(w, rand.New(rand.NewSource(seed)), 2*figLapOps)
		for lap := 0; lap < 2; lap++ {
			var moved [3]int64
			var count [4]int
			for _, o := range ops[lap*figLapOps : (lap+1)*figLapOps] {
				moved[o.Space] += o.Sub[0] * o.Sub[1] * 8
				count[o.Class]++
			}
			// Figure 9a: one sweep per system. 9b: one sweep per NDS system, one
			// column block and as many contiguous bytes on the baseline. 9c:
			// one sweep per NDS system, one column of tiles on the baseline.
			const page = 4096
			want := [3]int64{matrix + 2*512*figN*8 + 1024*figN*8 + page, 3*matrix + page, 3*matrix + page}
			if moved != want {
				t.Errorf("seed %d lap %d: bytes per system %v, want %v", seed, lap, moved, want)
			}
			if count[classFigPage] != 3 || count[classFigCol] != 1+2*16 {
				t.Errorf("seed %d lap %d: %d page and %d column requests", seed, lap, count[classFigPage], count[classFigCol])
			}
		}
	}
}

// The fixed figure set is a pure simulation: its results repeat exactly.
func TestFigureSetRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 10 catalog twice")
	}
	w, _ := findWorkload("paper_figs")
	a, b := newResult(w), newResult(w)
	for _, r := range []*result{a, b} {
		if err := figureSet(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []string{"paper_err", "fig10_hw_speedup", "fig10_sw_speedup", "experiments.overhead_sw_us", "experiments.overhead_hw_us"} {
		if a.metrics[m] != b.metrics[m] || a.metrics[m].Value == 0 {
			t.Errorf("%s read %v then %v", m, a.metrics[m].Value, b.metrics[m].Value)
		}
	}
}

func TestScriptMixesAreExact(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		w, _ := findWorkload("shape_read")
		ops := w.gen(w, rand.New(rand.NewSource(seed)), 1800)
		var n [2][3]int
		for _, o := range ops {
			n[o.Stream][o.Class]++
		}
		if want := [3]int{400, 100, 400}; n[0] != want || n[1] != want {
			t.Errorf("shape_read seed %d: per-client row/col/tile counts %v, want 4:1:4 each", seed, n)
		}
		w, _ = findWorkload("net_mixed")
		ops = w.gen(w, rand.New(rand.NewSource(seed)), 2000)
		var writes [2]int
		for _, o := range ops {
			if o.Kind == opWrite {
				writes[o.Stream]++
			}
		}
		if writes != [2]int{100, 100} {
			t.Errorf("net_mixed seed %d: writes per client %v, want 10 %% each", seed, writes)
		}
	}
}

func TestTracedRunAgreesAcrossRungs(t *testing.T) {
	if testing.Short() {
		t.Skip("replays net_mixed at seven rungs")
	}
	w, _ := findWorkload("net_mixed")
	res, err := runTraced(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 {
		t.Errorf("correct %v, failed %d: %v", res.correct, res.failed, res.problems)
	}
	for _, name := range []string{"wire.self_us", "nds.exec_self_ns", "nds.self_ns", "system.self_ns", "stl.self_ns", "nvm.self_ns", "sim.self_ns", "proto.req_encode_ns", "write_p99_us"} {
		if _, ok := res.metrics[name]; !ok {
			t.Errorf("traced run did not report %s", name)
		}
	}
	b, err := os.ReadFile(outDir() + "/trace_net_mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if want := w.replayOps * len(w.ladder); len(spans) != want {
		t.Errorf("%d spans written, want %d (one per op per rung)", len(spans), want)
	}
	for _, s := range spans[:len(w.ladder)] {
		if s.End < s.Start || (s.Layer == "wire") != (s.Parent == "") {
			t.Errorf("malformed span %+v", s)
		}
	}
}

// TestManifest holds the committed BENCHMARK.json to the program's own
// definitions and to the limits the driver's contract sets.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(committed, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric or workload name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d layer metrics: outside the contract's limits", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters, limit 200 on one line", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
}
