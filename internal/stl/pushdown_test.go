package stl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nds/internal/spec"
)

// refElems, refScan and refReduce are the model's operators (internal/spec)
// in this package's types: elements decoded little-endian unsigned, bytes
// past the end of buf — gaps — as zeros.
func refElems(buf []byte, want, es int64) []uint64 {
	part := make([]byte, want)
	copy(part, buf)
	return spec.Elems(part, int(es))
}

func refScan(elems []uint64, q ScanQuery) ScanResult {
	r := spec.ScanElems(elems, spec.ScanQuery{Pred: spec.Predicate(q.Pred), Cursor: q.Cursor, Max: q.Max})
	return ScanResult{Matches: refMatches(r.Matches), Total: r.Total, NextCursor: r.NextCursor}
}

func refReduce(elems []uint64, q ReduceQuery) ReduceResult {
	r := spec.ReduceElems(elems, spec.ReduceQuery{Kind: spec.ReduceKind(q.Kind), K: q.K, Pred: (*spec.Predicate)(q.Pred)})
	return ReduceResult{Value: r.Value, Index: r.Index, Count: r.Count, TopK: refMatches(r.TopK)}
}

func refMatches(ms []spec.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match(m)
	}
	return out
}

func scanEqual(a, b ScanResult) bool {
	if a.Total != b.Total || a.NextCursor != b.NextCursor || len(a.Matches) != len(b.Matches) {
		return false
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			return false
		}
	}
	return true
}

func reduceEqual(a, b ReduceResult) bool {
	if a.Value != b.Value || a.Index != b.Index || a.Count != b.Count || len(a.TopK) != len(b.TopK) {
		return false
	}
	for i := range a.TopK {
		if a.TopK[i] != b.TopK[i] {
			return false
		}
	}
	return true
}

// TestPushdownScanMatchesRead: a pushdown scan must report exactly the
// matches a host computes over the assembled partition, for several element
// sizes and partitions, including partitions with unwritten (zero) regions.
func TestPushdownScanMatchesRead(t *testing.T) {
	for _, es := range []int{1, 2, 4, 8} {
		st := newTestSTL(t, false)
		s := mustSpace(t, st, es, 64, 64)
		v := mustView(t, s, 64, 64)
		rng := rand.New(rand.NewSource(int64(42 + es)))
		// Write only three quadrants: the fourth stays unwritten zeros.
		data := make([]byte, 32*32*es)
		for _, c := range [][]int64{{0, 0}, {0, 1}, {1, 0}} {
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			if _, _, err := st.WritePartition(0, v, c, []int64{32, 32}, data); err != nil {
				t.Fatal(err)
			}
		}
		for _, part := range [][4]int64{{0, 0, 64, 64}, {1, 0, 32, 32}, {1, 1, 16, 16}, {0, 1, 48, 32}} {
			coord, sub := []int64{part[0], part[1]}, []int64{part[2], part[3]}
			buf, _, rstats, err := st.ReadPartition(0, v, coord, sub)
			if err != nil {
				t.Fatal(err)
			}
			elems := refElems(buf, rstats.Bytes, int64(es))
			for _, q := range []ScanQuery{
				{Pred: Predicate{Lo: 0, Hi: 20}},
				{Pred: Predicate{Lo: 0, Hi: 0}},
				{Pred: Predicate{Lo: 1, Hi: ^uint64(0)}},
				{Pred: Predicate{Lo: 100, Hi: 50000}, Cursor: 17, Max: 9},
			} {
				got, _, sstats, err := st.ScanPartition(0, v, coord, sub, q)
				if err != nil {
					t.Fatal(err)
				}
				if want := refScan(elems, q); !scanEqual(got, want) {
					t.Fatalf("es=%d part=%v q=%+v: scan mismatch\n got %+v\nwant %+v", es, part, q, got, want)
				}
				// Stats consistency: the scan reads the same partition the
				// read did — same payload bytes, extents, and pages.
				if sstats.Bytes != rstats.Bytes || sstats.Extents != rstats.Extents || sstats.PagesRead != rstats.PagesRead {
					t.Fatalf("es=%d part=%v: scan stats %+v != read stats %+v", es, part, sstats, rstats)
				}
			}
		}
	}
}

// TestPushdownReduceMatchesRead pins every reduction kind against the
// host-side reference over the assembled buffer.
func TestPushdownReduceMatchesRead(t *testing.T) {
	st := newTestSTL(t, false)
	s := mustSpace(t, st, 2, 64, 64)
	v := mustView(t, s, 64, 64)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 64*32*2)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	// Left half written, right half zeros.
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 32}, data); err != nil {
		t.Fatal(err)
	}
	coord, sub := []int64{0, 0}, []int64{64, 64}
	buf, _, rstats, err := st.ReadPartition(0, v, coord, sub)
	if err != nil {
		t.Fatal(err)
	}
	elems := refElems(buf, rstats.Bytes, 2)
	pred := &Predicate{Lo: 10, Hi: 1000}
	for _, q := range []ReduceQuery{
		{Kind: ReduceSum},
		{Kind: ReduceSum, Pred: pred},
		{Kind: ReduceCount},
		{Kind: ReduceCount, Pred: pred},
		{Kind: ReduceMin},
		{Kind: ReduceMin, Pred: pred},
		{Kind: ReduceMax},
		{Kind: ReduceMax, Pred: pred},
		{Kind: ReduceMax, Pred: &Predicate{Lo: 1 << 40, Hi: 1 << 41}}, // nothing matches
		{Kind: ReduceTopK, K: 1},
		{Kind: ReduceTopK, K: 8, Pred: pred},
		{Kind: ReduceTopK, K: 16},
		{Kind: ReduceTopK, K: 100000}, // k > n: every element comes back
	} {
		got, _, _, err := st.ReducePartition(0, v, coord, sub, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := refReduce(elems, q); !reduceEqual(got, want) {
			t.Fatalf("q=%+v: reduce mismatch\n got %+v\nwant %+v", q, got, want)
		}
	}
}

// TestPushdownCursorResume: paging through a scan with a small Max and the
// returned NextCursor must enumerate exactly the unpaged match list.
func TestPushdownCursorResume(t *testing.T) {
	st := newTestSTL(t, false)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	data := make([]byte, 64*64*4)
	for i := 0; i < 64*64; i++ {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(i%50))
	}
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, data); err != nil {
		t.Fatal(err)
	}
	coord, sub := []int64{0, 0}, []int64{64, 64}
	pred := Predicate{Lo: 5, Hi: 7}
	full, _, _, err := st.ScanPartition(0, v, coord, sub, ScanQuery{Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if full.NextCursor != -1 || int64(len(full.Matches)) != full.Total {
		t.Fatalf("unpaged scan should be complete: %+v", full)
	}
	var paged []Match
	cursor, pages := int64(0), 0
	for {
		res, _, _, err := st.ScanPartition(0, v, coord, sub, ScanQuery{Pred: pred, Cursor: cursor, Max: 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != full.Total {
			t.Fatalf("page %d: total %d != %d (pages must still report the true total)", pages, res.Total, full.Total)
		}
		paged = append(paged, res.Matches...)
		pages++
		if res.NextCursor < 0 {
			break
		}
		cursor = res.NextCursor
		if pages > len(full.Matches) {
			t.Fatal("cursor loop does not terminate")
		}
	}
	if pages < 2 {
		t.Fatalf("expected multiple pages, got %d", pages)
	}
	if len(paged) != len(full.Matches) {
		t.Fatalf("paged %d matches, want %d", len(paged), len(full.Matches))
	}
	for i := range paged {
		if paged[i] != full.Matches[i] {
			t.Fatalf("match %d: paged %+v != full %+v", i, paged[i], full.Matches[i])
		}
	}
}

// TestPushdownInvalidQueries: unsupported element sizes and malformed
// queries fail with ErrInvalid before touching the device.
func TestPushdownInvalidQueries(t *testing.T) {
	st := newTestSTL(t, false)
	s3 := mustSpace(t, st, 3, 64, 64) // 3-byte elements: no integer interpretation
	v3 := mustView(t, s3, 64, 64)
	if _, _, _, err := st.ScanPartition(0, v3, []int64{0, 0}, []int64{8, 8}, ScanQuery{Pred: Predicate{Hi: 1}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("scan over 3-byte elements: got %v, want ErrInvalid", err)
	}
	if _, _, _, err := st.ReducePartition(0, v3, []int64{0, 0}, []int64{8, 8}, ReduceQuery{Kind: ReduceSum}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("reduce over 3-byte elements: got %v, want ErrInvalid", err)
	}
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	coord, sub := []int64{0, 0}, []int64{8, 8}
	if _, _, _, err := st.ScanPartition(0, v, coord, sub, ScanQuery{Pred: Predicate{Lo: 2, Hi: 1}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("inverted range: got %v, want ErrInvalid", err)
	}
	if _, _, _, err := st.ScanPartition(0, v, coord, sub, ScanQuery{Cursor: -1, Pred: Predicate{Hi: 1}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative cursor: got %v, want ErrInvalid", err)
	}
	if _, _, _, err := st.ReducePartition(0, v, coord, sub, ReduceQuery{Kind: ReduceTopK}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("top-k without k: got %v, want ErrInvalid", err)
	}
	if _, _, _, err := st.ReducePartition(0, v, coord, sub, ReduceQuery{Kind: ReduceKind(99)}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown kind: got %v, want ErrInvalid", err)
	}
}

// randomSegments lays n es-byte elements out as a segment list and returns it
// with the buffer a read would assemble from it. layout selects the shape:
// 0 is random pieces with random gaps, neither element-aligned (straddling
// elements, edges inside elements); 1 is element-aligned pieces, adjacent or
// a few whole elements apart; 2 is one segment covering everything (several
// blocks and a tail in one run); 3 is a phantom device's nil list; 4 is
// adjacent element-aligned pieces of 1 to 17 elements (runs of every length a
// block classifier can get wrong). The data is one of three kinds: uniform
// bytes; low-entropy bytes (alphabet of four), which make ties and zero
// elements common; or sparse — one background element value with a few
// percent of uniform elements scattered in it, so that a predicate on either
// side of the background misses at least 95 % of the elements and whole
// blocks go by without a match.
func randomSegments(rng *rand.Rand, es, n int64, layout uint8) (buf []byte, segs []Segment) {
	want := es * n
	data := make([]byte, want)
	switch alphabet := []byte{0, 0, 1, 255}; rng.Intn(3) {
	case 0:
		rng.Read(data)
	case 1:
		for i := range data {
			data[i] = alphabet[rng.Intn(len(alphabet))]
		}
	case 2:
		background := make([]byte, es)
		rng.Read(background)
		for i := int64(0); i < n; i++ {
			if elem := data[i*es : (i+1)*es]; rng.Intn(100) < 4 {
				rng.Read(elem)
			} else {
				copy(elem, background)
			}
		}
	}
	buf = make([]byte, want)
	emit := func(pos, size int64) {
		src := append([]byte(nil), data[pos:pos+size]...)
		copy(buf[pos:], src)
		segs = append(segs, Segment{Dst: pos, Src: src})
	}
	switch layout % 5 {
	case 0:
		for pos := int64(rng.Intn(7)); pos < want; pos += int64(rng.Intn(7)) {
			size := min(int64(1+rng.Intn(13)), want-pos)
			emit(pos, size)
			pos += size
		}
	case 1:
		for pos := es * int64(rng.Intn(3)); pos < want; pos += es * int64(rng.Intn(3)) {
			size := min(es*int64(1+rng.Intn(9)), want-pos)
			emit(pos, size)
			pos += size
		}
	case 2:
		emit(0, want)
	case 4:
		for pos := int64(0); pos < want; {
			size := min(es*int64(1+rng.Intn(17)), want-pos)
			emit(pos, size)
			pos += size
		}
	}
	return buf, segs
}

// commonest returns the value most elements hold.
func commonest(elems []uint64) (v uint64) {
	seen := make(map[uint64]int)
	for _, e := range elems {
		if seen[e]++; seen[e] > seen[v] || (seen[e] == seen[v] && e < v) {
			v = e
		}
	}
	return v
}

// checkScan and checkReduce hold the kernels over one segment list to the
// references over the materialised buffer.
func checkScan(t *testing.T, es int64, elems []uint64, segs []Segment, q ScanQuery) {
	t.Helper()
	got, want := scanSegments(int64(len(elems))*es, es, segs, q), refScan(elems, q)
	if !scanEqual(got, want) {
		t.Fatalf("es=%d n=%d q=%+v: scan mismatch\n got %+v\nwant %+v\nsegs %v", es, len(elems), q, got, want, segs)
	}
}

func checkReduce(t *testing.T, es int64, elems []uint64, segs []Segment, q ReduceQuery) {
	t.Helper()
	got, want := reduceSegments(int64(len(elems))*es, es, segs, q), refReduce(elems, q)
	if !reduceEqual(got, want) {
		t.Fatalf("es=%d n=%d q=%+v pred=%+v: reduce mismatch\n got %+v\nwant %+v\nsegs %v", es, len(elems), q, q.Pred, got, want, segs)
	}
}

// checkPushdownKernels holds scanSegments and reduceSegments over one random
// segment list to the references: predicates that do and do not match zero,
// predicates that miss nearly everything, predicates at the edges of the
// element width, cursor and max paging, every reduce kind with and without a
// predicate, k below, at and above the element count.
func checkPushdownKernels(t *testing.T, seed int64, width, layout uint8) {
	rng := rand.New(rand.NewSource(seed))
	es := []int64{1, 2, 4, 8}[width%4]
	n := int64(1 + rng.Intn(96))
	if rng.Intn(2) == 0 {
		n = int64(1 + rng.Intn(600)) // several blocks, clean ones between dirty ones, every tail
	}
	buf, segs := randomSegments(rng, es, n, layout)
	elems := refElems(buf, n*es, es)
	pick := func() uint64 { return elems[rng.Intn(len(elems))] }
	a, b := pick(), pick()
	if a > b {
		a, b = b, a
	}
	top, most := ^uint64(0)>>(64-8*uint(es)), commonest(elems)
	preds := []Predicate{
		{Lo: 0, Hi: ^uint64(0)}, // every element: pins the walker's order and coverage
		{Lo: 0, Hi: 0},
		{Lo: 0, Hi: b},
		{Lo: 1, Hi: ^uint64(0)}, // wider than the element: zeros must not wrap into it
		{Lo: a, Hi: b},
		{Lo: b, Hi: b},
		{Lo: 0, Hi: top},          // everything the width can hold
		{Lo: top, Hi: ^uint64(0)}, // only the width's largest value
	}
	if most < ^uint64(0) {
		preds = append(preds, Predicate{Lo: most + 1, Hi: ^uint64(0)}) // above the background of sparse data
	}
	if most > 0 {
		preds = append(preds, Predicate{Lo: 0, Hi: most - 1}) // and below it
	}
	if es < 8 {
		preds = append(preds, Predicate{Lo: top + 1, Hi: ^uint64(0)}) // nothing the width can hold
	}
	for _, pred := range preds {
		for _, q := range []ScanQuery{
			{Pred: pred},
			{Pred: pred, Max: 1},
			{Pred: pred, Cursor: rng.Int63n(n + 2)},
			{Pred: pred, Cursor: rng.Int63n(n + 2), Max: 1 + rng.Intn(int(n))},
		} {
			checkScan(t, es, elems, segs, q)
		}
	}
	for i := -1; i < len(preds); i++ {
		var p *Predicate
		if i >= 0 {
			p = &preds[i]
		}
		for _, q := range []ReduceQuery{
			{Kind: ReduceSum, Pred: p},
			{Kind: ReduceCount, Pred: p},
			{Kind: ReduceMin, Pred: p},
			{Kind: ReduceMax, Pred: p},
			{Kind: ReduceTopK, K: 1, Pred: p},
			{Kind: ReduceTopK, K: 1 + rng.Intn(int(n)), Pred: p},
			{Kind: ReduceTopK, K: int(n), Pred: p},
			{Kind: ReduceTopK, K: int(n) + 5, Pred: p},
		} {
			checkReduce(t, es, elems, segs, q)
		}
	}
}

// TestPushdownKernelsDifferential sweeps the fuzz target's input space with a
// fixed seed so a plain go test run covers every width and layout many times,
// on the classifiers picked at start-up and again on the Go ones.
func TestPushdownKernelsDifferential(t *testing.T) {
	sweep := func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 400; trial++ {
			checkPushdownKernels(t, rng.Int63(), uint8(trial), uint8(trial/4))
		}
	}
	sweep(t)
	onGoClassifiers(t, sweep)
}

// FuzzPushdownKernels is the same differential under the fuzzer's choice of
// seed, element width and layout; testdata/fuzz holds the committed corpus.
func FuzzPushdownKernels(f *testing.F) {
	for width := uint8(0); width < 4; width++ {
		for layout := uint8(0); layout < 5; layout++ {
			f.Add(int64(width)*5+int64(layout), width, layout)
		}
	}
	f.Fuzz(checkPushdownKernels)
}

// layouts returns elems as one segment, and as adjacent pieces of 1 to 17
// elements: the two shapes the blocked kernels' edge cases are pinned on.
func layouts(es int64, elems []uint64) map[string][]Segment {
	buf := make([]byte, es*int64(len(elems)))
	for i, v := range elems {
		for b := int64(0); b < es; b++ {
			buf[int64(i)*es+b] = byte(v >> (8 * b))
		}
	}
	var pieces []Segment
	for pos, k := int64(0), int64(1); pos < int64(len(buf)); pos, k = pos+k*es, k%17+1 {
		pieces = append(pieces, Segment{Dst: pos, Src: buf[pos:min(pos+k*es, int64(len(buf)))]})
	}
	return map[string][]Segment{"one run": {{Src: buf}}, "pieces": pieces}
}

// TestPushdownWidthEdges: predicates at and beyond what an element of the
// width can hold, over data that holds zeros, the width's largest value and a
// spread between — at a length that leaves a tail after the last whole block.
// It runs on the classifiers picked at start-up and again on the Go ones.
func TestPushdownWidthEdges(t *testing.T) {
	pushdownWidthEdges(t)
	onGoClassifiers(t, pushdownWidthEdges)
}

func pushdownWidthEdges(t *testing.T) {
	for _, es := range []int64{1, 2, 4, 8} {
		top := ^uint64(0) >> (64 - 8*uint(es))
		elems := make([]uint64, 203)
		for i := range elems {
			elems[i] = []uint64{0, top, uint64(i) & top, top - uint64(i)&top, 1, 0}[i%6]
		}
		edges := map[string]Predicate{
			// The clamp case: a span cut to the width, not to what is left of it
			// above Lo, lets zeros wrap into this range.
			"zeros stay out of [1, 2^64-1]": {Lo: 1, Hi: ^uint64(0)},
			"everything":                    {Lo: 0, Hi: top},
			"only the largest":              {Lo: top, Hi: ^uint64(0)},
			"only zero":                     {Lo: 0, Hi: 0},
		}
		if es < 8 {
			edges["nothing"] = Predicate{Lo: top + 1, Hi: ^uint64(0)}
		}
		for name, pred := range edges {
			for shape, segs := range layouts(es, elems) {
				t.Run(fmt.Sprintf("w%d/%s/%s", es, name, shape), func(t *testing.T) {
					checkScan(t, es, elems, segs, ScanQuery{Pred: pred})
					for _, kind := range []ReduceKind{ReduceSum, ReduceCount, ReduceMin, ReduceMax, ReduceTopK} {
						checkReduce(t, es, elems, segs, ReduceQuery{Kind: kind, K: 5, Pred: &pred})
					}
				})
			}
		}
	}
}

// TestPushdownSumOfLargest: whole runs of the width's largest value, the most
// sumAll's widened lanes have to hold, then a tail.
func TestPushdownSumOfLargest(t *testing.T) {
	for _, es := range []int64{1, 2, 4, 8} {
		elems := make([]uint64, 2*runElems+13)
		for i := range elems {
			elems[i] = ^uint64(0) >> (64 - 8*uint(es))
		}
		for _, segs := range layouts(es, elems) {
			checkReduce(t, es, elems, segs, ReduceQuery{Kind: ReduceSum})
			checkReduce(t, es, elems, segs, ReduceQuery{Kind: ReduceSum, Pred: &Predicate{Lo: 1, Hi: ^uint64(0)}})
		}
	}
}

// TestPushdownPageEndsOnEveryLane: a result page may end anywhere in a block.
// Every Max from 1 to 17 against cursors on every lane, over data where every
// element matches and where one in five does: NextCursor lands mid-block and
// Total still counts the whole partition.
func TestPushdownPageEndsOnEveryLane(t *testing.T) {
	elems := make([]uint64, 77)
	for i := range elems {
		elems[i] = uint64(i % 5)
	}
	for _, es := range []int64{1, 2, 4, 8} {
		for shape, segs := range layouts(es, elems) {
			for pred, total := range map[Predicate]int64{{Lo: 0, Hi: 4}: 77, {Lo: 3, Hi: 3}: 15} {
				for max := 1; max <= 17; max++ {
					for cursor := int64(0); cursor <= 17; cursor++ {
						q := ScanQuery{Pred: pred, Cursor: cursor, Max: max}
						got := scanSegments(int64(len(elems))*es, es, segs, q)
						if want := refScan(elems, q); !scanEqual(got, want) {
							t.Fatalf("w%d %s q=%+v:\n got %+v\nwant %+v", es, shape, q, got, want)
						}
						if got.Total != total {
							t.Fatalf("w%d %s q=%+v: total %d, want the whole partition's %d", es, shape, q, got.Total, total)
						}
					}
				}
			}
		}
	}
}

// TestPushdownBoundTightensInsideBlock: ascending values make every element a
// new maximum (and a new entry for a full top-k heap), so the kernel's bound
// moves between the lanes of one block; descending values do the same to the
// minimum; equal values tie at the bound, where the lower index must win.
func TestPushdownBoundTightensInsideBlock(t *testing.T) {
	const n = 150
	shapes := map[string]func(i int) uint64{
		"ascending":  func(i int) uint64 { return uint64(10 + i) },
		"descending": func(i int) uint64 { return uint64(10 + n - i) },
		"equal":      func(i int) uint64 { return 42 },
		"sawtooth":   func(i int) uint64 { return uint64(10 + i%7) },
	}
	for name, value := range shapes {
		elems := make([]uint64, n)
		for i := range elems {
			elems[i] = value(i)
		}
		for _, es := range []int64{1, 2, 4, 8} {
			for shape, segs := range layouts(es, elems) {
				t.Run(fmt.Sprintf("%s/w%d/%s", name, es, shape), func(t *testing.T) {
					for _, p := range []*Predicate{nil, {Lo: 12, Hi: 100}} {
						for _, q := range []ReduceQuery{
							{Kind: ReduceMin, Pred: p},
							{Kind: ReduceMax, Pred: p},
							{Kind: ReduceTopK, K: 1, Pred: p},
							{Kind: ReduceTopK, K: 8, Pred: p},
							{Kind: ReduceTopK, K: 16, Pred: p},
						} {
							checkReduce(t, es, elems, segs, q)
						}
					}
				})
			}
		}
	}
}

// TestTopKFullPartition: the typed API does not bound K, so a top-k as deep
// as the partition must still finish promptly — a full sort, not the
// quadratic drain an unbounded K once wedged the device on (48 s at this
// size, under the space lock).
func TestTopKFullPartition(t *testing.T) {
	const n = 1 << 18 // a 1 MiB partition of uint32
	buf := make([]byte, 4*n)
	rand.New(rand.NewSource(5)).Read(buf)
	start := time.Now()
	res := reduceSegments(4*n, 4, []Segment{{Src: buf}}, ReduceQuery{Kind: ReduceTopK, K: n})
	// 60 ms here, 230 ms under the race detector.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("top-%d of %d elements took %v", n, n, d)
	}
	if len(res.TopK) != n || res.Count != n {
		t.Fatalf("kept %d (count %d), want all %d", len(res.TopK), res.Count, n)
	}
	if want := refReduce(refElems(buf, 4*n, 4), ReduceQuery{Kind: ReduceTopK, K: n}); !reduceEqual(res, want) {
		t.Fatal("full-partition top-k differs from the sorted reference")
	}
}

// TestTopKOrdering pins the heap's tie-breaking: descending value, then
// ascending index, truncated to k.
func TestTopKOrdering(t *testing.T) {
	vals := []uint64{5, 9, 1, 9, 5, 0, 9, 2}
	top := topK{heap: make([]Match, 0, 4)}
	for i, v := range vals {
		top.offer(int64(i), v)
	}
	got := top.sorted()
	want := []Match{{1, 9}, {3, 9}, {6, 9}, {0, 5}}
	if len(got) != len(want) {
		t.Fatalf("topk returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topk[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPushdownKernelAllocs: a kernel lives on its caller's stack. A reduction
// allocates nothing — top-k only its heap, which is the result — and a scan
// only the matches it returns, at exact size: the accumulation buffer is
// pooled.
func TestPushdownKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the scan's accumulation buffer")
	}
	want, segs := benchTile(4, 0)
	pred := benchPred(4, 0.01)
	for _, q := range []ReduceQuery{{Kind: ReduceSum}, {Kind: ReduceCount}, {Kind: ReduceMin}, {Kind: ReduceMax},
		{Kind: ReduceSum, Pred: &pred}, {Kind: ReduceCount, Pred: &pred}, {Kind: ReduceMin, Pred: &pred}, {Kind: ReduceMax, Pred: &pred}} {
		if allocs := testing.AllocsPerRun(10, func() { benchReduceResult = reduceSegments(want, 4, segs, q) }); allocs != 0 {
			t.Errorf("%v (predicate %v): %.0f allocations, want 0", q.Kind, q.Pred != nil, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { benchReduceResult = reduceSegments(want, 4, segs, ReduceQuery{Kind: ReduceTopK, K: 16}) }); allocs > 1 {
		t.Errorf("top-16: %.0f allocations, want at most 1 (the heap)", allocs)
	}
	scan := func() { benchScanResult = scanSegments(want, 4, segs, ScanQuery{Pred: pred}) }
	scan()
	if allocs := testing.AllocsPerRun(10, scan); allocs > 1 {
		t.Errorf("scan at 1 %%: %.0f allocations, want at most 1 (the result)", allocs)
	}
	// One allocation of exactly the result: 41 KB of matches, which the
	// allocator rounds up to its 48 KB size class.
	if m := benchScanResult.Matches; len(m) == 0 || cap(m) != len(m) {
		t.Errorf("scan at 1 %%: result of %d matches has capacity %d", len(m), cap(m))
	}
}

// TestScanBufferPoolCap: a scan whose result outgrows maxPooledMatches still
// returns it whole and at exact size, and does not park its accumulation
// buffer in the pool.
func TestScanBufferPoolCap(t *testing.T) {
	const n = maxPooledMatches + 1
	res := scanSegments(n, 1, nil, ScanQuery{}) // a phantom device: n zeros, all matching [0, 0]
	if res.Total != n || len(res.Matches) != n || cap(res.Matches) != n || res.Matches[n-1].Index != n-1 {
		t.Fatalf("dense scan: total %d, %d matches (capacity %d), want %d", res.Total, len(res.Matches), cap(res.Matches), n)
	}
	buf := matchBufs.Get().(*[]Match)
	defer matchBufs.Put(buf)
	if cap(*buf) > maxPooledMatches {
		t.Errorf("the pool kept a buffer of %d matches, cap is %d", cap(*buf), maxPooledMatches)
	}
}

// benchTile is the shape pushdown_scan feeds the kernels: a 1 MiB tile of
// uniform random elements arriving as 512 row pieces of 2 KiB — or, with
// perRun > 0, as runs of that many elements a piece apart, the shape a
// KMeans row reduction has (a run is k elements, not a page).
func benchTile(es int64, perRun int) (want int64, segs []Segment) {
	piece := 2048
	if perRun > 0 {
		piece = perRun * int(es)
	}
	buf := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(buf)
	for off := 0; off < len(buf); off += piece {
		segs = append(segs, Segment{Dst: int64(off), Src: buf[off : off+piece]})
	}
	return int64(len(buf)), segs
}

// benchPred matches share of the values of uniform es-byte elements, from a
// lower bound a quarter of the way up the width's range.
func benchPred(es int64, share float64) Predicate {
	top := float64(^uint64(0) >> (64 - 8*uint(es)))
	if share >= 1 {
		return Predicate{Lo: 0, Hi: ^uint64(0)}
	}
	lo := uint64(top / 4)
	return Predicate{Lo: lo, Hi: lo + uint64(top*share)}
}

var (
	benchScanResult   ScanResult
	benchReduceResult ReduceResult
)

func benchScan(b *testing.B, es int64, share float64) {
	want, segs := benchTile(es, 0)
	q := ScanQuery{Pred: benchPred(es, share)}
	b.ReportAllocs()
	b.SetBytes(want)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScanResult = scanSegments(want, es, segs, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(want/es), "ns/elem")
}

func benchReduce(b *testing.B, es int64, perRun int, q ReduceQuery) {
	want, segs := benchTile(es, perRun)
	b.ReportAllocs()
	b.SetBytes(want)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReduceResult = reduceSegments(want, es, segs, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(want/es), "ns/elem")
}

// BenchmarkScanKernel: the scan kernel alone at 1 % selectivity over uint32
// (the figure EXPERIMENTS.md has tracked since PR 13), then every width at
// selectivity 0, 1 %, 10 % and 100 %: the dense end is what a blocked kernel
// could pay for the sparse one with.
func BenchmarkScanKernel(b *testing.B) { benchScan(b, 4, 0.01) }

func BenchmarkScanKernelSweep(b *testing.B) {
	for _, es := range []int64{1, 2, 4, 8} {
		for _, sel := range []struct {
			name  string
			share float64
		}{{"0", 0}, {"1pct", 0.01}, {"10pct", 0.10}, {"100pct", 1}} {
			b.Run(fmt.Sprintf("w%d/sel=%s", es, sel.name), func(b *testing.B) { benchScan(b, es, sel.share) })
		}
	}
}

// BenchmarkReduceKernel: every reduce kind alone over uint32, top-k at the
// depth pushdown_scan asks for; then a predicate-gated sum (1 %), and the
// nil-predicate sum and max over the widths the device kernels reduce
// (internal/workloads reads 8-byte keys) in page-sized runs and in 16-element
// runs, where per-run set-up is most of the cost.
func BenchmarkReduceKernel(b *testing.B) {
	for _, q := range []ReduceQuery{
		{Kind: ReduceSum},
		{Kind: ReduceCount},
		{Kind: ReduceMin},
		{Kind: ReduceMax},
		{Kind: ReduceTopK, K: 16},
	} {
		b.Run(q.Kind.String(), func(b *testing.B) { benchReduce(b, 4, 0, q) })
	}
	for _, es := range []int64{4, 8} {
		pred := benchPred(es, 0.01)
		b.Run(fmt.Sprintf("w%d/sum-pred", es), func(b *testing.B) { benchReduce(b, es, 0, ReduceQuery{Kind: ReduceSum, Pred: &pred}) })
		b.Run(fmt.Sprintf("w%d/sum", es), func(b *testing.B) { benchReduce(b, es, 0, ReduceQuery{Kind: ReduceSum}) })
		b.Run(fmt.Sprintf("w%d/sum-run16", es), func(b *testing.B) { benchReduce(b, es, 16, ReduceQuery{Kind: ReduceSum}) })
		b.Run(fmt.Sprintf("w%d/max-run16", es), func(b *testing.B) { benchReduce(b, es, 16, ReduceQuery{Kind: ReduceMax}) })
		b.Run(fmt.Sprintf("w%d/topk-run16", es), func(b *testing.B) { benchReduce(b, es, 16, ReduceQuery{Kind: ReduceTopK, K: 16}) })
	}
}
