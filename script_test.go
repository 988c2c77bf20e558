package nds

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nds/internal/spec"
	"nds/internal/stl"
)

// The model scripts (DESIGN.md "Correctness: model and goldens"): a seeded
// generator writes scripts of the public API's commands — create, open, read,
// read-segments, write, resize, delete, flush, scan, reduce, close — over
// spaces with several overlapping views each, and every device configuration
// runs every script beside the model of spaces: each command must fail where
// the model's does, in the same class, and otherwise return the model's bytes
// and results. A phantom device stores no bytes, so the phantom arm is held to
// timing alone: each command's Stats must equal the hardware arm's on the
// same script with every payload zero — a scan's result size, and with it its
// record, is data. A failing
// script is shrunk by dropping commands one at a time while it still fails,
// and printed for testdata/scripts, every script of which each run replays.

// scriptOp is one command of a model script. Spaces and views are named by the
// order the script created or opened them in; a command naming one the script
// never made is skipped.
type scriptOp struct {
	Op     string       `json:"op"`
	Space  int          `json:"space,omitempty"`
	View   int          `json:"view,omitempty"`
	Elem   int          `json:"elem,omitempty"`
	Dims   []int64      `json:"dims,omitempty"` // create, open; resize takes Dims[0]
	Coord  []int64      `json:"coord,omitempty"`
	Sub    []int64      `json:"sub,omitempty"`
	Seed   int64        `json:"seed,omitempty"` // a write's payload
	Bad    bool         `json:"bad,omitempty"`  // a write's payload is a byte short
	Scan   *ScanQuery   `json:"scan,omitempty"`
	Reduce *ReduceQuery `json:"reduce,omitempty"`
}

// scriptConfigs are the configurations every script runs on; the first is the
// hardware arm the phantom one is timed against.
var scriptConfigs = []struct {
	name string
	opts Options
}{
	{"hardware", Options{Mode: ModeHardware, CapacityHint: 16 << 20}},
	{"software", Options{Mode: ModeSoftware, CapacityHint: 16 << 20}},
	{"cached", Options{Mode: ModeHardware, CapacityHint: 16 << 20, CacheBytes: 4 << 20, PrefetchDepth: 2}},
	{"compressed", Options{Mode: ModeHardware, CapacityHint: 16 << 20, Compress: true}},
	{"encrypted", Options{Mode: ModeSoftware, CapacityHint: 16 << 20, EncryptionKey: []byte("0123456789abcdef")}},
	{"write-buffered", Options{Mode: ModeHardware, CapacityHint: 16 << 20, WriteBuffering: true}},
	{"zero-elided", Options{Mode: ModeHardware, CapacityHint: 16 << 20, ZeroPageElision: true}},
	{"faulted", Options{Mode: ModeHardware, CapacityHint: 16 << 20,
		Faults: &FaultPlan{Seed: 5, ProgramFailEvery: 11, ReadRetryEvery: 6}}},
	{"qos", Options{Mode: ModeHardware, CapacityHint: 16 << 20, TenantQoS: &TenantQoS{Weight: 1}}},
	{"phantom", Options{Mode: ModeHardware, CapacityHint: 16 << 20, Phantom: true}},
}

// TestModelScripts runs twenty generated scripts and every committed one on
// every configuration.
func TestModelScripts(t *testing.T) {
	type script struct {
		name string
		ops  []scriptOp
	}
	var scripts []script
	for seed := int64(1); seed <= 20; seed++ {
		scripts = append(scripts, script{fmt.Sprintf("seed%02d", seed), genScript(seed)})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "scripts", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		scripts = append(scripts, script{strings.TrimSuffix(filepath.Base(f), ".jsonl"), loadScript(t, f)})
	}
	kinds := map[string]int{}
	for _, sc := range scripts {
		for _, op := range sc.ops {
			kinds[op.Op]++
		}
		t.Run(sc.name, func(t *testing.T) {
			for i, cfg := range scriptConfigs {
				fails := func(ops []scriptOp) error {
					var ref []Stats
					if cfg.opts.Phantom {
						// A phantom device times like a hardware one whose every
						// byte reads zero: a pushdown result's size is data.
						zeros := slices.Clone(ops)
						for i := range zeros {
							zeros[i].Seed = 0
						}
						var err error
						if ref, err = runScript(scriptConfigs[0].opts, zeros, nil); err != nil {
							return fmt.Errorf("hardware arm: %w", err)
						}
					}
					_, err := runScript(cfg.opts, ops, ref)
					return err
				}
				if err := fails(sc.ops); err != nil {
					ops := shrinkScript(sc.ops, fails)
					t.Errorf("%s: %v\nshrunk to %d of %d commands (%v); commit as testdata/scripts/<name>.jsonl:\n%s",
						cfg.name, err, len(ops), len(sc.ops), fails(ops), encodeScript(ops))
					if i == 0 {
						return // the hardware arm failed: the rest would say the same
					}
				}
			}
		})
	}
	for _, k := range []string{"create", "open", "read", "segments", "write", "resize", "delete", "flush", "scan", "reduce", "close"} {
		if kinds[k] == 0 {
			t.Errorf("no script has a %s", k)
		}
	}
}

// runScript runs ops on a device opened with opts beside the model, and
// returns every command's Stats (zero for those without) or the first
// disagreement. ref, when given, is the Stats the device must reproduce.
func runScript(opts Options, ops []scriptOp, ref []Stats) ([]Stats, error) {
	d, err := Open(opts)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	m := spec.New()
	var (
		ids    []SpaceID
		mids   []uint32
		views  []*Space
		mviews []*spec.View
	)
	out := make([]Stats, len(ops))
	for i, op := range ops {
		fail := func(format string, args ...any) ([]Stats, error) {
			return nil, fmt.Errorf("command %d %s: %s", i, strings.TrimSpace(encodeScript(ops[i:i+1])), fmt.Sprintf(format, args...))
		}
		var (
			st         Stats
			err, merr  error
			got, want  []byte // bytes read, and the model's
			gres, mres any    // a scan's or reduce's results
		)
		switch {
		case op.Op == "create":
			var id SpaceID
			var mid uint32
			id, err = d.CreateSpace(op.Elem, op.Dims)
			if mid, merr = m.Create(op.Elem, op.Dims); err == nil && merr == nil {
				ids, mids = append(ids, id), append(mids, mid)
			}
		case op.Op == "flush":
			err = d.Flush()
			m.Flush()
		case op.Op == "open" || op.Op == "resize" || op.Op == "delete":
			if op.Space >= len(ids) {
				continue
			}
			id, mid := ids[op.Space], mids[op.Space]
			switch op.Op {
			case "open":
				var v *Space
				var mv *spec.View
				v, err = d.OpenSpace(id, op.Dims)
				if mv, merr = m.Open(mid, op.Dims); err == nil && merr == nil {
					views, mviews = append(views, v), append(mviews, mv)
				}
			case "resize":
				err, merr = d.ResizeSpace(id, op.Dims[0]), m.Resize(mid, op.Dims[0])
			default:
				err, merr = d.DeleteSpace(id), m.Delete(mid)
			}
		default:
			if op.View >= len(views) {
				continue
			}
			v, mv := views[op.View], mviews[op.View]
			switch op.Op {
			case "close":
				err, merr = v.Close(), mv.Close()
			case "read":
				got, st, err = v.Read(op.Coord, op.Sub)
				want, merr = mv.Read(op.Coord, op.Sub)
			case "segments":
				st, err = v.ReadSegments(op.Coord, op.Sub, func(n int64, segs []Segment) error {
					got = make([]byte, n)
					for _, sg := range segs {
						copy(got[sg.Dst:], sg.Src)
					}
					return nil
				})
				want, merr = mv.Read(op.Coord, op.Sub)
			case "write":
				part, _ := mv.Read(op.Coord, op.Sub) // sizes the payload; its error is the write's
				data := scriptPayload(op.Seed, len(part))
				if op.Bad && len(data) > 0 {
					data = data[1:]
				}
				st, err = v.Write(op.Coord, op.Sub, data)
				merr = mv.Write(op.Coord, op.Sub, data)
			case "scan":
				var r ScanResult
				var mr spec.ScanResult
				r, st, err = v.Scan(op.Coord, op.Sub, *op.Scan)
				mr, merr = mv.Scan(op.Coord, op.Sub, specScan(*op.Scan))
				if err == nil && merr == nil && !sameScan(r, mr) {
					gres, mres = r, mr
				}
			case "reduce":
				var r ReduceResult
				var mr spec.ReduceResult
				r, st, err = v.Reduce(op.Coord, op.Sub, *op.Reduce)
				mr, merr = mv.Reduce(op.Coord, op.Sub, specReduce(*op.Reduce))
				if err == nil && merr == nil && !sameReduce(r, mr) {
					gres, mres = r, mr
				}
			}
		}
		switch {
		case !sameClass(err, merr):
			return fail("the device says %v, the model %v", err, merr)
		case opts.Phantom: // no bytes: timing alone
		case !bytes.Equal(got, want):
			n := min(len(got), len(want))
			return fail("%d bytes, the model's %d, first differing at byte %d", len(got), len(want), firstDiff(got[:n], want[:n]))
		case gres != nil:
			return fail("the device says %+v, the model %+v", gres, mres)
		}
		if ref != nil && st != ref[i] {
			return fail("Stats %+v, the hardware arm's %+v", st, ref[i])
		}
		out[i] = st
	}
	return out, nil
}

// sameClass reports whether a device error and a model error agree: both nil,
// or the same class of failure.
func sameClass(err, merr error) bool {
	switch {
	case err == nil || merr == nil:
		return err == nil && merr == nil
	case errors.Is(merr, spec.ErrClosed):
		return errors.Is(err, ErrClosedView)
	case errors.Is(merr, spec.ErrUnknownSpace):
		return errors.Is(err, stl.ErrUnknownSpace)
	case errors.Is(merr, spec.ErrBounds):
		return errors.Is(err, stl.ErrBounds)
	}
	return errors.Is(merr, spec.ErrInvalid) && errors.Is(err, stl.ErrInvalid)
}

// shrinkScript drops commands one at a time, last first, keeping each drop
// after which the script still fails, until a pass drops none.
func shrinkScript(ops []scriptOp, fails func([]scriptOp) error) []scriptOp {
	for dropped := true; dropped; {
		dropped = false
		for i := len(ops) - 1; i >= 0; i-- {
			if cand := slices.Delete(slices.Clone(ops), i, i+1); fails(cand) != nil {
				ops, dropped = cand, true
			}
		}
	}
	return ops
}

// encodeScript writes ops as JSON lines, the form testdata/scripts keeps.
func encodeScript(ops []scriptOp) string {
	var b strings.Builder
	for _, op := range ops {
		line, _ := json.Marshal(op)
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func loadScript(t *testing.T, path string) []scriptOp {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ops []scriptOp
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var op scriptOp
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ops = append(ops, op)
	}
	return ops
}

// scriptPayload is a write's n bytes: runs of one byte, a quarter of them
// zeros, so compression and zero elision both have work — or, for seed 0,
// zeros alone.
func scriptPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := 0; seed != 0 && i < n; {
		v := byte(rng.Intn(256))
		if rng.Intn(4) == 0 {
			v = 0
		}
		for end := min(n, i+1+rng.Intn(64)); i < end; i++ {
			b[i] = v
		}
	}
	return b
}

// genScript generates a script of about sixty commands: a space or two, each
// opened in several shapes, then a mix of every command. The generator tracks
// what it made so most commands are valid, and aims a few at closed views,
// deleted spaces and out-of-bounds partitions on purpose.
func genScript(seed int64) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	type space struct {
		elem  int
		dims  []int64
		alive bool
	}
	type view struct {
		space int
		dims  []int64
		open  bool
	}
	var (
		ops    []scriptOp
		spaces []space
		views  []view
	)
	create := func() {
		elem := []int{1, 2, 4, 8, 8, 4, 2, 4, 8, 1, 4, 3}[rng.Intn(12)] // 3: no pushdown
		var dims []int64
		switch rng.Intn(5) {
		case 0:
			dims = []int64{64 + rng.Int63n(8000)}
		case 1:
			dims = []int64{2 + rng.Int63n(6), 4 + rng.Int63n(28), 4 + rng.Int63n(60)}
		default:
			dims = []int64{8 + rng.Int63n(200), 8 + rng.Int63n(150)}
		}
		ops = append(ops, scriptOp{Op: "create", Elem: elem, Dims: dims})
		spaces = append(spaces, space{elem, dims, true})
	}
	open := func(s int) {
		dims := randomShape(rng, spaces[s].dims)
		ops = append(ops, scriptOp{Op: "open", Space: s, Dims: dims})
		views = append(views, view{s, dims, spaces[s].alive})
	}
	retire := func(s int) {
		for i := range views {
			if views[i].space == s {
				views[i].open = false
			}
		}
	}
	// pickView picks an open view; one time in twenty, any view at all.
	pickView := func() int {
		var open []int
		for i, v := range views {
			if v.open {
				open = append(open, i)
			}
		}
		if len(open) == 0 || rng.Intn(20) == 0 {
			return rng.Intn(len(views))
		}
		return open[rng.Intn(len(open))]
	}
	partition := func(dims []int64) (coord, sub []int64) {
		for _, d := range dims {
			s := []int64{1, max(1, d/4), max(1, d/2), d, 1 + rng.Int63n(d)}[rng.Intn(5)]
			parts := (d + s - 1) / s
			c := rng.Int63n(parts)
			if rng.Intn(40) == 0 {
				c = parts // past the edge
			}
			coord, sub = append(coord, c), append(sub, s)
		}
		return coord, sub
	}
	create()
	for v := 0; v < 3; v++ {
		open(0)
	}
	for len(ops) < 60 {
		r := rng.Intn(100)
		switch {
		case r < 4:
			create()
			open(len(spaces) - 1)
		case r < 10:
			open(rng.Intn(len(spaces)))
		case r < 14:
			v := pickView()
			ops = append(ops, scriptOp{Op: "close", View: v})
			views[v].open = false
		case r < 20:
			s := rng.Intn(len(spaces))
			dim0 := 1 + rng.Int63n(2*spaces[s].dims[0])
			ops = append(ops, scriptOp{Op: "resize", Space: s, Dims: []int64{dim0}})
			if spaces[s].alive {
				spaces[s].dims = append([]int64{dim0}, spaces[s].dims[1:]...)
				retire(s)
				open(s)
			}
		case r < 22:
			s := rng.Intn(len(spaces))
			ops = append(ops, scriptOp{Op: "delete", Space: s})
			spaces[s].alive = false
			retire(s)
			create() // so the script has a live space to go on with
			open(len(spaces) - 1)
		case r < 27:
			ops = append(ops, scriptOp{Op: "flush"})
		default:
			v := pickView()
			op := scriptOp{View: v}
			op.Coord, op.Sub = partition(views[v].dims)
			switch k := rng.Intn(100); {
			case k < 35:
				op.Op, op.Seed, op.Bad = "write", 1+rng.Int63n(1<<62), rng.Intn(30) == 0
			case k < 55:
				op.Op = "read"
			case k < 65:
				op.Op = "segments"
			case k < 82:
				op.Op = "scan"
				lo := rng.Uint64() >> (64 - 8*min(uint(spaces[views[v].space].elem), 8))
				op.Scan = &ScanQuery{Pred: Predicate{Lo: lo, Hi: lo + rng.Uint64()>>rng.Intn(64)}, Cursor: rng.Int63n(4), Max: rng.Intn(6)}
				if op.Scan.Pred.Hi < lo {
					op.Scan.Pred.Hi = ^uint64(0)
				}
			default:
				op.Op = "reduce"
				op.Reduce = &ReduceQuery{Kind: ReduceKind(1 + rng.Intn(5)), K: 1 + rng.Intn(12)}
				if rng.Intn(2) == 0 {
					op.Reduce.Pred = &Predicate{Lo: 0, Hi: rng.Uint64() >> rng.Intn(64)}
				}
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// randomShape returns a shape of the volume of dims, in one to three
// dimensions: dims itself, or its volume factored at random.
func randomShape(rng *rand.Rand, dims []int64) []int64 {
	vol := int64(1)
	for _, d := range dims {
		vol *= d
	}
	if rng.Intn(3) == 0 {
		return append([]int64(nil), dims...)
	}
	out := make([]int64, 1+rng.Intn(3))
	for i := range out[:len(out)-1] {
		var divs []int64
		for f := int64(1); f*f <= vol; f++ {
			if vol%f == 0 {
				divs = append(divs, f, vol/f)
			}
		}
		out[i] = divs[rng.Intn(len(divs))]
		vol /= out[i]
	}
	out[len(out)-1] = vol
	return out
}
