package nds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"nds/internal/proto"
	"nds/internal/sim"
	"nds/internal/spec"
)

// The pushdown differential: a Scan or Reduce must report exactly what the
// model computes from the partition's bytes — which the same partition's Read
// must return — on every device configuration the read path has; and because
// the operators ride the read path's segment plan, their device-side stats
// (payload bytes, flash pages, extents) must equal the equivalent Read's,
// access for access.

// pushdownQueries is the access pattern both devices execute per partition:
// one entry per sequence point, scan or reduce. Queries cover full-range and
// selective predicates, cursor paging with truncation, and every reduction
// kind with and without a predicate.
var pushdownQueries = []struct {
	scan   *ScanQuery
	reduce *ReduceQuery
}{
	{scan: &ScanQuery{Pred: Predicate{Lo: 0, Hi: ^uint64(0)}}},
	{scan: &ScanQuery{Pred: Predicate{Lo: 100, Hi: 999}}},
	{scan: &ScanQuery{Pred: Predicate{Lo: 100, Hi: 999}, Cursor: 64, Max: 5}},
	{scan: &ScanQuery{Pred: Predicate{Lo: 4000, Hi: 4001}}},
	{reduce: &ReduceQuery{Kind: ReduceSum}},
	{reduce: &ReduceQuery{Kind: ReduceSum, Pred: &Predicate{Lo: 100, Hi: 999}}},
	{reduce: &ReduceQuery{Kind: ReduceCount}},
	{reduce: &ReduceQuery{Kind: ReduceMin, Pred: &Predicate{Lo: 1, Hi: ^uint64(0)}}},
	{reduce: &ReduceQuery{Kind: ReduceMax}},
	{reduce: &ReduceQuery{Kind: ReduceTopK, K: 7}},
}

const recordPage = 4096 // the prototype geometry's flash page

// recordStream holds one view's commands to the contract of the one
// per-operation record (stl.RequestStats, which Stats and system.OpStats
// alias): whatever the configuration, the fields each layer fills in agree
// with the ones the layer below did.
type recordStream struct {
	t        *testing.T
	software bool
	issue    sim.Time // when the stream's next command issues
}

// read checks the record of a successful read-shaped command; out is what the
// consumer of a hardware device put on the link (the object, or a kernel's
// result). A software device ships the raw pages whatever the consumer.
func (r *recordStream) read(op string, st Stats, out int64) {
	r.t.Helper()
	if r.software {
		out = st.PagesRead * recordPage
	}
	r.check(op, st, out)
}

// write checks the record of a successful write: the object crosses to a
// hardware device, the programmed pages to an open-channel one.
func (r *recordStream) write(st Stats) {
	r.t.Helper()
	raw := st.Bytes
	if r.software {
		raw = st.PagesProgrammed * recordPage
	}
	r.check("write", st, raw)
}

func (r *recordStream) check(op string, st Stats, raw int64) {
	r.t.Helper()
	switch {
	case st.Commands != 1:
		r.t.Fatalf("%s: %d commands, want 1: %+v", op, st.Commands, st)
	case st.Pages != st.PagesRead+st.PagesProgrammed:
		r.t.Fatalf("%s: Pages %d is not PagesRead %d + PagesProgrammed %d", op, st.Pages, st.PagesRead, st.PagesProgrammed)
	case st.Done <= r.issue || st.Elapsed != time.Duration(st.Done-r.issue):
		r.t.Fatalf("%s: Elapsed %v, want Done %v minus the stream's issue time %v", op, st.Elapsed, st.Done, r.issue)
	case st.RawBytes != raw:
		r.t.Fatalf("%s: RawBytes %d, want %d: %+v", op, st.RawBytes, raw, st)
	}
	r.issue = st.Done
}

// TestDifferentialPushdownVsRead drives two identically-prepared devices
// through the same per-partition access sequence — one Reads, the other
// Scans/Reduces — and holds the reads' bytes and the operators' results to
// the model, both devices' Stats to the golden trace, and the operators'
// device-side stats to the read's at every sequence point, across the read
// path's configurations (both modes, cache+prefetch, compression, encryption,
// write buffering, zero elision, fault injection, and phantom devices). Every
// command's record is held to recordStream's contract on the way, and a
// failed command must return the zero record.
func TestDifferentialPushdownVsRead(t *testing.T) {
	configs := []struct {
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
		{"faults", Options{Mode: ModeHardware, CapacityHint: 16 << 20,
			Faults: &FaultPlan{Seed: 11, ProgramFailEvery: 7, ReadRetryEvery: 5}}},
		{"phantom", Options{Mode: ModeHardware, CapacityHint: 16 << 20, Phantom: true}},
	}
	const es = 8
	subs := [][]int64{{32, 32}, {16, 64}, {64, 128}}
	var tr spec.Trace

	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			tr.Add("== %s", cfg.name)
			m := spec.New()
			mid, _ := m.Create(es, []int64{128, 128})
			mv, _ := m.Open(mid, []int64{128, 128})
			setup := func(modelled bool) (*Device, *Space, *recordStream) {
				d := openTraced(t, cfg.opts)
				id, err := d.CreateSpace(es, []int64{128, 128})
				if err != nil {
					t.Fatal(err)
				}
				v, err := d.OpenSpace(id, []int64{128, 128})
				if err != nil {
					t.Fatal(err)
				}
				rec := &recordStream{t: t, software: cfg.opts.Mode == ModeSoftware, issue: sim.Time(d.Now())}
				write := func(coord, sub []int64, data []byte) {
					st, err := v.Write(coord, sub, data)
					if err != nil {
						t.Fatal(err)
					}
					rec.write(st)
					traceOp(&tr, "write", coord, sub, st)
					if modelled && !cfg.opts.Phantom { // a phantom device stores nothing: its model stays zeros
						mv.Write(coord, sub, data)
					}
				}
				// Write the left half with bounded values (runs of repeats so
				// compression engages), overwrite a sub-tile, zero the last
				// rows, and leave the right half unwritten: scans cross data,
				// zeros, and the seam.
				payload := make([]byte, 128*64*es)
				rng := rand.New(rand.NewSource(13))
				for i := 0; i < len(payload)/es; {
					v, n := uint64(rng.Intn(5000)), rng.Intn(16)+1
					for j := 0; j < n && i < len(payload)/es; j++ {
						binary.LittleEndian.PutUint64(payload[i*es:], v)
						i++
					}
				}
				write([]int64{0, 0}, []int64{128, 64}, payload)
				write([]int64{2, 1}, []int64{16, 32}, payload[:16*32*es])
				// Eight full rows of zeros: two whole pages, which elision releases.
				write([]int64{15, 0}, []int64{8, 128}, make([]byte, 8*128*es))
				return d, v, rec
			}

			rd, rv, rrec := setup(true) // the reading device
			defer rd.Close()
			pd, pv, prec := setup(false) // the pushdown device
			defer pd.Close()

			op := 0
			for _, sub := range subs {
				for c0 := int64(0); c0 < 128/sub[0]; c0 += 128 / sub[0] / 2 {
					coord := []int64{c0, 0}
					for _, q := range pushdownQueries {
						data, rst, err := rv.Read(coord, sub)
						if err != nil {
							t.Fatalf("op %d read: %v", op, err)
						}
						if data == nil { // phantom: no payload, all zeros
							data = make([]byte, rst.Bytes)
						}
						if want, _ := mv.Read(coord, sub); !bytes.Equal(data, want) {
							t.Fatalf("op %d sub=%v: read bytes differ from the model", op, sub)
						}
						rrec.read("read", rst, rst.Bytes)
						traceOp(&tr, "read", coord, sub, rst)
						var pst Stats
						if q.scan != nil {
							got, st, err := pv.Scan(coord, sub, *q.scan)
							if err != nil {
								t.Fatalf("op %d scan: %v", op, err)
							}
							if want, _ := mv.Scan(coord, sub, specScan(*q.scan)); !sameScan(got, want) {
								t.Fatalf("op %d sub=%v q=%+v: scan diverges from the model\n got %+v\nwant %+v",
									op, sub, *q.scan, got, want)
							}
							prec.read("scan", st, proto.LayoutFor(es, sub, q.scan.Pred.Lo, q.scan.Pred.Hi).ResultSize(proto.OpScan, int64(len(got.Matches))))
							pst = st
						} else {
							got, st, err := pv.Reduce(coord, sub, *q.reduce)
							if err != nil {
								t.Fatalf("op %d reduce: %v", op, err)
							}
							if want, _ := mv.Reduce(coord, sub, specReduce(*q.reduce)); !sameReduce(got, want) {
								t.Fatalf("op %d sub=%v q=%+v: reduce diverges from the model\n got %+v\nwant %+v",
									op, sub, *q.reduce, got, want)
							}
							lo, hi := uint64(0), ^uint64(0)
							if p := q.reduce.Pred; p != nil {
								lo, hi = p.Lo, p.Hi
							}
							prec.read("reduce", st, proto.LayoutFor(es, sub, lo, hi).ResultSize(proto.OpReduce, int64(len(got.TopK))))
							pst = st
						}
						traceOp(&tr, "pushdown", coord, sub, pst)
						// Device-side stats are the read's by construction:
						// same payload, same flash pages, same extents, same
						// relocations. What crosses the link differs by mode.
						if pst.Bytes != rst.Bytes || pst.Pages != rst.Pages ||
							pst.Extents != rst.Extents || pst.ProgramRetries != rst.ProgramRetries {
							t.Fatalf("op %d sub=%v: pushdown stats diverge from read\n pushdown: %+v\n read:     %+v",
								op, sub, pst, rst)
						}
						if cfg.opts.Mode == ModeSoftware && pst.RawBytes != rst.RawBytes {
							t.Fatalf("op %d: software pushdown moved %d link bytes, read moved %d — software NDS saves nothing",
								op, pst.RawBytes, rst.RawBytes)
						}
						op++
					}
				}
			}

			st, err := rv.ReadSegments([]int64{1, 0}, subs[0], func(int64, []Segment) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			rrec.read("segment read", st, st.Bytes)
			traceOp(&tr, "segment read", []int64{1, 0}, subs[0], st)
			if _, st, err = rv.Read([]int64{128, 0}, subs[0]); err == nil || st != (Stats{}) {
				t.Fatalf("out-of-bounds read: error %v, record %+v, want an error and the zero record", err, st)
			}
			if _, st, err = pv.Scan([]int64{128, 0}, subs[0], *pushdownQueries[0].scan); err == nil || st != (Stats{}) {
				t.Fatalf("out-of-bounds scan: error %v, record %+v, want an error and the zero record", err, st)
			}
			if st, err = pv.Write([]int64{128, 0}, subs[0], nil); err == nil || st != (Stats{}) {
				t.Fatalf("out-of-bounds write: error %v, record %+v, want an error and the zero record", err, st)
			}
		})
	}
	tr.Check(t, "TestDifferentialPushdownVsRead")
}

// TestPushdownInterconnectSavings pins the [P2] headline: on hardware NDS a
// selective scan's RawBytes (the result page) is a small fraction of the
// Read's (the raw partition), while software NDS moves every raw page either
// way.
func TestPushdownInterconnectSavings(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.CreateSpace(8, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.OpenSpace(id, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	data := make([]byte, 256*256*8)
	for i := 0; i < 256*256; i++ {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(i%1000))
	}
	if _, err := v.Write([]int64{0, 0}, []int64{256, 256}, data); err != nil {
		t.Fatal(err)
	}

	_, rst, err := v.Read([]int64{0, 0}, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	res, sst, err := v.Scan([]int64{0, 0}, []int64{256, 256}, ScanQuery{Pred: Predicate{Lo: 0, Hi: 9}})
	if err != nil {
		t.Fatal(err)
	}
	// i%1000 in [0,9]: ten hits per full thousand plus the partial cycle.
	want := int64(256*256/1000)*10 + 10
	if res.Total != want {
		t.Fatalf("1%% scan matched %d of %d, want %d", res.Total, 256*256, want)
	}
	if sst.RawBytes*10 > rst.RawBytes {
		t.Fatalf("1%% scan moved %d link bytes vs read's %d: want >=10x savings", sst.RawBytes, rst.RawBytes)
	}
	if sst.Elapsed <= 0 || sst.Pages != rst.Pages {
		t.Fatalf("scan stats inconsistent with read: %+v vs %+v", sst, rst)
	}
}

// TestPushdownWireMatchesModel holds the hardware model to the wire: for
// every element width, a partition of 2^10 elements and one asked for as
// 2^33, and predicate spans of one value, about 1 %, every value and (below
// 8-byte elements) values past the element's max, the RawBytes a scan or a
// reduction charges is the length of the result Exec encodes for the same
// request, which is LayoutFor's ResultSize of what it holds. The 2^33
// request takes 33-bit indexes although the space's edge clamps it to 4 096
// elements. No result is longer than it was in the byte layout the packed
// one replaced, and an empty result is still its header alone.
func TestPushdownWireMatchesModel(t *testing.T) {
	type span struct{ lo, hi uint64 }
	for _, es := range []int{1, 2, 4, 8} {
		d, err := Open(Options{Mode: ModeHardware, CapacityHint: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		id, err := d.CreateSpace(es, []int64{64, 64})
		if err != nil {
			t.Fatal(err)
		}
		v, err := d.OpenSpace(id, []int64{64, 64})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64*64*es)
		for i := 0; i < 64*64; i++ {
			data[i*es] = byte(i * 7) // values 0..255 at every width
		}
		if _, err := v.Write([]int64{0, 0}, []int64{64, 64}, data); err != nil {
			t.Fatal(err)
		}
		spans := []span{{7, 7}, {0, 2}, {0, ^uint64(0)}}
		if es < 8 {
			spans = append(spans, span{1 << (8 * es), 1<<(8*es) + 10})
		}
		for _, sub := range [][]int64{{32, 32}, {1 << 16, 1 << 17}} {
			elems := min(sub[0], 64) * min(sub[1], 64) // what the space's edge leaves
			wire := func(cmd proto.Command, pl interface{ Marshal() ([]byte, error) }) []byte {
				t.Helper()
				page, err := pl.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				out, cpl, st, err := d.Exec(cmd.Marshal(), page, nil)
				if err != nil || cpl.Status != proto.StatusOK {
					t.Fatalf("es %d sub %v %v: %v / %v", es, sub, cmd.Opcode(), cpl.Status, err)
				}
				if int64(len(out)) != st.RawBytes {
					t.Fatalf("es %d sub %v %v: the wire carries %d bytes, the model charges %d",
						es, sub, cmd.Opcode(), len(out), st.RawBytes)
				}
				return out
			}
			for _, q := range spans {
				layout := proto.LayoutFor(es, sub, q.lo, q.hi)
				sized := func(op proto.Opcode, out []byte, records int) {
					t.Helper()
					if want := layout.ResultSize(op, int64(records)); int64(len(out)) != want {
						t.Fatalf("es %d sub %v %v: %v result %d bytes, want %d", es, sub, q, op, len(out), want)
					}
					for _, n := range []int{0, 1, records} {
						if got, old := layout.ResultSize(op, int64(n)), byteLayoutSize(es, sub, op, n); got > old {
							t.Fatalf("es %d sub %v %v: %d %v records take %d bytes, %d in the byte layout", es, sub, q, n, op, got, old)
						}
					}
					if empty, want := layout.ResultSize(op, 0), byteLayoutSize(es, sub, op, 0); empty != want {
						t.Fatalf("es %d sub %v %v: an empty %v result is %d bytes, want %d", es, sub, q, op, empty, want)
					}
				}
				pl := proto.ScanPayload{Coord: []int64{0, 0}, Sub: sub, Lo: q.lo, Hi: q.hi}
				out := wire(proto.NewScan(v.WireID(), 0), pl)
				res, err := proto.UnmarshalScanResultPayload(out, pl)
				if err != nil {
					t.Fatal(err)
				}
				sized(proto.OpScan, out, len(res.Matches))
				if full := int64(layout.Capacity(proto.OpScan)) < elems; q.hi == ^uint64(0) &&
					(int64(len(res.Matches)) != min(int64(layout.Capacity(proto.OpScan)), elems) || (res.NextCursor >= 0) != full) {
					t.Fatalf("es %d sub %v: full-range scan returned %d matches (next %d), capacity %d of %d elements",
						es, sub, len(res.Matches), res.NextCursor, layout.Capacity(proto.OpScan), elems)
				}
				for _, r := range []proto.ReducePayload{{Op: proto.ReduceOpTopK, K: 10}, {Op: proto.ReduceOpSum}} {
					r.Coord, r.Sub = []int64{0, 0}, sub
					if q != (span{0, ^uint64(0)}) {
						r.HasPred, r.Lo, r.Hi = true, q.lo, q.hi
					}
					out := wire(proto.NewReduce(v.WireID(), 0), r)
					res, err := proto.UnmarshalReduceResultPayload(out, r)
					if err != nil {
						t.Fatal(err)
					}
					sized(proto.OpReduce, out, len(res.TopK))
				}
			}
		}
		d.Close()
	}
}

// byteLayoutSize is a result's length in the byte layout that bit packing
// replaced: a 4-byte index (8 past 2^32 elements) and the element's own
// width a record.
func byteLayoutSize(es int, sub []int64, op proto.Opcode, records int) int64 {
	index, hdr := int64(4), int64(24)
	if sub[0]*sub[1] > 1<<32 {
		index = 8
	}
	if op == proto.OpReduce {
		hdr = 32
	}
	return hdr + int64(records)*(index+int64(es))
}

// TestPushdownQoSCharging checks that pushdown operators pass through tenant
// admission like reads: the scanned payload bytes land in the tenant's
// accounting.
func TestPushdownQoSCharging(t *testing.T) {
	d, err := Open(Options{
		Mode:         ModeHardware,
		CapacityHint: 16 << 20,
		TenantQoS:    &TenantQoS{Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.CreateSpace(8, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.OpenSpace(id, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	data := make([]byte, 64*64*8)
	if _, err := v.Write([]int64{0, 0}, []int64{64, 64}, data); err != nil {
		t.Fatal(err)
	}
	before := d.TenantStats()
	if len(before) != 1 {
		t.Fatalf("tenants = %d", len(before))
	}
	const scans = 3
	for i := 0; i < scans; i++ {
		if _, _, err := v.Scan([]int64{0, 0}, []int64{64, 64}, ScanQuery{Pred: Predicate{Lo: 1, Hi: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := v.Reduce([]int64{0, 0}, []int64{64, 64}, ReduceQuery{Kind: ReduceSum}); err != nil {
		t.Fatal(err)
	}
	after := d.TenantStats()
	wantOps := before[0].Ops + scans + 1
	wantBytes := before[0].Bytes + (scans+1)*64*64*8
	if after[0].Ops != wantOps || after[0].Bytes != wantBytes {
		t.Fatalf("tenant accounting: ops %d bytes %d, want %d / %d",
			after[0].Ops, after[0].Bytes, wantOps, wantBytes)
	}
}

// TestPushdownDisabledTyped checks the typed API's capability gate.
func TestPushdownDisabledTyped(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 16 << 20, DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.CreateSpace(8, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.OpenSpace(id, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, _, err := v.Scan([]int64{0, 0}, []int64{16, 16}, ScanQuery{}); !errors.Is(err, ErrPushdownDisabled) {
		t.Fatalf("scan on disabled device: %v", err)
	}
	if _, _, err := v.Reduce([]int64{0, 0}, []int64{16, 16}, ReduceQuery{Kind: ReduceMax}); !errors.Is(err, ErrPushdownDisabled) {
		t.Fatalf("reduce on disabled device: %v", err)
	}
	// Closed views report closure regardless of capability.
	v.Close()
	if _, _, err := v.Scan([]int64{0, 0}, []int64{16, 16}, ScanQuery{}); !errors.Is(err, ErrClosedView) {
		t.Fatalf("scan on closed view: %v", err)
	}
}
