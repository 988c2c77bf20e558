package ndsserver_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"nds"
	"nds/internal/ndsclient"
	"nds/internal/ndsserver"
	"nds/internal/proto"
	"nds/internal/spec"
)

// startPushdownServer is startServer with caller-controlled device options,
// for the pushdown-disabled configuration.
func startPushdownServer(t *testing.T, opts nds.Options) (*ndsclient.Client, *nds.Device) {
	t.Helper()
	dev, err := nds.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := ndsserver.New(dev, ndsserver.Config{})
	path := filepath.Join(t.TempDir(), "nds.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; !errors.Is(err, ndsserver.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		dev.Close()
	})
	return dial(t, "unix:"+path), dev
}

// TestServerPushdown drives pushdown_scan and pushdown_reduce through a live
// socket and checks every result against the bytes read back over the same
// connection.
func TestServerPushdown(t *testing.T) {
	c, _ := startPushdownServer(t, nds.Options{Mode: nds.ModeHardware, CapacityHint: 16 << 20})

	_, view, err := c.CreateSpace(8, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16*16*8)
	for i := 0; i < 16*16; i++ {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(i%37))
	}
	if err := c.Write(view, []int64{0, 0}, []int64{16, 16}, data); err != nil {
		t.Fatal(err)
	}

	// Host-side oracle from the partition bytes the server returns.
	raw, err := c.Read(view, []int64{0, 0}, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	var wantIdx []int64
	var wantSum, wantMax uint64
	var wantCount int64
	lo, hi := uint64(5), uint64(11)
	for i := 0; i < len(raw)/8; i++ {
		v := binary.LittleEndian.Uint64(raw[8*i:])
		if v >= lo && v <= hi {
			wantIdx = append(wantIdx, int64(i))
			wantSum += v
			wantCount++
		}
		if v > wantMax {
			wantMax = v
		}
	}

	res, err := c.Scan(view, []int64{0, 0}, []int64{16, 16}, lo, hi, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != int64(len(wantIdx)) || len(res.Matches) != len(wantIdx) || res.NextCursor != -1 {
		t.Fatalf("scan: total %d matches %d next %d, want %d complete", res.Total, len(res.Matches), res.NextCursor, len(wantIdx))
	}
	for i, m := range res.Matches {
		if m.Index != wantIdx[i] {
			t.Fatalf("scan match %d at index %d, want %d", i, m.Index, wantIdx[i])
		}
	}

	// Page-bounded scan resumes by cursor until the match set is covered.
	var paged []proto.ScanMatch
	cursor := int64(0)
	for {
		page, err := c.Scan(view, []int64{0, 0}, []int64{16, 16}, lo, hi, cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != int64(len(wantIdx)) {
			t.Fatalf("paged scan total %d, want %d", page.Total, len(wantIdx))
		}
		paged = append(paged, page.Matches...)
		if page.NextCursor < 0 {
			break
		}
		cursor = page.NextCursor
	}
	if len(paged) != len(wantIdx) {
		t.Fatalf("paged scan returned %d matches, want %d", len(paged), len(wantIdx))
	}
	for i, m := range paged {
		if m.Index != wantIdx[i] {
			t.Fatalf("paged match %d at index %d, want %d", i, m.Index, wantIdx[i])
		}
	}

	sum, err := c.Reduce(view, []int64{0, 0}, []int64{16, 16}, proto.ReduceOpSum, 0, &[2]uint64{lo, hi})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Value != wantSum || sum.Count != wantCount {
		t.Fatalf("reduce sum = %d/%d, want %d/%d", sum.Value, sum.Count, wantSum, wantCount)
	}
	max, err := c.Reduce(view, []int64{0, 0}, []int64{16, 16}, proto.ReduceOpMax, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if max.Value != wantMax {
		t.Fatalf("reduce max = %d, want %d", max.Value, wantMax)
	}
	topk, err := c.Reduce(view, []int64{0, 0}, []int64{16, 16}, proto.ReduceOpTopK, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.TopK) != 4 || topk.TopK[0].Value != wantMax {
		t.Fatalf("reduce top-4 = %+v, want best %d", topk.TopK, wantMax)
	}
	for i := 1; i < len(topk.TopK); i++ {
		if topk.TopK[i].Value > topk.TopK[i-1].Value {
			t.Fatalf("top-k not descending: %+v", topk.TopK)
		}
	}

	// Malformed queries come back as device statuses, not connection errors.
	if _, err := c.Scan(view, []int64{40, 40}, []int64{16, 16}, 0, 0, 0, 0); !ndsclient.IsStatus(err, proto.StatusInvalidField) {
		t.Fatalf("scan at out-of-bounds coordinate: %v", err)
	}
	if _, err := c.Scan(99999, []int64{0, 0}, []int64{16, 16}, 0, 0, 0, 0); !ndsclient.IsStatus(err, proto.StatusUnknownView) {
		t.Fatalf("scan on unknown view: %v", err)
	}
}

// TestServerPushdownDisabled checks that a server over a pushdown-disabled
// device answers unsupported_opcode — what a host probing an older drive
// sees — while the data path keeps working.
func TestServerPushdownDisabled(t *testing.T) {
	c, _ := startPushdownServer(t, nds.Options{
		Mode:            nds.ModeHardware,
		CapacityHint:    16 << 20,
		DisablePushdown: true,
	})

	_, view, err := c.CreateSpace(8, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*8*8)
	if err := c.Write(view, []int64{0, 0}, []int64{8, 8}, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scan(view, []int64{0, 0}, []int64{8, 8}, 0, 1, 0, 0); !ndsclient.IsStatus(err, proto.StatusUnsupportedOp) {
		t.Fatalf("scan on disabled server: %v", err)
	}
	if _, err := c.Reduce(view, []int64{0, 0}, []int64{8, 8}, proto.ReduceOpSum, 0, nil); !ndsclient.IsStatus(err, proto.StatusUnsupportedOp) {
		t.Fatalf("reduce on disabled server: %v", err)
	}
	// The data path is unaffected.
	if _, err := c.Read(view, []int64{0, 0}, []int64{8, 8}); err != nil {
		t.Fatalf("read on disabled server: %v", err)
	}
}

// TestServerScanPaging pages a 5 % scan of a 512×512 uint32 tile through a
// live socket with max 0 (fill the page) until the cursor ends. The request
// sizes its result: the one-value predicate [0, 0] takes no value bits, so
// a page holds Layout.Capacity (4 068) matches of the tile, and the scan's
// 13 108 take ⌈total/capacity⌉ = 4 round trips — three of them resumes —
// whose pages concatenate to the model's matches.
// It also pins what a resume costs today: every round trip walks the whole
// partition again (the device's page accesses, cache hits plus misses, grow
// by the partition's pages each time), because a resumed scan re-reads the
// partition from its start and skips the matches before the cursor.
func TestServerScanPaging(t *testing.T) {
	const n = 512
	c, dev := startPushdownServer(t, nds.Options{Mode: nds.ModeHardware, CapacityHint: 16 << 20, CacheBytes: 4 << 20})
	_, view, err := c.CreateSpace(4, []int64{n, n})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n*n*4)
	for i := 0; i < n*n; i++ {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(i%20))
	}
	coord, sub := []int64{0, 0}, []int64{n, n}
	if err := c.Write(view, coord, sub, data); err != nil {
		t.Fatal(err)
	}
	m := spec.New()
	id, _ := m.Create(4, []int64{n, n})
	mv, _ := m.Open(id, []int64{n, n})
	if err := mv.Write(coord, sub, data); err != nil {
		t.Fatal(err)
	}
	want, err := mv.Scan(coord, sub, spec.ScanQuery{Pred: spec.Predicate{Lo: 0, Hi: 0}})
	if err != nil {
		t.Fatal(err)
	}

	const partitionPages = n * n * 4 / 4096
	accesses := func() int64 { cs := dev.CacheStats(); return cs.Hits + cs.Misses }
	var got []proto.ScanMatch
	trips := 0
	for cursor := int64(0); cursor >= 0; trips++ {
		before := accesses()
		res, err := c.Scan(view, coord, sub, 0, 0, cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != want.Total {
			t.Fatalf("round trip %d: total %d, want %d", trips, res.Total, want.Total)
		}
		if delta := accesses() - before; delta != partitionPages {
			t.Fatalf("round trip %d (cursor %d) accessed %d pages, want the whole partition's %d", trips, cursor, delta, partitionPages)
		}
		got = append(got, res.Matches...)
		cursor = res.NextCursor
	}
	capacity := proto.LayoutFor(4, sub, 0, 0).Capacity(proto.OpScan)
	if wantTrips := (int(want.Total) + capacity - 1) / capacity; trips != wantTrips || trips < 3 {
		t.Fatalf("%d matches took %d round trips, want %d (%d a page)", want.Total, trips, wantTrips, capacity)
	}
	if len(got) != len(want.Matches) {
		t.Fatalf("pages hold %d matches, the model %d", len(got), len(want.Matches))
	}
	for i, m := range want.Matches {
		if got[i] != (proto.ScanMatch{Index: m.Index, Value: m.Value}) {
			t.Fatalf("match %d = %+v, the model's %+v", i, got[i], m)
		}
	}
}
