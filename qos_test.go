package nds

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nds/internal/proto"
)

// TestQoSOffDifferential pins the PR 7 timing invariant across the QoS gate:
// a device with tenant QoS enabled at equal weights and no rate limit must be
// bit- and simulated-time-identical to one without the feature for any
// serialized issue order — the gate runs in wall-clock time before the space
// lock and never touches a sim timeline. Every op's Stats and the devices'
// final clocks are compared field for field.
func TestQoSOffDifferential(t *testing.T) {
	type opRec struct {
		stats Stats
		data  []byte
	}
	run := func(qos *TenantQoS) ([]opRec, time.Duration) {
		d, err := Open(Options{
			Mode:         ModeHardware,
			CapacityHint: 16 << 20,
			TenantQoS:    qos,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var recs []opRec
		for s := 0; s < 2; s++ {
			id, err := d.CreateSpace(4, []int64{256, 256})
			if err != nil {
				t.Fatal(err)
			}
			v, err := d.OpenSpace(id, []int64{256, 256})
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 64*256*4)
			rng := rand.New(rand.NewSource(int64(40 + s)))
			for band := int64(0); band < 4; band++ {
				rng.Read(payload)
				st, err := v.Write([]int64{band, 0}, []int64{64, 256}, payload)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, opRec{stats: st})
				data, st, err := v.Read([]int64{band, 0}, []int64{64, 256})
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, opRec{stats: st, data: data})
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return recs, d.Now()
	}

	off, offNow := run(nil)
	on, onNow := run(&TenantQoS{Weight: 1})
	if offNow != onNow {
		t.Fatalf("final simulated clocks differ: QoS off %v, QoS on %v", offNow, onNow)
	}
	if len(off) != len(on) {
		t.Fatalf("op counts differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if off[i].stats != on[i].stats {
			t.Fatalf("op %d stats differ:\n  QoS off: %+v\n  QoS on:  %+v", i, off[i].stats, on[i].stats)
		}
		if !bytes.Equal(off[i].data, on[i].data) {
			t.Fatalf("op %d payloads differ", i)
		}
	}
}

// TestTenantStatsWire drives get_tenant_stats (0xCD) end to end: per-space
// accounting accumulated through the public API must come back through the
// wire payload matching Device.TenantStats, including a group-bound space
// reporting under its group tenant.
func TestTenantStatsWire(t *testing.T) {
	d, err := Open(Options{
		Mode:         ModeHardware,
		CapacityHint: 16 << 20,
		TenantQoS:    &TenantQoS{Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	idA, err := d.CreateSpace(4, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := d.CreateSpace(4, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BindSpaceGroup(idB, 7); err != nil {
		t.Fatal(err)
	}
	// 1.005*1000 is 1004.999… in binary: the wire weight must round, not
	// truncate.
	if err := d.SetGroupQoS(7, TenantQoS{Weight: 1.005}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128*128*4)
	rand.New(rand.NewSource(3)).Read(payload)
	for _, id := range []SpaceID{idA, idB} {
		v, err := d.OpenSpace(id, []int64{128, 128})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Write([]int64{0, 0}, []int64{128, 128}, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.Read([]int64{0, 0}, []int64{128, 128}); err != nil {
			t.Fatal(err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}

	want := d.TenantStats()
	if len(want) != 2 {
		t.Fatalf("TenantStats returned %d tenants, want 2 (space A, group 7): %+v", len(want), want)
	}
	if want[0].IsGroup || want[0].Space != idA {
		t.Fatalf("first tenant = %+v, want space %d", want[0], idA)
	}
	if !want[1].IsGroup || want[1].Group != 7 {
		t.Fatalf("second tenant = %+v, want group 7", want[1])
	}
	for i, ts := range want {
		if ts.Ops != 2 || ts.Bytes != 2*int64(len(payload)) {
			t.Fatalf("tenant %d accounting = %+v, want 2 ops / %d bytes", i, ts, 2*len(payload))
		}
		if ts.SimBusy <= 0 {
			t.Fatalf("tenant %d SimBusy = %v, want > 0", i, ts.SimBusy)
		}
	}

	page, cpl, _, err := d.Exec(proto.NewTenantStats(0x4000).Marshal(), nil, nil)
	if err != nil || cpl.Status != proto.StatusOK {
		t.Fatalf("get_tenant_stats: %v / %v", cpl.Status, err)
	}
	if cpl.Result0 != uint64(len(want)) {
		t.Fatalf("get_tenant_stats Result0 = %d, want %d", cpl.Result0, len(want))
	}
	got, err := proto.UnmarshalTenantStatsPayload(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != int64(len(want)) || len(got.Entries) != len(want) {
		t.Fatalf("wire payload total %d / %d entries, want %d", got.Total, len(got.Entries), len(want))
	}
	for i, e := range got.Entries {
		w := want[i]
		wantTenant := uint64(w.Space)
		if w.IsGroup {
			wantTenant = proto.TenantGroupBit | uint64(w.Group)
		}
		if e.Tenant != wantTenant {
			t.Fatalf("entry %d tenant %#x, want %#x", i, e.Tenant, wantTenant)
		}
		if wantMilli := []int64{1000, 1005}[i]; e.WeightMilli != wantMilli {
			t.Fatalf("entry %d weight %d milli, want %d", i, e.WeightMilli, wantMilli)
		}
		if e.Ops != w.Ops || e.Bytes != w.Bytes || e.SimBusyNs != int64(w.SimBusy) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, w)
		}
	}
}

// TestTenantStatsWireQoSOff: the stats opcode on a QoS-disabled device is not
// an error — it answers OK with zero tenants, so a monitoring client can poll
// without knowing the server's configuration.
func TestTenantStatsWireQoSOff(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	page, cpl, _, err := d.Exec(proto.NewTenantStats(0x4000).Marshal(), nil, nil)
	if err != nil || cpl.Status != proto.StatusOK {
		t.Fatalf("get_tenant_stats: %v / %v", cpl.Status, err)
	}
	if cpl.Result0 != 0 {
		t.Fatalf("Result0 = %d, want 0 tenants", cpl.Result0)
	}
	got, err := proto.UnmarshalTenantStatsPayload(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 0 || len(got.Entries) != 0 {
		t.Fatalf("payload = %+v, want empty", got)
	}
}

// TestQoSThrottleHoldsNoBarrier: a tenant asleep in its token bucket holds no
// lock anyone else needs. At 1 KiB/s with a 4 KiB bucket, a tenant's second
// 16 KiB write sleeps about four seconds before admission; meanwhile
// CreateSpace, Flush and another tenant's read each return within a second.
func TestQoSThrottleHoldsNoBarrier(t *testing.T) {
	d, err := Open(Options{
		Mode:         ModeHardware,
		CapacityHint: 8 << 20,
		TenantQoS:    &TenantQoS{RateBytesPerSec: 1024, Burst: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	dims := []int64{64, 64}
	views := make([]*Space, 2)
	for i := range views {
		id, err := d.CreateSpace(4, dims)
		if err != nil {
			t.Fatal(err)
		}
		if views[i], err = d.OpenSpace(id, dims); err != nil {
			t.Fatal(err)
		}
	}
	capped, other := views[0], views[1]
	payload := make([]byte, 64*64*4)
	if _, err := capped.Write([]int64{0, 0}, dims, payload); err != nil { // empties the bucket
		t.Fatal(err)
	}
	start := time.Now()
	slept := make(chan time.Duration)
	go func() {
		if _, err := capped.Write([]int64{0, 0}, dims, payload); err != nil {
			t.Error(err)
		}
		slept <- time.Since(start)
	}()
	time.Sleep(200 * time.Millisecond) // the write is asleep in its bucket by now

	ops := []struct {
		name string
		run  func() error
	}{
		{"CreateSpace", func() error { _, err := d.CreateSpace(4, dims); return err }},
		{"Flush", d.Flush},
		{"another tenant's read", func() error { _, _, err := other.Read([]int64{0, 0}, dims); return err }},
	}
	took := make([]time.Duration, len(ops))
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = op.run()
			took[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	for i, op := range ops {
		if errs[i] != nil {
			t.Errorf("%s: %v", op.name, errs[i])
		}
		if took[i] >= time.Second {
			t.Errorf("%s took %v while a capped tenant slept in its bucket", op.name, took[i])
		}
	}
	if w := <-slept; w < 3*time.Second {
		t.Fatalf("the capped write returned after %v, want about 4 s in its bucket", w)
	}
}

// TestQoSRateLimitWallBound: a rate-capped tenant's second request must block
// in wall-clock time for at least the token-refill period (sleep-based waits
// only ever overshoot) and the wait must land in ThrottleNs.
func TestQoSRateLimitWallBound(t *testing.T) {
	d, err := Open(Options{
		Mode:         ModeHardware,
		CapacityHint: 8 << 20,
		TenantQoS:    &TenantQoS{Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.CreateSpace(4, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB/s with a 64 KiB bucket: the first 64 KiB read drains the full
	// bucket for free, the second must wait ~62 ms for refill.
	if err := d.SetTenantQoS(id, TenantQoS{Weight: 1, RateBytesPerSec: 1 << 20, Burst: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	v, err := d.OpenSpace(id, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, _, err := v.Read([]int64{0, 0}, []int64{128, 128}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, _, err := v.Read([]int64{0, 0}, []int64{128, 128}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)
	// 64 KiB at 1 MiB/s refills in 62.5 ms; allow generous headroom below for
	// the tokens the first read's own wall time put back.
	const lowerBound = 30 * time.Millisecond
	if elapsed < lowerBound {
		t.Fatalf("rate-capped read returned in %v, want >= %v of token-bucket wait", elapsed, lowerBound)
	}
	ts := d.TenantStats()
	if len(ts) != 1 || ts[0].Throttle < lowerBound {
		t.Fatalf("TenantStats = %+v, want one tenant throttled >= %v", ts, lowerBound)
	}
}
