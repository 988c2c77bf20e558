package main

import (
	"bytes"
	"sync"
	"time"

	"nds/internal/proto"
	"nds/internal/sim"
)

// protoExtras times the four framing steps of one round trip, on frames
// shaped like the workload's reads: a coordinate page out, one tile back.
func protoExtras(w *workload, in *inputs, from int, res *result) {
	op := &in.ops[from]
	page, err := proto.CoordPayload{Coord: op.Coord[:], Sub: op.Sub[:]}.Marshal()
	if err != nil {
		res.note("proto probe: %v", err)
		return
	}
	req := proto.Request{Seq: 1, Cmd: proto.NewRead(1, 0).Marshal(), Payload: page}
	resp := proto.Response{Seq: 1, Cpl: proto.Completion{Status: proto.StatusOK}, Data: make([]byte, w.payload)}
	const reps = 20000
	var buf bytes.Buffer
	per := func(fn func()) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return float64(time.Since(t0)) / reps
	}
	res.set("proto.req_encode_ns", per(func() {
		buf.Reset()
		err = proto.WriteRequest(&buf, req)
	}), "ns")
	reqFrame := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(reqFrame)
	res.set("proto.req_decode_ns", per(func() {
		rd.Reset(reqFrame)
		_, err = proto.ReadRequest(rd, 0)
	}), "ns")
	res.set("proto.resp_encode_ns", per(func() {
		buf.Reset()
		err = proto.WriteResponse(&buf, resp)
	}), "ns")
	respFrame := append([]byte(nil), buf.Bytes()...)
	res.set("proto.resp_decode_ns", per(func() {
		rd.Reset(respFrame)
		_, err = proto.ReadResponse(rd, 0)
	}), "ns")
	if err != nil {
		res.note("proto probe: %v", err)
	}
}

// nvmExtras times the flash array's three operations in batches of one
// block's worth of pages, on an array of the workload's geometry, and the
// page read again with byte storage off (what paper_figs pays).
func nvmExtras(w *workload, res *result) {
	const batch, reps = 256, 64
	timeBatches := func(phantom bool, p opResult) (float64, bool) {
		ww := *w
		ww.phantom = phantom
		plan := make([]opResult, reps)
		for i := range plan {
			plan[i] = p
		}
		e, err := buildNVM(&ww, plan)
		if err != nil {
			res.note("nvm probe: %v", err)
			return 0, false
		}
		var total time.Duration
		for range plan {
			if err := e.between(); err != nil {
				res.note("nvm probe: %v", err)
				return 0, false
			}
			t0 := time.Now()
			_, err := e.do(nil, nil)
			total += time.Since(t0)
			if err != nil {
				res.note("nvm probe: %v", err)
				return 0, false
			}
		}
		return float64(total) / reps, true
	}
	if v, ok := timeBatches(w.phantom, opResult{ReadPages: batch}); ok {
		res.set("nvm.read_ns_per_page", v/batch, "ns")
	}
	if v, ok := timeBatches(w.phantom, opResult{ProgPages: batch}); ok {
		res.set("nvm.program_ns_per_page", v/batch, "ns")
	}
	if v, ok := timeBatches(w.phantom, opResult{GCErases: 8}); ok {
		res.set("nvm.erase_ns", v/8, "ns")
	}
	if v, ok := timeBatches(true, opResult{ReadPages: batch}); ok {
		res.set("nvm.phantom_read_ns_per_page", v/batch, "ns")
	}
}

// simExtras times the timeline primitives every simulated operation is
// built from.
func simExtras(res *result) {
	const n = 200000
	r := sim.NewResource("probe")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Acquire(sim.Time(i)*10, 5) // arrives after the horizon: the append path
	}
	res.set("sim.resource_acquire_ns", float64(time.Since(t0))/n, "ns")

	// Backfill: arrivals that fit the idle gaps other streams left behind.
	var total time.Duration
	calls := 0
	for rep := 0; rep < 200; rep++ {
		g := sim.NewResource("probe")
		for i := 0; i < 250; i++ {
			g.Acquire(sim.Time(i)*10, 5)
		}
		t0 = time.Now()
		for round := 0; round < 4; round++ {
			for i := 0; i < 250; i++ {
				g.Acquire(sim.Time(i)*10+5+sim.Time(round), 1)
			}
		}
		total += time.Since(t0)
		calls += 1000
	}
	res.set("sim.resource_backfill_ns", float64(total)/float64(calls), "ns")

	p := sim.NewPool("probe", 8)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		p.Acquire(sim.Time(i), 5)
	}
	res.set("sim.pool_acquire_ns", float64(time.Since(t0))/n, "ns")

	c := sim.NewResource("probe")
	var wg sync.WaitGroup
	t0 = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				c.Acquire(sim.Time(i)*10, 5)
			}
		}()
	}
	wg.Wait()
	res.set("sim.contended_acquire_ns", float64(time.Since(t0))/n, "ns")

	q := sim.NewFairScheduler(4, sim.FlowConfig{})
	t0 = time.Now()
	for i := 0; i < n; i++ {
		q.Admit(sim.FlowID(i&3), 4096)
		q.Release()
	}
	res.set("sim.fair_admit_ns", float64(time.Since(t0))/n, "ns")
}
