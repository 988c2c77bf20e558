package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
)

// span is one call into one layer for one op. Spans of an op share its index
// as request id; an op's span one rung up the ladder is its parent. Start
// and End count from the beginning of that rung's replay, because every
// rung replays the ops on a twin of its own.
type span struct {
	Layer  string `json:"layer"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rungPass is one rung's replay: what each op reported and how long it took.
type rungPass struct {
	rung    rung
	results []opResult
	durs    []float64 // ns per op
}

// betweener is implemented by synthetic rungs that must do housekeeping
// between ops, outside any op's span.
type betweener interface{ between() error }

// ladderPass replays ops[from:from+n] single-stream on every target, op by
// op: op i runs at the top rung, then one rung down, and so on, before op
// i+1 starts. The rungs of one op therefore run within the same
// millisecond, and whatever the machine was doing then cancels in their
// difference; replaying rung after rung let that drift swamp the thin
// layers. plan receives each op's stl-rung result just before the
// synthetic rungs below it replay the op.
func ladderPass(w *workload, in *inputs, ladder []rung, targets []target, plan []opResult, from, n int, res *result) ([]rungPass, []span) {
	passes := make([]rungPass, len(ladder))
	for ri, r := range ladder {
		passes[ri] = rungPass{rung: r, results: make([]opResult, n), durs: make([]float64, n)}
	}
	spans := make([]span, 0, n*len(ladder))
	c := newClientState(w)
	real := 0
	for real < len(ladder) && ladder[real] < rungNVM {
		real++
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op := &in.ops[from+i]
		if op.Kind == opWrite && in.pool != nil {
			in.pool.fill(c.payload, w.seqBase()+int64(from+i))
		}
		// The rungs that run real code take turns going first, so that none
		// always finds the shared client buffer warm in the CPU cache; the
		// synthetic rungs follow, because they replay the stl rung's counts.
		for k := range ladder {
			ri := k
			if k < real {
				ri = (k + i) % real
			}
			r := ladder[ri]
			if bt, ok := targets[ri].(betweener); ok {
				if err := bt.between(); err != nil {
					res.note("%v rung housekeeping before op %d: %v", r, from+i, err)
				}
			}
			b := time.Since(t0)
			out, err := targets[ri].do(op, c)
			e := time.Since(t0)
			res.attempted++
			if err != nil {
				res.failed++
				res.note("%v rung op %d (%v): %v", r, from+i, op.Kind, err)
			}
			out.Payload, out.Matches = nil, nil
			passes[ri].results[i], passes[ri].durs[i] = out, float64(e-b)
			if r == rungSTL {
				plan[i] = out
			}
			parent := ""
			if ri > 0 {
				parent = ladder[ri-1].String()
			}
			spans = append(spans, span{Layer: r.String(), Req: from + i, Parent: parent, Start: int64(b), End: int64(e)})
		}
	}
	return passes, spans
}

// plainPass replays the same ops on one target without spans and returns the
// wall seconds: the base of trace.overhead.
func plainPass(w *workload, in *inputs, tg target, from, n int) float64 {
	c := newClientState(w)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op := &in.ops[from+i]
		if op.Kind == opWrite && in.pool != nil {
			in.pool.fill(c.payload, w.seqBase()+int64(from+i))
		}
		_, _ = tg.do(op, c) // failures are counted by the traced pass
	}
	return time.Since(t0).Seconds()
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// selfName is the metric that reports a rung's self time.
var selfName = [numRungs]struct {
	name string
	unit string
	div  float64
}{
	rungWire:   {"wire.self_us", "us", 1e3},
	rungExec:   {"nds.exec_self_ns", "ns", 1},
	rungNDS:    {"nds.self_ns", "ns", 1},
	rungSystem: {"system.self_ns", "ns", 1},
	rungSTL:    {"stl.self_ns", "ns", 1},
	rungNVM:    {"nvm.self_ns", "ns", 1},
	rungSim:    {"sim.self_ns", "ns", 1},
}

// runTraced is the traced run: the first replayOps ops of the script,
// replayed single-stream at every rung of the workload's ladder on
// identically built and filled twins, one span per call, plus each layer's
// own counters and micro-measurements. End-to-end numbers are never taken
// from here.
func runTraced(w *workload, seed int64, seconds float64) (*result, error) {
	res := newResult(w)
	in := generate(w, seed, int(seconds+1))
	d := scriptDigest(in.ops)
	res.digest = fmt.Sprintf("%x", d[:8])
	gc0 := memStats()

	from, n := w.ageOps, w.replayOps
	plan := make([]opResult, n)
	targets := make([]target, len(w.ladder))
	closeAll := func() error {
		var err error
		for _, tg := range targets {
			if tg != nil {
				err = errors.Join(err, tg.close())
			}
		}
		return err
	}
	var sysTwin, stlTwin *sysEnv
	var flash0 [3]int64
	for ri, r := range w.ladder {
		var err error
		if r == rungNVM || r == rungSim {
			targets[ri], err = build(w, in, r, plan)
		} else {
			targets[ri], _, err = setUp(w, in, r, nil)
		}
		if err != nil {
			return nil, errors.Join(err, closeAll())
		}
		switch r {
		case rungSystem:
			sysTwin = targets[ri].(*sysEnv)
			flash0 = sysTwin.counters()
		case rungSTL:
			stlTwin = targets[ri].(*sysEnv)
		}
	}
	passes, spans := ladderPass(w, in, w.ladder, targets, plan, from, n, res)
	checkAgreement(passes, from, res)
	if err := writeSpans(w, spans); err != nil {
		return nil, errors.Join(err, closeAll())
	}

	// A layer's self time: its rung minus the rung below, op by op.
	for i, p := range passes {
		diffs := append([]float64(nil), p.durs...)
		if i+1 < len(passes) {
			for k := range diffs {
				diffs[k] -= passes[i+1].durs[k]
			}
		}
		s := selfName[p.rung]
		res.set(s.name, mean(diffs)/s.div, s.unit)
	}
	for ri, r := range w.ladder {
		switch r {
		case rungWire:
			wireExtras(w, in, targets[ri].(*ndsEnv), from, n, res)
		case rungNDS:
			// Allocation counts need the rung alone: a second, short replay.
			const probe = 200
			before := memStats()
			plainPass(w, in, targets[ri], from, probe)
			after := memStats()
			res.set("nds.allocs_per_op", float64(after.Mallocs-before.Mallocs)/probe, "count")
			res.set("nds.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/probe, "B")
		case rungSystem:
			systemExtras(sysTwin, flash0, res)
		case rungSTL:
			stlExtras(w, in, stlTwin, passes[ri], from, res)
		case rungNVM:
			nvmExtras(w, res)
		case rungSim:
			simExtras(res)
		}
	}
	if err := closeAll(); err != nil {
		return nil, err
	}
	targets, sysTwin, stlTwin = nil, nil, nil
	release()

	// The same replay at the timed rung without spans, on a twin of its own.
	tw, _, err := setUp(w, in, w.timed, nil)
	if err != nil {
		return nil, err
	}
	plain := plainPass(w, in, tw, from, n)
	if err := tw.close(); err != nil {
		return nil, err
	}
	release()
	for _, p := range passes {
		if p.rung == w.timed {
			var traced float64
			for _, d := range p.durs {
				traced += d
			}
			res.set("trace.overhead", plain*1e9/traced, "ratio")
		}
	}

	if err := tracedEndToEnd(w, in, seed, seconds, res); err != nil {
		return nil, err
	}
	gc1 := memStats()
	res.set("go.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
	res.set("go.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, "ms")
	return res, nil
}

// checkAgreement asserts that every rung addressed the same bytes, pages and
// extents for every op. The wire carries only the payload size, and only the
// rungs from nds down count pages the same way (the stl rung counts them
// before the system layer folds them into one figure).
func checkAgreement(passes []rungPass, from int, res *result) {
	for i := range passes[0].results {
		var ref *opResult
		var refRung rung
		var wireBytes int64
		for pi := range passes {
			r := &passes[pi].results[i]
			switch {
			case r.Bytes == 0:
				// The op failed at this rung; already counted.
			case passes[pi].rung == rungWire:
				wireBytes = r.Bytes
			case ref == nil:
				ref, refRung = r, passes[pi].rung
			case r.Bytes != ref.Bytes || r.Pages != ref.Pages || r.Extents != ref.Extents:
				res.mismatch("op %d: %v rung addressed %d B / %d pages / %d extents, %v rung %d / %d / %d",
					from+i, passes[pi].rung, r.Bytes, r.Pages, r.Extents, refRung, ref.Bytes, ref.Pages, ref.Extents)
			}
		}
		if ref != nil && wireBytes != 0 && wireBytes != ref.Bytes {
			res.mismatch("op %d: wire rung moved %d B, %v rung addressed %d", from+i, wireBytes, refRung, ref.Bytes)
		}
	}
}

func writeSpans(w *workload, spans []span) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir(), "trace_"+w.name+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters snapshots the hardware-NDS array's lifetime operation counts.
func (e *sysEnv) counters() [3]int64 {
	sys := e.sys[system.HardwareNDS]
	r, p, er := sys.Dev.Counters()
	return [3]int64{r, p, er}
}

// systemExtras reports where simulated time went during the system rung's
// replay, from System.Report: the busy share of each modelled resource over
// the replay's span names the first one to saturate.
func systemExtras(e *sysEnv, flash0 [3]int64, res *result) {
	sys := e.sys[system.HardwareNDS]
	// The span the hardware-NDS system was in use: the whole replay, or —
	// where one stream alternates between systems, as in paper_figs — the
	// time its own commands took.
	horizon := sim.Time(e.simNow())
	if served := sim.Time(e.served[system.HardwareNDS].Load()); served < horizon {
		horizon = served
	}
	if horizon <= 0 {
		return
	}
	rep := sys.Report(horizon)
	share := func(t sim.Time) float64 { return float64(t) / float64(horizon) }
	res.set("system.sim_host_share", share(rep.HostBusy), "ratio")
	res.set("system.sim_link_share", share(rep.LinkBusy), "ratio")
	res.set("system.sim_ctrl_cmd_share", share(rep.CtrlCmd), "ratio")
	res.set("system.sim_ctrl_translate_share", share(rep.CtrlTranslate), "ratio")
	res.set("system.sim_ctrl_assemble_share", share(rep.CtrlAssemble), "ratio")
	res.set("system.sim_channel_util_avg", rep.AvgChannel, "ratio")
	res.set("system.sim_channel_util_max", rep.MaxChannel, "ratio")
	now := e.counters()
	res.set("nvm.reads", float64(now[0]-flash0[0]), "count")
	res.set("nvm.programs", float64(now[1]-flash0[1]), "count")
	res.set("nvm.erases", float64(now[2]-flash0[2]), "count")
}

// stlExtras reports the translation layer's own work during the stl rung's
// replay: translation, plan size, per-shape cost, copy, kernels, cache, GC.
func stlExtras(w *workload, in *inputs, e *sysEnv, p rungPass, from int, res *result) {
	n := float64(len(p.results))
	var extents, blocks, traversals, pages, bytesTotal float64
	type acc struct{ ns, bytes, sim, count float64 }
	byClass := make([]acc, len(w.classes))
	var reads, writes, scans, reduces acc
	var ftlNs, ftlPages float64
	for i, r := range p.results {
		op := &in.ops[from+i]
		if w.spaces[op.Space].kind == system.Baseline {
			ftlNs += p.durs[i]
			ftlPages += float64(r.Pages)
		}
		extents += float64(r.Extents)
		blocks += float64(r.Blocks)
		traversals += float64(r.Traversals)
		pages += float64(r.Pages)
		bytesTotal += float64(r.Bytes)
		a := &reads
		switch op.Kind {
		case opWrite:
			a = &writes
		case opScan:
			a = &scans
		case opReduce:
			a = &reduces
		}
		a.ns += p.durs[i]
		a.bytes += float64(r.Bytes)
		a.count++
		if len(byClass) > 0 {
			c := &byClass[op.Class]
			c.ns += p.durs[i]
			c.bytes += float64(r.Bytes)
			c.sim += r.Elapsed.Seconds()
			c.count++
		}
	}
	res.set("stl.extents_per_op", extents/n, "count")
	res.set("stl.blocks_per_op", blocks/n, "count")
	res.set("stl.traversals_per_op", traversals/n, "count")
	res.set("stl.pages_per_op", pages/n, "count")
	if bytesTotal > 0 {
		res.set("stl.page_amp", pages*4096/bytesTotal, "ratio")
	}
	for c, a := range byClass {
		if a.count > 0 {
			res.set("stl.read_ns."+w.classes[c], a.ns/a.count, "ns")
			res.set("stl.sim_mb_per_s."+w.classes[c], a.bytes/a.sim/1e6, "MB/s")
		}
	}
	if writes.count > 0 {
		res.set("stl.write_ns", writes.ns/writes.count, "ns")
	}
	if ftlPages > 0 {
		res.set("ftl.baseline_read_ns_per_page", ftlNs/ftlPages, "ns")
	}
	if scans.count > 0 {
		res.set("stl.scan_ns_per_mib", scans.ns/(scans.bytes/mib), "ns")
	}
	if reduces.count > 0 {
		res.set("stl.reduce_ns_per_mib", reduces.ns/(reduces.bytes/mib), "ns")
	}

	// Translation alone, and the same reads with an empty sink: what is left
	// of a read once the copy into the caller's buffer is taken out.
	sys := e.sys[system.HardwareNDS]
	var translate, segNs, segCount float64
	noop := func(int64, []stl.Segment) error { return nil }
	for i := range p.results {
		op := &in.ops[from+i]
		if w.spaces[op.Space].kind == system.Baseline {
			continue
		}
		v := e.views[op.Stream][op.Space]
		t0 := time.Now()
		_, err := v.Extents(op.Coord[:], op.Sub[:])
		translate += float64(time.Since(t0))
		if err != nil || op.Kind != opRead || w.phantom {
			continue
		}
		t0 = time.Now()
		_, _, err = e.sys[w.spaces[op.Space].kind].STL.ReadPartitionSegments(e.cursor[op.Stream], v, op.Coord[:], op.Sub[:], noop)
		if err == nil {
			segNs += float64(time.Since(t0))
			segCount++
		}
	}
	res.set("stl.translate_ns", translate/n, "ns")
	if segCount > 0 && reads.count > 0 {
		res.set("stl.copy_ns", reads.ns/reads.count-segNs/segCount, "ns")
	}

	if w.cacheBytes > 0 {
		cacheExtras(w, in, from, len(p.results), res)
	}
	if writes.count > 0 {
		g := sys.STL.GCReport()
		res.set("stl.gc_runs", float64(g.Runs), "count")
		res.set("stl.gc_erases", float64(g.Erases), "count")
		res.set("stl.gc_pages_relocated", float64(g.PagesRelocated), "count")
		res.set("stl.gc_stall_ms", float64(g.StallNs)/1e6, "ms")
		if g.Erases > 0 {
			res.set("stl.gc_relocated_per_erase", float64(g.PagesRelocated)/float64(g.Erases), "ratio")
		}
		if rel := sys.STL.Reliability(); rel.MaxPages > 0 {
			res.set("stl.used_share", float64(rel.UsedPages)/float64(rel.MaxPages), "ratio")
		}
	}
}

// cacheExtras replays the ops once more at the stl rung on a fresh twin,
// snapshotting the cache counters at each phase boundary: the hit rate of
// the working set that fits the cache and of the one that exceeds it.
func cacheExtras(w *workload, in *inputs, from, n int, res *result) {
	tg, _, err := setUp(w, in, rungSTL, nil)
	if err != nil {
		res.note("cache replay: %v", err)
		return
	}
	defer tg.close()
	e := tg.(*sysEnv)
	t := e.sys[system.HardwareNDS].STL
	c := newClientState(w)
	var phase [2]stl.CacheStats
	last := t.CacheStats()
	for i := 0; i < n; i++ {
		op := &in.ops[from+i]
		if _, err := e.do(op, c); err != nil {
			continue
		}
		if i+1 == n || in.ops[from+i+1].Class != op.Class {
			now := t.CacheStats()
			phase[op.Class].Hits += now.Hits - last.Hits
			phase[op.Class].Misses += now.Misses - last.Misses
			last = now
		}
	}
	rate := func(c stl.CacheStats) float64 {
		if c.Hits+c.Misses == 0 {
			return 0
		}
		return float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	total := t.CacheStats()
	res.set("stl.cache_hit_rate", rate(total), "ratio")
	res.set("stl.cache_hit_rate_fits", rate(phase[classFits]), "ratio")
	res.set("stl.cache_hit_rate_exceeds", rate(phase[classExceeds]), "ratio")
	res.set("stl.cache_evictions", float64(total.Evictions), "count")
	res.set("stl.cache_invalidations", float64(total.Invalidations), "count")
	if total.PrefetchIssued > 0 {
		res.set("stl.prefetch_used_share", float64(total.PrefetchUsed)/float64(total.PrefetchIssued), "ratio")
		res.set("stl.prefetch_wasted_share", float64(total.PrefetchWasted)/float64(total.PrefetchIssued), "ratio")
	}
}

// tracedEndToEnd measures, untraced, the end-to-end metrics that travel in
// the layer list: a short timed pass for throughput, the tail latencies and
// two-client scaling, the replay segment for aged_write's write
// amplification, and the fixed figure set for paper_figs.
func tracedEndToEnd(w *workload, in *inputs, seed int64, seconds float64, res *result) error {
	// Two clients against one: contention can cost (or save) more than any
	// layer's serial share. The pass with the workload's own client count
	// also gives the tail latencies.
	clients := []int{w.streams}
	if w.streams > 1 {
		clients = []int{1, w.streams}
	}
	var rate []float64
	for _, streams := range clients {
		tg, _, err := setUp(w, in, w.timed, nil)
		if err != nil {
			return err
		}
		few := *w
		few.streams = streams
		var tiles []int64
		if w.payload > 0 {
			tiles = make([]int64, w.numTiles())
		}
		pass := newResult(w)
		summarize(&few, pass, timedPass(&few, in, tg, w.ageOps, seconds/4, tiles), seconds/4)
		rate = append(rate, pass.metrics["raw_ops_per_s"].Value)
		if streams == w.streams {
			for _, d := range perLayer {
				if m, ok := pass.metrics[d.Name]; ok {
					res.metrics[d.Name] = m
					if n, ok := pass.samples[d.Name]; ok {
						res.samples[d.Name] = n
					}
				}
			}
		}
		if err := tg.close(); err != nil {
			return err
		}
		release()
	}
	if len(rate) == 2 && rate[0] > 0 {
		res.set("nds.two_client_scaling", rate[1]/rate[0], "ratio")
	}
	switch {
	case w.figures:
		return figureSet(res)
	case w.ageOps > 0:
		tg, _, err := setUp(w, in, w.timed, nil)
		if err != nil {
			return err
		}
		segment := newResult(w)
		replay(w, in, tg, w.ageOps, w.replayOps, segment, nil)
		if m, ok := segment.metrics["write_amp"]; ok {
			res.metrics["write_amp"] = m
		}
		if err := tg.close(); err != nil {
			return err
		}
		release()
		bgGCProbe(w, seed, res)
	}
	return nil
}

// wireExtras measures the serving tier around the wire rung's replay: the
// server's own counters, the floor of a round trip, and throughput with
// eight requests in flight on one connection.
func wireExtras(w *workload, in *inputs, e *ndsEnv, from, n int, res *result) {
	st := e.srv.Stats()
	const probe = 200
	before := memStats()
	plainPass(w, in, e, from, probe)
	after := memStats()
	res.set("proto.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/probe, "count")
	res.set("ndsserver.requests", float64(st.Requests), "count")
	res.set("ndsserver.drops", float64(st.Drops), "count")

	best := time.Duration(1 << 62)
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		if _, err := e.clients[0].CacheStats(); err != nil {
			res.note("rtt probe: %v", err)
			return
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	res.set("wire.rtt_min_us", float64(best)/1e3, "us")

	const depth = 8
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < depth; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += depth {
				op := &in.ops[from+i]
				if op.Kind != opRead {
					continue
				}
				if _, err := e.clients[0].Read(e.wviews[0][op.Space], op.Coord[:], op.Sub[:]); err != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	reads := 0
	for i := 0; i < n; i++ {
		if in.ops[from+i].Kind == opRead {
			reads++
		}
	}
	res.set("wire.pipelined_ops_per_s", float64(reads)/time.Since(t0).Seconds(), "1/s")
	protoExtras(w, in, from, res)
}
