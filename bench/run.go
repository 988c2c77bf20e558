package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	correct   bool
	problems  []string // first few oracle mismatches and op errors, for the human reader
	metrics   map[string]metric
	samples   map[string]int // sample count behind each latency metric
	digest    string         // script digest, for the determinism self-check
}

func newResult(w *workload) *result {
	return &result{workload: w.name, correct: true, metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// mismatch records an output that disagrees with the oracle: the run goes on
// but is no longer correct, and the command exits non-zero.
func (r *result) mismatch(format string, args ...any) {
	r.correct = false
	r.note(format, args...)
}

func (r *result) note(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times a run sets the system up; setup_s is the
// median. The timed device and the replay twin are two of them.
const setupReps = 5

// warmShare of the run length passes untimed before measurement starts.
const warmShare = 0.05

// windows is how many equal slices the timed pass is cut into; throughput
// and latency percentiles are the median over slices, so one noisy second
// moves one slice, not the result.
const windows = 8

// generate makes a run's inputs from its seed: the initial content of every
// space and the write payloads first, the op script last, so that what the
// spaces hold does not depend on how long a script the run asked for.
func generate(w *workload, seed int64, seconds int) *inputs {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	in := &inputs{}
	if !w.phantom && !w.tileFilled() {
		for _, s := range w.spaces {
			in.mirrors = append(in.mirrors, newMirror(s.elem, s.dims, r.Uint64()))
		}
	}
	if w.payload > 0 {
		in.pool = newPayloadPool(r, w.payload, 8)
	}
	in.ops = w.gen(w, r, w.scriptLen(seconds))
	return in
}

// seqBase is the sequence number of the script's first op: a tile-filled
// workload numbers its fill writes first.
func (w *workload) seqBase() int64 {
	if w.tileFilled() {
		return int64(w.numTiles())
	}
	return 0
}

// quiescer is implemented by targets whose timelines can be reset between
// set-up and measurement.
type quiescer interface{ quiesce() }

// setUp builds a twin at rung r and ages it, returning the target and the
// CPU seconds the process spent on it (processCPU: what set-up costs, whatever
// the box was doing meanwhile). tiles, when non-nil, receives the sequence
// number of the last write to each tile.
func setUp(w *workload, in *inputs, r rung, tiles []int64) (target, float64, error) {
	t0 := processCPU()
	tg, err := build(w, in, r, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up at %v: %w", w.name, r, err)
	}
	if tiles != nil && w.seqBase() > 0 {
		for t := range tiles {
			tiles[t] = int64(t)
		}
	}
	c := newClientState(w)
	for i := 0; i < w.ageOps; i++ {
		op := &in.ops[i]
		seq := w.seqBase() + int64(i)
		if op.Kind == opWrite {
			in.pool.fill(c.payload, seq)
		}
		if _, err := tg.do(op, c); err != nil {
			return nil, 0, fmt.Errorf("%s: ageing op %d: %w", w.name, i, errors.Join(err, tg.close()))
		}
		if tiles != nil && op.Kind == opWrite {
			tiles[w.tileOf(op)] = seq
		}
	}
	if q, ok := tg.(quiescer); ok {
		q.quiesce()
	}
	return tg, (processCPU() - t0).Seconds(), nil
}

// kindRef marks a sample that timed the reference kernel, not an op.
const kindRef opKind = 255

// sample is one completed op of the timed pass.
type sample struct {
	end  int64 // ns since the pass started
	lat  int32 // ns
	kind opKind
	ok   bool
}

// processCPU is the CPU time the process has used so far, all threads, user
// and system. Time a thread spent runnable but not running — preempted in the
// guest, or stolen by the host — is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is what the timed pass recorded: every stream's samples, and the
// process's CPU time at each boundary between the pass's slices.
type pass struct {
	samples [][]sample
	cpu     [windows + 1]time.Duration
}

// timedPass runs the closed loop: one goroutine per stream, each executing
// its own ops of the script back to back until the deadline. Nothing is
// verified here. Concurrent writers to one tile are serialized by the load
// generator (tileMu), so the last write to every tile is known afterwards.
func timedPass(w *workload, in *inputs, tg target, start int, seconds float64, tiles []int64) *pass {
	perStream := make([][]int32, w.streams)
	for i := start; i < len(in.ops); i++ {
		// Fewer clients than the script was dealt for share its ops out
		// among themselves.
		s := int(in.ops[i].Stream) % w.streams
		perStream[s] = append(perStream[s], int32(i))
	}
	var tileMu []sync.Mutex
	if tiles != nil && w.streams > 1 {
		tileMu = make([]sync.Mutex, len(tiles))
	}
	out := &pass{samples: make([][]sample, w.streams)}
	warm := time.Duration(warmShare * seconds * float64(time.Second))
	span := time.Duration(seconds * float64(time.Second))
	total := warm + span
	// marked counts the slice boundaries passed: whichever client first
	// finishes an op beyond the next one reads the CPU clock for it.
	var marked atomic.Int32
	mark := func(e time.Duration) {
		for i := marked.Load(); i <= windows && e >= warm+span*time.Duration(i)/windows; i = marked.Load() {
			if marked.CompareAndSwap(i, i+1) {
				out.cpu[i] = processCPU()
			}
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < w.streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := newClientState(w)
			ref := newRefKernel()
			nextRef := time.Duration(0)
			mine := perStream[s]
			samples := make([]sample, 0, int(float64(w.rate)*seconds)/w.streams+1024)
			for n := 0; len(mine) > 0; n++ {
				if b := time.Since(t0); b >= nextRef {
					ref.run()
					e := time.Since(t0)
					nextRef = e + refEvery
					if e > warm {
						samples = append(samples, sample{end: int64(e - warm), lat: int32(e - b), kind: kindRef, ok: true})
					}
				}
				gi := int(mine[n%len(mine)])
				lap := int64(n / len(mine))
				op := &in.ops[gi]
				seq := w.seqBase() + int64(gi) + lap*int64(len(in.ops))
				tile := -1
				if op.Kind == opWrite {
					in.pool.fill(c.payload, seq)
					tile = w.tileOf(op)
					if tileMu != nil {
						tileMu[tile].Lock()
					}
				}
				b := time.Since(t0)
				_, err := tg.do(op, c)
				e := time.Since(t0)
				if tile >= 0 {
					if err == nil {
						tiles[tile] = seq
					}
					if tileMu != nil {
						tileMu[tile].Unlock()
					}
				}
				if e > warm {
					samples = append(samples, sample{end: int64(e - warm), lat: int32(e - b), kind: op.Kind, ok: err == nil})
				}
				mark(e)
				if e >= total {
					break
				}
			}
			out.samples[s] = samples
		}(s)
	}
	wg.Wait()
	return out
}

// slice is one equal share of the timed pass's span.
type slice struct {
	ops       float64   // ops completed in it; an op that straddles a boundary counts in each slice by the share of its time spent there
	lat, wlat []float64 // us, sorted: latencies of the primary ops that ended in it, and of writes beside a primary read
	refs      []float64 // ns: the reference kernel's times in it
}

// slowdown is how many times slower than reference speed the slice ran: the
// reference kernel's median time in it over refNominal.
func (sl *slice) slowdown() float64 {
	if len(sl.refs) == 0 {
		return 1
	}
	return median(sl.refs) / float64(refNominal)
}

// cut sorts the completed ops of the timed pass into n equal time slices.
func cut(w *workload, passes [][]sample, seconds float64, n int) []slice {
	span := int64(seconds * float64(time.Second))
	width := float64(span) / float64(n)
	slices := make([]slice, n)
	for _, p := range passes {
		for _, s := range p {
			if !s.ok {
				continue // counted in failed: not work completed
			}
			k := int(s.end * int64(n) / span)
			if s.kind == kindRef {
				if k < n {
					slices[k].refs = append(slices[k].refs, float64(s.lat))
				}
				continue
			}
			start, lat := float64(s.end)-float64(s.lat), math.Max(float64(s.lat), 1)
			for j := max(int(start/width), 0); j < n && float64(j)*width < float64(s.end); j++ {
				lo, hi := math.Max(start, float64(j)*width), math.Min(float64(s.end), float64(j+1)*width)
				slices[j].ops += (hi - lo) / lat
			}
			if k >= n {
				continue // the op that ended the pass
			}
			switch {
			case s.kind == w.primary:
				slices[k].lat = append(slices[k].lat, float64(s.lat)/1e3)
			case s.kind == opWrite:
				slices[k].wlat = append(slices[k].wlat, float64(s.lat)/1e3)
			}
		}
	}
	for k := range slices {
		sort.Float64s(slices[k].lat)
		sort.Float64s(slices[k].wlat)
	}
	return slices
}

// summarize turns the timed pass into ops_per_s, p50_us and p99_us (and
// write_p99_us where the workload writes beside its primary op). The pass is
// cut into equal time slices; each slice's throughput and percentiles are
// scaled to reference speed (refkernel.go), and the median over slices is
// reported. The figures as measured and the scale are reported beside them as
// raw_ops_per_s, raw_p50_us and machine_slowdown.
func summarize(w *workload, res *result, pass *pass, seconds float64) {
	passes := pass.samples
	primary := 0
	for _, p := range passes {
		for _, s := range p {
			if s.kind == kindRef {
				continue
			}
			res.attempted++
			if !s.ok {
				res.failed++
			} else if s.kind == w.primary {
				primary++
			}
		}
	}
	var ops, cpu, p50, rawOps, rawCPU, rawP50, slow []float64
	supported := true
	for k, sl := range cut(w, passes, seconds, windows) {
		// The kernel's share of the slice comes off the clients' time and
		// off the process's CPU time.
		var refNs float64
		for _, r := range sl.refs {
			refNs += r
		}
		busy := seconds/windows - refNs/1e9/float64(w.streams)
		v, ok := percentile(sl.lat, 0.50)
		supported = supported && ok
		f := sl.slowdown()
		slow = append(slow, f)
		rawOps, rawP50 = append(rawOps, sl.ops/busy), append(rawP50, v)
		ops, p50 = append(ops, sl.ops/busy*f), append(p50, v/f)
		if used := float64(pass.cpu[k+1]-pass.cpu[k]) - refNs; used > 0 && sl.ops > 0 {
			rawCPU = append(rawCPU, used/1e3/sl.ops)
			cpu = append(cpu, used/1e3/sl.ops/f)
		}
	}
	res.set("ops_per_s", median(ops), "1/s")
	res.set("cpu_us_per_op", median(cpu), "us")
	res.set("p50_us", median(p50), "us")
	res.set("raw_ops_per_s", median(rawOps), "1/s")
	res.set("raw_cpu_us_per_op", median(rawCPU), "us")
	res.set("raw_p50_us", median(rawP50), "us")
	res.set("machine_slowdown", median(slow), "ratio")

	// The tail gets as many slices as still leave each the 1000 samples p99
	// needs, with a quarter to spare for slices that got fewer than their
	// share.
	nw := windows
	for nw > 1 && primary/nw < 125*minBeyond {
		nw /= 2
	}
	var p99, wp99 []float64
	writes := 0
	for _, sl := range cut(w, passes, seconds, nw) {
		f := sl.slowdown()
		v, ok := percentile(sl.lat, 0.99)
		supported = supported && ok
		p99 = append(p99, v/f)
		if len(sl.wlat) > 0 {
			v, _ := percentile(sl.wlat, 0.99)
			wp99 = append(wp99, v/f)
			writes += len(sl.wlat)
		}
	}
	res.set("p99_us", median(p99), "us")
	res.samples["p50_us"], res.samples["p99_us"] = primary, primary
	if !supported {
		res.note("timed pass too short: %d %v samples do not put 10 beyond p50 in each of %d slices and beyond p99 in each of %d", primary, w.primary, windows, nw)
	}
	if len(wp99) > 0 {
		res.set("write_p99_us", median(wp99), "us")
		res.samples["write_p99_us"] = writes
	}
}

// replay executes ops[from:from+n] on tg single-stream in script order,
// checks every result against the oracle, and reports the simulated metrics:
// one stream makes them exact. tiles, when non-nil, learns the last write to
// each tile.
func replay(w *workload, in *inputs, tg target, from, n int, res *result, tiles []int64) {
	c := newClientState(w)
	scratch := make([]byte, len(c.buf))
	var bytesTotal, raw int64
	sim0 := tg.simNow()
	fc, countsFlash := tg.(flashCounter)
	var prog0, move0 int64
	if countsFlash {
		prog0, move0 = fc.flash()
	}
	for i := from; i < from+n; i++ {
		op := &in.ops[i]
		if op.Kind == opWrite {
			in.pool.fill(c.payload, w.seqBase()+int64(i))
		}
		r, err := tg.do(op, c)
		res.attempted++
		if err != nil {
			res.failed++
			res.note("replay op %d (%v): %v", i, op.Kind, err)
			continue
		}
		bytesTotal += r.Bytes
		raw += r.Raw
		verifyOp(w, in, op, &r, c, scratch, res)
		if tiles != nil && op.Kind == opWrite {
			tiles[w.tileOf(op)] = w.seqBase() + int64(i)
		}
	}
	if span := tg.simNow() - sim0; span > 0 && bytesTotal > 0 {
		res.set("sim_mb_per_s", float64(bytesTotal)/span.Seconds()/1e6, "MB/s")
		res.set("link_amp", float64(raw)/float64(bytesTotal), "ratio")
	}
	if countsFlash {
		prog1, move1 := fc.flash()
		if host := (prog1 - prog0) - (move1 - move0); host > 0 {
			// Flash programs per user page over exactly these ops.
			res.set("write_amp", float64(prog1-prog0)/float64(host), "ratio")
		}
	}
}

// flashCounter is implemented by targets that can count flash programs and
// the share of them garbage collection made.
type flashCounter interface {
	flash() (programs, gcMoves int64)
}

// verifyOp checks one replayed op against the oracle.
func verifyOp(w *workload, in *inputs, op *Op, r *opResult, c *clientState, scratch []byte, res *result) {
	want := op.Sub[0] * op.Sub[1] * int64(w.spaces[op.Space].elem)
	if r.Bytes != want {
		res.mismatch("%v %v/%v addressed %d bytes, the partition holds %d", op.Kind, op.Coord, op.Sub, r.Bytes, want)
		return
	}
	if in.mirrors == nil {
		return // phantom or write-only: nothing is read back here
	}
	if err := in.mirrors[op.Space].checkOp(op, r, c.payload, scratch); err != nil {
		res.mismatch("%v", err)
	}
}

// readBack reads every tile of a written workload through tg and compares
// it with the last payload the timed pass wrote there (or the initial
// content where it wrote nothing).
func readBack(w *workload, in *inputs, tg target, tiles []int64, res *result) {
	c := newClientState(w)
	want := make([]byte, w.payload)
	for t, seq := range tiles {
		op := w.tileOp(opRead, t)
		r, err := tg.do(&op, c)
		res.attempted++
		if err != nil {
			res.failed++
			res.note("read-back of tile %d: %v", t, err)
			continue
		}
		if seq < 0 {
			want = in.mirrors[op.Space].extract(op.Coord, op.Sub, want)
		} else {
			in.pool.fill(want, seq)
		}
		if !bytes.Equal(r.Payload, want) {
			res.mismatch("tile %d: read-back differs from write %d, the last one made to it", t, seq)
		}
	}
}

// resetPeakRSS returns freed memory to the system and restarts the process's
// resident-set high-water mark from what is left, reporting whether the
// kernel let it.
func resetPeakRSS() bool {
	release()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads the resident-set high-water mark since resetPeakRSS, or —
// where the mark could not be reset — the resident set as it stands.
func peakRSSMiB(reset bool) float64 {
	field := "VmHWM:"
	if !reset {
		field = "VmRSS:"
	}
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// replayRung is where the replay pass enters: the timed rung, except that a
// wire workload replays one rung down, where the device statistics the wire
// does not carry are still visible (its wire path is checked by reading
// every tile back through the socket).
func (w *workload) replayRung() rung {
	if w.timed == rungWire {
		return rungExec
	}
	return w.timed
}

// runUntraced is one end-to-end run: set-up, timed pass, verification.
func runUntraced(w *workload, seed int64, seconds float64, wrap func(target) target) (*result, error) {
	res := newResult(w)
	in := generate(w, seed, int(seconds+1))
	d := scriptDigest(in.ops)
	res.digest = fmt.Sprintf("%x", d[:8])

	// An aged device cannot have a twin that is also fresh: its replay
	// segment runs on the timed device itself, before the timed pass.
	twin := w.ageOps == 0
	var setups []float64
	discards := setupReps - 1
	if twin {
		discards--
	}
	for i := 0; i < discards; i++ {
		tg, s, err := setUp(w, in, w.timed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if err := tg.close(); err != nil {
			return nil, err
		}
		release()
	}

	var tiles []int64
	if w.payload > 0 {
		tiles = make([]int64, w.numTiles())
		for t := range tiles {
			tiles[t] = -1
		}
	}
	// peak_rss_mib is the high-water mark over fixed work — one set-up and
	// the replay pass on it — not over the timed pass, where it would grow
	// with however many ops the box happened to complete.
	marked := !twin && resetPeakRSS()
	tg, s, err := setUp(w, in, w.timed, tiles)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		tg = wrap(tg)
	}
	setups = append(setups, s)
	start := 0
	if !twin {
		replay(w, in, tg, w.ageOps, w.replayOps, res, tiles)
		res.set("peak_rss_mib", peakRSSMiB(marked), "MiB")
		start = w.ageOps + w.replayOps
	}
	summarize(w, res, timedPass(w, in, tg, start, seconds, tiles), seconds)
	if tiles != nil {
		readBack(w, in, tg, tiles, res)
	}
	if err := tg.close(); err != nil {
		return nil, err
	}
	tg = nil

	if twin {
		marked := resetPeakRSS()
		tw, s, err := setUp(w, in, w.replayRung(), nil)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			tw = wrap(tw)
		}
		setups = append(setups, s)
		replay(w, in, tw, 0, w.replayOps, res, nil)
		res.set("peak_rss_mib", peakRSSMiB(marked), "MiB")
		if err := tw.close(); err != nil {
			return nil, err
		}
	}
	res.set("setup_s", median(setups), "s")
	return res, nil
}
