package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nds"
	"nds/internal/ndsclient"
	"nds/internal/ndsserver"
	"nds/internal/nvm"
	"nds/internal/proto"
	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
)

// opResult is what one executed op reports, in the units every rung shares.
type opResult struct {
	Bytes   int64         // payload bytes addressed
	Raw     int64         // bytes that crossed the modelled host link
	Pages   int64         // flash page operations
	Extents int           // building-block fragments translated
	Elapsed time.Duration // simulated service time

	Payload []byte      // read payload (aliases the client's buffer)
	Matches []nds.Match // scan matches or reduce top-k entries
	Total   int64       // scan: true match count

	// Filled at the stl rung only; the synthetic nvm and sim rungs replay
	// these counts.
	ReadPages, ProgPages int64
	Blocks, Traversals   int
	GCErases, GCMoves    int64
}

// clientState is one client's reusable buffers.
type clientState struct {
	buf     []byte // read destination, one partition
	payload []byte // write payload
}

func newClientState(w *workload) *clientState {
	var biggest int64
	for _, s := range w.spaces {
		if !w.phantom && s.bytes() > biggest {
			biggest = s.bytes()
		}
	}
	if biggest > mib {
		biggest = mib // every data-bearing op addresses at most 1 MiB
	}
	return &clientState{buf: make([]byte, biggest), payload: make([]byte, w.payload)}
}

// target is a built, filled system entered at one rung.
type target interface {
	// do executes op for its stream. Streams may call concurrently; one
	// stream's calls are sequential.
	do(op *Op, c *clientState) (opResult, error)
	// simNow is the simulated clock: the latest completion seen.
	simNow() time.Duration
	close() error
}

// inputs is everything a run generates from its seed before set-up.
type inputs struct {
	ops     []Op
	mirrors []*mirror // one per space; nil for phantom and tile-filled workloads
	pool    *payloadPool
}

// forEachFill calls write for every partition set-up stores, in order: the
// mirror's content band by band, or — for a tile-filled workload — write
// payload number t into tile t.
func (w *workload) forEachFill(in *inputs, c *clientState, write func(space int, coord, sub [2]int64, data []byte) error) error {
	if w.tileFilled() {
		for t := 0; t < w.numTiles(); t++ {
			op := w.tileOp(opWrite, t)
			in.pool.fill(c.payload, int64(t))
			if err := write(int(op.Space), op.Coord, op.Sub, c.payload); err != nil {
				return err
			}
		}
		return nil
	}
	for si, s := range w.spaces {
		sub := s.fill
		if w.phantom {
			sub = [2]int64{256, s.dims[1]} // one building-block row per write, as experiments.LoadMatrix
		}
		for i := int64(0); i*sub[0] < s.dims[0]; i++ {
			for j := int64(0); j*sub[1] < s.dims[1]; j++ {
				coord := [2]int64{i, j}
				var data []byte
				if !w.phantom {
					data = in.mirrors[si].extract(coord, sub, c.buf)
				}
				if err := write(si, coord, sub, data); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// build sets up a fresh twin of the workload's system, entered at rung r.
func build(w *workload, in *inputs, r rung, plan []opResult) (target, error) {
	switch r {
	case rungWire, rungExec, rungNDS:
		return buildNDS(w, in, r)
	case rungSystem, rungSTL:
		return buildSystem(w, in, r)
	case rungNVM:
		return buildNVM(w, plan)
	case rungSim:
		return buildSim(w, plan)
	}
	return nil, fmt.Errorf("no builder for rung %v", r)
}

// ---- wire, exec and nds rungs: an nds.Device ----

type ndsEnv struct {
	w     *workload
	mode  rung
	dev   *nds.Device
	views [][]*nds.Space // [stream][space]

	srv     *ndsserver.Server
	served  chan error
	sock    string
	clients []*ndsclient.Client
	wviews  [][]uint32 // [stream][space] wire view IDs
}

var sockCounter atomic.Int64

func buildNDS(w *workload, in *inputs, mode rung) (*ndsEnv, error) {
	if w.geometry != nil || w.phantom {
		return nil, fmt.Errorf("%s has no %v rung", w.name, mode)
	}
	dev, err := nds.Open(nds.Options{
		Mode:          nds.ModeHardware,
		CapacityHint:  w.capacity,
		CacheBytes:    w.cacheBytes,
		PrefetchDepth: w.prefetchDepth,
		SynchronousGC: w.syncGC,
	})
	if err != nil {
		return nil, err
	}
	e := &ndsEnv{w: w, mode: mode, dev: dev}
	ids := make([]nds.SpaceID, len(w.spaces))
	prod := make([]*nds.Space, len(w.spaces))
	for i, s := range w.spaces {
		if ids[i], err = dev.CreateSpace(s.elem, s.dims[:]); err != nil {
			return nil, errors.Join(err, e.close())
		}
		if prod[i], err = dev.OpenSpace(ids[i], s.dims[:]); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	err = w.forEachFill(in, newClientState(w), func(space int, coord, sub [2]int64, data []byte) error {
		_, err := prod[space].Write(coord[:], sub[:], data)
		return err
	})
	for _, p := range prod {
		err = errors.Join(err, p.Close())
	}
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	if mode == rungWire {
		if err := e.serve(ids); err != nil {
			return nil, errors.Join(err, e.close())
		}
		return e, nil
	}
	// Views open after the fill, so each stream's first command issues at
	// the fill's completion on the simulated clock, not inside it.
	e.views = make([][]*nds.Space, w.streams)
	for s := range e.views {
		for i := range w.spaces {
			v, err := dev.OpenSpace(ids[i], w.spaces[i].dims[:])
			if err != nil {
				return nil, errors.Join(err, e.close())
			}
			e.views[s] = append(e.views[s], v)
		}
	}
	return e, nil
}

// serve starts an ndsserver on a unix socket under the output directory and
// dials one connection per stream.
func (e *ndsEnv) serve(ids []nds.SpaceID) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	e.sock = filepath.Join(outDir(), fmt.Sprintf("nds-%d-%d.sock", os.Getpid(), sockCounter.Add(1)))
	l, err := net.Listen("unix", e.sock)
	if err != nil {
		return err
	}
	e.srv = ndsserver.New(e.dev, ndsserver.Config{})
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(l) }()
	e.wviews = make([][]uint32, e.w.streams)
	for s := range e.wviews {
		c, err := ndsclient.Dial("unix:" + e.sock)
		if err != nil {
			return err
		}
		e.clients = append(e.clients, c)
		for i, sp := range e.w.spaces {
			v, err := c.OpenView(uint32(ids[i]), sp.elem, sp.dims[:])
			if err != nil {
				return err
			}
			e.wviews[s] = append(e.wviews[s], v)
		}
	}
	return nil
}

func (e *ndsEnv) simNow() time.Duration { return e.dev.Now() }

func (e *ndsEnv) close() error {
	var err error
	for _, c := range e.clients {
		err = errors.Join(err, c.Close())
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = errors.Join(err, e.srv.Shutdown(ctx))
		cancel()
		if serr := <-e.served; !errors.Is(serr, ndsserver.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		if rerr := os.Remove(e.sock); rerr != nil && !os.IsNotExist(rerr) {
			err = errors.Join(err, rerr)
		}
	}
	return errors.Join(err, e.dev.Close())
}

func fromStats(st nds.Stats) opResult {
	return opResult{Bytes: st.Bytes, Raw: st.RawBytes, Pages: st.Pages, Extents: st.Extents, Elapsed: st.Elapsed}
}

func (e *ndsEnv) do(op *Op, c *clientState) (opResult, error) {
	switch e.mode {
	case rungWire:
		return e.doWire(op, c)
	case rungExec:
		return e.doExec(op, c)
	}
	v := e.views[op.Stream][op.Space]
	switch op.Kind {
	case opRead:
		data, st, err := v.ReadInto(op.Coord[:], op.Sub[:], c.buf)
		res := fromStats(st)
		res.Payload = data
		return res, err
	case opWrite:
		st, err := v.Write(op.Coord[:], op.Sub[:], c.payload)
		return fromStats(st), err
	case opScan:
		r, st, err := v.Scan(op.Coord[:], op.Sub[:], nds.ScanQuery{Pred: nds.Predicate{Lo: op.Lo, Hi: op.Hi}})
		res := fromStats(st)
		res.Matches, res.Total = r.Matches, r.Total
		return res, err
	case opReduce:
		r, st, err := v.Reduce(op.Coord[:], op.Sub[:], nds.ReduceQuery{Kind: nds.ReduceTopK, K: reduceK})
		res := fromStats(st)
		res.Matches = r.TopK
		return res, err
	}
	return opResult{}, fmt.Errorf("nds rung: op kind %v", op.Kind)
}

// gather copies a segmented read into dst, zeroing only when the segments
// leave gaps (unwritten storage reads as zeros).
func gather(dst []byte, want int64, segs []nds.Segment) []byte {
	dst = dst[:want]
	var covered int64
	for _, s := range segs {
		covered += int64(len(s.Src))
	}
	if covered != want {
		clear(dst)
	}
	for _, s := range segs {
		copy(dst[s.Dst:], s.Src)
	}
	return dst
}

// doExec drives the raw command interface the way a wire host does: marshal
// the submission entry and the payload page, then Exec (ExecRead for reads,
// which is the zero-copy path ndsserver uses).
func (e *ndsEnv) doExec(op *Op, c *clientState) (opResult, error) {
	view := e.views[op.Stream][op.Space].WireID()
	var (
		cmd  proto.Command
		page []byte
		data []byte
		err  error
	)
	switch op.Kind {
	case opRead:
		cmd = proto.NewRead(view, 0)
		page, err = proto.CoordPayload{Coord: op.Coord[:], Sub: op.Sub[:]}.Marshal()
	case opWrite:
		cmd, data = proto.NewWrite(view, 0), c.payload
		page, err = proto.CoordPayload{Coord: op.Coord[:], Sub: op.Sub[:]}.Marshal()
	case opScan:
		cmd = proto.NewScan(view, 0)
		page, err = proto.ScanPayload{Coord: op.Coord[:], Sub: op.Sub[:], Lo: op.Lo, Hi: op.Hi}.Marshal()
	case opReduce:
		cmd = proto.NewReduce(view, 0)
		page, err = proto.ReducePayload{Coord: op.Coord[:], Sub: op.Sub[:], Op: uint8(nds.ReduceTopK), K: reduceK}.Marshal()
	default:
		err = fmt.Errorf("exec rung: op kind %v", op.Kind)
	}
	if err != nil {
		return opResult{}, err
	}
	var cpl proto.Completion
	var st nds.Stats
	var payload []byte
	if op.Kind == opRead {
		cpl, st, err = e.dev.ExecRead(cmd.Marshal(), page, func(want int64, segs []nds.Segment) error {
			payload = gather(c.buf, want, segs)
			return nil
		})
	} else {
		_, cpl, st, err = e.dev.Exec(cmd.Marshal(), page, data)
	}
	if err == nil && cpl.Status != proto.StatusOK {
		err = fmt.Errorf("%v %v/%v: completion status %v", op.Kind, op.Coord, op.Sub, cpl.Status)
	}
	res := fromStats(st)
	res.Payload = payload
	if op.Kind == opScan {
		res.Total = int64(cpl.Result0)
	}
	return res, err
}

// doWire is one round trip on the stream's own connection. The wire carries
// no device statistics, so only the payload size comes back.
func (e *ndsEnv) doWire(op *Op, c *clientState) (opResult, error) {
	cl, view := e.clients[op.Stream], e.wviews[op.Stream][op.Space]
	switch op.Kind {
	case opRead:
		data, err := cl.Read(view, op.Coord[:], op.Sub[:])
		return opResult{Bytes: int64(len(data)), Payload: data}, err
	case opWrite:
		err := cl.Write(view, op.Coord[:], op.Sub[:], c.payload)
		return opResult{Bytes: int64(len(c.payload))}, err
	}
	return opResult{}, fmt.Errorf("wire rung: op kind %v", op.Kind)
}

// ---- system and stl rungs: system.System built like nds.Open builds it ----

type sysEnv struct {
	w      *workload
	mode   rung
	sys    [3]*system.System // by system.Kind; nil where the workload has no space
	views  [][]*stl.View     // [stream][space]; nil for a baseline space
	cursor []sim.Time        // per stream: issue time of its next command
	done   atomic.Int64      // latest completion
	served [3]atomic.Int64   // by system.Kind: summed service time of its commands
}

// config is the platform nds.Open would build for the workload, with its
// geometry override applied.
func (w *workload) config() system.Config {
	cfg := system.PrototypeConfig(w.capacity, w.phantom)
	if w.geometry != nil {
		cfg.Geometry = *w.geometry
	}
	cfg.STL.CacheBytes = w.cacheBytes
	cfg.STL.PrefetchDepth = w.prefetchDepth
	cfg.STL.BackgroundGC = !w.syncGC
	return cfg
}

func buildSystem(w *workload, in *inputs, mode rung) (*sysEnv, error) {
	cfg := w.config()
	e := &sysEnv{w: w, mode: mode, cursor: make([]sim.Time, w.streams)}
	spaces := make([]*stl.Space, len(w.spaces))
	e.views = make([][]*stl.View, w.streams)
	for i, s := range w.spaces {
		if e.sys[s.kind] == nil {
			sys, err := system.New(s.kind, cfg)
			if err != nil {
				return nil, errors.Join(err, e.close())
			}
			e.sys[s.kind] = sys
		}
		if s.kind == system.Baseline {
			for st := range e.views {
				e.views[st] = append(e.views[st], nil)
			}
			continue
		}
		sp, err := e.sys[s.kind].STL.CreateSpace(s.elem, s.dims[:])
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		spaces[i] = sp
		for st := range e.views {
			v, err := stl.NewView(sp, s.dims[:])
			if err != nil {
				return nil, errors.Join(err, e.close())
			}
			e.views[st] = append(e.views[st], v)
		}
	}
	var at sim.Time
	err := w.forEachFill(in, newClientState(w), func(space int, coord, sub [2]int64, data []byte) error {
		s := w.spaces[space]
		sys := e.sys[s.kind]
		if s.kind == system.Baseline {
			ps := int64(cfg.Geometry.PageSize)
			rowPages := s.dims[1] * int64(s.elem) / ps
			_, err := sys.FTL.WritePages(0, coord[0]*sub[0]*rowPages, nil, sub[0]*rowPages)
			return err
		}
		st, err := sys.NDSWrite(at, e.views[0][space], coord[:], sub[:], data)
		if w.geometry != nil {
			at = st.Done // aged_write writes synchronously, as its timed pass does
		}
		return err
	})
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// quiesce resets every timeline, so a measured phase starts from a quiet
// system at simulated time zero.
func (e *sysEnv) quiesce() {
	for _, s := range e.sys {
		if s != nil {
			s.ResetTimelines()
		}
	}
	clear(e.cursor)
	e.done.Store(0)
	for k := range e.served {
		e.served[k].Store(0)
	}
}

func (e *sysEnv) simNow() time.Duration { return time.Duration(e.done.Load()) }

// flash counts programs on the hardware-NDS array and how many of them GC made.
func (e *sysEnv) flash() (programs, gcMoves int64) {
	sys := e.sys[system.HardwareNDS]
	_, programs, _ = sys.Dev.Counters()
	_, gcMoves = sys.STL.GCStats()
	return programs, gcMoves
}

func (e *sysEnv) close() error {
	var err error
	for _, s := range e.sys {
		if s != nil && s.STL != nil {
			err = errors.Join(err, s.STL.Close())
		}
	}
	return err
}

// complete advances the stream cursor and the clock past a command.
func (e *sysEnv) complete(stream uint8, kind system.Kind, at, done sim.Time) {
	e.served[kind].Add(int64(done - at))
	e.cursor[stream] = sim.Max(e.cursor[stream], done)
	for {
		cur := e.done.Load()
		if int64(done) <= cur || e.done.CompareAndSwap(cur, int64(done)) {
			return
		}
	}
}

func (e *sysEnv) do(op *Op, c *clientState) (opResult, error) {
	s := e.w.spaces[op.Space]
	sys := e.sys[s.kind]
	at := e.cursor[op.Stream]
	if e.mode == rungSTL {
		return e.doSTL(op, c, sys, at)
	}
	var st system.OpStats
	var res opResult
	var err error
	if s.kind == system.Baseline {
		runs := linearRuns(s, op.Coord, op.Sub)
		// A partition that is not one contiguous run costs the host a
		// marshalling copy per run: Figure 9's row-store baseline.
		_, st, err = sys.BaselineRead(at, runs, len(runs) > 1, 1)
	} else {
		v := e.views[op.Stream][op.Space]
		switch op.Kind {
		case opRead:
			res.Payload, st, err = sys.NDSReadInto(at, v, op.Coord[:], op.Sub[:], c.buf)
		case opWrite:
			var data []byte
			if !e.w.phantom {
				data = c.payload
			}
			st, err = sys.NDSWrite(at, v, op.Coord[:], op.Sub[:], data)
		case opScan:
			var r stl.ScanResult
			r, st, err = sys.NDSScan(at, v, op.Coord[:], op.Sub[:], stl.ScanQuery{Pred: stl.Predicate{Lo: op.Lo, Hi: op.Hi}})
			res.Matches, res.Total = r.Matches, r.Total
		case opReduce:
			var r stl.ReduceResult
			r, st, err = sys.NDSReduce(at, v, op.Coord[:], op.Sub[:], stl.ReduceQuery{Kind: stl.ReduceTopK, K: reduceK})
			res.Matches = r.TopK
		}
	}
	if err != nil {
		return res, err
	}
	e.complete(op.Stream, s.kind, at, st.Done)
	res.Bytes, res.Raw, res.Pages, res.Extents = st.Bytes, st.RawBytes, st.Pages, st.Extents
	res.Elapsed = time.Duration(st.Done - at)
	return res, nil
}

// doSTL enters below the host/link/controller model: the translation layer
// alone (the FTL for a baseline space).
func (e *sysEnv) doSTL(op *Op, c *clientState, sys *system.System, at sim.Time) (opResult, error) {
	s := e.w.spaces[op.Space]
	var res opResult
	if s.kind == system.Baseline {
		done := at
		ps := int64(sys.Cfg.Geometry.PageSize)
		for _, r := range linearRuns(s, op.Coord, op.Sub) {
			_, d, err := sys.FTL.Read(at, r.Off, r.Len)
			if err != nil {
				return res, err
			}
			done = sim.Max(done, d)
			res.Bytes += r.Len
			res.Extents++
			res.ReadPages += (r.Off%ps + r.Len + ps - 1) / ps
		}
		res.Pages = res.ReadPages
		e.complete(op.Stream, s.kind, at, done)
		res.Elapsed = time.Duration(done - at)
		return res, nil
	}
	t := sys.STL
	v := e.views[op.Stream][op.Space]
	e0, m0 := t.GCStats()
	var st stl.RequestStats
	var done sim.Time
	var err error
	switch op.Kind {
	case opRead:
		res.Payload, done, st, err = t.ReadPartitionInto(at, v, op.Coord[:], op.Sub[:], c.buf)
	case opWrite:
		var data []byte
		if !e.w.phantom {
			data = c.payload
		}
		done, st, err = t.WritePartition(at, v, op.Coord[:], op.Sub[:], data)
	case opScan:
		var r stl.ScanResult
		r, done, st, err = t.ScanPartition(at, v, op.Coord[:], op.Sub[:], stl.ScanQuery{Pred: stl.Predicate{Lo: op.Lo, Hi: op.Hi}})
		res.Matches, res.Total = r.Matches, r.Total
	case opReduce:
		var r stl.ReduceResult
		r, done, st, err = t.ReducePartition(at, v, op.Coord[:], op.Sub[:], stl.ReduceQuery{Kind: stl.ReduceTopK, K: reduceK})
		res.Matches = r.TopK
	}
	if err != nil {
		return res, err
	}
	e1, m1 := t.GCStats()
	e.complete(op.Stream, s.kind, at, done)
	res.Bytes, res.Extents = st.Bytes, st.Extents
	res.ReadPages, res.ProgPages = st.PagesRead, st.PagesProgrammed
	res.Pages = st.PagesRead + st.PagesProgrammed
	res.Blocks, res.Traversals = st.Blocks, st.Traversals
	res.GCErases, res.GCMoves = e1-e0, m1-m0
	res.Elapsed = time.Duration(done - at)
	return res, nil
}

// linearRuns decomposes a partition of a row-major linear layout into
// contiguous byte runs — the I/O requests an application on the baseline SSD
// must issue.
func linearRuns(s spaceDef, coord, sub [2]int64) []system.Run {
	es := int64(s.elem)
	rowBytes := s.dims[1] * es
	if sub[1] == s.dims[1] {
		return []system.Run{{Off: coord[0] * sub[0] * rowBytes, Len: sub[0] * rowBytes}}
	}
	runs := make([]system.Run, sub[0])
	for r := range runs {
		runs[r] = system.Run{Off: (coord[0]*sub[0]+int64(r))*rowBytes + coord[1]*sub[1]*es, Len: sub[1] * es}
	}
	return runs
}

// ---- nvm rung: the flash array alone, driven with each op's page counts ----

// nvmEnv replays the device work of each op — as many page reads, programs
// and erases as the stl rung counted for it — on a bare nvm.Device, with
// addresses striped one per channel. It is a synthetic rung: the real STL
// picks addresses by its allocation policy.
type nvmEnv struct {
	dev  *nvm.Device
	geo  nvm.Geometry
	plan []opResult
	next int // index into plan

	at     sim.Time
	rpos   int64 // next page of the read window
	ppos   int64 // pages programmed so far; the region is reused lap after lap
	erased int64 // blocks of the program region erased so far, in the order the cursor reaches them
	ppas   []nvm.PPA
	out    [][]byte
	progs  []nvm.ProgramOp
	page   []byte
}

// readWindowPages is how many pages of block 0 of every die set-up programs
// for the nvm rung's reads to cycle through.
const readWindowPages = 16

func (e *nvmEnv) dies() int64 { return int64(e.geo.Channels * e.geo.Banks) }

// striped maps linear page n of a region starting at block base to an
// address: consecutive pages land on consecutive channels.
func (e *nvmEnv) striped(n int64, base, pagesPerDie int) nvm.PPA {
	row := int(n / e.dies() % int64(pagesPerDie))
	return e.onDie(n%e.dies(), base+row/e.geo.PagesPerBlock, row%e.geo.PagesPerBlock)
}

// onDie addresses a page of die number die, dies counted channel first.
func (e *nvmEnv) onDie(die int64, block, page int) nvm.PPA {
	return nvm.PPA{Channel: int(die) % e.geo.Channels, Bank: int(die) / e.geo.Channels, Block: block, Page: page}
}

func buildNVM(w *workload, plan []opResult) (*nvmEnv, error) {
	cfg := w.config()
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, w.phantom)
	if err != nil {
		return nil, err
	}
	e := &nvmEnv{dev: dev, geo: cfg.Geometry, plan: plan, page: make([]byte, cfg.Geometry.PageSize)}
	fillRandom(e.page, 1)
	n := readWindowPages * e.dies()
	ops := make([]nvm.ProgramOp, n)
	for i := range ops {
		ops[i] = nvm.ProgramOp{P: e.striped(int64(i), 0, readWindowPages), Data: e.page}
	}
	if _, err := dev.ProgramPages(ops); err != nil {
		return nil, err
	}
	dev.ResetTimeline()
	e.erased = int64(e.geo.BlocksPerBank-1) * e.dies() // the whole region starts erased
	return e, nil
}

func (e *nvmEnv) simNow() time.Duration { return time.Duration(e.at) }
func (e *nvmEnv) close() error          { return nil }

// progRegion is the program region's size per die, in pages: every block but
// block 0, which holds the read window.
func (e *nvmEnv) progRegion() int { return (e.geo.BlocksPerBank - 1) * e.geo.PagesPerBlock }

func (e *nvmEnv) do(op *Op, c *clientState) (opResult, error) {
	p := e.plan[e.next]
	e.next++
	reads, progs := p.ReadPages+p.GCMoves, p.ProgPages+p.GCMoves
	if reads > 0 {
		if int64(cap(e.ppas)) < reads {
			e.ppas = make([]nvm.PPA, reads)
			e.out = make([][]byte, reads)
		}
		ppas, out := e.ppas[:reads], e.out[:reads]
		for i := range ppas {
			ppas[i] = e.striped(e.rpos, 0, readWindowPages)
			e.rpos++
		}
		done, err := e.dev.ReadPages(e.at, ppas, out)
		if err != nil {
			return opResult{}, err
		}
		e.at = sim.Max(e.at, done)
	}
	if progs > 0 {
		e.progs = e.progs[:0]
		for i := int64(0); i < progs; i++ {
			e.progs = append(e.progs, nvm.ProgramOp{At: e.at, P: e.striped(e.ppos, 1, e.progRegion()), Data: e.page})
			e.ppos++
		}
		done, err := e.dev.ProgramPages(e.progs)
		if err != nil {
			return opResult{}, err
		}
		e.at = sim.Max(e.at, done)
	}
	for i := int64(0); i < p.GCErases; i++ {
		if err := e.eraseNext(); err != nil {
			return opResult{}, err
		}
	}
	return opResult{Bytes: p.Bytes, Pages: p.Pages, Extents: p.Extents, ReadPages: reads, ProgPages: progs}, nil
}

// eraseNext erases the next block in the order the program cursor reaches
// them: block-row by block-row, one die after another. Erases may run ahead
// of the cursor by the whole region but never lap it — that would erase the
// row being programmed — so once a lap ahead they hit the block erased last,
// which costs the same.
func (e *nvmEnv) eraseNext() error {
	rowPages := e.dies() * int64(e.geo.PagesPerBlock)
	k := e.erased
	if limit := (e.ppos/rowPages + int64(e.geo.BlocksPerBank-1)) * e.dies(); k >= limit {
		k = limit - 1
	} else {
		e.erased++
	}
	row := int(k / e.dies() % int64(e.geo.BlocksPerBank-1))
	done, err := e.dev.EraseBlock(e.at, e.onDie(k%e.dies(), 1+row, 0))
	e.at = sim.Max(e.at, done)
	return err
}

// between runs outside the timed span of any op: where the ops' own erases
// have not kept ahead of the program cursor, it erases the block-row the
// next op will program into.
func (e *nvmEnv) between() error {
	if e.next >= len(e.plan) {
		return nil
	}
	p := e.plan[e.next]
	rowPages := e.dies() * int64(e.geo.PagesPerBlock)
	needRows := (e.ppos+p.ProgPages+p.GCMoves)/rowPages + 1
	for e.erased < needRows*e.dies() {
		if err := e.eraseNext(); err != nil {
			return err
		}
	}
	return nil
}

// ---- sim rung: the resource timelines alone ----

// simEnv books what each op books on the simulated timelines and nothing
// else: one bank and one channel reservation per page read or programmed, a
// bank reservation per erase, and the six host, link and controller
// reservations of a hardware-NDS command. Like the nvm rung it is synthetic.
type simEnv struct {
	plan     []opResult
	next     int
	tim      nvm.Timing
	xfer     sim.Time
	channels []*sim.Resource
	banks    []*sim.Resource
	stages   [6]*sim.Resource
	at       sim.Time
	pos      int
}

func buildSim(w *workload, plan []opResult) (*simEnv, error) {
	cfg := w.config()
	e := &simEnv{plan: plan, tim: cfg.Timing, xfer: cfg.Timing.TransferTime(cfg.Geometry.PageSize)}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		e.channels = append(e.channels, sim.NewResource("channel"))
	}
	for i := 0; i < cfg.Geometry.Channels*cfg.Geometry.Banks; i++ {
		e.banks = append(e.banks, sim.NewResource("bank"))
	}
	for i := range e.stages {
		e.stages[i] = sim.NewResource("stage")
	}
	return e, nil
}

func (e *simEnv) simNow() time.Duration { return time.Duration(e.at) }
func (e *simEnv) close() error          { return nil }

func (e *simEnv) do(op *Op, c *clientState) (opResult, error) {
	p := e.plan[e.next]
	e.next++
	at := e.at
	for _, s := range e.stages {
		_, at = s.Acquire(at, 2*sim.Microsecond)
	}
	done := at
	nch := len(e.channels)
	for i := int64(0); i < p.ReadPages+p.GCMoves; i++ {
		die := e.pos % len(e.banks)
		e.pos++
		_, sensed := e.banks[die].Acquire(at, e.tim.ReadPage)
		_, end := e.channels[die%nch].Acquire(sensed, e.xfer)
		done = sim.Max(done, end)
	}
	for i := int64(0); i < p.ProgPages+p.GCMoves; i++ {
		die := e.pos % len(e.banks)
		e.pos++
		_, moved := e.channels[die%nch].Acquire(at, e.xfer)
		_, end := e.banks[die].Acquire(moved, e.tim.ProgramPage)
		done = sim.Max(done, end)
	}
	for i := int64(0); i < p.GCErases; i++ {
		die := e.pos % len(e.banks)
		e.pos++
		_, end := e.banks[die].Acquire(at, e.tim.EraseBlock)
		done = sim.Max(done, end)
	}
	e.at = done
	return opResult{Bytes: p.Bytes, Pages: p.Pages, Extents: p.Extents}, nil
}
