package main

import (
	"fmt"
	"math/rand"

	"nds/internal/nvm"
	"nds/internal/system"
)

// rung is one entry point of the stack, outermost first. A workload's timed
// pass runs at its top rung; the traced run replays the same ops at every
// rung of its ladder.
type rung int

const (
	rungWire   rung = iota // ndsclient.Do -> unix socket -> ndsserver
	rungExec               // nds.Device.Exec / ExecRead
	rungNDS                // nds.Space.ReadInto / Write / Scan / Reduce
	rungSystem             // system.System.NDS* / Baseline*
	rungSTL                // stl.STL.*Partition* (ftl.FTL.Read for the baseline)
	rungNVM                // nvm.Device.ReadPages / ProgramPages / EraseBlock
	rungSim                // sim.Resource.Acquire
	numRungs
)

var rungNames = [numRungs]string{"wire", "exec", "nds", "system", "stl", "nvm", "sim"}

func (r rung) String() string { return rungNames[r] }

// spaceDef is one space of a workload. kind selects the system that holds it
// (every data-bearing workload is hardware NDS; paper_figs has one space on
// each of the three evaluated systems).
type spaceDef struct {
	kind system.Kind
	elem int
	dims [2]int64
	fill [2]int64 // partition shape set-up fills the space with; zero: filled tile by tile with write payloads
}

func (s spaceDef) bytes() int64 { return int64(s.elem) * s.dims[0] * s.dims[1] }

// reduceK is the top-k depth of pushdown_scan's reduce ops.
const reduceK = 16

// workload is one named, seed-generated set of inputs plus the configuration
// of the system it runs on.
type workload struct {
	name string
	why  string

	spaces  []spaceDef
	streams int    // closed-loop clients, each with its own view or connection
	ladder  []rung // entry points the traced run replays, outermost first
	timed   rung   // entry point of the timed pass and the replay pass
	primary opKind // op whose latency p50_us / p99_us report

	capacity      int64 // nds.Options.CapacityHint
	cacheBytes    int64
	prefetchDepth int
	syncGC        bool
	phantom       bool
	// geometry overrides the prototype array. Only aged_write sets it:
	// nds.Open cannot build an array under 1 GiB, and ageing one that size
	// takes longer than a whole run may.
	geometry *nvm.Geometry

	payload   int      // bytes of one write payload (0: the workload never writes)
	tile      [2]int64 // shape of the tiles writes address
	ageOps    int      // ops of the script set-up executes to age the device
	replayOps int      // ops the single-stream replay pass (and each ladder rung) executes
	rate      int      // ops/s the timed pass will not exceed: sizes the script

	classes []string // names of Op.Class values the stl rung's cost is split by
	figures bool     // the fixed figure set belongs to this workload

	gen func(w *workload, r *rand.Rand, n int) []Op
}

const mib = 1 << 20

var workloads = []*workload{
	{
		name: "shape_read",
		why:  "1 MiB row, column and tile reads 4:1:4 of a 64 MiB space, cache off: stl plan, sim booking, nvm reads and the assembly copy do the work; wire and cache do none",
		spaces: []spaceDef{
			{kind: system.HardwareNDS, elem: 4, dims: [2]int64{4096, 4096}, fill: [2]int64{64, 4096}},
		},
		streams:   2,
		ladder:    []rung{rungExec, rungNDS, rungSystem, rungSTL, rungNVM, rungSim},
		timed:     rungNDS,
		primary:   opRead,
		capacity:  64 * mib,
		replayOps: 2000,
		rate:      8000,
		classes:   []string{classRow: "row", classCol: "col", classTile: "tile"},
		gen:       genShapeRead,
	},
	{
		name: "aged_write",
		why:  "one writer overwrites 1 MiB tiles, Zipf(1.1), on an array aged until write amplification levels: the only workload where GC, allocation and erase do the work; reads idle",
		// 9 spaces x 16 tiles = 144 MiB: 50 % of the logical budget, rounded
		// up to whole spaces. Set-up fills them tile by tile.
		spaces:  repeatSpace(spaceDef{kind: system.HardwareNDS, elem: 4, dims: [2]int64{2048, 2048}}, 9),
		streams: 1,
		ladder:  []rung{rungSystem, rungSTL, rungNVM, rungSim},
		timed:   rungSystem,
		primary: opWrite,
		syncGC:  true,
		// 32 channels x 1 bank x 9 blocks: 288 MiB raw, 259 MiB logical.
		geometry:  &nvm.Geometry{Channels: 32, Banks: 1, BlocksPerBank: 9, PagesPerBlock: 256, PageSize: 4096},
		payload:   mib,
		tile:      [2]int64{512, 512},
		ageOps:    4 * 288, // four raw capacities of overwrites: incremental write-amp is level from there
		replayOps: 1500,
		rate:      4000,
		gen:       genAgedWrite,
	},
	{
		name: "net_mixed",
		why:  "64x64 tiles over a unix socket, 2 connections at depth 1, Zipf(1.1), 90 % read / 10 % write, background GC: proto framing and the ndsserver executor dominate, device work is a quarter of a round trip",
		spaces: []spaceDef{
			{kind: system.HardwareNDS, elem: 4, dims: [2]int64{2048, 2048}, fill: [2]int64{128, 2048}},
		},
		streams:   2,
		ladder:    []rung{rungWire, rungExec, rungNDS, rungSystem, rungSTL, rungNVM, rungSim},
		timed:     rungWire,
		primary:   opRead,
		capacity:  64 * mib,
		payload:   64 * 64 * 4,
		tile:      [2]int64{64, 64},
		replayOps: 10000,
		rate:      80000,
		gen:       genNetMixed,
	},
	{
		name: "pushdown_scan",
		why:  "Scan of 512x512 tiles at 1 % selectivity (70 %) and top-16 Reduce of 64x4096 bands (30 %) on a 64 MiB uint32 space: shape_read's plan with a kernel sink instead of a copy sink",
		spaces: []spaceDef{
			{kind: system.HardwareNDS, elem: 4, dims: [2]int64{4096, 4096}, fill: [2]int64{64, 4096}},
		},
		streams:   2,
		ladder:    []rung{rungExec, rungNDS, rungSystem, rungSTL, rungNVM, rungSim},
		timed:     rungNDS,
		primary:   opScan,
		capacity:  64 * mib,
		replayOps: 1000,
		rate:      5000,
		gen:       genPushdownScan,
	},
	{
		name: "cached_rescan",
		why:  "32 MiB cache, prefetch depth 2; one client sweeps row bands, the other column bands, alternately on a 16 MiB space that fits the cache and a 128 MiB space four times its size",
		spaces: []spaceDef{
			{kind: system.HardwareNDS, elem: 4, dims: [2]int64{2048, 2048}, fill: [2]int64{128, 2048}},
			{kind: system.HardwareNDS, elem: 4, dims: [2]int64{4096, 8192}, fill: [2]int64{32, 8192}},
		},
		streams:       2,
		ladder:        []rung{rungExec, rungNDS, rungSystem, rungSTL, rungNVM, rungSim},
		timed:         rungNDS,
		primary:       opRead,
		capacity:      160 * mib,
		cacheBytes:    32 * mib,
		prefetchDepth: 2,
		replayOps:     2000,
		rate:          30000,
		gen:           genCachedRescan,
	},
	{
		name: "paper_figs",
		why:  "phantom, 1 thread: laps of the requests Figure 9a-c (first x-position) and section 7.3 make of baseline, software and hardware NDS at N=8192; no bytes move, so only simulator speed shows",
		spaces: []spaceDef{
			{kind: system.Baseline, elem: 8, dims: [2]int64{figN, figN}},
			{kind: system.SoftwareNDS, elem: 8, dims: [2]int64{figN, figN}},
			{kind: system.HardwareNDS, elem: 8, dims: [2]int64{figN, figN}},
		},
		streams:   1,
		ladder:    []rung{rungSystem, rungSTL, rungNVM, rungSim},
		timed:     rungSystem,
		primary:   opRead,
		capacity:  figN * figN * 8,
		phantom:   true,
		replayOps: 5 * figLapOps, // whole laps; five, so that peak_rss_mib spans some ten collections, not two
		rate:      2000,
		figures:   true,
		gen:       genPaperFigs,
	},
}

func repeatSpace(d spaceDef, n int) []spaceDef {
	out := make([]spaceDef, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scriptLen is how many ops a run of the given length generates: ageing and
// replay prefix plus far more than the timed pass can consume (clients wrap
// around if they ever reach the end).
func (w *workload) scriptLen(seconds int) int {
	return w.ageOps + w.replayOps + w.rate*seconds
}

// genShapeRead deals row, column and tile reads in exact 4:1:4 proportion:
// every eighteen ops are two shuffled hands of nine, one per client, dealt
// alternately. Each client's mix — and with it every simulated metric — then
// does not drift with the seed; only the order and the positions do.
func genShapeRead(w *workload, r *rand.Rand, n int) []Op {
	shapes := [3][2]int64{classRow: {64, 4096}, classCol: {4096, 64}, classTile: {512, 512}}
	hands := make([][]uint8, w.streams)
	for s := range hands {
		hands[s] = []uint8{classRow, classRow, classRow, classRow, classCol, classTile, classTile, classTile, classTile}
	}
	d := w.spaces[0].dims
	ops := make([]Op, n)
	for i := range ops {
		s, k := i%w.streams, i/w.streams%9
		if k == 0 {
			r.Shuffle(9, func(a, b int) { hands[s][a], hands[s][b] = hands[s][b], hands[s][a] })
		}
		c := hands[s][k]
		sub := shapes[c]
		ops[i] = Op{Kind: opRead, Stream: uint8(s), Class: c, Sub: sub,
			Coord: [2]int64{r.Int63n(d[0] / sub[0]), r.Int63n(d[1] / sub[1])}}
	}
	return ops
}

// tileOp addresses tile number t of the workload's tile grid; the grid
// spans the spaces in order.
func (w *workload) tileOp(kind opKind, t int) Op {
	d := w.spaces[0].dims
	perRow := int(d[1] / w.tile[1])
	perSpace := perRow * int(d[0]/w.tile[0])
	k := t % perSpace
	return Op{Kind: kind, Space: uint8(t / perSpace), Sub: w.tile,
		Coord: [2]int64{int64(k / perRow), int64(k % perRow)}}
}

// tileOf is tileOp's inverse.
func (w *workload) tileOf(op *Op) int {
	d := w.spaces[0].dims
	perRow := int(d[1] / w.tile[1])
	perSpace := perRow * int(d[0]/w.tile[0])
	return int(op.Space)*perSpace + int(op.Coord[0])*perRow + int(op.Coord[1])
}

// tileFilled reports whether set-up fills the spaces tile by tile with write
// payloads (numbered before the script's ops) instead of from a mirror.
func (w *workload) tileFilled() bool {
	return !w.phantom && w.payload > 0 && w.spaces[0].fill == [2]int64{}
}

func (w *workload) numTiles() int {
	d := w.spaces[0].dims
	return len(w.spaces) * int(d[0]/w.tile[0]) * int(d[1]/w.tile[1])
}

func genAgedWrite(w *workload, r *rand.Rand, n int) []Op {
	z := newZipfTiles(r, 1.1, w.numTiles())
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = w.tileOp(opWrite, z.next())
	}
	return ops
}

func genNetMixed(w *workload, r *rand.Rand, n int) []Op {
	z := newZipfTiles(r, 1.1, w.numTiles())
	ops := make([]Op, n)
	writeAt := make([]int, w.streams)
	for i := range ops {
		// Each client writes once in every ten of its own ops, at a seeded
		// position: the share is exact per client, so neither the mix nor
		// the simulated metrics drift with the seed.
		s, k := i%w.streams, i/w.streams%10
		if k == 0 {
			writeAt[s] = r.Intn(10)
		}
		kind := opRead
		if k == writeAt[s] {
			kind = opWrite
		}
		ops[i] = w.tileOp(kind, z.next())
		ops[i].Stream = uint8(s)
	}
	return ops
}

func genPushdownScan(w *workload, r *rand.Rand, n int) []Op {
	d := w.spaces[0].dims
	// 1 % of the uint32 value range; the fill is uniform over it.
	const width = uint64(1) << 32 / 100
	hands := make([][]opKind, w.streams)
	for s := range hands {
		hands[s] = []opKind{opScan, opScan, opScan, opScan, opScan, opScan, opScan, opReduce, opReduce, opReduce}
	}
	ops := make([]Op, n)
	for i := range ops {
		s, k := i%w.streams, i/w.streams%10
		if k == 0 {
			r.Shuffle(10, func(a, b int) { hands[s][a], hands[s][b] = hands[s][b], hands[s][a] })
		}
		o := Op{Kind: hands[s][k], Stream: uint8(s)}
		if o.Kind == opScan {
			o.Sub = [2]int64{512, 512}
			o.Lo = uint64(r.Int63n(int64(uint64(1)<<32 - width)))
			o.Hi = o.Lo + width - 1
		} else {
			o.Sub = [2]int64{64, 4096}
		}
		o.Coord = [2]int64{r.Int63n(d[0] / o.Sub[0]), r.Int63n(d[1] / o.Sub[1])}
		ops[i] = o
	}
	return ops
}

// genCachedRescan alternates phases of replayOps/2 ops: a phase on the space
// that fits the cache, then one on the space four times its size, so the
// replayed prefix holds exactly one of each. Within a phase stream 0 sweeps
// row bands in order and stream 1 column bands, from a seeded start.
func genCachedRescan(w *workload, r *rand.Rand, n int) []Op {
	phase := w.replayOps / 2
	ops := make([]Op, n)
	var pos [2]int64
	for i := range ops {
		p := (i / phase) % 2
		if i%phase == 0 {
			pos = [2]int64{r.Int63n(1 << 20), r.Int63n(1 << 20)}
		}
		d := w.spaces[p].dims
		s := i % w.streams
		o := Op{Kind: opRead, Stream: uint8(s), Space: uint8(p), Class: uint8(p)}
		rows := mib / (d[1] * 4) // band height giving 1 MiB ops
		cols := mib / (d[0] * 4)
		if s == 0 {
			o.Sub = [2]int64{rows, d[1]}
			o.Coord = [2]int64{pos[0] % (d[0] / rows), 0}
		} else {
			o.Sub = [2]int64{d[0], cols}
			o.Coord = [2]int64{0, pos[1] % (d[1] / cols)}
		}
		pos[s]++
		ops[i] = o
	}
	return ops
}
