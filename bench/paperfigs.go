package main

import (
	"math"
	"math/rand"
	"time"

	"nds/internal/experiments"
)

// figN is the side of paper_figs' matrix of doubles: Figure 9's sweep at a
// quarter of the paper's N=32768, where its bandwidths already have the
// paper's shape (EXPERIMENTS.md) and a phantom load takes a third of a second.
// figBlock is the side of the building blocks the sweeps are multiples of.
const (
	figN     = 8192
	figBlock = 256
)

// Spaces of paper_figs, one per evaluated system.
const (
	figBaseline = iota
	figSoftware
	figHardware
)

// Op classes of paper_figs.
const (
	classFigPage uint8 = iota // section 7.3: the worst-case single-page request
	classFigRow               // Figure 9a: 512 x N row block
	classFigCol               // Figure 9b: N x 512 column block
	classFigTile              // Figure 9c: 1024 x 1024 submatrix
)

// figureLap lists the requests one pass over Figure 9a-c and section 7.3
// makes at the first x-position of each panel (experiments.Figure9A/B/C,
// experiments.Overhead), on the systems and in the numbers the figures fetch
// them: the whole matrix in 512-row blocks on all three systems; one
// 512-column block gathered from the row-store baseline, the same bytes read
// contiguously (the column-store baseline), and the whole matrix in column
// blocks on both NDS systems; one column of 1024 x 1024 submatrices on the
// baseline and the whole matrix in submatrices on NDS; one page on each
// system. Where a figure fetches part of the matrix, r picks which part. The
// figures hand the baseline a whole sweep as one command of many runs; here
// it is one command per partition, like NDS, so that every op is one
// partition. The panels' further x-positions repeat these shapes with more
// pages per request (up to 512 MiB, 120 ms a request): with them in the lap,
// six interleaved runs spread p50_us by 0.09 where this lap spreads it by
// 0.02, so they are left to the fixed figure set (figureSet).
func figureLap(r *rand.Rand) []Op {
	var lap []Op
	add := func(space, class uint8, sub, coord [2]int64) {
		lap = append(lap, Op{Kind: opRead, Space: space, Class: class, Sub: sub, Coord: coord})
	}
	sweep := func(space, class uint8, sub [2]int64) {
		for i := int64(0); i*sub[0] < figN; i++ {
			for j := int64(0); j*sub[1] < figN; j++ {
				add(space, class, sub, [2]int64{i, j})
			}
		}
	}
	row, col, tile := [2]int64{2 * figBlock, figN}, [2]int64{figN, 2 * figBlock}, [2]int64{4 * figBlock, 4 * figBlock}
	sweep(figBaseline, classFigRow, row)
	sweep(figSoftware, classFigRow, row)
	sweep(figHardware, classFigRow, row)

	add(figBaseline, classFigCol, col, [2]int64{0, r.Int63n(figN / col[1])})
	add(figBaseline, classFigRow, row, [2]int64{r.Int63n(figN / row[0]), 0})
	sweep(figSoftware, classFigCol, col)
	sweep(figHardware, classFigCol, col)

	j := r.Int63n(figN / tile[1])
	for i := int64(0); i*tile[0] < figN; i++ {
		add(figBaseline, classFigTile, tile, [2]int64{i, j})
	}
	sweep(figSoftware, classFigTile, tile)
	sweep(figHardware, classFigTile, tile)

	// One 4 KiB page: two rows of one building block on NDS, 512 consecutive
	// doubles of a row on the baseline.
	add(figBaseline, classFigPage, [2]int64{1, 512}, [2]int64{r.Int63n(figN), r.Int63n(figN / 512)})
	for _, space := range []uint8{figSoftware, figHardware} {
		add(space, classFigPage, [2]int64{2, figBlock}, [2]int64{r.Int63n(figN / 2), r.Int63n(figN / figBlock)})
	}
	return lap
}

// figLapOps is how many requests one lap holds.
var figLapOps = len(figureLap(rand.New(rand.NewSource(0))))

// genPaperFigs strings laps of the figures' requests together, each lap in a
// seeded order: every lap holds the same requests, so the simulated metrics
// do not move with the seed, and every stretch of the timed pass holds much
// the same mix.
func genPaperFigs(w *workload, r *rand.Rand, n int) []Op {
	ops := make([]Op, 0, n+figLapOps)
	for len(ops) < n {
		lap := figureLap(r)
		r.Shuffle(len(lap), func(a, b int) { lap[a], lap[b] = lap[b], lap[a] })
		ops = append(ops, lap...)
	}
	return ops[:n]
}

// paperAnchor is one number the paper states and EXPERIMENTS.md records a
// measured counterpart for. Figure 9d's anchors hold only at N=32768 and are
// left out.
type paperAnchor struct {
	what  string
	paper float64
}

var paperAnchors = []paperAnchor{
	{"Figure 10 software NDS average speedup", 5.07},
	{"Figure 10 hardware NDS average speedup", 5.73},
	{"Figure 10 hardware/software advantage", 1.13},
	{"Figure 2a row-store/sub-block time", 2.11},
	{"Figure 2b fetch-time ratio", 1.92},
	{"section 7.3 software NDS added latency (us)", 41},
	{"section 7.3 hardware NDS added latency (us)", 17},
}

// figureSet runs the fixed reproduction set once — Figure 10's full Table-1
// catalog on baseline, software and hardware NDS, Figure 9a-d at N=8192,
// Figure 2a/2b and the section 7.3 overhead — and reports how long it took,
// the catalog averages, and the mean relative distance from the paper's
// stated anchors. Everything but the seconds is deterministic.
func figureSet(res *result) error {
	start := time.Now()
	f10, err := experiments.Figure10()
	if err != nil {
		return err
	}
	res.set("experiments.fig10_s", time.Since(start).Seconds(), "s")
	res.set("fig10_hw_speedup", f10.AvgSpeedupHW, "ratio")
	res.set("fig10_sw_speedup", f10.AvgSpeedupSW, "ratio")
	for _, r := range f10.Results {
		res.set("workloads.hw_speedup."+r.Spec.Name, r.SpeedupHardware, "ratio")
	}

	t0 := time.Now()
	p, err := experiments.NewPlatform(figN * figN * 8)
	if err != nil {
		return err
	}
	m, err := p.LoadMatrix(figN)
	if err != nil {
		return err
	}
	if _, err := experiments.Figure9A(p, m); err != nil {
		return err
	}
	if _, err := experiments.Figure9B(p, m); err != nil {
		return err
	}
	if _, err := experiments.Figure9C(p, m); err != nil {
		return err
	}
	if _, err := experiments.Figure9D(figN); err != nil {
		return err
	}
	res.set("experiments.fig9_s", time.Since(t0).Seconds(), "s")

	t0 = time.Now()
	f2a := experiments.Figure2A()
	f2b, err := experiments.Figure2B()
	if err != nil {
		return err
	}
	res.set("experiments.fig2_s", time.Since(t0).Seconds(), "s")

	ovh, err := experiments.Overhead(figN)
	if err != nil {
		return err
	}
	res.set("experiments.overhead_sw_us", ovh.SoftwareDelta.Micros(), "us")
	res.set("experiments.overhead_hw_us", ovh.HardwareDelta.Micros(), "us")
	res.set("run_s", time.Since(start).Seconds(), "s")

	measured := []float64{
		f10.AvgSpeedupSW, f10.AvgSpeedupHW, f10.AvgSpeedupHW / f10.AvgSpeedupSW,
		f2a.Ratio, f2b.FetchRatio,
		ovh.SoftwareDelta.Micros(), ovh.HardwareDelta.Micros(),
	}
	var sum float64
	for i, a := range paperAnchors {
		sum += math.Abs(measured[i]/a.paper - 1)
	}
	res.set("paper_err", sum/float64(len(paperAnchors)), "ratio")
	return nil
}
