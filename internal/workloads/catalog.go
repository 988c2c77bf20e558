// Package workloads implements the ten applications of Table 1 — graph
// traversal (BFS, SSSP), linear algebra (Block-GEMM), physics simulation
// (Hotspot), data mining (K-Means, KNN), graph analytics (PageRank), image
// processing (Conv2D), and tensor algebra (TTV, TC) — in two forms:
//
//   - a *timed* form (timing.go) that drives the simulated
//     platforms with each application's real access pattern and models the
//     compute kernel with the calibrated accelerator curves, reproducing
//     Figure 10; and
//   - a small-scale *functional* form (compute.go) with real Go kernels that
//     read their inputs through the actual NDS data path, validating
//     correctness end to end.
//
// It also holds the one way to build and load an evaluation platform
// (platform.go): NewPlatform, NewSpace, and the loaders LoadLinear and
// LoadBands, which refuse a load the collector ran in.
//
// Dataset dimensions are the paper's divided by a factor recorded per spec
// (Scale). That scaling is not shown to preserve speedups: one run of Figure
// 10 at the paper's dimensions took 112 s on a 2-core machine with a
// 2.3–2.5 GiB peak in phantom mode, and moved the software / hardware NDS
// average speedups from 5.15× / 6.02× to 4.38× / 5.12× (TC from 2.89× to
// 1.04×). Which scale the reproduction reports is an open decision
// (ROADMAP.md, "Figure 10 at the paper's scale").
package workloads

import (
	"math"

	"nds/internal/accel"
	"nds/internal/proto"
)

// Fetch is one partition fetched per pipeline iteration.
type Fetch struct {
	Sub []int64 // sub-dimensionality of the partition
	At  []int64 // representative coordinate used for stage measurement
}

// PushSpec models a workload's pushdown variant: the selection phase — the
// part of the kernel that decides which elements matter — executes at the
// STL, so on hardware NDS only result bytes cross the interconnect while
// software NDS still ships every raw page before filtering at host speed.
type PushSpec struct {
	// Selectivity is the fraction of each fetched partition's elements the
	// selection returns (scan-style selection).
	Selectivity float64
	// Reduce marks top-k reduce selection — a 32-byte result header plus
	// one record per entry — instead of a scan (24-byte header plus one
	// record per match; proto.Layout sizes the records).
	Reduce bool
	// K is the top-k depth when Reduce is set.
	K int
}

// Spec describes one Table 1 workload.
type Spec struct {
	Name       string
	Category   string
	SharedWith string // dataset-sharing partner, if any ("" otherwise)

	Dims    []int64 // dataset dimensionality (scaled)
	Elem    int     // element size in bytes
	BBOrder int     // STL building-block order (0 = default 2-D)

	Fetches []Fetch // partitions fetched each iteration
	Iters   int64   // pipeline iterations (tiles x algorithm passes)

	Curve   accel.RateCurve // compute-kernel rate curve
	RateDim int64           // working-set dimension for the curve lookup

	// GatherQD is the baseline's I/O queue depth when it gathers a
	// partition with per-row requests (§6.2: each baseline is individually
	// tuned; the ported implementations use small read-ahead rings).
	GatherQD int

	// Blocked declares that the kernel consumes objects in
	// building-block-tiled layout, so NDS assembly copies whole pages
	// (tensor kernels operating on tiles).
	Blocked bool

	// Scale is the divisor applied to the paper's dataset dimensions.
	Scale int64

	// Push, when non-nil, is the workload's device-resident form: the
	// selection phase runs as an in-storage scan/reduce over each fetched
	// partition (BFS/SSSP frontier expansion, KNN/KMeans distance pruning,
	// PageRank delta filtering).
	Push *PushSpec
}

// Catalog returns the ten workloads of Table 1.
//
// Access-pattern notes (the paper gives kernel sub-dimensions; the pattern
// rationale follows each workload's algorithm):
//
//   - BFS consumes adjacency rows (out-neighbour lists) — sequential in the
//     row-store baseline, which is why §7.2 reports almost no software-NDS
//     benefit for BFS.
//   - SSSP (Bellman-Ford, gather form) relaxes by destination vertex:
//     column bands of the adjacency matrix.
//   - GEMM fetches 2-D tile pairs (Tensor-Core cuBLAS via MSplitGEMM).
//   - Hotspot and Conv2D fetch square interior tiles.
//   - K-Means computes distances feature-major on the GPU: column bands of
//     the point matrix (the transposed consumer view NDS provides for free).
//   - KNN shares K-Means' dataset but streams it row-major — the elasticity
//     pair of §6.2.
//   - PageRank alternates a contiguous out-edge row band with an in-rank
//     column band (GraphChi-style shards).
//   - TTV and TC share a 3-D tensor (3-D building blocks); TTV fetches
//     mode-2 bricks (strided in a linear layout), TC fetches lateral slabs.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "BFS", Category: "Graph Traversal", SharedWith: "SSSP",
			Dims: []int64{32768, 32768}, Elem: 1, Scale: 2,
			// The GPU frontier kernel indexes neighbour lists through an
			// offset table, so it consumes the adjacency in page-aligned
			// segments (G-Store-style blocked layout): Blocked assembly.
			Fetches: []Fetch{{Sub: []int64{32, 32768}, At: []int64{160, 0}}},
			Iters:   1024, // frontier batches of 32 adjacency rows
			Curve:   accel.VectorKernel(), RateDim: 32768,
			GatherQD: 2, Blocked: true,
			// Frontier expansion: scan each adjacency batch for edges into
			// the frontier; the graph's density bounds the match fraction.
			Push: &PushSpec{Selectivity: 0.002},
		},
		{
			Name: "SSSP", Category: "Graph Traversal", SharedWith: "BFS",
			Dims: []int64{32768, 4096}, Elem: 4, Scale: 2,
			Fetches: []Fetch{{Sub: []int64{32768, 512}, At: []int64{0, 3}}},
			Iters:   8 * 8, // 8 destination bands x 8 relaxation passes
			Curve:   accel.VectorKernel(), RateDim: 32768,
			GatherQD: 4,
			// Relaxation fetches only edges of reachable vertices.
			Push: &PushSpec{Selectivity: 0.002},
		},
		{
			Name: "GEMM", Category: "Linear Algebra",
			Dims: []int64{32768, 32768}, Elem: 4, Scale: 2,
			Fetches: []Fetch{
				{Sub: []int64{8192, 8192}, At: []int64{1, 1}}, // A tile
				{Sub: []int64{8192, 8192}, At: []int64{2, 3}}, // B tile
			},
			Iters: 64, // (N/tile)^3
			Curve: accel.TensorCores(), RateDim: 8192,
			GatherQD: 2,
		},
		{
			Name: "Hotspot", Category: "Physics Simulation",
			Dims: []int64{32768, 32768}, Elem: 4, Scale: 2,
			Fetches: []Fetch{{Sub: []int64{4096, 4096}, At: []int64{3, 3}}},
			Iters:   64 * 4, // 64 tiles x 4 time steps
			Curve:   accel.CUDACores(), RateDim: 4096,
			GatherQD: 2,
		},
		{
			Name: "KMeans", Category: "Data Mining", SharedWith: "KNN",
			Dims: []int64{32768, 8192}, Elem: 4, Scale: 2,
			Fetches: []Fetch{{Sub: []int64{32768, 512}, At: []int64{0, 7}}},
			Iters:   16 * 10, // 16 feature bands x 10 clustering iterations
			Curve:   accel.VectorKernel(), RateDim: 32768,
			GatherQD: 4,
			// Assignment pruning: one argmin result per point row of the
			// 512-wide band crosses the link instead of the band.
			Push: &PushSpec{Selectivity: 1.0 / 512},
		},
		{
			Name: "KNN", Category: "Data Mining", SharedWith: "KMeans",
			Dims: []int64{32768, 8192}, Elem: 4, Scale: 2,
			Fetches: []Fetch{{Sub: []int64{2048, 8192}, At: []int64{5, 0}}},
			Iters:   16,
			Curve:   accel.VectorKernel(), RateDim: 32768,
			GatherQD: 1,
			// Candidate pruning: a top-k reduce over per-row distance keys
			// replaces streaming the candidate block to the host.
			Push: &PushSpec{Reduce: true, K: 16},
		},
		{
			Name: "PageRank", Category: "Graph",
			Dims: []int64{32768, 32768}, Elem: 4, Scale: 2,
			Fetches: []Fetch{
				{Sub: []int64{4096, 32768}, At: []int64{3, 0}}, // out-edge shard (contiguous)
				{Sub: []int64{32768, 4096}, At: []int64{0, 3}}, // in-rank column band
			},
			Iters: 8 * 4, // 8 shards x 4 power iterations
			Curve: accel.VectorKernel(), RateDim: 32768,
			GatherQD: 4,
			// Delta filtering: only edges of vertices whose rank is still
			// moving cross the link (density x active fraction).
			Push: &PushSpec{Selectivity: 0.004},
		},
		{
			Name: "Conv2D", Category: "Image Processing",
			Dims: []int64{32768, 32768}, Elem: 4, Scale: 2,
			Fetches: []Fetch{{Sub: []int64{4096, 4096}, At: []int64{2, 5}}},
			Iters:   64,
			Curve:   accel.CUDACores(), RateDim: 4096,
			GatherQD: 2,
		},
		{
			Name: "TTV", Category: "Tensor Algebra", SharedWith: "TC",
			Dims: []int64{512, 512, 512}, Elem: 4, BBOrder: 3, Scale: 4,
			Fetches: []Fetch{{Sub: []int64{512, 512, 64}, At: []int64{0, 0, 3}}},
			Iters:   8 * 2,
			Curve:   accel.TensorCores(), RateDim: 512,
			GatherQD: 1, Blocked: true,
		},
		{
			Name: "TC", Category: "Tensor Algebra", SharedWith: "TTV",
			Dims: []int64{512, 512, 512}, Elem: 4, BBOrder: 3, Scale: 4,
			Fetches: []Fetch{{Sub: []int64{512, 64, 512}, At: []int64{0, 3, 0}}},
			Iters:   8 * 8,
			Curve:   accel.TensorCores(), RateDim: 512,
			GatherQD: 1, Blocked: true,
		},
	}
}

// Scaled returns the spec with dataset dimensions and fetch partitions
// divided by div and iterations cut to a quarter (floor 4) — the reduced
// scale the harness's quick sweeps and tests run at. Pushdown parameters are
// scale-free (Selectivity is a fraction, K a fixed depth) and carry over.
func (s Spec) Scaled(div int64) Spec {
	out := s
	out.Dims = append([]int64(nil), s.Dims...)
	out.Fetches = make([]Fetch, len(s.Fetches))
	for i := range out.Dims {
		out.Dims[i] /= div
	}
	for i, f := range s.Fetches {
		sub := append([]int64(nil), f.Sub...)
		at := append([]int64(nil), f.At...)
		for j := range sub {
			sub[j] /= div
			if sub[j] < 1 {
				sub[j] = 1
			}
			if (at[j]+1)*sub[j] > out.Dims[j] {
				at[j] = 0
			}
		}
		out.Fetches[i] = Fetch{Sub: sub, At: at}
	}
	out.Iters /= 4
	if out.Iters < 4 {
		out.Iters = 4
	}
	return out
}

// Bytes is the dataset size in bytes.
func (s Spec) Bytes() int64 {
	n := int64(s.Elem)
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// FetchBytes is the payload volume fetched per pipeline iteration.
func (s Spec) FetchBytes() int64 {
	var total int64
	for _, f := range s.Fetches {
		n := int64(s.Elem)
		for _, d := range f.Sub {
			n *= d
		}
		total += n
	}
	return total
}

// pushResultBytes is the result volume one fetch's pushdown selection
// returns, at the wire's size (proto.Layout.ResultSize): a scan header plus
// one record per match at the spec's selectivity, or a reduce header plus
// one record per top-k entry. The selection declares no value range, so the
// indexes take the Elias–Fano code over the fetch's shape and the values
// keep the element's full width.
func (s Spec) pushResultBytes(f Fetch) int64 {
	if s.Push == nil {
		return 0
	}
	l := proto.LayoutFor(s.Elem, f.Sub, 0, math.MaxUint64)
	if s.Push.Reduce {
		return l.ResultSize(proto.OpReduce, int64(s.Push.K))
	}
	elems := int64(1)
	for _, d := range f.Sub {
		elems *= d
	}
	return l.ResultSize(proto.OpScan, int64(float64(elems)*s.Push.Selectivity))
}

// PushResultBytes is the per-iteration result volume of the pushdown
// selection — what crosses the interconnect on hardware NDS, and what the
// host pipeline's copy and kernel stages consume under pushdown.
func (s Spec) PushResultBytes() int64 {
	var total int64
	for _, f := range s.Fetches {
		total += s.pushResultBytes(f)
	}
	return total
}
