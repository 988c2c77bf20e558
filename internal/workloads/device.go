package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
	"nds/internal/tensor"
)

// Device-resident workload kernels: the selection phase of each Table 1
// graph/data-mining kernel executed at the STL through the pushdown
// operators, instead of reading every byte to the host and filtering there.
//
//   - BFS expands frontiers by predicate-scanning adjacency rows: only the
//     (neighbour index, weight key) matches cross the interconnect, not the
//     n-element row.
//   - SSSP relaxes by scanning the rows of reachable vertices; edge weights
//     come back exactly through the order-preserving key transform.
//   - KNN reduces top-k over a per-row distance-key column: 32 + 12k result
//     bytes (a 4-byte row index and an 8-byte key each) replace the whole
//     point matrix.
//   - KMeans assigns each point with an argmin reduce (top-1) over its
//     distance-key row: one 32-byte result per point per iteration.
//   - PageRank delta-filters: vertices whose rank moved less than tol since
//     they last propagated stop crossing the link entirely; active rows are
//     fetched as edge scans.
//
// Float values become scannable through tensor.Key32/Key64 (the sign-flip
// transform): spaces store keys, predicates are key ranges, and scan results
// decode back to the exact original bits. The operator model has no
// arbitrary in-storage compute, so where a kernel needs data-dependent keys
// (KNN/KMeans distances), the host stages them — standing in for the
// controller/accelerator distance pass a production device would run — and
// the staging write is charged to the kernel's link traffic. What the
// harness compares is therefore the full steady-state interconnect volume of
// each design.
//
// Every kernel takes push=false to run the identical algorithm with its
// selection phase as read-everything + host filter: the same commands ride
// the same data path, so the pair isolates the pushdown delta, and both are
// pinned bit-identical to the in-memory host kernels (compute.go) by the
// differential suite.

// KernelStats aggregates the simulated cost of one device-resident kernel
// run. Ops are issued serially (each at the previous completion), so Done is
// the end-to-end simulated latency of the kernel's storage traffic.
type KernelStats struct {
	LinkBytes    int64    // bytes that crossed the host interconnect (result pages under pushdown, raw pages otherwise)
	PayloadBytes int64    // partition payload the device was charged for (reads and scans alike)
	Ops          int64    // storage commands issued
	Done         sim.Time // simulated completion of the command chain
}

func (k *KernelStats) add(st system.OpStats) {
	k.LinkBytes += st.RawBytes
	k.PayloadBytes += st.Bytes
	k.Ops++
	if st.Done > k.Done {
		k.Done = st.Done
	}
}

// edgePred matches strictly positive float32 keys: every stored weight w > 0.
// Key32(+0) is 1<<31 and keys are monotone, so (1<<31)+1 .. max is exactly
// "greater than +0" (graph kernels validate weights are non-negative and
// NaN-free at staging, so this is equivalently w != 0).
var edgePred = stl.Predicate{Lo: uint64(tensor.Key32(0)) + 1, Hi: uint64(^uint32(0))}

// stageKeys creates a rows x cols space of 4-byte elements holding the
// order-preserving keys of m's entries and writes it through the NDS write
// path. Timelines are reset afterwards: staging models dataset ingest, which
// both the pushdown and read-everything variants share, so KernelStats
// measures only the kernel's own traffic.
func stageKeys(sys *system.System, m *tensor.Matrix) (*stl.View, error) {
	rows, cols := int64(m.Rows), int64(m.Cols)
	v, err := NewSpace(sys, 4, []int64{rows, cols})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, rows*cols*4)
	for i, f := range m.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], tensor.Key32(f))
	}
	if _, err := sys.NDSWrite(0, v, []int64{0, 0}, []int64{rows, cols}, buf); err != nil {
		return nil, err
	}
	sys.ResetTimelines()
	return v, nil
}

// stageGraphKeys stages an adjacency/weight matrix, rejecting negative or NaN
// weights — the device kernels' edge predicate is a single key range, which
// expresses w > 0 but not w != 0 across both signs.
func stageGraphKeys(sys *system.System, m *tensor.Matrix) (*stl.View, error) {
	for _, w := range m.Data {
		if !(w >= 0) {
			return nil, fmt.Errorf("workloads: device graph kernels need non-negative weights, got %v", w)
		}
	}
	return stageKeys(sys, m)
}

// writeKeys64 writes an 8-byte key payload and charges it to the kernel.
func writeKeys64(sys *system.System, v *stl.View, rows, cols int64, keys []uint64, at sim.Time, ks *KernelStats) (sim.Time, error) {
	buf := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(buf[8*i:], k)
	}
	st, err := sys.NDSWrite(at, v, []int64{0, 0}, []int64{rows, cols}, buf)
	if err != nil {
		return at, err
	}
	ks.add(st)
	return st.Done, nil
}

// rowEdges fetches the out-edges of row u of a key-encoded n x n adjacency
// space: under pushdown a predicate scan whose matches are (column, weight
// key) pairs; otherwise a full row read filtered on the host. Both return
// identical (v, w) sequences in ascending column order.
func rowEdges(sys *system.System, view *stl.View, u int, n int64, push bool, at sim.Time, ks *KernelStats, fn func(v int, w float32)) (sim.Time, error) {
	coord, sub := []int64{int64(u), 0}, []int64{1, n}
	if push {
		res, st, err := sys.NDSScan(at, view, coord, sub, stl.ScanQuery{Pred: edgePred})
		if err != nil {
			return at, err
		}
		ks.add(st)
		for _, m := range res.Matches {
			fn(int(m.Index), tensor.FromKey32(uint32(m.Value)))
		}
		return st.Done, nil
	}
	raw, st, err := sys.NDSRead(at, view, coord, sub)
	if err != nil {
		return at, err
	}
	ks.add(st)
	for j := int64(0); j < n; j++ {
		if w := tensor.FromKey32(binary.LittleEndian.Uint32(raw[4*j:])); w > 0 {
			fn(int(j), w)
		}
	}
	return st.Done, nil
}

// BFSDevice computes breadth-first levels with the adjacency resident on the
// device: per frontier vertex, the neighbour selection runs at the STL (push)
// or as a full-row read (baseline). Results are bit-identical to BFS.
func BFSDevice(sys *system.System, adj *tensor.Matrix, src int, push bool) ([]int, KernelStats, error) {
	var ks KernelStats
	n := adj.Rows
	if adj.Cols != n {
		return nil, ks, fmt.Errorf("workloads: BFS needs a square adjacency, got %dx%d", adj.Rows, adj.Cols)
	}
	if src < 0 || src >= n {
		return nil, ks, fmt.Errorf("workloads: BFS source %d out of range", src)
	}
	view, err := stageGraphKeys(sys, adj)
	if err != nil {
		return nil, ks, err
	}
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []int{src}
	at := sim.Time(0)
	for d := 1; len(frontier) > 0; d++ {
		var next []int
		for _, u := range frontier {
			at, err = rowEdges(sys, view, u, int64(n), push, at, &ks, func(v int, _ float32) {
				if level[v] < 0 {
					level[v] = d
					next = append(next, v)
				}
			})
			if err != nil {
				return nil, ks, err
			}
		}
		frontier = next
	}
	return level, ks, nil
}

// SSSPDevice runs Bellman-Ford with the weight matrix resident on the
// device: each pass fetches only the rows of currently-reachable vertices,
// and under pushdown only their edges cross the link. Results are
// bit-identical to SSSP (weights decode exactly through the key transform).
func SSSPDevice(sys *system.System, w *tensor.Matrix, src int, push bool) ([]float32, KernelStats, error) {
	var ks KernelStats
	n := w.Rows
	if w.Cols != n {
		return nil, ks, fmt.Errorf("workloads: SSSP needs a square weight matrix")
	}
	if src < 0 || src >= n {
		return nil, ks, fmt.Errorf("workloads: SSSP source %d out of range", src)
	}
	view, err := stageGraphKeys(sys, w)
	if err != nil {
		return nil, ks, err
	}
	inf := float32(math.Inf(1))
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	at := sim.Time(0)
	for pass := 0; pass < n-1; pass++ {
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] == inf {
				continue
			}
			du := dist[u]
			at, err = rowEdges(sys, view, u, int64(n), push, at, &ks, func(v int, wt float32) {
				if du+wt < dist[v] {
					dist[v] = du + wt
					changed = true
				}
			})
			if err != nil {
				return nil, ks, err
			}
		}
		if !changed {
			break
		}
	}
	return dist, ks, nil
}

// KNNDevice answers a k-nearest-neighbour query with the selection running
// at the STL: per-point distance keys are staged as one 8-byte-element row
// (complemented, so the device's largest-first top-k returns the k smallest
// distances, ties to the lowest index), and a single ReduceTopK brings back
// 32 + 12k result bytes. The baseline reads the whole point matrix from the
// device and selects on the host. Indices are bit-identical to KNN.
func KNNDevice(sys *system.System, points *tensor.Matrix, query []float32, k int, push bool) ([]int, KernelStats, error) {
	var ks KernelStats
	n, d := points.Rows, points.Cols
	if len(query) != d {
		return nil, ks, fmt.Errorf("workloads: query dimension %d does not match points %d", len(query), d)
	}
	if k <= 0 || k > n {
		return nil, ks, fmt.Errorf("workloads: k=%d out of range for %d points", k, n)
	}
	ptsView, err := stageKeys(sys, points)
	if err != nil {
		return nil, ks, err
	}
	at := sim.Time(0)
	if !push {
		// Read-everything baseline: fetch the point matrix, compute and
		// select on the host.
		raw, st, err := sys.NDSRead(at, ptsView, []int64{0, 0}, []int64{int64(n), int64(d)})
		if err != nil {
			return nil, ks, err
		}
		ks.add(st)
		fetched := tensor.NewMatrix(n, d)
		for i := range fetched.Data {
			fetched.Data[i] = tensor.FromKey32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		out, err := KNN(fetched, query, k)
		return out, ks, err
	}
	// Pushdown: stage the per-point distance-key column (the stand-in for a
	// device-side distance pass) and reduce top-k over it.
	qm := tensor.NewMatrix(1, d)
	copy(qm.Data, query)
	keys := make([]uint64, n)
	for i := 0; i < n; i++ {
		keys[i] = ^tensor.Key64(pointDist(points, qm, i, 0))
	}
	distView, err := NewSpace(sys, 8, []int64{1, int64(n)})
	if err != nil {
		return nil, ks, err
	}
	at, err = writeKeys64(sys, distView, 1, int64(n), keys, at, &ks)
	if err != nil {
		return nil, ks, err
	}
	res, st, err := sys.NDSReduce(at, distView, []int64{0, 0}, []int64{1, int64(n)}, stl.ReduceQuery{Kind: stl.ReduceTopK, K: k})
	if err != nil {
		return nil, ks, err
	}
	ks.add(st)
	out := make([]int, len(res.TopK))
	for i, m := range res.TopK {
		out[i] = int(m.Index)
	}
	return out, ks, nil
}

// KMeansDevice runs Lloyd iterations with the assignment pruning at the STL:
// each iteration stages the n x k distance-key matrix (the device-side
// distance pass stand-in) and issues one argmin reduce per point row — a
// 32-byte result replaces the distance row. The baseline reads the point
// matrix back each iteration and assigns on the host. Centroids and
// assignments are bit-identical to KMeans.
func KMeansDevice(sys *system.System, points *tensor.Matrix, k, iters int, push bool) (*tensor.Matrix, []int, KernelStats, error) {
	var ks KernelStats
	n, d := points.Rows, points.Cols
	if k <= 0 || k > n {
		return nil, nil, ks, fmt.Errorf("workloads: k=%d out of range for %d points", k, n)
	}
	ptsView, err := stageKeys(sys, points)
	if err != nil {
		return nil, nil, ks, err
	}
	var distView *stl.View
	if push {
		if distView, err = NewSpace(sys, 8, []int64{int64(n), int64(k)}); err != nil {
			return nil, nil, ks, err
		}
	}
	centroids := points.Sub(0, 0, k, d)
	assign := make([]int, n)
	keys := make([]uint64, n*k)
	at := sim.Time(0)
	for it := 0; it < iters; it++ {
		if push {
			for i := 0; i < n; i++ {
				for c := 0; c < k; c++ {
					keys[i*k+c] = tensor.Key64(pointDist(points, centroids, i, c))
				}
			}
			if at, err = writeKeys64(sys, distView, int64(n), int64(k), keys, at, &ks); err != nil {
				return nil, nil, ks, err
			}
			for i := 0; i < n; i++ {
				res, st, err := sys.NDSReduce(at, distView, []int64{int64(i), 0}, []int64{1, int64(k)}, stl.ReduceQuery{Kind: stl.ReduceMin})
				if err != nil {
					return nil, nil, ks, err
				}
				ks.add(st)
				at = st.Done
				assign[i] = int(res.Index)
			}
		} else {
			raw, st, err := sys.NDSRead(at, ptsView, []int64{0, 0}, []int64{int64(n), int64(d)})
			if err != nil {
				return nil, nil, ks, err
			}
			ks.add(st)
			at = st.Done
			fetched := tensor.NewMatrix(n, d)
			for i := range fetched.Data {
				fetched.Data[i] = tensor.FromKey32(binary.LittleEndian.Uint32(raw[4*i:]))
			}
			assignPoints(fetched, centroids, assign)
		}
		centroids = updateCentroids(points, centroids, assign, k)
	}
	return centroids, assign, ks, nil
}

// PageRankDevice runs delta-filtered PageRank with the adjacency resident on
// the device: a degree pass of per-row predicate-count reduces, then
// iterations where only vertices whose rank moved by more than tol fetch
// their adjacency row (as an edge scan under pushdown). Converged vertices
// stop crossing the interconnect entirely. Ranks are bit-identical to
// PageRankDelta with the same tol.
func PageRankDevice(sys *system.System, adj *tensor.Matrix, damping float32, iters int, tol float32, push bool) ([]float32, KernelStats, error) {
	var ks KernelStats
	n := adj.Rows
	if adj.Cols != n {
		return nil, ks, fmt.Errorf("workloads: PageRank needs a square adjacency")
	}
	view, err := stageGraphKeys(sys, adj)
	if err != nil {
		return nil, ks, err
	}
	// Degree pass: a 32-byte count result per row instead of the row.
	outDeg := make([]float32, n)
	at := sim.Time(0)
	for u := 0; u < n; u++ {
		if push {
			pred := edgePred
			res, st, err := sys.NDSReduce(at, view, []int64{int64(u), 0}, []int64{1, int64(n)}, stl.ReduceQuery{Kind: stl.ReduceCount, Pred: &pred})
			if err != nil {
				return nil, ks, err
			}
			ks.add(st)
			at = st.Done
			outDeg[u] = float32(res.Count)
		} else {
			deg := 0
			at, err = rowEdges(sys, view, u, int64(n), false, at, &ks, func(int, float32) { deg++ })
			if err != nil {
				return nil, ks, err
			}
			outDeg[u] = float32(deg)
		}
	}
	rank := make([]float32, n)
	for i := range rank {
		rank[i] = 1 / float32(n)
	}
	prop := make([]float32, n)
	acc := make([]float32, n)
	base := (1 - damping) / float32(n)
	for it := 0; it < iters; it++ {
		for u := 0; u < n; u++ {
			if outDeg[u] == 0 {
				continue
			}
			delta := rank[u] - prop[u]
			ad := delta
			if ad < 0 {
				ad = -ad
			}
			if ad <= tol {
				continue // converged: this row stops crossing the link
			}
			share := damping * delta / outDeg[u]
			at, err = rowEdges(sys, view, u, int64(n), push, at, &ks, func(v int, _ float32) {
				acc[v] += share
			})
			if err != nil {
				return nil, ks, err
			}
			prop[u] = rank[u]
		}
		var dangling float32
		for u := 0; u < n; u++ {
			if outDeg[u] == 0 {
				dangling += rank[u]
			}
		}
		spread := damping * dangling / float32(n)
		for v := 0; v < n; v++ {
			rank[v] = base + spread + acc[v]
		}
	}
	return rank, ks, nil
}
