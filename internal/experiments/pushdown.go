package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"nds"
	"nds/internal/datagen"
	"nds/internal/system"
	"nds/internal/workloads"
)

// In-storage compute, which the paper's workloads never use: the same
// selective query as read-then-filter and as an in-storage scan on both NDS
// implementations, a BFS frontier-scan selectivity sweep, and the functional
// device kernels on real data. Hardware NDS runs the operator on the
// controller — slower compute, but only the matches cross the interconnect;
// software NDS filters at host speed but ships every raw page first. The
// sweeps show where each side of the [P2] tradeoff wins.

// The pushdown sweep's space: pdDim² 8-byte elements (8 MiB) scanned as
// pdTiles disjoint pdTile² tiles.
const (
	pdDim   = 1024
	pdTile  = 256
	pdTiles = (pdDim / pdTile) * (pdDim / pdTile)
)

// PushdownPoint is one mode and selectivity of the pushdown sweep: the
// interconnect bytes and summed latency of reading every tile, and of
// scanning every tile in storage.
type PushdownPoint struct {
	Mode               nds.Mode
	Selectivity        string
	ReadLink, ScanLink int64
	ReadSim, ScanSim   time.Duration
}

// SweepPushdown scans the 8 MiB space at three selectivities on both NDS
// modes, cache off. Element j holds j%1000, so the predicate [0, hi] selects
// (hi+1)/10 percent of any aligned tile.
func SweepPushdown() ([]PushdownPoint, error) {
	data := make([]byte, pdDim*pdDim*8)
	for j := 0; j < pdDim*pdDim; j++ {
		binary.LittleEndian.PutUint64(data[8*j:], uint64(j%1000))
	}
	var pts []PushdownPoint
	for _, mode := range []nds.Mode{nds.ModeHardware, nds.ModeSoftware} {
		for _, sel := range []struct {
			label string
			hi    uint64
		}{{"0.1%", 0}, {"1%", 9}, {"10%", 99}} {
			p := PushdownPoint{Mode: mode, Selectivity: sel.label}
			if err := p.measure(data, nds.ScanQuery{Pred: nds.Predicate{Lo: 0, Hi: sel.hi}}); err != nil {
				return nil, err
			}
			pts = append(pts, p)
		}
	}
	return pts, nil
}

// measure loads data on a fresh device of p's mode and reads, then scans,
// every tile.
func (p *PushdownPoint) measure(data []byte, q nds.ScanQuery) error {
	d, err := nds.Open(nds.Options{Mode: p.Mode, CapacityHint: 32 << 20})
	if err != nil {
		return err
	}
	defer d.Close()
	dims := []int64{pdDim, pdDim}
	id, err := d.CreateSpace(8, dims)
	if err != nil {
		return err
	}
	v, err := d.OpenSpace(id, dims)
	if err != nil {
		return err
	}
	defer v.Close()
	if _, err := v.Write([]int64{0, 0}, dims, data); err != nil {
		return err
	}
	sub := []int64{pdTile, pdTile}
	for t := int64(0); t < pdTiles; t++ {
		coord := []int64{t / (pdDim / pdTile), t % (pdDim / pdTile)}
		_, rst, err := v.Read(coord, sub)
		if err != nil {
			return err
		}
		_, sst, err := v.Scan(coord, sub, q)
		if err != nil {
			return err
		}
		p.ReadLink += rst.RawBytes
		p.ScanLink += sst.RawBytes
		p.ReadSim += rst.Elapsed
		p.ScanSim += sst.Elapsed
	}
	return nil
}

// KernelSweep is the "sweep kernels" section: BFS's pushdown pipeline at
// three frontier-scan selectivities, and the functional device kernels.
type KernelSweep struct {
	BFS        []workloads.Result // at 1/4 scale; Spec.Push.Selectivity is the point
	Functional []KernelPoint
}

// KernelPoint is one functional device kernel on hardware NDS, run in its
// pushdown and its read-everything form.
type KernelPoint struct {
	Name       string
	Push, Read workloads.KernelStats
}

// SweepKernels measures the kernel sweep. The BFS pipeline runs at 1/4 of
// the catalog's scale, where a run takes a sixteenth of the time it takes at
// full scale.
func SweepKernels() (KernelSweep, error) {
	var k KernelSweep
	var bfs workloads.Spec
	for _, s := range workloads.Catalog() {
		if s.Name == "BFS" {
			bfs = s
		}
	}
	for _, sel := range []float64{0.001, 0.01, 0.1} {
		s := bfs.Scaled(4)
		p := *s.Push
		p.Selectivity = sel
		s.Push = &p
		res, err := workloads.Run(s)
		if err != nil {
			return k, err
		}
		k.BFS = append(k.BFS, res)
	}
	for _, name := range []string{"kernel-bfs", "kernel-knn"} {
		kp, err := measureKernel(name)
		if err != nil {
			return k, fmt.Errorf("%s: %w", name, err)
		}
		k.Functional = append(k.Functional, kp)
	}
	return k, nil
}

// measureKernel runs one functional device kernel in both forms, each on a
// fresh device so neither sees the other's state. The inputs are
// TestDeviceKernelInterconnectSavings' graphs and seeds.
func measureKernel(name string) (KernelPoint, error) {
	kp := KernelPoint{Name: name}
	var run func(sys *system.System, push bool) (workloads.KernelStats, error)
	var capacity int64
	switch name {
	case "kernel-bfs":
		const n = 128
		adj, err := datagen.Graph(n, 600, 27)
		if err != nil {
			return kp, err
		}
		capacity = n * n * 4
		run = func(sys *system.System, push bool) (workloads.KernelStats, error) {
			_, ks, err := workloads.BFSDevice(sys, adj, 0, push)
			return ks, err
		}
	case "kernel-knn":
		const pts, dim, k = 256, 64, 8
		points, centres, err := datagen.Clustering(pts, dim, 4, 28)
		if err != nil {
			return kp, err
		}
		query := make([]float32, dim)
		copy(query, centres.Data[:dim])
		capacity = 2*pts*dim*4 + 8*pts
		run = func(sys *system.System, push bool) (workloads.KernelStats, error) {
			_, ks, err := workloads.KNNDevice(sys, points, query, k, push)
			return ks, err
		}
	}
	for _, form := range []struct {
		push bool
		out  *workloads.KernelStats
	}{{true, &kp.Push}, {false, &kp.Read}} {
		sys, err := system.New(system.HardwareNDS, system.PrototypeConfig(capacity, false))
		if err != nil {
			return kp, err
		}
		*form.out, err = run(sys, form.push)
		sys.Close()
		if err != nil {
			return kp, err
		}
	}
	return kp, nil
}
