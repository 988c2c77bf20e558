package main

import (
	"fmt"

	"nds/internal/datagen"
	"nds/internal/system"
	"nds/internal/workloads"
)

// The device-resident kernel benchmarks: the workload kernels whose selection
// phase (frontier expansion, candidate pruning, delta filtering) can execute
// at the STL, measured both ways. runKernels prints the Figure-10 view of the
// timed catalog with the pushdown pipelines added, then the functional
// kernels on real data, whose link-byte savings are deterministic
// (TestDeviceKernelInterconnectSavings holds the same graphs and seeds to a
// 5x floor).

// measureKernel runs one functional device kernel on hardware NDS in its
// pushdown and read-everything forms and returns both runs' link accounting.
func measureKernel(name string) (push, read workloads.KernelStats, err error) {
	var run func(sys *system.System, push bool) (workloads.KernelStats, error)
	var capacity int64
	switch name {
	case "kernel-bfs":
		const n = 128
		adj, err := datagen.Graph(n, 600, 27)
		if err != nil {
			return push, read, err
		}
		capacity = n * n * 4
		run = func(sys *system.System, p bool) (workloads.KernelStats, error) {
			_, ks, err := workloads.BFSDevice(sys, adj, 0, p)
			return ks, err
		}
	case "kernel-knn":
		const (
			pts = 256
			dim = 64
			k   = 8
		)
		points, centres, err := datagen.Clustering(pts, dim, 4, 28)
		if err != nil {
			return push, read, err
		}
		query := make([]float32, dim)
		copy(query, centres.Data[:dim])
		capacity = 2*pts*dim*4 + 8*pts
		run = func(sys *system.System, p bool) (workloads.KernelStats, error) {
			_, ks, err := workloads.KNNDevice(sys, points, query, k, p)
			return ks, err
		}
	default:
		return push, read, fmt.Errorf("unknown kernel %q", name)
	}
	// Each form runs on a fresh device, so neither sees the other's state.
	fresh := func(p bool) (workloads.KernelStats, error) {
		sys, err := system.New(system.HardwareNDS, system.PrototypeConfig(capacity, false))
		if err != nil {
			return workloads.KernelStats{}, err
		}
		return run(sys, p)
	}
	if push, err = fresh(true); err != nil {
		return push, read, err
	}
	read, err = fresh(false)
	return push, read, err
}

// runKernels prints the pushdown view of the Figure-10 harness: for every
// push-enabled catalog workload, the end-to-end simulated time of each
// platform with and without the selection pushed down, the per-iteration
// stage split (fetch/copy/kernel), and the hardware link traffic; then a BFS
// selectivity sweep showing where pushing the frontier scan down stops
// paying; then the functional kernels' measured savings.
func runKernels() {
	fmt.Println("\n=== Device-resident workload kernels: pushdown stage split (Figure 10) ===")
	fmt.Println("catalog at 1/4 scale; push = selection phase executed at the STL")
	fmt.Println()
	var bfs workloads.Spec
	for _, s := range workloads.Catalog() {
		if s.Push == nil {
			continue
		}
		if s.Name == "BFS" {
			bfs = s
		}
		res, err := workloads.Run(s.Scaled(4))
		if err != nil {
			fatalf("kernels %s: %v", s.Name, err)
		}
		fmt.Printf("%-9s baseline %v   sw %v -> %v   hw %v -> %v (win %.2fx)\n",
			s.Name, res.Baseline, res.Software, res.SoftwarePush,
			res.Hardware, res.HardwarePush, res.PushWinHW)
		fmt.Printf("%9s stages/iter hw: fetch %v -> %v, copy %v -> %v, kernel %v -> %v\n",
			"", res.HWFetch, res.HWPushFetch, res.CopyRead, res.CopyPush,
			res.KernelRead, res.KernelPush)
		fmt.Printf("%9s link B/iter: hw %d -> %d (%.0fx), sw %d -> %d\n",
			"", res.HWLinkBytes, res.HWPushLinkBytes,
			float64(res.HWLinkBytes)/float64(res.HWPushLinkBytes),
			res.SWLinkBytes, res.SWPushLinkBytes)
	}

	fmt.Println("\nBFS frontier-scan selectivity sweep (hardware NDS):")
	fmt.Printf("%-12s %14s %16s %8s\n", "selectivity", "hw-push sim", "hw link B/iter", "win")
	for _, sel := range []float64{0.001, 0.01, 0.1} {
		s := bfs.Scaled(4)
		p := *s.Push
		p.Selectivity = sel
		s.Push = &p
		res, err := workloads.Run(s)
		if err != nil {
			fatalf("kernels sweep: %v", err)
		}
		fmt.Printf("%-12s %14v %16d %7.2fx\n",
			fmt.Sprintf("%g%%", sel*100), res.HardwarePush, res.HWPushLinkBytes, res.PushWinHW)
	}

	fmt.Println("\nfunctional device kernels (hardware NDS, real data):")
	for _, name := range []string{"kernel-bfs", "kernel-knn"} {
		push, read, err := measureKernel(name)
		if err != nil {
			fatalf("kernels %s: %v", name, err)
		}
		// The rate is the bytes the kernel logically examined (the
		// read-everything link volume) over the pushdown run's simulated time.
		fmt.Printf("  %-10s %6.0fx fewer interconnect bytes than read-everything (device-side %.1f sim-MB/s)\n",
			name, float64(read.LinkBytes)/float64(push.LinkBytes),
			float64(read.LinkBytes)/push.Done.Seconds()/1e6)
	}
	fmt.Println("\nwin = hardware sim time without pushdown / with pushdown; >1 means the")
	fmt.Println("link-byte savings outweigh the controller's slower selection scan")
}
