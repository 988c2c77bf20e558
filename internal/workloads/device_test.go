package workloads

import (
	"math"
	"testing"

	"nds/internal/datagen"
	"nds/internal/nvm"
	"nds/internal/system"
)

// The device-kernel differential suite: every device-resident kernel, in both
// its pushdown and read-everything forms, must produce results bit-identical
// to the in-memory host kernel on every device configuration — the pushdown
// operators ride the read path's plan, so compression, caching and faults
// must all be invisible to the kernel's output.

type devConfig struct {
	name string
	kind system.Kind
	mut  func(*system.Config)
}

func deviceConfigs() []devConfig {
	return []devConfig{
		{"hardware", system.HardwareNDS, nil},
		{"software", system.SoftwareNDS, nil},
		{"cached", system.HardwareNDS, func(c *system.Config) {
			c.STL.CacheBytes = 1 << 20
			c.STL.PrefetchDepth = 2
		}},
		{"compressed", system.HardwareNDS, func(c *system.Config) { c.STL.Compress = true }},
		{"faulted", system.HardwareNDS, func(c *system.Config) {
			c.Faults = nvm.FaultPlan{Seed: 5, ProgramFailEvery: 40, ReadRetryEvery: 16}
		}},
	}
}

func kernelSystem(t *testing.T, dc devConfig, capacity int64) *system.System {
	t.Helper()
	cfg := system.PrototypeConfig(capacity, false)
	if dc.mut != nil {
		dc.mut(&cfg)
	}
	sys, err := system.New(dc.kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDeviceBFSDifferential(t *testing.T) {
	const n = 96
	adj, err := datagen.Graph(n, 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BFS(adj, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range deviceConfigs() {
		for _, push := range []bool{true, false} {
			sys := kernelSystem(t, dc, n*n*4)
			got, ks, err := BFSDevice(sys, adj, 0, push)
			if err != nil {
				t.Fatalf("%s/push=%v: %v", dc.name, push, err)
			}
			if ks.Ops == 0 || ks.LinkBytes <= 0 {
				t.Fatalf("%s/push=%v: no traffic recorded (%+v)", dc.name, push, ks)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/push=%v: level[%d] = %d, want %d", dc.name, push, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDeviceSSSPDifferential(t *testing.T) {
	const n = 80
	w, err := datagen.Graph(n, 320, 22)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SSSP(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range deviceConfigs() {
		for _, push := range []bool{true, false} {
			sys := kernelSystem(t, dc, n*n*4)
			got, _, err := SSSPDevice(sys, w, 0, push)
			if err != nil {
				t.Fatalf("%s/push=%v: %v", dc.name, push, err)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s/push=%v: dist[%d] = %v, want %v (bit-exact)", dc.name, push, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDeviceKNNDifferential(t *testing.T) {
	const (
		n = 120
		d = 16
		k = 8
	)
	points, centres, err := datagen.Clustering(n, d, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	query := make([]float32, d)
	copy(query, centres.Data[:d])
	want, err := KNN(points, query, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range deviceConfigs() {
		for _, push := range []bool{true, false} {
			sys := kernelSystem(t, dc, 2*n*d*4+8*n)
			got, _, err := KNNDevice(sys, points, query, k, push)
			if err != nil {
				t.Fatalf("%s/push=%v: %v", dc.name, push, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/push=%v: %d neighbours, want %d", dc.name, push, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/push=%v: neighbour[%d] = %d, want %d", dc.name, push, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDeviceKMeansDifferential(t *testing.T) {
	const (
		n     = 96
		d     = 8
		k     = 4
		iters = 3
	)
	points, _, err := datagen.Clustering(n, d, k, 24)
	if err != nil {
		t.Fatal(err)
	}
	wantC, wantA, err := KMeans(points, k, iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range deviceConfigs() {
		for _, push := range []bool{true, false} {
			sys := kernelSystem(t, dc, 2*n*d*4+8*n*k)
			gotC, gotA, _, err := KMeansDevice(sys, points, k, iters, push)
			if err != nil {
				t.Fatalf("%s/push=%v: %v", dc.name, push, err)
			}
			for i := range wantA {
				if gotA[i] != wantA[i] {
					t.Fatalf("%s/push=%v: assign[%d] = %d, want %d", dc.name, push, i, gotA[i], wantA[i])
				}
			}
			for i := range wantC.Data {
				if math.Float32bits(gotC.Data[i]) != math.Float32bits(wantC.Data[i]) {
					t.Fatalf("%s/push=%v: centroid elem %d = %v, want %v", dc.name, push, i, gotC.Data[i], wantC.Data[i])
				}
			}
		}
	}
}

func TestDevicePageRankDifferential(t *testing.T) {
	const (
		n       = 64
		iters   = 5
		damping = float32(0.85)
		tol     = float32(1e-5)
	)
	adj, err := datagen.PageRankGraph(n, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PageRankDelta(adj, damping, iters, tol)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range deviceConfigs() {
		for _, push := range []bool{true, false} {
			sys := kernelSystem(t, dc, n*n*4)
			got, _, err := PageRankDevice(sys, adj, damping, iters, tol, push)
			if err != nil {
				t.Fatalf("%s/push=%v: %v", dc.name, push, err)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s/push=%v: rank[%d] = %v, want %v (bit-exact)", dc.name, push, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPageRankDeltaConverges pins the delta-filtered oracle against classic
// power iteration: with tol=0 they compute the same fixed point (modulo
// float summation order), and a small tol stays close.
func TestPageRankDeltaConverges(t *testing.T) {
	const n = 64
	adj, err := datagen.PageRankGraph(n, 4, 26)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := PageRank(adj, 0.85, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tol := range []float32{0, 1e-6} {
		delta, err := PageRankDelta(adj, 0.85, 20, tol)
		if err != nil {
			t.Fatal(err)
		}
		for i := range classic {
			if diff := math.Abs(float64(delta[i] - classic[i])); diff > 1e-4 {
				t.Fatalf("tol=%g: rank[%d] = %v vs classic %v (diff %g)", tol, i, delta[i], classic[i], diff)
			}
		}
	}
}

// TestDeviceKernelInterconnectSavings is the acceptance gate's deterministic
// form: on hardware NDS at the test graphs' densities (well under 10%
// selectivity), the pushdown kernels move at least 5x fewer interconnect
// bytes than their read-everything counterparts — and the software platform,
// which ships raw pages regardless, saves nothing.
func TestDeviceKernelInterconnectSavings(t *testing.T) {
	const n = 128
	adj, err := datagen.Graph(n, 600, 27)
	if err != nil {
		t.Fatal(err)
	}
	hw := devConfig{"hardware", system.HardwareNDS, nil}
	_, push, err := BFSDevice(kernelSystem(t, hw, n*n*4), adj, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	_, read, err := BFSDevice(kernelSystem(t, hw, n*n*4), adj, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if push.LinkBytes*5 > read.LinkBytes {
		t.Fatalf("BFS pushdown link bytes %d not 5x under read-everything %d", push.LinkBytes, read.LinkBytes)
	}

	const (
		pts = 256
		dim = 64
		k   = 8
	)
	points, centres, err := datagen.Clustering(pts, dim, 4, 28)
	if err != nil {
		t.Fatal(err)
	}
	query := make([]float32, dim)
	copy(query, centres.Data[:dim])
	capacity := int64(2*pts*dim*4 + 8*pts)
	_, kpush, err := KNNDevice(kernelSystem(t, hw, capacity), points, query, k, true)
	if err != nil {
		t.Fatal(err)
	}
	_, kread, err := KNNDevice(kernelSystem(t, hw, capacity), points, query, k, false)
	if err != nil {
		t.Fatal(err)
	}
	if kpush.LinkBytes*5 > kread.LinkBytes {
		t.Fatalf("KNN pushdown link bytes %d not 5x under read-everything %d", kpush.LinkBytes, kread.LinkBytes)
	}

	// Software NDS ships every raw page either way: pushing down must not
	// reduce link traffic (it can only add result pages on top of nothing —
	// the scan's raw pages equal the read's).
	sw := devConfig{"software", system.SoftwareNDS, nil}
	_, swPush, err := BFSDevice(kernelSystem(t, sw, n*n*4), adj, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	_, swRead, err := BFSDevice(kernelSystem(t, sw, n*n*4), adj, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if swPush.LinkBytes < swRead.LinkBytes/2 {
		t.Fatalf("software NDS pushdown link bytes %d suspiciously below read's %d", swPush.LinkBytes, swRead.LinkBytes)
	}
}
