package nds_test

// One benchmark per table/figure of the paper's evaluation, plus ablation
// benchmarks for the design decisions DESIGN.md calls out. Each benchmark
// regenerates its experiment on the simulated platform and reports the
// figure's headline quantities as custom metrics (MB/s of simulated
// bandwidth, x of speedup), so `go test -bench=.` reproduces the evaluation
// end to end. The full row/series form is experiments.Report, which
// cmd/ndsbench prints.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"nds"
	"nds/internal/experiments"
	"nds/internal/nvm"
	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
	"nds/internal/workloads"
)

const benchN = 4096 // microbenchmark matrix side; paper scale is 32768

func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(workloads.Catalog()); got != 10 {
			b.Fatalf("catalog has %d workloads", got)
		}
	}
}

func BenchmarkFigure2A(b *testing.B) {
	var r experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2A()
	}
	b.ReportMetric(r.Ratio, "ratio")
}

func BenchmarkFigure2B(b *testing.B) {
	var r experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure2B()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Ratio, "ratio")
	b.ReportMetric(r.FetchRatio, "fetch-ratio")
}

func BenchmarkFigure3(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Dim == 512 {
			b.ReportMetric(r.TensorCores, "TCU-peak-MB/s")
		}
		if r.Dim == 16384 {
			b.ReportMetric(r.InternalSSD, "SSD-internal-MB/s")
		}
	}
}

func fig9Platform(b *testing.B) (*experiments.Platform, *experiments.Matrix2D) {
	b.Helper()
	p, err := experiments.NewPlatform(benchN * benchN * 8)
	if err != nil {
		b.Fatal(err)
	}
	m, err := p.LoadMatrix(benchN)
	if err != nil {
		b.Fatal(err)
	}
	return p, m
}

func BenchmarkFigure9Row(b *testing.B) {
	p, m := fig9Platform(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pts []experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure9A(p, m)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.BaselineMB, "baseline-MB/s")
	b.ReportMetric(last.SoftwareMB, "swNDS-MB/s")
	b.ReportMetric(last.HardwareMB, "hwNDS-MB/s")
}

func BenchmarkFigure9Col(b *testing.B) {
	p, m := fig9Platform(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pts []experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure9B(p, m)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.BaselineMB, "rowstore-MB/s")
	b.ReportMetric(last.BaselineAlt, "colstore-MB/s")
	b.ReportMetric(last.HardwareMB, "hwNDS-MB/s")
}

func BenchmarkFigure9Sub(b *testing.B) {
	p, m := fig9Platform(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pts []experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure9C(p, m)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.BaselineMB, "baseline-MB/s")
	b.ReportMetric(last.HardwareMB, "hwNDS-MB/s")
}

func BenchmarkFigure9Write(b *testing.B) {
	b.ReportAllocs()
	var w experiments.Fig9Write
	for i := 0; i < b.N; i++ {
		var err error
		w, err = experiments.Figure9D(benchN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(w.BaselineRowMB, "baseline-MB/s")
	b.ReportMetric(w.SoftwareMB, "swNDS-MB/s")
	b.ReportMetric(w.HardwareMB, "hwNDS-MB/s")
}

// BenchmarkFigure10 runs three representative Table 1 workloads (tiled,
// column-band, and sequential-row access classes) at quarter scale; the full
// ten-workload sweep at catalog scale is `ndsbench -fig 10`.
func BenchmarkFigure10(b *testing.B) {
	byName := map[string]workloads.Spec{}
	for _, s := range workloads.Catalog() {
		byName[s.Name] = s
	}
	scale := func(s workloads.Spec) workloads.Spec {
		s.Dims = append([]int64(nil), s.Dims...)
		s.Fetches = append([]workloads.Fetch(nil), s.Fetches...)
		for i := range s.Dims {
			s.Dims[i] /= 4
		}
		for i := range s.Fetches {
			sub := append([]int64(nil), s.Fetches[i].Sub...)
			at := append([]int64(nil), s.Fetches[i].At...)
			for j := range sub {
				sub[j] /= 4
				if sub[j] < 1 {
					sub[j] = 1
				}
				if (at[j]+1)*sub[j] > s.Dims[j] {
					at[j] = 0
				}
			}
			s.Fetches[i] = workloads.Fetch{Sub: sub, At: at}
		}
		s.Iters /= 4
		if s.Iters < 4 {
			s.Iters = 4
		}
		return s
	}
	var hot, sssp, bfs workloads.Result
	for i := 0; i < b.N; i++ {
		var err error
		if hot, err = workloads.Run(scale(byName["Hotspot"])); err != nil {
			b.Fatal(err)
		}
		if sssp, err = workloads.Run(scale(byName["SSSP"])); err != nil {
			b.Fatal(err)
		}
		if bfs, err = workloads.Run(scale(byName["BFS"])); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hot.SpeedupHardware, "hotspot-hw-x")
	b.ReportMetric(sssp.SpeedupHardware, "sssp-hw-x")
	b.ReportMetric(bfs.SpeedupSoftware, "bfs-sw-x")
}

func BenchmarkOverhead(b *testing.B) {
	var o experiments.OverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		o, err = experiments.Overhead(benchN)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(o.SoftwareDelta.Micros(), "sw-delta-us")
	b.ReportMetric(o.HardwareDelta.Micros(), "hw-delta-us")
	b.ReportMetric(o.IndexOverhead*100, "index-%")
}

// --- Allocation benchmarks (the pooled request-scratch win). ---

// allocSTL builds a small data-bearing STL with a fully written 1024x1024
// float32 space.
func allocSTL(b *testing.B) (*stl.STL, *stl.View) {
	b.Helper()
	cfg := system.PrototypeConfig(16<<20, false)
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, false)
	if err != nil {
		b.Fatal(err)
	}
	st, err := stl.New(dev, cfg.STL)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	sp, err := st.CreateSpace(4, []int64{n, n})
	if err != nil {
		b.Fatal(err)
	}
	v, err := stl.NewView(sp, []int64{n, n})
	if err != nil {
		b.Fatal(err)
	}
	band := sp.BlockDims()[0]
	data := make([]byte, band*n*4)
	for i := range data {
		data[i] = byte(i)
	}
	for i := int64(0); i*band < n; i++ {
		if _, _, err := st.WritePartition(0, v, []int64{i, 0}, []int64{band, n}, data); err != nil {
			b.Fatal(err)
		}
	}
	return st, v
}

// BenchmarkReadPartitionAllocs measures per-request heap allocations of a
// 64x64 tile read, which should stay near zero (pooled scratch + caller-owned
// assembly buffer). The phantom column read is the allocation gate's: 2048
// pages planned and booked, no bytes moved.
func BenchmarkReadPartitionAllocs(b *testing.B) {
	b.Run("shape=col2048pages/phantom", func(b *testing.B) {
		readColumn, _ := nds.PhantomPlane(b)
		readColumn() // sizes the pooled scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readColumn()
		}
	})
	b.Run("shape=tile64", func(b *testing.B) {
		st, v := allocSTL(b)
		buf := make([]byte, 64*64*4)
		coord := []int64{1, 1}
		sub := []int64{64, 64}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := st.ReadPartitionInto(0, v, coord, sub, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCachedReadAllocs measures a 1 MiB tile read on a device with a
// four-block cache and the prefetcher on (the allocation gate's): every page
// a hit, and every read creating and evicting entries. Neither allocates per
// page or per block; the hit's time is the gather, the floor of a read that
// hands the caller a copy.
func BenchmarkCachedReadAllocs(b *testing.B) {
	for _, mode := range []string{"hit", "miss-evict"} {
		b.Run(mode, func(b *testing.B) {
			_, hit, miss := nds.CachedPlane(b)
			read := hit
			if mode != "hit" {
				read = miss
			}
			for i := 0; i < 32; i++ {
				read() // warms the block, or sizes the entry free list
			}
			b.SetBytes(1 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read()
			}
		})
	}
}

// BenchmarkAgedOverwrite is the write path's loop to iterate on: a 1 MiB tile
// overwrite on an array aged into steady collection (256 pages programmed,
// some 75 relocated, 2.5 blocks erased) — the repo benchmark's aged_write at
// a size that sets up in a second. MB/s is wall-clock payload.
func BenchmarkAgedOverwrite(b *testing.B) {
	_, overwrite := nds.AgedArray(b)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overwrite()
	}
}

// BenchmarkWritePartitionAllocs measures per-request heap allocations of a
// 64x64 tile overwrite (read-modify-write plus replacement allocation), and
// of the allocation gate's phantom write of one building block (256 units
// placed).
func BenchmarkWritePartitionAllocs(b *testing.B) {
	b.Run("size=256pages/phantom", func(b *testing.B) {
		_, writeBlock := nds.PhantomPlane(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			writeBlock()
		}
	})
	b.Run("size=tile64", func(b *testing.B) {
		st, v := allocSTL(b)
		data := make([]byte, 64*64*4)
		for i := range data {
			data[i] = byte(3 * i)
		}
		coord := []int64{1, 1}
		sub := []int64{64, 64}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := st.WritePartition(0, v, coord, sub, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMixedClientsOneSpace measures the shared-space write convoy: 64×64
// float32 tiles of a 2048² space, 10 % of them overwritten, from one or two
// in-process clients, each on its own view of one shared space or on a space
// of its own. A writer holds its space exclusively for its whole
// read-modify-write, so on a shared space the second client's reads queue
// behind the first one's writes. ops/s is wall-clock operations of all the
// clients together.
func BenchmarkMixedClientsOneSpace(b *testing.B) {
	const (
		n    = 2048
		tile = 64
	)
	for _, shared := range []bool{true, false} {
		for _, clients := range []int{1, 2} {
			name := fmt.Sprintf("separate/clients=%d", clients)
			if shared {
				name = fmt.Sprintf("shared/clients=%d", clients)
			}
			b.Run(name, func(b *testing.B) {
				d, err := nds.Open(nds.Options{Mode: nds.ModeHardware, CapacityHint: 64 << 20})
				if err != nil {
					b.Fatal(err)
				}
				fill := make([]byte, n*n*4)
				for i := range fill {
					fill[i] = byte(i * 7)
				}
				views := make([]*nds.Space, clients)
				for c := range views {
					if c == 0 || !shared {
						id, err := d.CreateSpace(4, []int64{n, n})
						if err != nil {
							b.Fatal(err)
						}
						views[c], err = d.OpenSpace(id, []int64{n, n})
						if err != nil {
							b.Fatal(err)
						}
						if _, err := views[c].Write([]int64{0, 0}, []int64{n, n}, fill); err != nil {
							b.Fatal(err)
						}
					} else if views[c], err = d.OpenSpace(views[0].ID(), []int64{n, n}); err != nil {
						b.Fatal(err)
					}
				}
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for c, v := range views {
					wg.Add(1)
					go func(v *nds.Space, rng *rand.Rand) {
						defer wg.Done()
						data := make([]byte, tile*tile*4)
						sub := []int64{tile, tile}
						for next.Add(1) <= int64(b.N) {
							coord := []int64{rng.Int63n(n / tile), rng.Int63n(n / tile)}
							var err error
							if rng.Intn(10) == 0 {
								_, err = v.Write(coord, sub, data)
							} else {
								_, _, err = v.ReadInto(coord, sub, data)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(v, rand.New(rand.NewSource(int64(c+1))))
				}
				wg.Wait()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}

// --- Ablations (DESIGN.md "Key design decisions"). ---

// benchSTL builds a loaded STL with the given config tweaks and measures
// the simulated time of a mixed row/column/tile read set.
func ablationSTL(b *testing.B, mutate func(*stl.Config)) (row, col, tile sim.Time) {
	b.Helper()
	cfg := system.PrototypeConfig(64<<20, true)
	sc := cfg.STL
	if mutate != nil {
		mutate(&sc)
	}
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, true)
	if err != nil {
		b.Fatal(err)
	}
	st, err := stl.New(dev, sc)
	if err != nil {
		b.Fatal(err)
	}
	const n = 2048
	sp, err := st.CreateSpace(8, []int64{n, n})
	if err != nil {
		b.Fatal(err)
	}
	v, err := stl.NewView(sp, []int64{n, n})
	if err != nil {
		b.Fatal(err)
	}
	band := sp.BlockDims()[0]
	for i := int64(0); i*band < n; i++ {
		if _, _, err := st.WritePartition(0, v, []int64{i, 0}, []int64{band, n}, nil); err != nil {
			b.Fatal(err)
		}
	}
	read := func(coord, sub []int64) sim.Time {
		dev.ResetTimeline()
		_, done, _, err := st.ReadPartition(0, v, coord, sub)
		if err != nil {
			b.Fatal(err)
		}
		return done
	}
	row = read([]int64{1, 0}, []int64{256, n})
	col = read([]int64{0, 1}, []int64{n, 256})
	tile = read([]int64{1, 1}, []int64{512, 512})
	return row, col, tile
}

// BenchmarkAblationBlockShape contrasts the paper's balanced 2-D blocks
// (Equation 2) against 1-D row-shaped blocks: 1-D blocks favour row reads
// but collapse on columns, which is why the STL balances dimensions.
func BenchmarkAblationBlockShape(b *testing.B) {
	var sqRow, sqCol, rowRow, rowCol sim.Time
	for i := 0; i < b.N; i++ {
		sqRow, sqCol, _ = ablationSTL(b, nil)
		rowRow, rowCol, _ = ablationSTL(b, func(c *stl.Config) { c.BBOrder = 1 })
	}
	b.ReportMetric(sqCol.Seconds()*1e3, "2D-col-ms")
	b.ReportMetric(rowCol.Seconds()*1e3, "1D-col-ms")
	b.ReportMetric(sqRow.Seconds()*1e3, "2D-row-ms")
	b.ReportMetric(rowRow.Seconds()*1e3, "1D-row-ms")
	if rowCol < 2*sqCol {
		b.Fatalf("expected 1-D blocks to collapse on column reads: 1D=%v 2D=%v", rowCol, sqCol)
	}
}

// BenchmarkAblationAllocationPolicy contrasts the §4.2 least-used
// channel/bank policy against naive one-die-per-block placement.
func BenchmarkAblationAllocationPolicy(b *testing.B) {
	var pol, naive sim.Time
	for i := 0; i < b.N; i++ {
		_, _, pol = ablationSTL(b, nil)
		_, _, naive = ablationSTL(b, func(c *stl.Config) { c.NaiveAllocation = true })
	}
	b.ReportMetric(pol.Seconds()*1e3, "policy-tile-ms")
	b.ReportMetric(naive.Seconds()*1e3, "naive-tile-ms")
	if naive <= pol {
		b.Fatalf("naive placement (%v) should be slower than the policy (%v)", naive, pol)
	}
}

// BenchmarkAblationAssemblyLocation isolates design decision 3 — host-side
// versus in-device object assembly — which is exactly software vs hardware
// NDS on a column fetch.
func BenchmarkAblationAssemblyLocation(b *testing.B) {
	cfg := system.PrototypeConfig(64<<20, true)
	measure := func(kind system.Kind) sim.Time {
		s, err := system.New(kind, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := s.STL.CreateSpace(8, []int64{2048, 2048})
		if err != nil {
			b.Fatal(err)
		}
		v, err := stl.NewView(sp, []int64{2048, 2048})
		if err != nil {
			b.Fatal(err)
		}
		for i := int64(0); i < 8; i++ {
			if _, _, err := s.STL.WritePartition(0, v, []int64{i, 0}, []int64{256, 2048}, nil); err != nil {
				b.Fatal(err)
			}
		}
		s.ResetTimelines()
		_, st, err := s.NDSRead(0, v, []int64{0, 1}, []int64{2048, 512})
		if err != nil {
			b.Fatal(err)
		}
		return st.Done
	}
	var sw, hw sim.Time
	for i := 0; i < b.N; i++ {
		sw = measure(system.SoftwareNDS)
		hw = measure(system.HardwareNDS)
	}
	b.ReportMetric(sw.Micros(), "host-assembly-us")
	b.ReportMetric(hw.Micros(), "device-assembly-us")
}

// BenchmarkSTLTranslate measures the wall-clock cost of the space
// translator itself (Equation 5): decomposing an 8K x 8K partition of a
// 32K x 32K space into building-block extents.
func BenchmarkSTLTranslate(b *testing.B) {
	cfg := system.PrototypeConfig(1<<30, true)
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, true)
	if err != nil {
		b.Fatal(err)
	}
	st, err := stl.New(dev, cfg.STL)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := st.CreateSpace(8, []int64{32768, 32768})
	if err != nil {
		b.Fatal(err)
	}
	v, err := stl.NewView(sp, []int64{32768, 32768})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exts, err := v.Extents([]int64{1, 1}, []int64{8192, 8192})
		if err != nil {
			b.Fatal(err)
		}
		if len(exts) == 0 {
			b.Fatal("no extents")
		}
	}
}
