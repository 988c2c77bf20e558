package nds_test

// Wall-clock and allocation benchmarks of the library's hot paths. The
// paper's figures are not measured here: experiments.Report measures them,
// TestReport (internal/experiments) pins them, and cmd/ndsbench prints them.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"nds"
	"nds/internal/nvm"
	"nds/internal/stl"
	"nds/internal/system"
)

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
