package experiments

import (
	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
	"nds/internal/workloads"
)

// Building-block cache rescan: the canonical workload the DRAM cache is for.
// An analytics pass scans an NxN matrix in row bands, then a second pass scans
// it in column bands — different traversal directions, but (the NDS insight)
// the same set of building blocks. With the cache sized to hold the working
// set, the second iteration of the scan pair runs from DRAM.

// CacheRescanResult holds the two-pass comparison.
type CacheRescanResult struct {
	ColdPass sim.Time // first row+column scan pair (fills the cache)
	WarmPass sim.Time // second pair (served from DRAM)
	Speedup  float64  // ColdPass / WarmPass
	Stats    stl.CacheStats
}

// CacheRescan scans an NxN 8-byte-element matrix (rows, then columns) twice on
// a SoftwareNDS system (host-DRAM cache) with a building-block cache of
// cacheBytes and the given prefetch depth, and reports cold-versus-warm pass
// times. Passing cacheBytes=0 measures the uncached device (Speedup ~ 1).
func CacheRescan(n, cacheBytes int64, depth int) (CacheRescanResult, error) {
	cfg := system.PrototypeConfig(n*n*8, true)
	cfg.STL.CacheBytes = cacheBytes
	cfg.STL.PrefetchDepth = depth
	sys, err := system.New(system.SoftwareNDS, cfg)
	if err != nil {
		return CacheRescanResult{}, err
	}
	v, err := workloads.LoadBands(sys, 8, []int64{n, n})
	if err != nil {
		return CacheRescanResult{}, err
	}
	band := v.Space().BlockDims()[0]

	// One pass: every row band, then every column band, each request issuing
	// at the previous one's completion (a single synchronous scan client).
	pass := func(at sim.Time) (sim.Time, error) {
		for i := int64(0); i*band < n; i++ {
			_, done, _, err := sys.STL.ReadPartition(at, v, []int64{i, 0}, []int64{band, n})
			if err != nil {
				return at, err
			}
			at = done
		}
		for j := int64(0); j*band < n; j++ {
			_, done, _, err := sys.STL.ReadPartition(at, v, []int64{0, j}, []int64{n, band})
			if err != nil {
				return at, err
			}
			at = done
		}
		return at, nil
	}

	coldEnd, err := pass(0)
	if err != nil {
		return CacheRescanResult{}, err
	}
	warmEnd, err := pass(coldEnd)
	if err != nil {
		return CacheRescanResult{}, err
	}
	r := CacheRescanResult{
		ColdPass: coldEnd,
		WarmPass: warmEnd - coldEnd,
		Stats:    sys.STL.CacheStats(),
	}
	if r.WarmPass > 0 {
		r.Speedup = r.ColdPass.Seconds() / r.WarmPass.Seconds()
	}
	return r, nil
}
