package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"nds"
)

// benchSnapshot is the schema of BENCH_<rev>.json: one record per measured
// configuration of the concurrent-client benchmark, so successive revisions
// can be diffed to track the performance trajectory.
type benchSnapshot struct {
	Revision  string `json:"revision"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Benchmark string `json:"benchmark"`
	// CacheBytes/PrefetchDepth record the device configuration the snapshot
	// was taken with, so -benchcompare reruns the same configuration.
	CacheBytes    int64        `json:"cache_bytes,omitempty"`
	PrefetchDepth int          `json:"prefetch_depth,omitempty"`
	Results       []benchPoint `json:"results"`
}

type benchPoint struct {
	// Workload is "read" (disjoint tile reads of a shared space), "mixed"
	// (each client alternates tile overwrites and reads of its share of a
	// shared space), or "write" (each client overwrites its own space in
	// bands). Empty means "read": snapshots written before the workload
	// field existed measured only reads.
	Workload   string  `json:"workload,omitempty"`
	Clients    int     `json:"clients"`
	Iterations int     `json:"iterations"`
	WallNsOp   float64 `json:"wall_ns_per_op"`
	SimMBps    float64 `json:"sim_mb_per_s"`
	// Cache carries the device's cache counters after the measured phases
	// (omitted when the cache is disabled).
	Cache *nds.CacheStats `json:"cache,omitempty"`
	// GC carries the background-collection counters (runs, erases, pages
	// relocated, foreground stall time, write amplification) after the
	// measured phases; omitted for the pure-read workload, which never
	// collects.
	GC *nds.GCStats `json:"gc,omitempty"`
	// Open-loop network fields ("net"/"net-burst" workloads, self-hosted
	// ndsserver over a unix socket): target and achieved arrival rates plus
	// tail latency percentiles measured from scheduled arrival. For these
	// points WallNsOp is the mean latency and SimMBps is 0 (open-loop wall
	// timing has no deterministic simulated counterpart).
	// SavingsX is the pushdown workload's deterministic interconnect
	// reduction: the payload bytes a read-then-filter would have moved
	// divided by the bytes the in-storage scans actually moved. For the
	// kernel-* points it is the device-resident kernel's link-byte savings
	// versus its read-everything form.
	SavingsX float64 `json:"pushdown_savings_x,omitempty"`
	// TopKSavingsX is the reduce-side figure: the interconnect reduction of
	// a top-k reduce (one fixed-size result page per partition) versus
	// reading the partitions.
	TopKSavingsX float64 `json:"pushdown_topk_savings_x,omitempty"`
	RateRps      float64 `json:"rate_rps,omitempty"`
	AchievedRps  float64 `json:"achieved_rps,omitempty"`
	P50Ns        float64 `json:"p50_ns,omitempty"`
	P99Ns        float64 `json:"p99_ns,omitempty"`
	P999Ns       float64 `json:"p999_ns,omitempty"`
}

// normWorkload maps the legacy empty workload name to "read".
func normWorkload(w string) string {
	if w == "" {
		return "read"
	}
	return w
}

// revision returns the VCS commit baked into the binary by the Go toolchain,
// or "dev" for non-VCS builds (go run, test binaries).
func revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	return "dev"
}

// benchJSON measures the concurrent tile-read workload (the same shape as
// BenchmarkConcurrentClients: 256 disjoint 64x64 tiles of a written
// 1024x1024 float32 space, split across client streams) and writes
// BENCH_<rev>.json with both the wall-clock cost per phase and the simulated
// aggregate bandwidth.
func benchJSON(cacheBytes int64, prefetch int) {
	snap := measureSnapshot(cacheBytes, prefetch)
	out := fmt.Sprintf("BENCH_%s.json", snap.Revision)
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatalf("bench json: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fatalf("bench json: %v", err)
	}
	header("Benchmark snapshot")
	printSnapshot(snap)
	fmt.Printf("wrote %s\n", out)
}

func measureSnapshot(cacheBytes int64, prefetch int) benchSnapshot {
	snap := benchSnapshot{
		Revision:      revision(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Benchmark:     "ConcurrentClients",
		CacheBytes:    cacheBytes,
		PrefetchDepth: prefetch,
	}
	points := []struct {
		workload string
		clients  int
	}{
		{"read", 1}, {"read", 16}, {"read", 64},
		{"mixed", 16},
		{"write", 4}, {"write", 16},
		{"net", 16}, {"net-burst", 16},
		{"stream", 1},
		{"net-antagonist", antConns},
		{"pushdown", 16},
		{"kernel-bfs", 1}, {"kernel-knn", 1},
	}
	for _, p := range points {
		pt, err := measurePoint(p.workload, p.clients, cacheBytes, prefetch)
		if err != nil {
			fatalf("bench json (%s, clients=%d): %v", p.workload, p.clients, err)
		}
		snap.Results = append(snap.Results, pt)
	}
	return snap
}

// measurePoint dispatches one benchmark configuration to its workload
// driver.
func measurePoint(workload string, clients int, cacheBytes int64, prefetch int) (benchPoint, error) {
	switch normWorkload(workload) {
	case "read":
		return measureConcurrent(clients, cacheBytes, prefetch)
	case "mixed":
		return measureMixed(clients, cacheBytes, prefetch)
	case "write":
		return measureWrite(clients, cacheBytes, prefetch)
	case "net", "net-burst":
		return measureNetPoint(normWorkload(workload), clients, cacheBytes, prefetch)
	case "stream":
		return measureStreamPoint(cacheBytes, prefetch)
	case "net-antagonist":
		return measureAntagonistPoint(cacheBytes, prefetch)
	case "pushdown":
		return measurePushdown(clients, cacheBytes, prefetch)
	case "kernel-bfs", "kernel-knn":
		return measureKernel(normWorkload(workload))
	}
	return benchPoint{}, fmt.Errorf("unknown workload %q", workload)
}

func printSnapshot(snap benchSnapshot) {
	fmt.Printf("%-9s %-8s %12s %14s %10s %8s %10s %8s\n",
		"workload", "clients", "wall ns/op", "sim-MB/s", "cache hit%", "gc runs", "stall us", "WA")
	for _, p := range snap.Results {
		if p.P99Ns > 0 {
			fmt.Printf("%-9s %-8d %12.0f %14s   %.0f/%.0f ops/s  p50=%0.fus p99=%0.fus p999=%0.fus\n",
				normWorkload(p.Workload), p.Clients, p.WallNsOp, "-",
				p.RateRps, p.AchievedRps, p.P50Ns/1e3, p.P99Ns/1e3, p.P999Ns/1e3)
			continue
		}
		if p.SavingsX > 0 {
			topk := ""
			if p.TopKSavingsX > 0 {
				topk = fmt.Sprintf(" (top-k reduce %.0fx)", p.TopKSavingsX)
			}
			fmt.Printf("%-9s %-8d %12.0f %14.1f   %.0fx fewer interconnect bytes than read+filter%s\n",
				normWorkload(p.Workload), p.Clients, p.WallNsOp, p.SimMBps, p.SavingsX, topk)
			continue
		}
		hitPct := "-"
		if p.Cache != nil && p.Cache.Hits+p.Cache.Misses > 0 {
			hitPct = fmt.Sprintf("%.1f", 100*float64(p.Cache.Hits)/float64(p.Cache.Hits+p.Cache.Misses))
		}
		gcRuns, stall, wa := "-", "-", "-"
		if p.GC != nil {
			gcRuns = fmt.Sprintf("%d", p.GC.Runs)
			stall = fmt.Sprintf("%.0f", float64(p.GC.StallNs)/1e3)
			wa = fmt.Sprintf("%.3f", p.GC.WriteAmp)
		}
		fmt.Printf("%-9s %-8d %12.0f %14.1f %10s %8s %10s %8s\n",
			normWorkload(p.Workload), p.Clients, p.WallNsOp, p.SimMBps, hitPct, gcRuns, stall, wa)
	}
}

// benchCompare reruns the benchmark with a committed snapshot's configuration
// and fails (exit 1) when simulated throughput regresses beyond simTol or
// wall-clock cost regresses beyond wallTol. wallTol defaults loose (3x):
// wall-clock numbers from another machine are only a smoke bound, while
// simulated throughput is deterministic and held tight.
func benchCompare(path string, simTol, wallTol float64) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatalf("bench compare: %v", err)
	}
	var base benchSnapshot
	if err := json.Unmarshal(buf, &base); err != nil {
		fatalf("bench compare: %s: %v", path, err)
	}
	// Rerun exactly the baseline's (workload, clients) points — a baseline
	// written before the workload field existed reruns as pure reads — so
	// write and mixed throughput are gated the same way reads always were.
	cur := benchSnapshot{
		Revision:      revision(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Benchmark:     base.Benchmark,
		CacheBytes:    base.CacheBytes,
		PrefetchDepth: base.PrefetchDepth,
	}
	for _, bp := range base.Results {
		pt, err := measurePoint(bp.Workload, bp.Clients, base.CacheBytes, base.PrefetchDepth)
		if err != nil {
			fatalf("bench compare (%s, clients=%d): %v", normWorkload(bp.Workload), bp.Clients, err)
		}
		cur.Results = append(cur.Results, pt)
	}
	header(fmt.Sprintf("Benchmark comparison vs %s (rev %s)", path, base.Revision))
	printSnapshot(cur)
	failed := false
	for i, bp := range base.Results {
		cp := cur.Results[i]
		label := fmt.Sprintf("%s/clients=%d", normWorkload(bp.Workload), bp.Clients)
		wallRatio := cp.WallNsOp / bp.WallNsOp
		// Network points carry no simulated throughput (SimMBps 0); their
		// deterministic gate is replaced by the p99 wall gate below.
		if bp.SimMBps > 0 {
			simRatio := cp.SimMBps / bp.SimMBps
			fmt.Printf("%s: sim %0.1f -> %0.1f MB/s (%.2fx), wall %0.0f -> %0.0f ns/op (%.2fx)\n",
				label, bp.SimMBps, cp.SimMBps, simRatio, bp.WallNsOp, cp.WallNsOp, wallRatio)
			if simRatio < 1-simTol {
				fmt.Printf("%s: FAIL simulated throughput regressed beyond %.0f%%\n", label, simTol*100)
				failed = true
			}
		} else {
			fmt.Printf("%s: wall %0.0f -> %0.0f ns/op (%.2fx)\n",
				label, bp.WallNsOp, cp.WallNsOp, wallRatio)
		}
		if wallRatio > wallTol {
			fmt.Printf("%s: FAIL wall-clock cost regressed beyond %.1fx\n", label, wallTol)
			failed = true
		}
		if bp.SavingsX > 0 {
			// The savings ratio is deterministic (same tiles, same matches),
			// so it is held to the simulated tolerance, not the wall one.
			savRatio := cp.SavingsX / bp.SavingsX
			fmt.Printf("%s: interconnect savings %0.1fx -> %0.1fx (%.2fx)\n",
				label, bp.SavingsX, cp.SavingsX, savRatio)
			if savRatio < 1-simTol {
				fmt.Printf("%s: FAIL interconnect savings regressed beyond %.0f%%\n", label, simTol*100)
				failed = true
			}
		}
		if bp.TopKSavingsX > 0 {
			topkRatio := cp.TopKSavingsX / bp.TopKSavingsX
			fmt.Printf("%s: top-k reduce savings %0.1fx -> %0.1fx (%.2fx)\n",
				label, bp.TopKSavingsX, cp.TopKSavingsX, topkRatio)
			if topkRatio < 1-simTol {
				fmt.Printf("%s: FAIL top-k reduce savings regressed beyond %.0f%%\n", label, simTol*100)
				failed = true
			}
		}
		// The device-resident kernel points carry the acceptance floor
		// outright: at their (well under 10%) selectivities the pushdown form
		// must move at least 5x fewer interconnect bytes than reading
		// everything, independent of what the baseline snapshot recorded.
		if strings.HasPrefix(normWorkload(bp.Workload), "kernel-") && cp.SavingsX < 5 {
			fmt.Printf("%s: FAIL pushdown link-byte savings %.1fx below the 5x floor\n", label, cp.SavingsX)
			failed = true
		}
		if bp.P99Ns > 0 {
			p99Ratio := cp.P99Ns / bp.P99Ns
			fmt.Printf("%s: p99 %0.0f -> %0.0f us (%.2fx)\n",
				label, bp.P99Ns/1e3, cp.P99Ns/1e3, p99Ratio)
			if p99Ratio > wallTol {
				fmt.Printf("%s: FAIL p99 latency regressed beyond %.1fx\n", label, wallTol)
				failed = true
			}
		}
	}
	if failed {
		fatalf("bench compare: regression against %s", path)
	}
	fmt.Println("within tolerance")
}

func measureConcurrent(clients int, cacheBytes int64, prefetch int) (benchPoint, error) {
	const (
		dim   = 1024
		tiles = 256 // 16x16 grid of 64x64 tiles
		tileB = 64 * 64 * 4
	)
	d, err := nds.Open(nds.Options{
		Mode:          nds.ModeHardware,
		CapacityHint:  16 << 20,
		CacheBytes:    cacheBytes,
		PrefetchDepth: prefetch,
	})
	if err != nil {
		return benchPoint{}, err
	}
	defer d.Close()
	id, err := d.CreateSpace(4, []int64{dim, dim})
	if err != nil {
		return benchPoint{}, err
	}
	w, err := d.OpenSpace(id, []int64{dim, dim})
	if err != nil {
		return benchPoint{}, err
	}
	data := make([]byte, dim*dim*4)
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := w.Write([]int64{0, 0}, []int64{dim, dim}, data); err != nil {
		return benchPoint{}, err
	}
	if err := w.Close(); err != nil {
		return benchPoint{}, err
	}

	views := make([]*nds.Space, clients)
	for i := range views {
		if views[i], err = d.OpenSpace(id, []int64{dim, dim}); err != nil {
			return benchPoint{}, err
		}
	}
	defer func() {
		for _, v := range views {
			v.Close()
		}
	}()

	phase := func() error {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		per := tiles / clients
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				buf := make([]byte, tileB)
				coord := make([]int64, 2)
				sub := []int64{64, 64}
				for k := 0; k < per; k++ {
					tile := int64(c*per + k)
					coord[0], coord[1] = tile/16, tile%16
					if _, _, err := views[c].ReadInto(coord, sub, buf); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}

	// Warm up once (page-plan pools, lazily allocated die arenas), then run
	// phases until enough wall time has accumulated for a stable ns/op.
	if err := phase(); err != nil {
		return benchPoint{}, err
	}
	var (
		iters     int
		wall      time.Duration
		simSpan   time.Duration
		simulated = func() time.Duration { return d.Now() }
	)
	for wall < 500*time.Millisecond || iters < 3 {
		s0, w0 := simulated(), time.Now()
		if err := phase(); err != nil {
			return benchPoint{}, err
		}
		wall += time.Since(w0)
		simSpan += simulated() - s0
		iters++
	}
	pt := benchPoint{
		Workload:   "read",
		Clients:    clients,
		Iterations: iters,
		WallNsOp:   float64(wall.Nanoseconds()) / float64(iters),
		SimMBps:    float64(iters) * tiles * tileB / simSpan.Seconds() / 1e6,
	}
	if cacheBytes > 0 {
		cs := d.CacheStats()
		pt.Cache = &cs
	}
	return pt, nil
}

// measureMixed drives a mixed read/write workload over one shared space:
// each client owns a disjoint set of 64x64 tiles and, per phase, overwrites
// each of its tiles then reads it back. Payload bytes count both directions.
func measureMixed(clients int, cacheBytes int64, prefetch int) (benchPoint, error) {
	const (
		dim   = 1024
		tiles = 256 // 16x16 grid of 64x64 tiles
		tileB = 64 * 64 * 4
	)
	d, err := nds.Open(nds.Options{
		Mode:          nds.ModeHardware,
		CapacityHint:  16 << 20,
		CacheBytes:    cacheBytes,
		PrefetchDepth: prefetch,
	})
	if err != nil {
		return benchPoint{}, err
	}
	defer d.Close()
	id, err := d.CreateSpace(4, []int64{dim, dim})
	if err != nil {
		return benchPoint{}, err
	}
	w, err := d.OpenSpace(id, []int64{dim, dim})
	if err != nil {
		return benchPoint{}, err
	}
	data := make([]byte, dim*dim*4)
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := w.Write([]int64{0, 0}, []int64{dim, dim}, data); err != nil {
		return benchPoint{}, err
	}
	if err := w.Close(); err != nil {
		return benchPoint{}, err
	}
	views := make([]*nds.Space, clients)
	for i := range views {
		if views[i], err = d.OpenSpace(id, []int64{dim, dim}); err != nil {
			return benchPoint{}, err
		}
	}
	defer func() {
		for _, v := range views {
			v.Close()
		}
	}()

	phase := func() error {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		per := tiles / clients
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(500 + c)))
				payload := make([]byte, tileB)
				buf := make([]byte, tileB)
				coord := make([]int64, 2)
				sub := []int64{64, 64}
				for k := 0; k < per; k++ {
					tile := int64(c*per + k)
					coord[0], coord[1] = tile/16, tile%16
					rng.Read(payload)
					if _, err := views[c].Write(coord, sub, payload); err != nil {
						errs <- err
						return
					}
					if _, _, err := views[c].ReadInto(coord, sub, buf); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	pt, err := timedPhases("mixed", clients, 2*tiles*tileB, phase, d)
	if err != nil {
		return benchPoint{}, err
	}
	if cacheBytes > 0 {
		cs := d.CacheStats()
		pt.Cache = &cs
	}
	return pt, nil
}

// measureWrite drives the write-heavy workload: one 512x512 float32 space
// per client, each overwritten in 64-row bands (128 KiB per write) from its
// own stream — the same shape as BenchmarkConcurrentWriters, so the JSON
// snapshot tracks the concurrent write path release over release.
func measureWrite(clients int, cacheBytes int64, prefetch int) (benchPoint, error) {
	const (
		dim   = 512
		bands = 8 // dim / 64
		bandB = 64 * dim * 4
	)
	d, err := nds.Open(nds.Options{
		Mode:          nds.ModeHardware,
		CapacityHint:  64 << 20,
		CacheBytes:    cacheBytes,
		PrefetchDepth: prefetch,
	})
	if err != nil {
		return benchPoint{}, err
	}
	defer d.Close()
	spaces := make([]*nds.Space, clients)
	for i := range spaces {
		id, err := d.CreateSpace(4, []int64{dim, dim})
		if err != nil {
			return benchPoint{}, err
		}
		if spaces[i], err = d.OpenSpace(id, []int64{dim, dim}); err != nil {
			return benchPoint{}, err
		}
	}
	defer func() {
		for _, sp := range spaces {
			sp.Close()
		}
	}()

	phase := func() error {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c, sp := range spaces {
			wg.Add(1)
			go func(c int, sp *nds.Space) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(700 + c)))
				band := make([]byte, bandB)
				coord := make([]int64, 2)
				sub := []int64{64, dim}
				for k := int64(0); k < bands; k++ {
					rng.Read(band)
					coord[0], coord[1] = k, 0
					if _, err := sp.Write(coord, sub, band); err != nil {
						errs <- err
						return
					}
				}
			}(c, sp)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	return timedPhases("write", clients, int64(clients)*bands*bandB, phase, d)
}

// timedPhases runs one warm-up phase, then repeats the phase until enough
// wall time accumulates for a stable ns/op, and packages the result with the
// device's GC counters.
func timedPhases(workload string, clients int, bytesPerPhase int64, phase func() error, d *nds.Device) (benchPoint, error) {
	if err := phase(); err != nil {
		return benchPoint{}, err
	}
	var (
		iters   int
		wall    time.Duration
		simSpan time.Duration
	)
	for wall < 500*time.Millisecond || iters < 3 {
		s0, w0 := d.Now(), time.Now()
		if err := phase(); err != nil {
			return benchPoint{}, err
		}
		wall += time.Since(w0)
		simSpan += d.Now() - s0
		iters++
	}
	gc := d.GCStats()
	return benchPoint{
		Workload:   workload,
		Clients:    clients,
		Iterations: iters,
		WallNsOp:   float64(wall.Nanoseconds()) / float64(iters),
		SimMBps:    float64(iters) * float64(bytesPerPhase) / simSpan.Seconds() / 1e6,
		GC:         &gc,
	}, nil
}
