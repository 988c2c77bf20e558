// Command ndsbench regenerates every table and figure of the paper's
// evaluation (§2 Figures 2-3, §7 Figures 9-10, the §7.3 overhead table, and
// the Table 1 inventory) on the simulated platform.
//
// Usage:
//
//	ndsbench -all               # everything at default scale
//	ndsbench -fig 9 -n 32768    # Figure 9 at the paper's matrix size
//	ndsbench -fig 2 -fig 10
//	ndsbench -table 1 -table overhead
//	ndsbench -pushdown -cache 8388608    # selectivity sweep with an 8 MiB block cache
//	ndsbench -net unix:/tmp/nds.sock -conns 16 -rate 2000   # open-loop tail latency vs ndsd
//
// ndsbench prints figures and drives tools; it gates nothing but its own
// -antagonist and -faultcheck verdicts. Performance is measured and held by
// the repo benchmark: bash bench/run.sh (see bench/README.md).
//
// Larger -n values need more memory and time; -n 32768 (the paper's scale)
// runs the microbenchmarks on an 8 GiB phantom dataset.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nds/internal/experiments"
	"nds/internal/system"
	"nds/internal/workloads"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var figs, tables, sweeps multiFlag
	all := flag.Bool("all", false, "run every figure and table")
	util := flag.Bool("util", false, "print utilization reports after Figure 9 phases")
	faultcheck := flag.Bool("faultcheck", false, "run a mixed workload under a seeded fault plan and verify recovery")
	pushdown := flag.Bool("pushdown", false, "selectivity sweep: in-storage scan/reduce vs read-then-filter on both NDS modes")
	kernels := flag.Bool("kernels", false, "device-resident kernel sweep: Figure-10 stage split with pushdown plus a BFS selectivity sweep")
	n := flag.Int64("n", 8192, "microbenchmark matrix dimension (paper: 32768)")
	cache := flag.Int64("cache", 0, "building-block DRAM cache size in bytes for -pushdown (0 = off)")
	prefetch := flag.Int("prefetch", 2, "dimensional prefetch depth in blocks when -cache is set")
	netAddr := flag.String("net", "", "open-loop load an ndsd server at this address (unix:/path or host:port)")
	conns := flag.Int("conns", 16, "connections for -net")
	rate := flag.Float64("rate", 2000, "aggregate target arrival rate in ops/s for -net")
	dur := flag.Duration("dur", 3*time.Second, "measurement duration for -net")
	arrival := flag.String("arrival", "poisson", "arrival process for -net: poisson or fixed")
	zipf := flag.Float64("zipf", 1.1, "Zipfian skew parameter for -net tile choice (<=1 = uniform)")
	burst := flag.Bool("burst", false, "run the middle third of -net at 4x the target rate")
	stream := flag.Bool("stream", false, "single-connection streaming read benchmark (against -net addr, or a self-hosted server)")
	window := flag.Int("window", 8, "in-flight chunk window for -stream")
	chunkRows := flag.Int64("chunkrows", 0, "rows per chunk for -stream (0 = auto)")
	antagonist := flag.Bool("antagonist", false, "victim-vs-antagonist tenant isolation benchmark (self-hosted, QoS on)")
	p99bound := flag.Float64("p99bound", 2.0, "allowed victim p99 growth factor under the -antagonist flood")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit (enables mutex profiling)")
	flag.Var(&figs, "fig", "figure to regenerate (2, 3, 9, 9a, 9b, 9c, 9d, 10); repeatable")
	flag.Var(&tables, "table", "table to regenerate (1, overhead); repeatable")
	flag.Var(&sweeps, "sweep", "sensitivity sweep to run (channels, bbmult); repeatable")
	flag.Parse()

	if *all {
		figs = multiFlag{"2", "3", "9", "10"}
		tables = multiFlag{"1", "overhead"}
		sweeps = multiFlag{"channels", "bbmult"}
	}
	if len(figs) == 0 && len(tables) == 0 && len(sweeps) == 0 && !*faultcheck && *netAddr == "" && !*stream && !*antagonist && !*pushdown && !*kernels {
		flag.Usage()
		os.Exit(2)
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile, *mutexprofile)
	defer stopProfiles()
	if *faultcheck {
		faultCheck()
	}
	if *antagonist {
		runAntagonist(*p99bound)
	}
	if *pushdown {
		runPushdown(*cache, *prefetch)
	}
	if *kernels {
		runKernels()
	}
	if *stream {
		runStream(*netAddr, streamOpts{Window: *window, ChunkRows: *chunkRows})
	} else if *netAddr != "" {
		runNet(*netAddr, netOpts{
			Conns:   *conns,
			Rate:    *rate,
			Dur:     *dur,
			Arrival: *arrival,
			ZipfS:   *zipf,
			Burst:   *burst,
		})
	}
	for _, t := range tables {
		switch t {
		case "1":
			table1()
		case "overhead":
			overhead(*n)
		default:
			fatalf("unknown table %q", t)
		}
	}
	for _, f := range figs {
		switch f {
		case "2":
			figure2()
		case "3":
			figure3()
		case "9", "9a", "9b", "9c", "9d":
			figure9(f, *n, *util)
		case "10":
			figure10()
		default:
			fatalf("unknown figure %q", f)
		}
	}
	for _, s := range sweeps {
		switch s {
		case "channels":
			sweepChannels(*n)
		case "bbmult":
			sweepBBMult(*n)
		default:
			fatalf("unknown sweep %q", s)
		}
	}
}

func sweepChannels(n int64) {
	header(fmt.Sprintf("Sensitivity: channel count (tile fetch, N=%d)", n))
	pts, err := experiments.SweepChannels(n, []int{4, 8, 16, 32, 64})
	if err != nil {
		fatalf("sweep channels: %v", err)
	}
	fmt.Printf("%-10s %12s %12s %8s\n", "channels", "baseline", "hw-NDS", "gain")
	for _, p := range pts {
		fmt.Printf("%-10d %10.0f %12.0f %7.1fx\n", p.X, p.BaselineMB, p.HardwareMB,
			p.HardwareMB/p.BaselineMB)
	}
}

func sweepBBMult(n int64) {
	header(fmt.Sprintf("Sensitivity: building-block multiplier (hw NDS, N=%d)", n))
	pts, err := experiments.SweepBlockMultiplier(n, []int{1, 2, 4, 8})
	if err != nil {
		fatalf("sweep bbmult: %v", err)
	}
	fmt.Printf("%-6s %10s %10s %10s\n", "mult", "row MB/s", "col MB/s", "tile MB/s")
	for _, p := range pts {
		fmt.Printf("%-6d %10.0f %10.0f %10.0f\n", p.X, p.RowMB, p.ColMB, p.TileMB)
	}
}

// startProfiles arms the requested pprof outputs and returns the function
// that stops and writes them. Profiles land only on a successful exit — the
// fatalf path skips them — which is the right trade for a benchmark tool:
// a failed run's profile measures the failure, not the workload.
func startProfiles(cpu, mem, mutex string) func() {
	if mutex != "" {
		// Sample one in five contended mutex events: cheap enough to leave on
		// for a whole benchmark run, dense enough to rank convoys.
		runtime.SetMutexProfileFraction(5)
	}
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		cpuF = f
	}
	writeProfile := func(name, path string, gcFirst bool) {
		if path == "" {
			return
		}
		if gcFirst {
			runtime.GC() // fold retained-but-unswept garbage out of the heap profile
		}
		f, err := os.Create(path)
		if err != nil {
			fatalf("%s profile: %v", name, err)
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fatalf("%s profile: %v", name, err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		writeProfile("heap", mem, true)
		writeProfile("mutex", mutex, false)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ndsbench: "+format+"\n", args...)
	os.Exit(1)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func dimsStr(dims []int64) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}

func table1() {
	header("Table 1: workloads")
	fmt.Printf("%-9s %-18s %-18s %-24s %-5s %-8s\n",
		"Name", "Category", "Data dims (scaled)", "Kernel sub-dims", "Elem", "Shares")
	for _, s := range workloads.Catalog() {
		var subs []string
		for _, f := range s.Fetches {
			subs = append(subs, dimsStr(f.Sub))
		}
		fmt.Printf("%-9s %-18s %-18s %-24s %-5d %-8s\n",
			s.Name, s.Category, dimsStr(s.Dims), strings.Join(subs, " + "), s.Elem, s.SharedWith)
	}
}

func overhead(n int64) {
	header("Section 7.3: overhead of NDS (single-page worst case)")
	o, err := experiments.Overhead(n)
	if err != nil {
		fatalf("overhead: %v", err)
	}
	fmt.Printf("baseline latency:     %v\n", o.BaselineLatency)
	fmt.Printf("software NDS latency: %v  (+%v; paper: +41us)\n", o.SoftwareLatency, o.SoftwareDelta)
	fmt.Printf("hardware NDS latency: %v  (+%v; paper: +17us)\n", o.HardwareLatency, o.HardwareDelta)
	fmt.Printf("index footprint:      %d B for %d B data = %.4f%% (paper: <= 0.1%%)\n",
		o.IndexBytes, o.DataBytes, o.IndexOverhead*100)
}

func figure2() {
	header("Figure 2(a): 32Kx32K blocked MM, data in memory")
	a := experiments.Figure2A()
	fmt.Printf("row-store baseline: %v   sub-block: %v   ratio %.2fx (paper: 2.11x)\n",
		a.BaselineTime, a.SubBlockTime, a.Ratio)

	header("Figure 2(b): same pipeline streaming from the 32-channel SSD")
	b, err := experiments.Figure2B()
	if err != nil {
		fatalf("figure2b: %v", err)
	}
	fmt.Printf("row-store baseline: %v   sub-block: %v   ratio %.2fx\n",
		b.BaselineTime, b.SubBlockTime, b.Ratio)
	fmt.Printf("fetch-time ratio: %.2fx (paper: 1.92x)\n", b.FetchRatio)
}

func figure3() {
	header("Figure 3: processing rate / bandwidth vs matrix dimension (MB/s)")
	rows, err := experiments.Figure3()
	if err != nil {
		fatalf("figure3: %v", err)
	}
	fmt.Printf("%-8s %12s %12s %12s %12s %12s\n",
		"dim", "CUDA", "TensorCore", "NVMeoF", "SSD-internal", "consumer")
	for _, r := range rows {
		fmt.Printf("%-8d %12.0f %12.0f %12.0f %12.0f %12.0f\n",
			r.Dim, r.CUDACores, r.TensorCores, r.NVMeoF, r.InternalSSD, r.ConsumerNVMe)
	}
}

func figure9(which string, n int64, util bool) {
	printPts := func(title string, pts []experiments.Fig9Point, alt string) {
		header(title)
		if alt != "" {
			fmt.Printf("%-14s %10s %10s %10s %10s\n", "fetch", "baseline", alt, "sw-NDS", "hw-NDS")
			for _, p := range pts {
				fmt.Printf("%-14s %10.0f %10.0f %10.0f %10.0f\n",
					p.Label, p.BaselineMB, p.BaselineAlt, p.SoftwareMB, p.HardwareMB)
			}
			return
		}
		fmt.Printf("%-14s %10s %10s %10s\n", "fetch", "baseline", "sw-NDS", "hw-NDS")
		for _, p := range pts {
			fmt.Printf("%-14s %10.0f %10.0f %10.0f\n", p.Label, p.BaselineMB, p.SoftwareMB, p.HardwareMB)
		}
	}

	needRead := which == "9" || which == "9a" || which == "9b" || which == "9c"
	var plat *experiments.Platform
	var m *experiments.Matrix2D
	if needRead {
		var err error
		plat, err = experiments.NewPlatform(n * n * 8)
		if err != nil {
			fatalf("figure9 platform: %v", err)
		}
		if m, err = plat.LoadMatrix(n); err != nil {
			fatalf("figure9 load: %v", err)
		}
	}
	if which == "9" || which == "9a" {
		pts, err := experiments.Figure9A(plat, m)
		if err != nil {
			fatalf("figure9a: %v", err)
		}
		printPts(fmt.Sprintf("Figure 9(a): row-block fetch MB/s (N=%d)", n), pts, "")
	}
	if which == "9" || which == "9b" {
		pts, err := experiments.Figure9B(plat, m)
		if err != nil {
			fatalf("figure9b: %v", err)
		}
		printPts(fmt.Sprintf("Figure 9(b): column-block fetch MB/s (N=%d)", n), pts, "col-store")
	}
	if which == "9" || which == "9c" {
		pts, err := experiments.Figure9C(plat, m)
		if err != nil {
			fatalf("figure9c: %v", err)
		}
		printPts(fmt.Sprintf("Figure 9(c): submatrix fetch MB/s (N=%d)", n), pts, "")
		if util {
			header("Utilization after the Figure 9(c) sweep")
			for _, sys := range []*system.System{plat.Baseline, plat.Software, plat.Hardware} {
				fmt.Println(sys.Report(sys.Dev.NextIdle()))
			}
		}
	}
	if which == "9" || which == "9d" {
		w, err := experiments.Figure9D(n)
		if err != nil {
			fatalf("figure9d: %v", err)
		}
		header(fmt.Sprintf("Figure 9(d): write bandwidth MB/s (N=%d)", n))
		fmt.Printf("baseline: %.0f   software NDS: %.0f (%.0f%%)   hardware NDS: %.0f (%.0f%%)\n",
			w.BaselineRowMB,
			w.SoftwareMB, 100*(w.SoftwareMB/w.BaselineRowMB-1),
			w.HardwareMB, 100*(w.HardwareMB/w.BaselineRowMB-1))
		fmt.Printf("(paper: software -30%%, hardware -17%%)\n")
	}
}

func figure10() {
	header("Figure 10: end-to-end application results")
	s, err := experiments.Figure10()
	if err != nil {
		fatalf("figure10: %v", err)
	}
	fmt.Printf("%-9s %12s %8s %8s %8s %10s %10s\n",
		"workload", "baseline", "sw-NDS", "oracle", "hw-NDS", "idle-red-sw", "idle-red-hw")
	for _, r := range s.Results {
		fmt.Printf("%-9s %12v %7.2fx %7.2fx %7.2fx %9.0f%% %9.0f%%\n",
			r.Spec.Name, r.Baseline, r.SpeedupSoftware, r.SpeedupOracle, r.SpeedupHardware,
			r.IdleReductionSW*100, r.IdleReductionHW*100)
	}
	fmt.Printf("%-9s %12s %7.2fx %7.2fx %7.2fx %9.0f%% %9.0f%%\n",
		"AVERAGE", "", s.AvgSpeedupSW, s.AvgSpeedupOracle, s.AvgSpeedupHW,
		s.AvgIdleRedSW*100, s.AvgIdleRedHW*100)
	fmt.Printf("(paper: software 5.07x, hardware 5.73x, idle cuts 74%% / 76%%)\n")
}
