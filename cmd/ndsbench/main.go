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
	"time"

	"nds/internal/experiments"
)

// sectionFlag is a repeatable -fig, -table or -sweep flag: each value names
// the report section "kind value" (experiments.Sections).
type sectionFlag struct {
	kind     string
	sections *[]string
}

func (f sectionFlag) String() string     { return "" }
func (f sectionFlag) Set(v string) error { *f.sections = append(*f.sections, f.kind+" "+v); return nil }

func main() {
	var sections []string
	all := flag.Bool("all", false, "run every figure and table")
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
	flag.Var(sectionFlag{"fig", &sections}, "fig", "figure to regenerate (2, 3, 9, 9a, 9b, 9c, 9d, 10); repeatable")
	flag.Var(sectionFlag{"table", &sections}, "table", "table to regenerate (1, overhead); repeatable")
	flag.Var(sectionFlag{"sweep", &sections}, "sweep", "sensitivity sweep to run (channels, bbmult); repeatable")
	flag.Parse()

	if *all {
		sections = append(sections, experiments.Sections...)
	}
	if len(sections) == 0 && !*faultcheck && *netAddr == "" && !*stream && !*antagonist && !*pushdown && !*kernels {
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
	if len(sections) > 0 {
		r, err := experiments.NewReport(*n, sections...)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(r)
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
