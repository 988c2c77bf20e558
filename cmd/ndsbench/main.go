// Command ndsbench prints the paper's evaluation (§2 Figures 2-3, §7 Figures
// 9-10, the §7.3 overhead table and the Table 1 inventory) and the
// reproduction's own sweeps on the simulated platform, as one report
// (experiments.Report), and drives three load tools against the wire path.
//
// Usage:
//
//	ndsbench -all               # the whole report at default scale
//	ndsbench -fig 9 -n 32768    # Figure 9 at the paper's matrix size
//	ndsbench -fig 2 -fig 10 -sweep pushdown
//	ndsbench -table 1 -table overhead
//	ndsbench -net unix:/tmp/nds.sock -conns 16 -rate 2000   # open-loop tail latency vs ndsd
//	ndsbench -stream            # windowed ReadStream vs one whole-partition read
//	ndsbench -antagonist        # tenant isolation gate
//
// A run does one of the four: the report, -net, -stream (which targets
// -net's address when given one) or -antagonist. ndsbench gates nothing but
// its own -antagonist verdict. Performance is measured and held by the repo
// benchmark: bash bench/run.sh (see bench/README.md).
//
// Larger -n values need more memory and time; -n 32768 (the paper's scale)
// runs the microbenchmarks on an 8 GiB phantom dataset.
package main

import (
	"flag"
	"fmt"
	"os"
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
	all := flag.Bool("all", false, "print the whole report")
	n := flag.Int64("n", 8192, "microbenchmark matrix dimension (paper: 32768)")
	netAddr := flag.String("net", "", "open-loop load an ndsd server at this address (unix:/path or host:port)")
	conns := flag.Int("conns", 16, "connections for -net")
	rate := flag.Float64("rate", 2000, "aggregate target Poisson arrival rate in ops/s for -net")
	dur := flag.Duration("dur", 3*time.Second, "measurement duration for -net")
	burst := flag.Bool("burst", false, "run the middle third of -net at 4x the target rate")
	stream := flag.Bool("stream", false, "single-connection streaming read benchmark (against -net addr, or a self-hosted server)")
	antagonist := flag.Bool("antagonist", false, "victim-vs-antagonist tenant isolation benchmark (self-hosted, QoS on)")
	flag.Var(sectionFlag{"fig", &sections}, "fig", "figure to regenerate (2, 3, 9, 9a, 9b, 9c, 9d, 10); repeatable")
	flag.Var(sectionFlag{"table", &sections}, "table", "table to regenerate (1, overhead); repeatable")
	flag.Var(sectionFlag{"sweep", &sections}, "sweep", "sweep to run (channels, bbmult, pushdown, kernels); repeatable")
	flag.Parse()

	if *all {
		sections = append(sections, experiments.Sections...)
	}
	modes := 0
	for _, on := range []bool{len(sections) > 0, *netAddr != "" && !*stream, *stream, *antagonist} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *antagonist:
		runAntagonist()
	case *stream:
		runStream(*netAddr)
	case *netAddr != "":
		runNet(*netAddr, netOpts{Conns: *conns, Rate: *rate, Dur: *dur, Burst: *burst})
	default:
		r, err := experiments.NewReport(*n, sections...)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(r)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ndsbench: "+format+"\n", args...)
	os.Exit(1)
}
