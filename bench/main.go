// Command bench is the repository's benchmark: six named workloads, each
// generated from a seed, run closed-loop on at most two cores, verified
// against a dense-array oracle, and reported as named metrics with units.
// See README.md for what each workload exercises and why, and
// ../BENCHMARK.json for the metric lists and regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// outDir is where span files and the net_mixed socket go. The benchmark runs
// from the root of a checkout (run.sh) or from its own directory (go run .).
func outDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, nil))
}

// run is the command: it parses args, runs what they select, prints to out
// and returns the exit code — 0 when every output agreed with the oracle, 1
// when one did not, 2 when nothing could be measured. wrap, when non-nil,
// stands between the benchmark and every system it sets up; tests use it to
// corrupt outputs.
func run(args []string, out io.Writer, wrap func(target) target) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "run one workload and print the driver's JSON line last (default: all six)")
		seed      = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds   = fs.Float64("seconds", defaultSeconds, "length of the timed pass")
		trace     = fs.Int("trace", 0, "1: the traced run (per-layer metrics, span files); 0: the end-to-end run")
		repeat    = fs.Int("repeat", 0, "run every selected workload N times in child processes and report medians, quartiles and spread/bound")
		seedStep  = fs.Int64("seedstep", 0, "with -repeat: add this to the seed for each further run (the driver varies the seed; 0 repeats one seed)")
		selfcheck = fs.Bool("selfcheck", false, "check that one seed gives identical scripts and exact metrics, and another seed a different script")
		manifest  = fs.Bool("manifest", false, "print BENCHMARK.json as this program defines it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The load generator, the server and the device share two cores, as the
	// sizing runs did; more would measure a different machine.
	runtime.GOMAXPROCS(2)

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *manifest {
		fmt.Fprintln(out, manifestJSON())
		return 0
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		selected = []*workload{w}
	}
	switch {
	case *selfcheck:
		if err := selfCheck(selected, *seed); err != nil {
			return fail(err)
		}
		fmt.Fprintln(out, "selfcheck ok")
		return 0
	case *repeat > 0:
		if err := repeatRuns(out, selected, *repeat, *seed, *seedStep, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}

	code := 0
	for _, w := range selected {
		var res *result
		var err error
		if *trace != 0 {
			res, err = runTraced(w, *seed, *seconds)
		} else {
			res, err = runUntraced(w, *seed, *seconds, wrap)
		}
		if err != nil {
			// Nothing was measured: no result line, non-zero exit.
			return fail(err)
		}
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
		}
		printHuman(out, res, defs)
		if !res.correct {
			code = 1
		}
		if *name != "" {
			line, err := contractLine(res, defs)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(out, line)
		}
	}
	return code
}

// sortedNames lists a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHuman lists every metric the run measured, by name and unit, with the
// sample count beside each latency.
func printHuman(out io.Writer, res *result, defs []metricDef) {
	fmt.Fprintf(out, "== %s  attempted %d  failed %d  fail_share %.6f  correct %v  script %s\n",
		res.workload, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)), res.correct, res.digest)
	bound := map[string]float64{}
	for _, d := range defs {
		bound[d.Name] = d.Bound
	}
	for _, n := range sortedNames(res.metrics) {
		m := res.metrics[n]
		fmt.Fprintf(out, "%-16s %-34s %16.6f %-6s", res.workload, n, m.Value, m.Unit)
		if c, ok := res.samples[n]; ok {
			fmt.Fprintf(out, " n=%d", c)
		}
		if b, ok := bound[n]; ok && b > 0 {
			fmt.Fprintf(out, " bound=%g", b)
		}
		fmt.Fprintln(out)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "%-16s ! %s\n", res.workload, p)
	}
}

// contractLine is the driver's result: one JSON object holding every metric
// of the list the run was asked for. A layer metric the workload does not
// define reads 0 (the driver wants every name on every workload).
func contractLine(res *result, defs []metricDef) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, map[string]metric{}}
	for _, d := range defs {
		m, ok := res.metrics[d.Name]
		if !ok {
			m = metric{0, d.Unit}
		}
		out.Metrics[d.Name] = m
	}
	b, err := json.Marshal(out)
	return string(b), err
}
