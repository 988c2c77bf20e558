package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// exactMetrics repeat to the last digit for one seed: they are simulated
// time or counts taken from a single stream.
var exactMetrics = []string{"sim_mb_per_s", "link_amp", "write_amp"}

// selfCheck runs every selected workload twice in this process with one
// seed and holds the two runs to byte-identical scripts and identical exact
// metrics; a third script from another seed must differ. The timed passes
// are cut short: only the deterministic part is under test.
func selfCheck(ws []*workload, seed int64) error {
	const seconds = 0.5
	for _, w := range ws {
		var runs [2]*result
		for i := range runs {
			r, err := runUntraced(w, seed, seconds, nil)
			if err != nil {
				return err
			}
			if !r.correct {
				return fmt.Errorf("selfcheck: %s: outputs differ from the oracle: %v", w.name, r.problems)
			}
			runs[i] = r
		}
		if runs[0].digest != runs[1].digest {
			return fmt.Errorf("selfcheck: %s: seed %d gave scripts %s and %s", w.name, seed, runs[0].digest, runs[1].digest)
		}
		for _, name := range exactMetrics {
			a, aok := runs[0].metrics[name]
			b, bok := runs[1].metrics[name]
			if aok != bok || a.Value != b.Value {
				return fmt.Errorf("selfcheck: %s: %s read %v then %v for one seed", w.name, name, a.Value, b.Value)
			}
		}
		other := generate(w, seed+1, 1)
		if d := scriptDigest(other.ops); fmt.Sprintf("%x", d[:8]) == runs[0].digest {
			return fmt.Errorf("selfcheck: %s: seeds %d and %d gave the same script", w.name, seed, seed+1)
		}
	}
	return nil
}

// childRun executes this program once more for one workload and parses the
// driver's JSON line: the same process boundary, fresh heap and high-water
// mark the driver's runs have.
func childRun(w *workload, seed int64, seconds float64) (map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var line struct {
		Correct bool              `json:"correct"`
		Failed  int64             `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result object: %w", w.name, seed, err)
	}
	if !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", w.name, seed, line.Correct, line.Failed)
	}
	return line.Metrics, nil
}

// repeatRuns is the repeatability harness: n end-to-end runs of every
// selected workload, each in a child process, then per metric the median,
// the quartiles as Python's statistics.quantiles gives them, and the spread
// (interquartile distance over median) against the metric's bound. A spread
// above a third of its bound is flagged; one above the bound means the
// metric cannot resolve a regression of that size on that workload.
func repeatRuns(out io.Writer, ws []*workload, n int, seed, step int64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	for _, w := range ws {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			m, err := childRun(w, seed+int64(i)*step, seconds)
			if err != nil {
				return err
			}
			for name, v := range m {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Fprintf(out, "== %s: %d runs, seeds %d..%d step %d\n", w.name, n, seed, seed+int64(n-1)*step, step)
		fmt.Fprintf(out, "%-16s %-14s %14s %14s %14s %9s %7s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound")
		for _, d := range endToEnd {
			xs := values[d.Name]
			if len(xs) < 2 {
				continue
			}
			q1, _, q3 := quartiles(xs)
			sp := spread(xs)
			flag := ""
			switch {
			case d.Name == "setup_s":
				flag = "(spread not gated)"
			case sp > d.Bound:
				flag = "UNRESOLVED: spread exceeds the bound"
			case sp > d.Bound/3:
				flag = "above a third of the bound"
			}
			fmt.Fprintf(out, "%-16s %-14s %14.6g %14.6g %14.6g %9.5f %7.3f %6.2f %s\n",
				w.name, d.Name, q1, median(xs), q3, sp, d.Bound, sp/d.Bound, flag)
			fmt.Fprintf(out, "%-16s %-14s runs:", w.name, d.Name)
			for _, x := range xs {
				fmt.Fprintf(out, " %.6g", x)
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

// bgGCProbe counts how many raw capacities of skewed overwrites the default
// (background) collector survives with two writers at 60 % fill before a
// write fails for want of free blocks — or waits out most of the collector's
// 250 ms foreground bound, which is the same wedge a moment earlier — capped
// at four. It is the ageing failure README.md describes, kept as a number so
// a GC fix shows.
func bgGCProbe(w *workload, seed int64, res *result) {
	probe := *w
	probe.syncGC = false
	probe.streams = 2
	probe.spaces = repeatSpace(w.spaces[0], 10) // 160 MiB of 259 logical: 60 %
	probe.ageOps = 0
	raw := int(probe.geometry.Capacity() / mib)
	limit := 4 * raw
	r := rand.New(rand.NewSource(seed))
	in := &inputs{ops: probe.gen(&probe, r, limit), pool: newPayloadPool(r, probe.payload, 8)}
	for i := range in.ops {
		in.ops[i].Stream = uint8(i % 2)
	}
	tg, _, err := setUp(&probe, in, rungSystem, nil)
	if err != nil {
		res.note("background-GC probe: %v", err)
		return
	}
	defer tg.close()
	var mu sync.Mutex
	firstFail := limit
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := newClientState(&probe)
			for i := s; i < limit; i += 2 {
				mu.Lock()
				stop := i > firstFail
				mu.Unlock()
				if stop {
					return
				}
				in.pool.fill(c.payload, int64(i))
				t0 := time.Now()
				if _, err := tg.do(&in.ops[i], c); err != nil || time.Since(t0) > 200*time.Millisecond {
					mu.Lock()
					if i < firstFail {
						firstFail = i
					}
					mu.Unlock()
					return
				}
			}
		}(s)
	}
	wg.Wait()
	res.set("stl.bg_gc_capacities_before_failure", float64(firstFail)/float64(raw), "count")
}
