package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"nds/internal/system"
	"nds/internal/workloads"
)

// Report is the reproduction's deliverable: every selected section of the
// paper's evaluation measured at one matrix side N, which String prints
// beside the values the paper states (paper, below). cmd/ndsbench prints it,
// EXPERIMENTS.md holds it at the paper's N = 32768, and the package's golden
// pins it at N = 4096.
type Report struct {
	N        int64
	sections []string

	Fig2A, Fig2B        Fig2Result
	Fig3                []Fig3Row
	Fig9A, Fig9B, Fig9C []Fig9Point
	Util                []system.Report // the three systems after the Figure 9(a-c) reads
	Fig9D               Fig9Write
	Overhead            OverheadResult
	Fig10               Fig10Summary
	Channels, BBMult    []SweepPoint
	Ablations           []SweepPoint // one per layout of ablations, in order
	Pushdown            []PushdownPoint
	Kernels             KernelSweep
}

// Sections names the report's sections in the order it prints them, as
// cmd/ndsbench's -table, -fig and -sweep flags select them.
var Sections = []string{"table 1", "table overhead", "fig 2", "fig 3", "fig 9a", "fig 9b", "fig 9c", "fig 9d", "fig 10", "sweep channels", "sweep bbmult", "sweep pushdown", "sweep kernels", "sweep ablations"}

// paper is every value the paper states for a section of the report, in the
// order the section prints them: what is measured, and the paper's value.
var paper = []struct{ section, what, value string }{
	{"table overhead", "software NDS added latency", "+41us"},
	{"table overhead", "hardware NDS added latency", "+17us"},
	{"table overhead", "index footprint / data", "<= 0.1%"},
	{"fig 2", "(a) time ratio, row store / sub-block", "2.11x"},
	{"fig 2", "(b) fetch-time ratio, row store / sub-block", "1.92x"},
	{"fig 3", "Tensor-Core optimum dim", "512"},
	{"fig 3", "CUDA-core optimum dim", "2048"},
	{"fig 3", "internal / NVMeoF MB/s, largest dim", "1.60 (8:5)"},
	{"fig 9a", "baseline MB/s", "~4300"},
	{"fig 9a", "software NDS MB/s", "~3800"},
	{"fig 9a", "hardware NDS / baseline", "~1"},
	{"fig 9b", "row-store baseline MB/s", "<= 600"},
	{"fig 9b", "hardware NDS / column store", "comparable"},
	{"fig 9c", "hardware NDS / baseline", "well above 1"},
	{"fig 9d", "baseline MB/s", "281"},
	{"fig 9d", "software NDS vs baseline", "-30%"},
	{"fig 9d", "hardware NDS vs baseline", "-17%"},
	{"fig 10", "software NDS average speedup", "5.07x"},
	{"fig 10", "hardware NDS average speedup", "5.73x"},
	{"fig 10", "oracle average speedup", "~software NDS"},
	{"fig 10", "kernel idle cut, software / hardware", "74% / 76%"},
	{"fig 10", "BFS software NDS speedup", "~1x"},
}

// NewReport measures the named sections (see Sections; "fig 9" names its
// four panels) at matrix side n.
func NewReport(n int64, names ...string) (*Report, error) {
	r := &Report{N: n}
	for _, name := range names {
		if !slices.Contains(Sections, name) && name != "fig 9" {
			return nil, fmt.Errorf("experiments: no report section %q", name)
		}
	}
	for _, s := range Sections {
		if slices.Contains(names, s) || strings.HasPrefix(s, "fig 9") && slices.Contains(names, "fig 9") {
			r.sections = append(r.sections, s)
		}
	}
	var p *Platform // Figure 9(a-c) read one loaded matrix, in that order
	var m *Matrix2D
	defer func() {
		if p != nil {
			p.Close()
		}
	}()
	for _, s := range r.sections {
		var err error
		if strings.HasPrefix(s, "fig 9") && s != "fig 9d" && p == nil {
			if p, err = NewPlatform(n * n * 8); err == nil {
				m, err = p.LoadMatrix(n)
			}
			if err != nil {
				return nil, err
			}
		}
		switch s {
		case "table overhead":
			r.Overhead, err = Overhead(n)
		case "fig 2":
			r.Fig2A = Figure2A()
			r.Fig2B, err = Figure2B()
		case "fig 3":
			r.Fig3, err = Figure3()
		case "fig 9a":
			r.Fig9A, err = Figure9A(p, m)
		case "fig 9b":
			r.Fig9B, err = Figure9B(p, m)
		case "fig 9c":
			r.Fig9C, err = Figure9C(p, m)
			for _, sys := range []*system.System{p.Baseline, p.Software, p.Hardware} {
				r.Util = append(r.Util, sys.Report(sys.Dev.NextIdle()))
			}
			p.Close()
			p = nil
		case "fig 9d":
			r.Fig9D, err = Figure9D(n)
		case "fig 10":
			r.Fig10, err = Figure10()
		case "sweep channels":
			r.Channels, err = SweepChannels(n, []int{4, 8, 16, 32, 64})
		case "sweep bbmult":
			r.BBMult, err = SweepBlockMultiplier(n, []int{1, 2, 4, 8})
		case "sweep pushdown":
			r.Pushdown, err = SweepPushdown()
		case "sweep kernels":
			r.Kernels, err = SweepKernels()
		case "sweep ablations":
			r.Ablations, err = SweepAblations(n)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s, err)
		}
	}
	return r, nil
}

// String prints the measured sections, each headed by its title and the
// size it ran at.
func (r *Report) String() string {
	var b strings.Builder
	for i, s := range r.sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		r.write(&b, s)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

func (r *Report) write(b *strings.Builder, section string) {
	row := func(format string, args ...any) {
		b.WriteString(strings.TrimRight(fmt.Sprintf(format, args...), " ") + "\n")
	}
	vsPaper := func(measured ...string) {
		row("%-44s %14s  %s", "vs paper:", "measured", "paper")
		for _, p := range paper {
			if p.section == section {
				row("%-44s %14s  %s", p.what, measured[0], p.value)
				measured = measured[1:]
			}
		}
	}
	switch section {
	case "table 1":
		row("=== Table 1: workloads (Figure 10's catalog, scaled) ===")
		row("%-9s %-18s %-18s %-24s %-5s %s", "Name", "Category", "Data dims (scaled)", "Kernel sub-dims", "Elem", "Shares")
		for _, s := range workloads.Catalog() {
			var subs []string
			for _, f := range s.Fetches {
				subs = append(subs, dimsStr(f.Sub))
			}
			row("%-9s %-18s %-18s %-24s %-5d %s", s.Name, s.Category, dimsStr(s.Dims), strings.Join(subs, " + "), s.Elem, s.SharedWith)
		}
	case "table overhead":
		o := r.Overhead
		row("=== Section 7.3: overhead of NDS, single-page worst case (N=%d) ===", r.N)
		row("baseline latency:     %v", o.BaselineLatency)
		row("software NDS latency: %v", o.SoftwareLatency)
		row("hardware NDS latency: %v", o.HardwareLatency)
		row("index footprint:      %d B for %d B data", o.IndexBytes, o.DataBytes)
		vsPaper(fmt.Sprintf("+%v", o.SoftwareDelta), fmt.Sprintf("+%v", o.HardwareDelta), fmt.Sprintf("%.4f%%", o.IndexOverhead*100))
	case "fig 2":
		row("=== Figure 2: 32Kx32K blocked MM, 8Kx8K fp32 tiles (paper's size, any N) ===")
		row("(a) data in memory:     row-store baseline %v   sub-block %v   ratio %.2fx", r.Fig2A.BaselineTime, r.Fig2A.SubBlockTime, r.Fig2A.Ratio)
		row("(b) from the 32-ch SSD: row-store baseline %v   sub-block %v   ratio %.2fx", r.Fig2B.BaselineTime, r.Fig2B.SubBlockTime, r.Fig2B.Ratio)
		vsPaper(fmt.Sprintf("%.2fx", r.Fig2A.Ratio), fmt.Sprintf("%.2fx", r.Fig2B.FetchRatio))
	case "fig 3":
		row("=== Figure 3: processing rate / bandwidth vs matrix dimension, MB/s (32..16384, any N) ===")
		row("%-8s %12s %12s %12s %12s %12s", "dim", "CUDA", "TensorCore", "NVMeoF", "SSD-internal", "consumer")
		for _, f := range r.Fig3 {
			row("%-8d %12.0f %12.0f %12.0f %12.0f %12.0f", f.Dim, f.CUDACores, f.TensorCores, f.NVMeoF, f.InternalSSD, f.ConsumerNVMe)
		}
		tcu := slices.MaxFunc(r.Fig3, func(a, b Fig3Row) int { return cmp.Compare(a.TensorCores, b.TensorCores) })
		cuda := slices.MaxFunc(r.Fig3, func(a, b Fig3Row) int { return cmp.Compare(a.CUDACores, b.CUDACores) })
		last := r.Fig3[len(r.Fig3)-1]
		vsPaper(fmt.Sprint(tcu.Dim), fmt.Sprint(cuda.Dim), fmt.Sprintf("%.2f", last.InternalSSD/last.NVMeoF))
	case "fig 9a":
		row("=== Figure 9(a): row-block fetch MB/s (N=%d) ===", r.N)
		points(row, r.Fig9A, false)
		vsPaper(span(r.Fig9A, "%.0f", func(p Fig9Point) float64 { return p.BaselineMB }),
			span(r.Fig9A, "%.0f", func(p Fig9Point) float64 { return p.SoftwareMB }),
			span(r.Fig9A, "%.2f", func(p Fig9Point) float64 { return p.HardwareMB / p.BaselineMB }))
	case "fig 9b":
		row("=== Figure 9(b): column-block fetch MB/s (N=%d) ===", r.N)
		points(row, r.Fig9B, true)
		vsPaper(span(r.Fig9B, "%.0f", func(p Fig9Point) float64 { return p.BaselineMB }),
			span(r.Fig9B, "%.2f", func(p Fig9Point) float64 { return p.HardwareMB / p.BaselineAlt }))
	case "fig 9c":
		row("=== Figure 9(c): submatrix fetch MB/s (N=%d) ===", r.N)
		points(row, r.Fig9C, false)
		vsPaper(span(r.Fig9C, "%.1fx", func(p Fig9Point) float64 { return p.HardwareMB / p.BaselineMB }))
		row("utilization after the Figure 9(a-c) reads:")
		for _, u := range r.Util {
			row("%v", u)
		}
	case "fig 9d":
		w := r.Fig9D
		sw, hw := 100*(w.SoftwareMB/w.BaselineRowMB-1), 100*(w.HardwareMB/w.BaselineRowMB-1)
		row("=== Figure 9(d): write bandwidth MB/s (N=%d) ===", r.N)
		row("baseline: %.0f   software NDS: %.0f (%.0f%%)   hardware NDS: %.0f (%.0f%%)", w.BaselineRowMB, w.SoftwareMB, sw, w.HardwareMB, hw)
		vsPaper(fmt.Sprintf("%.0f", w.BaselineRowMB), fmt.Sprintf("%.0f%%", sw), fmt.Sprintf("%.0f%%", hw))
	case "fig 10":
		s := r.Fig10
		row("=== Figure 10: end-to-end application results (Table 1 catalog, any N) ===")
		row("%-9s %12s %8s %8s %8s %11s %11s", "workload", "baseline", "sw-NDS", "oracle", "hw-NDS", "idle-red-sw", "idle-red-hw")
		bfs := 0.0
		for _, w := range s.Results {
			row("%-9s %12v %7.2fx %7.2fx %7.2fx %10.0f%% %10.0f%%", w.Spec.Name, w.Baseline, w.SpeedupSoftware, w.SpeedupOracle, w.SpeedupHardware, w.IdleReductionSW*100, w.IdleReductionHW*100)
			if w.Spec.Name == "BFS" {
				bfs = w.SpeedupSoftware
			}
		}
		row("%-9s %12s %7.2fx %7.2fx %7.2fx %10.0f%% %10.0f%%", "AVERAGE", "", s.AvgSpeedupSW, s.AvgSpeedupOracle, s.AvgSpeedupHW, s.AvgIdleRedSW*100, s.AvgIdleRedHW*100)
		vsPaper(fmt.Sprintf("%.2fx", s.AvgSpeedupSW), fmt.Sprintf("%.2fx", s.AvgSpeedupHW), fmt.Sprintf("%.2fx", s.AvgSpeedupOracle),
			fmt.Sprintf("%.0f%% / %.0f%%", s.AvgIdleRedSW*100, s.AvgIdleRedHW*100), fmt.Sprintf("%.2fx", bfs))
		row("hardware NDS, selection phase pushed to the STL (not in the paper), read -> push:")
		for _, w := range s.Results {
			if w.Spec.Push != nil {
				row("%-9s hw %v -> %v (win %.2fx), link B/iter %d -> %d (%.0fx)", w.Spec.Name, w.Hardware, w.HardwarePush, w.PushWinHW,
					w.HWLinkBytes, w.HWPushLinkBytes, float64(w.HWLinkBytes)/float64(w.HWPushLinkBytes))
				row("%9s stages/iter: fetch %v -> %v, copy %v -> %v, kernel %v -> %v", "", w.HWFetch, w.HWPushFetch, w.CopyRead, w.CopyPush, w.KernelRead, w.KernelPush)
			}
		}
		row("win = hardware time without pushdown / with it; >1 means the link bytes saved outweigh the controller's slower scan")
	case "sweep channels":
		row("=== Sensitivity: channel count, %dx%d tile fetch (N=%d; not in the paper) ===", r.N/8, r.N/8, r.N)
		row("%-10s %12s %12s %8s", "channels", "baseline", "hw-NDS", "gain")
		for _, p := range r.Channels {
			row("%-10d %10.0f %12.0f %7.1fx", p.X, p.BaselineMB, p.HardwareMB, p.HardwareMB/p.BaselineMB)
		}
	case "sweep bbmult":
		row("=== Sensitivity: building-block multiplier, hardware NDS (N=%d; not in the paper) ===", r.N)
		row("%-6s %10s %10s %10s", "mult", "row MB/s", "col MB/s", "tile MB/s")
		for _, p := range r.BBMult {
			row("%-6d %10.0f %10.0f %10.0f", p.X, p.RowMB, p.ColMB, p.TileMB)
		}
	case "sweep pushdown":
		row("=== Pushdown: in-storage scan vs read-then-filter, %d MiB of 8-byte elements, cache off (any N; not in the paper) ===", pdDim*pdDim*8>>20)
		row("%d %dx%d tiles, predicate [0,m) over values 0..999", pdTiles, pdTile, pdTile)
		row("%-8s %11s %14s %14s %9s %12s %12s", "mode", "selectivity", "read link B", "scan link B", "savings", "read sim", "scan sim")
		for _, p := range r.Pushdown {
			row("%-8s %11s %14d %14d %8.1fx %10.0fus %10.0fus", p.Mode, p.Selectivity, p.ReadLink, p.ScanLink,
				float64(p.ReadLink)/float64(p.ScanLink), float64(p.ReadSim.Nanoseconds())/1e3, float64(p.ScanSim.Nanoseconds())/1e3)
		}
		row("savings = interconnect bytes a read-then-filter moves / bytes the pushdown moves")
		row("hardware NDS trades slower controller compute for the link; software NDS cannot save link bytes")
	case "sweep kernels":
		row("=== Kernels: BFS frontier-scan selectivity at 1/4 catalog scale, hardware NDS (any N; not in the paper) ===")
		row("%-12s %14s %16s %8s", "selectivity", "hw-push sim", "hw link B/iter", "win")
		for _, w := range r.Kernels.BFS {
			row("%-12s %14v %16d %7.2fx", fmt.Sprintf("%g%%", w.Spec.Push.Selectivity*100), w.HardwarePush, w.HWPushLinkBytes, w.PushWinHW)
		}
		row("functional device kernels (hardware NDS, real data):")
		for _, k := range r.Kernels.Functional {
			// The rate is the bytes the kernel logically examined (the
			// read-everything link volume) over the pushdown run's time.
			row("  %-10s %6.0fx fewer interconnect bytes than read-everything (device-side %.1f sim-MB/s)",
				k.Name, float64(k.Read.LinkBytes)/float64(k.Push.LinkBytes), float64(k.Read.LinkBytes)/k.Push.Done.Seconds()/1e6)
		}
		row("win = hardware sim time without pushdown / with pushdown; >1 means the")
		row("link-byte savings outweigh the controller's slower selection scan")
	case "sweep ablations":
		row("=== Ablations: block shape and placement, hardware NDS (N=%d; not in the paper) ===", r.N)
		row("%-20s %10s %10s %10s", "layout", "row MB/s", "col MB/s", "tile MB/s")
		for i, p := range r.Ablations {
			row("%-20s %10.0f %10.0f %10.0f", ablations[i].layout, p.RowMB, p.ColMB, p.TileMB)
		}
		row("host vs in-device assembly is Figure 9(b)'s sw-NDS vs hw-NDS column")
		row("the 2-D rows sit at the host link's ceiling, so these gaps are smaller than the flash side's")
	}
}

// points prints a Figure 9 read panel; alt adds the column-store baseline.
func points(row func(string, ...any), pts []Fig9Point, alt bool) {
	head := ""
	if alt {
		head = fmt.Sprintf(" %10s", "col-store")
	}
	row("%-14s %10s%s %10s %10s", "fetch", "baseline", head, "sw-NDS", "hw-NDS")
	for _, p := range pts {
		if alt {
			head = fmt.Sprintf(" %10.0f", p.BaselineAlt)
		}
		row("%-14s %10.0f%s %10.0f %10.0f", p.Label, p.BaselineMB, head, p.SoftwareMB, p.HardwareMB)
	}
}

// span prints the range of f over the points, or its one value.
func span(pts []Fig9Point, format string, f func(Fig9Point) float64) string {
	lo, hi := f(pts[0]), f(pts[0])
	for _, p := range pts {
		lo, hi = min(lo, f(p)), max(hi, f(p))
	}
	if a, b := fmt.Sprintf(format, lo), fmt.Sprintf(format, hi); a != b {
		return a + "-" + b
	}
	return fmt.Sprintf(format, lo)
}

func dimsStr(dims []int64) string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(dims), "[]"), " ", "x")
}
