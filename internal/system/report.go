package system

import (
	"fmt"
	"strings"

	"nds/internal/sim"
	"nds/internal/stl"
)

// Report is a utilization/telemetry snapshot of one system over a measured
// horizon: where the time went (host, link, controller elements, channels)
// and what the storage layer did (GC work, write amplification). ndsbench
// prints it after microbenchmark phases; tests use it to assert bottleneck
// locations.
type Report struct {
	Kind    Kind
	Horizon sim.Time

	HostBusy sim.Time
	LinkBusy sim.Time

	CtrlCmd       sim.Time
	CtrlTranslate sim.Time
	CtrlAssemble  sim.Time
	CtrlChannels  sim.Time

	ChannelUtil []float64 // per-channel busy fraction
	AvgChannel  float64
	MaxChannel  float64

	DeviceReads    int64
	DevicePrograms int64
	DeviceErases   int64

	// GC is the collector's report: the STL's on the NDS kinds, the block
	// device's (whose dies an STL manages) on Baseline.
	GC stl.GCReport

	// Reliability is the fault/recovery snapshot of the same layer (zero
	// fault counts when no fault plan is installed).
	Reliability stl.ReliabilityReport

	// Cache is the STL's building-block cache snapshot (zero-valued on
	// Baseline systems and when the cache is disabled).
	Cache stl.CacheStats

	// Tenants is the per-tenant QoS accounting breakdown (nil on Baseline
	// systems and when tenant QoS is disabled).
	Tenants []stl.TenantStats
}

// Report snapshots the system's resource accounting over the horizon
// (normally the completion time of the measured phase).
func (s *System) Report(horizon sim.Time) Report {
	busy := func(el element) sim.Time { return s.res[el].BusyTime() }
	r := Report{
		Kind:          s.Kind,
		Horizon:       horizon,
		HostBusy:      busy(hostIO) + busy(hostWorker),
		LinkBusy:      busy(link),
		CtrlCmd:       busy(cmdHandler),
		CtrlTranslate: busy(translator),
		CtrlAssemble:  busy(assembler),
		CtrlChannels:  busy(channelHandlers),
	}
	r.ChannelUtil = s.Dev.ChannelUtilization(horizon)
	for _, u := range r.ChannelUtil {
		r.AvgChannel += u
		if u > r.MaxChannel {
			r.MaxChannel = u
		}
	}
	if len(r.ChannelUtil) > 0 {
		r.AvgChannel /= float64(len(r.ChannelUtil))
	}
	r.DeviceReads, r.DevicePrograms, r.DeviceErases = s.Dev.Counters()
	switch {
	case s.FTL != nil:
		r.GC = s.FTL.GCReport()
		r.Reliability = s.FTL.Reliability()
	case s.STL != nil:
		r.GC = s.STL.GCReport()
		r.Reliability = s.STL.Reliability()
		r.Cache = s.STL.CacheStats()
		r.Tenants = s.STL.TenantStats()
	}
	return r
}

// ActiveChannels counts channels with meaningful utilization (> 1% of the
// busiest), the quantity behind problem [P3].
func (r Report) ActiveChannels() int {
	n := 0
	for _, u := range r.ChannelUtil {
		if u > 0.01*r.MaxChannel && u > 0 {
			n++
		}
	}
	return n
}

// String renders a compact multi-line summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v over %v:\n", r.Kind, r.Horizon)
	fmt.Fprintf(&b, "  host %v busy, link %v busy\n", r.HostBusy, r.LinkBusy)
	if r.CtrlTranslate > 0 || r.CtrlAssemble > 0 {
		fmt.Fprintf(&b, "  controller: cmd %v, translate %v, assemble %v, channels %v\n",
			r.CtrlCmd, r.CtrlTranslate, r.CtrlAssemble, r.CtrlChannels)
	}
	fmt.Fprintf(&b, "  channels: %d/%d active, avg %.1f%%, max %.1f%%\n",
		r.ActiveChannels(), len(r.ChannelUtil), 100*r.AvgChannel, 100*r.MaxChannel)
	fmt.Fprintf(&b, "  device ops: %d reads, %d programs, %d erases",
		r.DeviceReads, r.DevicePrograms, r.DeviceErases)
	if r.GC.Erases > 0 {
		fmt.Fprintf(&b, " (GC: %d erases, %d moves, WA %.2f)", r.GC.Erases, r.GC.PagesRelocated, r.GC.WriteAmp)
	}
	if rel := r.Reliability; rel.ProgramFaults+rel.EraseFaults+rel.WearoutFaults+rel.ReadRetries > 0 {
		fmt.Fprintf(&b, "\n  reliability: %d program / %d erase / %d wear-out faults, %d read retries; %d retries OK, %d blocks retired, capacity %d/%d pages",
			rel.ProgramFaults, rel.EraseFaults, rel.WearoutFaults, rel.ReadRetries,
			rel.ProgramRetries, rel.RetiredBlocks, rel.EffectivePages, rel.MaxPages)
	}
	if c := r.Cache; c.CapacityBytes > 0 {
		fmt.Fprintf(&b, "\n  cache: %d hits / %d misses, prefetch %d issued / %d used / %d wasted, %d evictions, %d/%d bytes resident",
			c.Hits, c.Misses, c.PrefetchIssued, c.PrefetchUsed, c.PrefetchWasted,
			c.Evictions, c.ResidentBytes, c.CapacityBytes)
	}
	for _, ts := range r.Tenants {
		name := fmt.Sprintf("space %d", ts.Space)
		if ts.IsGroup {
			name = fmt.Sprintf("group %d", ts.Group)
		}
		fmt.Fprintf(&b, "\n  tenant %s: weight %.3g, %d ops, %d bytes, busy %v, queued %dns, throttled %dns",
			name, ts.Weight, ts.Ops, ts.Bytes, sim.Time(ts.SimBusy), int64(ts.QueueWait), int64(ts.Throttle))
	}
	return b.String()
}
