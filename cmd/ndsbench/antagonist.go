package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"nds"
	"nds/internal/ndsserver"
)

// The antagonist benchmark is the acceptance check for tenant QoS: a victim
// tenant's open-loop tail latency must stay bounded while a second tenant
// floods the same server at ten times the victim's rate. Without the fair
// scheduler the antagonist books every channel timeline deep into the future
// and the victim's p99 grows with the backlog; with it, the antagonist's
// surplus queues at admission (token bucket first, then the weighted fair
// queue) and the victim keeps its share.
const (
	antConns      = 4   // connections per tenant
	antVictimRate = 400 // victim aggregate target, ops/s
	antFloodScale = 10  // antagonist target = antFloodScale * antVictimRate
	// antRateCap is the token-bucket rate imposed on the antagonist tenant:
	// 1/32 of its offered 64 MB/s (10x rate * 16 KiB tiles), a third of the
	// victim's own demand. The bucket is the binding constraint — the
	// tenant's Throttle must accumulate — and the admitted flood is small
	// enough that the victim's tail measures storage scheduling, not raw CPU
	// contention on small (single-core) CI machines.
	antRateCap = 2 << 20 // bytes/s
	// antMaxOutstanding bounds the antagonist's per-connection backlog: a
	// throttled open-loop tenant otherwise accumulates its whole offered load
	// as blocked requests (minutes of drain after the phase ends, thousands
	// of goroutines of scheduler noise). Shed arrivals are counted; the
	// server still sees a saturating flood far above the victim's demand.
	antMaxOutstanding = 32

	// antTrials interleaved solo/flood measurements, gated on the median p99
	// of each phase: a single trial's p99 on a small shared machine moves 2-3x
	// between runs on scheduler luck alone, which would make the isolation
	// ratio a coin flip.
	antTrials = 3

	antWarmDur  = 500 * time.Millisecond
	antSoloDur  = 1500 * time.Millisecond
	antFloodDur = 2 * time.Second
)

// antagonistResult carries both phases: the victim alone, then the same
// victim load with the antagonist flooding concurrently.
type antagonistResult struct {
	Solo       netResult // victim, no antagonist
	Victim     netResult // victim, under flood
	Antagonist netResult // the flood itself
	// Tenant is the antagonist tenant's accounting: its accumulated admission
	// delays (Throttle, QueueWait) are nonzero iff QoS actually gated it.
	Tenant nds.TenantStats
}

// runAntagonistLoad self-hosts a QoS-enabled server and alternates antTrials
// solo-victim and victim-under-flood measurements, where the flood is the
// antagonist offering antFloodScale times the victim's rate from its own
// space (= its own tenant). Reported phases are median-p99 trials.
func runAntagonistLoad() (antagonistResult, error) {
	// A mode run earlier in the same invocation (-faultcheck, -pushdown,
	// -kernels) leaves a ballooned heap; without a forced collection, runtime
	// GC assists starve the open-loop scheduler and the tails measure the Go
	// runtime, not the server.
	debug.FreeOSMemory()
	dev, addr, cleanup, err := selfHostedServer(nds.Options{
		Mode:         nds.ModeHardware,
		CapacityHint: 16 << 20,
		TenantQoS:    &nds.TenantQoS{Weight: 1},
	}, ndsserver.Config{MaxConns: 2*antConns + 8}, "ndsbench-ant")
	if err != nil {
		return antagonistResult{}, err
	}
	defer cleanup()

	_, vicClients, vicViews, err := dialNetGroup(addr, antConns)
	if err != nil {
		return antagonistResult{}, fmt.Errorf("victim: %w", err)
	}
	defer closeClients(vicClients)
	antSpace, antClients, antViews, err := dialNetGroup(addr, antConns)
	if err != nil {
		return antagonistResult{}, fmt.Errorf("antagonist: %w", err)
	}
	defer closeClients(antClients)
	if err := dev.SetTenantQoS(nds.SpaceID(antSpace), nds.TenantQoS{
		Weight:          1,
		RateBytesPerSec: antRateCap,
	}); err != nil {
		return antagonistResult{}, err
	}

	victimOpts := func(d time.Duration) netOpts {
		return netOpts{
			Conns:   antConns,
			Rate:    antVictimRate,
			Dur:     d,
			Arrival: "poisson",
			ZipfS:   1.1,
		}
	}
	// A discarded warmup drive settles one-time costs (allocator growth, GC
	// pacing, scheduler spin-up) that otherwise land as outliers in the solo
	// baseline's p99 and make the isolation ratio meaningless.
	var res antagonistResult
	if _, err = driveOpenLoop(vicClients, vicViews, victimOpts(antWarmDur), 31000); err != nil {
		return res, fmt.Errorf("warmup phase: %w", err)
	}

	antOpts := victimOpts(antFloodDur)
	antOpts.Rate = antFloodScale * antVictimRate
	antOpts.MaxOutstanding = antMaxOutstanding
	var solos, floods, antRuns []netResult
	for trial := 0; trial < antTrials; trial++ {
		seed := int64(1000 * trial)
		solo, err := driveOpenLoop(vicClients, vicViews, victimOpts(antSoloDur), 9000+seed)
		if err != nil {
			return res, fmt.Errorf("solo trial %d: %w", trial, err)
		}
		if solo.Errors > 0 {
			return res, fmt.Errorf("solo trial %d: %d requests failed", trial, solo.Errors)
		}
		solos = append(solos, solo)

		var wg sync.WaitGroup
		var vic, ant netResult
		var vicErr, antErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			vic, vicErr = driveOpenLoop(vicClients, vicViews, victimOpts(antFloodDur), 9000+seed)
		}()
		go func() {
			defer wg.Done()
			ant, antErr = driveOpenLoop(antClients, antViews, antOpts, 17000+seed)
		}()
		wg.Wait()
		if vicErr != nil {
			return res, fmt.Errorf("flood trial %d (victim): %w", trial, vicErr)
		}
		if antErr != nil {
			return res, fmt.Errorf("flood trial %d (antagonist): %w", trial, antErr)
		}
		if vic.Errors > 0 || ant.Errors > 0 {
			return res, fmt.Errorf("flood trial %d: %d victim / %d antagonist requests failed",
				trial, vic.Errors, ant.Errors)
		}
		floods = append(floods, vic)
		antRuns = append(antRuns, ant)
	}
	res.Solo = medianByP99(solos)
	mi := medianIndexByP99(floods)
	res.Victim = floods[mi]
	res.Antagonist = antRuns[mi]

	antTenant := nds.SpaceID(antSpace)
	for _, t := range dev.TenantStats() {
		if !t.IsGroup && t.Space == antTenant {
			res.Tenant = t
		}
	}
	return res, nil
}

// medianIndexByP99 returns the index of the run with the median P99Ns —
// trials are gated on their median so one unlucky (or lucky) trial cannot
// decide the isolation verdict.
func medianIndexByP99(runs []netResult) int {
	idx := make([]int, len(runs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && runs[idx[j]].P99Ns < runs[idx[j-1]].P99Ns; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx[len(idx)/2]
}

func medianByP99(runs []netResult) netResult { return runs[medianIndexByP99(runs)] }

// antP99SlackNs absorbs scheduler jitter in sub-millisecond percentiles: on a
// loaded CI machine a single preemption moves a ~300 us p99 by more than the
// isolation bound, so the gate is bound*solo plus this absolute floor. The
// report prints both numbers; the slack hides nothing.
const antP99SlackNs = 250e3

// runAntagonist is the -antagonist CLI mode: run both phases and fail (exit
// 1) unless the flooded victim's p99 stays within bound x solo (+ slack).
func runAntagonist(bound float64) {
	header(fmt.Sprintf("Tenant isolation: victim vs %dx antagonist", antFloodScale))
	fmt.Printf("victim %d conns at %d ops/s, antagonist %d conns at %d ops/s (rate cap %d MB/s); median of %d trials\n",
		antConns, antVictimRate, antConns, antFloodScale*antVictimRate, antRateCap>>20, antTrials)
	res, err := runAntagonistLoad()
	if err != nil {
		fatalf("antagonist: %v", err)
	}
	fmt.Printf("victim solo:   done %6d  achieved %7.1f ops/s  p50 %5.0fus  p99 %5.0fus\n",
		res.Solo.Done, res.Solo.AchievedRps, res.Solo.P50Ns/1e3, res.Solo.P99Ns/1e3)
	fmt.Printf("victim flood:  done %6d  achieved %7.1f ops/s  p50 %5.0fus  p99 %5.0fus\n",
		res.Victim.Done, res.Victim.AchievedRps, res.Victim.P50Ns/1e3, res.Victim.P99Ns/1e3)
	fmt.Printf("antagonist:    done %6d  shed %6d  achieved %7.1f ops/s  throttled %v  queued %v\n",
		res.Antagonist.Done, res.Antagonist.Shed, res.Antagonist.AchievedRps,
		res.Tenant.Throttle.Round(time.Millisecond), res.Tenant.QueueWait.Round(time.Millisecond))
	if res.Tenant.Throttle == 0 {
		fatalf("antagonist: token bucket never throttled the flood (QoS gate not engaged)")
	}
	limit := bound*res.Solo.P99Ns + antP99SlackNs
	ratio := res.Victim.P99Ns / res.Solo.P99Ns
	fmt.Printf("victim p99 under flood: %.2fx solo (gate: %.1fx + %dus slack)\n",
		ratio, bound, int(antP99SlackNs/1e3))
	if res.Victim.P99Ns > limit {
		fatalf("antagonist: victim p99 %.0fus exceeds %.0fus (%.1fx solo %.0fus + slack)",
			res.Victim.P99Ns/1e3, limit/1e3, bound, res.Solo.P99Ns/1e3)
	}
	fmt.Println("isolation holds")
}
