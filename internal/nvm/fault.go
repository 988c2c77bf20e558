package nvm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nds/internal/sim"
)

// Deterministic flash fault injection. Real NAND fails: pages refuse to
// program, blocks refuse to erase, cells drift until reads need extra ECC
// sensing passes, and every block wears out after a bounded number of
// program/erase cycles. A FaultPlan makes the simulated array exhibit those
// behaviours at deterministic, seed-derived points so the translation layer's
// recovery machinery can be exercised and replayed exactly.
//
// Every trigger is a per-die operation counter compared against a seed-derived
// per-die phase, so two devices built with the same geometry and plan fail at
// identical points when driven by identical operation sequences — the property
// the fault-matrix tests rely on. With no plan installed (the default) the
// data path pays a single nil check per operation and timing is bit-identical
// to a device without the feature.

// Fault sentinels. Callers classify device failures with errors.Is: a fault
// is a media condition the STL is expected to recover from, unlike the
// flash-rule violations (program of a programmed page, invalid address) that
// indicate translation-layer bugs.
var (
	// ErrProgramFault: the program operation failed its status check. The
	// target page is consumed (its content is indeterminate and it may not be
	// programmed again before an erase) and the block should be retired.
	ErrProgramFault = errors.New("nvm: program fault")
	// ErrEraseFault: the erase operation failed. The block's contents are
	// unchanged but the block is unreliable and should be retired.
	ErrEraseFault = errors.New("nvm: erase fault")
	// ErrWornOut: the block exceeded its endurance limit; erases fail
	// permanently from now on.
	ErrWornOut = errors.New("nvm: block worn out")
)

// ProgramError reports a program fault within a ProgramPages batch: which op
// failed, where, and when the failed attempt completed on the device
// timelines. Ops before Index completed normally; ops after Index were not
// attempted (their pages remain unprogrammed). It unwraps to ErrProgramFault.
type ProgramError struct {
	Index int      // failing op's position in the batch
	P     PPA      // the consumed page
	Done  sim.Time // completion time of the failed attempt
}

func (e *ProgramError) Error() string {
	return fmt.Sprintf("nvm: program fault at %v (op %d)", e.P, e.Index)
}

func (e *ProgramError) Unwrap() error { return ErrProgramFault }

// FaultPlan configures deterministic fault injection. Zero values disable
// each mechanism; the zero plan disables injection entirely.
type FaultPlan struct {
	// Seed phases each die's fault points so faults spread across the array
	// instead of striking every die's Nth operation in lockstep.
	Seed int64
	// ProgramFailEvery N > 0 fails one in every N program attempts on each
	// die (the Nth attempt, offset by a seed-derived per-die phase).
	ProgramFailEvery int64
	// EraseFailEvery N > 0 fails one in every N erase attempts on each die.
	EraseFailEvery int64
	// ReadRetryEvery N > 0 makes one in every N page reads on each die need
	// ECC retry: the read succeeds but occupies the bank for extra sensing
	// passes.
	ReadRetryEvery int64
	// ReadRetrySenses is the number of extra sensing passes a retried read
	// performs (default 2 when ReadRetryEvery is set).
	ReadRetrySenses int
	// EnduranceLimit E > 0 wears a block out after E successful erases:
	// further erase attempts fail with ErrWornOut.
	EnduranceLimit int64
}

// Enabled reports whether the plan injects anything.
func (p FaultPlan) Enabled() bool {
	return p.ProgramFailEvery > 0 || p.EraseFailEvery > 0 ||
		p.ReadRetryEvery > 0 || p.EnduranceLimit > 0
}

// FaultStats counts injected fault events over the device lifetime.
type FaultStats struct {
	ProgramFaults int64 // failed program attempts
	EraseFaults   int64 // failed erase attempts (transient faults)
	WearoutFaults int64 // erase attempts refused because the block is worn out
	ReadRetries   int64 // reads that needed ECC retry sensing
}

// faultState is the device-side injection engine: the plan plus seed-derived
// per-die phases and global event counters. Per-die attempt counters live in
// the die shards (guarded by the shard lock) so injection points are
// deterministic per die regardless of cross-die interleaving.
type faultState struct {
	plan     FaultPlan
	progOff  []int64 // per-die phase into the program-fail cycle
	eraseOff []int64
	readOff  []int64

	programFaults atomic.Int64
	eraseFaults   atomic.Int64
	wearoutFaults atomic.Int64
	readRetries   atomic.Int64
}

// mix64 is a splitmix64-style hash of the plan seed and a die index, used to
// derive per-die phases.
func mix64(seed int64, die int, salt uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(die+1) + salt*0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newFaultState(plan FaultPlan, dies int) *faultState {
	if plan.ReadRetryEvery > 0 && plan.ReadRetrySenses <= 0 {
		plan.ReadRetrySenses = 2
	}
	f := &faultState{
		plan:     plan,
		progOff:  make([]int64, dies),
		eraseOff: make([]int64, dies),
		readOff:  make([]int64, dies),
	}
	for d := 0; d < dies; d++ {
		if n := plan.ProgramFailEvery; n > 0 {
			f.progOff[d] = int64(mix64(plan.Seed, d, 1) % uint64(n))
		}
		if n := plan.EraseFailEvery; n > 0 {
			f.eraseOff[d] = int64(mix64(plan.Seed, d, 2) % uint64(n))
		}
		if n := plan.ReadRetryEvery; n > 0 {
			f.readOff[d] = int64(mix64(plan.Seed, d, 3) % uint64(n))
		}
	}
	return f
}

// programFails reports whether program attempt n (0-based) on die fails.
func (f *faultState) programFails(die int, n int64) bool {
	N := f.plan.ProgramFailEvery
	return N > 0 && (n+f.progOff[die])%N == N-1
}

// eraseFails reports whether erase attempt n (0-based) on die fails.
func (f *faultState) eraseFails(die int, n int64) bool {
	N := f.plan.EraseFailEvery
	return N > 0 && (n+f.eraseOff[die])%N == N-1
}

// readRetries reports whether read n (0-based) on die needs ECC retry.
func (f *faultState) readNeedsRetry(die int, n int64) bool {
	N := f.plan.ReadRetryEvery
	return N > 0 && (n+f.readOff[die])%N == N-1
}

// wornOut reports whether a block with the given erase count refuses erases.
func (f *faultState) wornOut(eraseCount int64) bool {
	return f.plan.EnduranceLimit > 0 && eraseCount >= f.plan.EnduranceLimit
}

// SetFaultPlan installs a fault-injection plan. Installing a disabled plan
// removes injection. Intended to be called before traffic starts; attempt
// counters begin at the installation point.
func (d *Device) SetFaultPlan(p FaultPlan) {
	d.cfgMu.Lock()
	defer d.cfgMu.Unlock()
	if !p.Enabled() {
		d.faults.Store((*faultState)(nil))
		return
	}
	d.faults.Store(newFaultState(p, d.geo.Channels*d.geo.Banks))
}

// faultPlan returns the active injection engine, nil when disabled.
func (d *Device) faultPlan() *faultState {
	f, _ := d.faults.Load().(*faultState)
	return f
}

// FaultStats reports injected fault events so far (zero when no plan is
// installed).
func (d *Device) FaultStats() FaultStats {
	f := d.faultPlan()
	if f == nil {
		return FaultStats{}
	}
	return FaultStats{
		ProgramFaults: f.programFaults.Load(),
		EraseFaults:   f.eraseFaults.Load(),
		WearoutFaults: f.wearoutFaults.Load(),
		ReadRetries:   f.readRetries.Load(),
	}
}
