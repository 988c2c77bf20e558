package nvm

import (
	"bytes"
	"errors"
	"testing"

	"nds/internal/sim"
)

func faultTestDevice(t *testing.T, plan FaultPlan) *Device {
	t.Helper()
	d, err := NewDevice(testGeo(), TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultPlan(plan)
	return d
}

// TestFaultPlanDisabledIdentical: a device with a disabled plan installed
// behaves bit-identically (data and completion times) to one that never saw
// SetFaultPlan.
func TestFaultPlanDisabledIdentical(t *testing.T) {
	plain := newTestDevice(t, false)
	planned := faultTestDevice(t, FaultPlan{}) // zero plan: disabled

	geo := plain.Geometry()
	page := bytes.Repeat([]byte{0xA5}, geo.PageSize)
	for _, d := range []*Device{plain, planned} {
		p := PPA{Channel: 1, Bank: 0, Block: 2, Page: 3}
		if _, err := programOne(d, 0, p, page); err != nil {
			t.Fatal(err)
		}
	}
	p := PPA{Channel: 1, Bank: 0, Block: 2, Page: 3}
	d1, t1, err1 := readOne(plain, 0, p)
	d2, t2, err2 := readOne(planned, 0, p)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if t1 != t2 {
		t.Fatalf("completion diverged: %v vs %v", t1, t2)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("data diverged with a disabled plan installed")
	}
	if fs := planned.FaultStats(); fs != (FaultStats{}) {
		t.Fatalf("disabled plan counted events: %+v", fs)
	}
}

// TestFaultProgramDeterministicReplay: two devices with the same plan fail
// identical program attempts when driven identically.
func TestFaultProgramDeterministicReplay(t *testing.T) {
	plan := FaultPlan{Seed: 7, ProgramFailEvery: 5}
	a := faultTestDevice(t, plan)
	b := faultTestDevice(t, plan)
	geo := a.Geometry()
	page := make([]byte, geo.PageSize)

	var faultsA, faultsB []PPA
	for blk := 0; blk < 3; blk++ {
		for pg := 0; pg < geo.PagesPerBlock; pg++ {
			p := PPA{Channel: 0, Bank: 1, Block: blk, Page: pg}
			_, errA := programOne(a, 0, p, page)
			_, errB := programOne(b, 0, p, page)
			var peA, peB *ProgramError
			if errors.As(errA, &peA) {
				faultsA = append(faultsA, peA.P)
			}
			if errors.As(errB, &peB) {
				faultsB = append(faultsB, peB.P)
			}
			if (errA == nil) != (errB == nil) {
				t.Fatalf("replay diverged at %v: %v vs %v", p, errA, errB)
			}
		}
	}
	if len(faultsA) == 0 {
		t.Fatal("no program faults injected over 48 programs with N=5")
	}
	if len(faultsA) != len(faultsB) {
		t.Fatalf("fault counts diverged: %d vs %d", len(faultsA), len(faultsB))
	}
	for i := range faultsA {
		if faultsA[i] != faultsB[i] {
			t.Fatalf("fault %d at %v vs %v", i, faultsA[i], faultsB[i])
		}
	}
	if a.FaultStats() != b.FaultStats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.FaultStats(), b.FaultStats())
	}
}

// TestFaultProgramConsumesPage: a faulted program leaves its page
// unprogrammable until the block is erased.
func TestFaultProgramConsumesPage(t *testing.T) {
	d := faultTestDevice(t, FaultPlan{Seed: 3, ProgramFailEvery: 1})
	geo := d.Geometry()
	page := make([]byte, geo.PageSize)
	p := PPA{Channel: 0, Bank: 0, Block: 0, Page: 0}
	_, err := programOne(d, 0, p, page)
	var pe *ProgramError
	if !errors.As(err, &pe) || !errors.Is(err, ErrProgramFault) {
		t.Fatalf("want ProgramError unwrapping to ErrProgramFault, got %v", err)
	}
	if !d.Programmed(p) {
		t.Fatal("faulted page not consumed")
	}
	if _, err := programOne(d, 0, p, page); err == nil || errors.Is(err, ErrProgramFault) {
		t.Fatalf("re-program of consumed page should be a rule violation, got %v", err)
	}
	d.SetFaultPlan(FaultPlan{}) // allow the erase
	if _, err := d.EraseBlock(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := programOne(d, 0, p, page); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

// TestFaultBatchMatchesScalar: ProgramPages under a fault plan mirrors the
// page-at-a-time loop of one-op batches that aborts at the first fault — same
// fault point, same completion, stored prefix readable, suffix untouched.
func TestFaultBatchMatchesScalar(t *testing.T) {
	plan := FaultPlan{Seed: 11, ProgramFailEvery: 6}
	scalar := faultTestDevice(t, plan)
	batch := faultTestDevice(t, plan)
	geo := scalar.Geometry()

	ops := make([]ProgramOp, 0, 16)
	for pg := 0; pg < 16; pg++ {
		data := bytes.Repeat([]byte{byte(pg + 1)}, geo.PageSize)
		ops = append(ops, ProgramOp{At: 0, P: PPA{Channel: 2, Bank: 1, Block: 1, Page: pg}, Data: data})
	}

	// Page-at-a-time oracle: one-op batches in order, stop at the first fault.
	scalarFault, scalarDone := -1, sim.Time(0)
	for i := range ops {
		done, err := programOne(scalar, ops[i].At, ops[i].P, ops[i].Data)
		scalarDone = done
		if err != nil {
			var pe *ProgramError
			if !errors.As(err, &pe) {
				t.Fatal(err)
			}
			scalarFault = i
			break
		}
	}
	if scalarFault < 0 {
		t.Fatal("no fault in 16 programs with N=6")
	}

	_, err := batch.ProgramPages(ops)
	var pe *ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("batch did not fault: %v", err)
	}
	if pe.Index != scalarFault {
		t.Fatalf("batch faulted at %d, scalar at %d", pe.Index, scalarFault)
	}
	if pe.P != ops[scalarFault].P {
		t.Fatalf("fault PPA %v, want %v", pe.P, ops[scalarFault].P)
	}
	if pe.Done != scalarDone {
		t.Fatalf("fault completion %v, want scalar %v", pe.Done, scalarDone)
	}
	for i := range ops {
		switch {
		case i < scalarFault:
			got := batch.RawPage(ops[i].P)
			if !bytes.Equal(got, ops[i].Data) {
				t.Fatalf("stored op %d corrupted", i)
			}
		case i == scalarFault:
			if !batch.Programmed(ops[i].P) {
				t.Fatal("faulted page not consumed")
			}
		default:
			if batch.Programmed(ops[i].P) {
				t.Fatalf("op %d past the fault was programmed", i)
			}
		}
	}
}

// TestFaultReadRetryLatency: a read at an ECC-retry point succeeds with the
// configured extra sensing occupancy; others keep the plain latency.
func TestFaultReadRetryLatency(t *testing.T) {
	base := newTestDevice(t, false)
	retry := faultTestDevice(t, FaultPlan{Seed: 1, ReadRetryEvery: 1, ReadRetrySenses: 3})
	geo := base.Geometry()
	page := make([]byte, geo.PageSize)
	p := PPA{Channel: 0, Bank: 0, Block: 0, Page: 0}
	for _, d := range []*Device{base, retry} {
		if _, err := programOne(d, 0, p, page); err != nil {
			t.Fatal(err)
		}
		d.ResetTimeline()
	}
	_, baseDone, err := readOne(base, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	data, retryDone, err := readOne(retry, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	extra := 3 * base.Timing().ReadPage
	if retryDone != baseDone+extra {
		t.Fatalf("retried read completed at %v, want %v + %v", retryDone, baseDone, extra)
	}
	if !bytes.Equal(data, page) {
		t.Fatal("retried read returned wrong data")
	}
	if fs := retry.FaultStats(); fs.ReadRetries != 1 {
		t.Fatalf("ReadRetries = %d, want 1", fs.ReadRetries)
	}
}

// TestFaultWearOutPermanent: once a block's erase count reaches the
// endurance limit, every further erase fails and the block state is frozen.
func TestFaultWearOutPermanent(t *testing.T) {
	d := faultTestDevice(t, FaultPlan{Seed: 2, EnduranceLimit: 2})
	geo := d.Geometry()
	page := make([]byte, geo.PageSize)
	p := PPA{Channel: 3, Bank: 1, Block: 5, Page: 0}
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := programOne(d, 0, p, page); err != nil {
			t.Fatalf("cycle %d program: %v", cycle, err)
		}
		if _, err := d.EraseBlock(0, p); err != nil {
			t.Fatalf("cycle %d erase: %v", cycle, err)
		}
	}
	if _, err := programOne(d, 0, p, page); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.EraseBlock(0, p); !errors.Is(err, ErrWornOut) {
			t.Fatalf("erase %d past endurance: want ErrWornOut, got %v", i, err)
		}
	}
	if !d.Programmed(p) {
		t.Fatal("failed erase mutated block state")
	}
	if fs := d.FaultStats(); fs.WearoutFaults != 3 {
		t.Fatalf("WearoutFaults = %d, want 3", fs.WearoutFaults)
	}
}

// TestFaultEraseLeavesState: a transient erase fault leaves the block's
// contents and programmed bits untouched.
func TestFaultEraseLeavesState(t *testing.T) {
	d := faultTestDevice(t, FaultPlan{Seed: 5, EraseFailEvery: 1})
	geo := d.Geometry()
	page := bytes.Repeat([]byte{0x3C}, geo.PageSize)
	p := PPA{Channel: 1, Bank: 1, Block: 3, Page: 7}
	if _, err := programOne(d, 0, p, page); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseBlock(0, p); !errors.Is(err, ErrEraseFault) {
		t.Fatalf("want ErrEraseFault, got %v", err)
	}
	data, _, err := readOne(d, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, page) {
		t.Fatal("erase fault corrupted block contents")
	}
	if fs := d.FaultStats(); fs.EraseFaults != 1 {
		t.Fatalf("EraseFaults = %d, want 1", fs.EraseFaults)
	}
}
