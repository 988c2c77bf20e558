package nvm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"nds/internal/sim"
)

func testGeo() Geometry {
	return Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 16, PageSize: 512}
}

func newTestDevice(t *testing.T, phantom bool) *Device {
	t.Helper()
	d, err := NewDevice(testGeo(), TLCTiming(), phantom)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// programOne and readOne issue one page as a one-op batch: the page-at-a-time
// reference the batch contract of ProgramPages and ReadWords is stated
// against.
func programOne(d *Device, at sim.Time, p PPA, data []byte) (sim.Time, error) {
	return d.ProgramPages([]ProgramOp{{At: at, P: p, Data: data}})
}

func readOne(d *Device, at sim.Time, p PPA) ([]byte, sim.Time, error) {
	out := make([][]byte, 1)
	done, err := d.ReadWords(at, []Word{d.lay.Word(p)}, out)
	return out[0], done, err
}

func TestGeometryValidate(t *testing.T) {
	good := testGeo()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{0, 2, 8, 16, 512},
		{4, 0, 8, 16, 512},
		{4, 2, 0, 16, 512},
		{4, 2, 8, 0, 512},
		{4, 2, 8, 16, 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := testGeo()
	if got, want := g.TotalPages(), int64(4*2*8*16); got != want {
		t.Fatalf("TotalPages = %d, want %d", got, want)
	}
	if got, want := g.Capacity(), int64(4*2*8*16*512); got != want {
		t.Fatalf("Capacity = %d, want %d", got, want)
	}
}

func TestPPALinearRoundTrip(t *testing.T) {
	g := testGeo()
	f := func(c, b, blk, pg uint8) bool {
		p := PPA{
			Channel: int(c) % g.Channels,
			Bank:    int(b) % g.Banks,
			Block:   int(blk) % g.BlocksPerBank,
			Page:    int(pg) % g.PagesPerBlock,
		}
		return FromLinear(g, p.Linear(g)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPALinearDense(t *testing.T) {
	g := testGeo()
	seen := make(map[int64]bool)
	for c := 0; c < g.Channels; c++ {
		for b := 0; b < g.Banks; b++ {
			for blk := 0; blk < g.BlocksPerBank; blk++ {
				for pg := 0; pg < g.PagesPerBlock; pg++ {
					idx := PPA{c, b, blk, pg}.Linear(g)
					if idx < 0 || idx >= g.TotalPages() {
						t.Fatalf("linear index %d out of range", idx)
					}
					if seen[idx] {
						t.Fatalf("linear index %d duplicated", idx)
					}
					seen[idx] = true
				}
			}
		}
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := newTestDevice(t, false)
	p := PPA{Channel: 1, Bank: 1, Block: 2, Page: 3}
	payload := bytes.Repeat([]byte{0xAB}, 512)
	if _, err := programOne(d, 0, p, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := readOne(d, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read data does not match programmed data")
	}
}

func TestReadUnprogrammedIsZero(t *testing.T) {
	d := newTestDevice(t, false)
	got, _, err := readOne(d, 0, PPA{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 512 || !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("unprogrammed page should read as zeros")
	}
}

func TestNoInPlaceOverwrite(t *testing.T) {
	d := newTestDevice(t, false)
	p := PPA{0, 0, 0, 0}
	if _, err := programOne(d, 0, p, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := programOne(d, 0, p, []byte{2}); err == nil {
		t.Fatal("second program to same page must fail (flash rule)")
	}
	// After an erase the page is reusable.
	if _, err := d.EraseBlock(0, p); err != nil {
		t.Fatal(err)
	}
	if _, err := programOne(d, 0, p, []byte{3}); err != nil {
		t.Fatalf("program after erase failed: %v", err)
	}
	if d.EraseCount(p) != 1 {
		t.Fatalf("erase count = %d, want 1", d.EraseCount(p))
	}
}

func TestEraseClearsData(t *testing.T) {
	d := newTestDevice(t, false)
	p := PPA{2, 0, 3, 5}
	if _, err := programOne(d, 0, p, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseBlock(0, p); err != nil {
		t.Fatal(err)
	}
	got, _, _ := readOne(d, 0, p)
	if !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("erased page should read as zeros")
	}
	if d.Programmed(p) {
		t.Fatal("erased page should not be programmed")
	}
}

func TestInvalidAddressesRejected(t *testing.T) {
	d := newTestDevice(t, false)
	bad := PPA{Channel: 99}
	if _, _, err := readOne(d, 0, bad); err == nil {
		t.Error("read of invalid PPA should fail")
	}
	if _, err := programOne(d, 0, bad, nil); err == nil {
		t.Error("program of invalid PPA should fail")
	}
	if _, err := programOne(d, 0, PPA{0, 0, 0, 0}, make([]byte, 513)); err == nil {
		t.Error("oversized program should fail")
	}
}

func TestChannelParallelism(t *testing.T) {
	// Reads spread over distinct channels complete in ~one page latency;
	// reads queued on a single channel's bank serialize on the bank.
	d := newTestDevice(t, true)
	tim := d.Timing()
	perPage := tim.ReadPage + tim.TransferTime(512)

	var doneSpread sim.Time
	for c := 0; c < 4; c++ {
		_, done, err := readOne(d, 0, PPA{Channel: c})
		if err != nil {
			t.Fatal(err)
		}
		doneSpread = sim.Max(doneSpread, done)
	}
	if doneSpread != perPage {
		t.Fatalf("4 reads on 4 channels took %v, want %v", doneSpread, perPage)
	}

	d2 := newTestDevice(t, true)
	var doneSerial sim.Time
	for i := 0; i < 4; i++ {
		_, done, err := readOne(d2, 0, PPA{Channel: 0, Page: i})
		if err != nil {
			t.Fatal(err)
		}
		doneSerial = sim.Max(doneSerial, done)
	}
	// All four sense on the same bank: at least 4x the sense latency.
	if doneSerial < 4*tim.ReadPage {
		t.Fatalf("4 reads on one bank took %v, want >= %v", doneSerial, 4*tim.ReadPage)
	}
	if doneSerial <= doneSpread {
		t.Fatal("serialized reads should be slower than spread reads")
	}
}

func TestBankParallelismWithinChannel(t *testing.T) {
	// Two banks on one channel overlap sensing; only the bus serializes.
	d := newTestDevice(t, true)
	tim := d.Timing()
	var done sim.Time
	for b := 0; b < 2; b++ {
		_, dn, err := readOne(d, 0, PPA{Channel: 0, Bank: b})
		if err != nil {
			t.Fatal(err)
		}
		done = sim.Max(done, dn)
	}
	want := tim.ReadPage + 2*tim.TransferTime(512)
	if done != want {
		t.Fatalf("2-bank read took %v, want %v (sense overlapped, bus serialized)", done, want)
	}
}

func TestPhantomStoresNoData(t *testing.T) {
	d := newTestDevice(t, true)
	p := PPA{0, 0, 0, 0}
	if _, err := programOne(d, 0, p, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	data, _, err := readOne(d, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatal("phantom read should return nil data")
	}
	if !d.Programmed(p) {
		t.Fatal("phantom device must still track programmed state")
	}
}

func TestCountersAndTimeline(t *testing.T) {
	d := newTestDevice(t, false)
	p := PPA{0, 0, 0, 0}
	_, _ = programOne(d, 0, p, []byte{1})
	_, _, _ = readOne(d, 0, p)
	_, _ = d.EraseBlock(0, p)
	r, w, e := d.Counters()
	if r != 1 || w != 1 || e != 1 {
		t.Fatalf("counters = %d,%d,%d, want 1,1,1", r, w, e)
	}
	if d.NextIdle() == 0 {
		t.Fatal("device should be busy after operations")
	}
	d.ResetTimeline()
	if d.NextIdle() != 0 {
		t.Fatal("ResetTimeline should clear resource timelines")
	}
}

// TestBatchMatchesScalar: ReadPages/ProgramPages against one device must be
// timing- and data-identical to the same pages issued one at a time, as
// one-op batches in the same order (programOne, readOne), against a twin
// device.
func TestBatchMatchesScalar(t *testing.T) {
	batched := newTestDevice(t, false)
	scalar := newTestDevice(t, false)

	// Addresses spanning several dies, deliberately not die-sorted.
	ppas := []PPA{
		{0, 0, 0, 0}, {1, 1, 2, 3}, {0, 0, 0, 1}, {3, 0, 7, 15},
		{1, 1, 2, 4}, {2, 1, 4, 0}, {0, 1, 0, 0},
	}
	ops := make([]ProgramOp, len(ppas))
	for i, p := range ppas {
		data := bytes.Repeat([]byte{byte(i + 1)}, 512)
		ops[i] = ProgramOp{At: sim.Time(i * 100), P: p, Data: data}
	}

	doneB, err := batched.ProgramPages(ops)
	if err != nil {
		t.Fatal(err)
	}
	var doneS sim.Time
	for _, op := range ops {
		end, err := programOne(scalar, op.At, op.P, op.Data)
		if err != nil {
			t.Fatal(err)
		}
		doneS = sim.Max(doneS, end)
	}
	if doneB != doneS {
		t.Fatalf("program completion: batched %v scalar %v", doneB, doneS)
	}

	out := make([][]byte, len(ppas))
	rDoneB, err := batched.ReadPages(doneB, ppas, out)
	if err != nil {
		t.Fatal(err)
	}
	var rDoneS sim.Time
	for i, p := range ppas {
		data, end, err := readOne(scalar, doneS, p)
		if err != nil {
			t.Fatal(err)
		}
		rDoneS = sim.Max(rDoneS, end)
		if !bytes.Equal(out[i], data) {
			t.Fatalf("page %d: batched bytes differ from scalar", i)
		}
		if !bytes.Equal(data, ops[i].Data) {
			t.Fatalf("page %d: read-back differs from programmed data", i)
		}
	}
	if rDoneB != rDoneS {
		t.Fatalf("read completion: batched %v scalar %v", rDoneB, rDoneS)
	}

	rb, wb, _ := batched.Counters()
	rs, ws, _ := scalar.Counters()
	if rb != rs || wb != ws {
		t.Fatalf("counters diverge: batched %d/%d scalar %d/%d", rb, wb, rs, ws)
	}
}

// TestProgramPagesAtomicOnError: a batch containing an invalid op must leave
// the device untouched — no programmed bits, no timeline slots, no counters.
func TestProgramPagesAtomicOnError(t *testing.T) {
	page := bytes.Repeat([]byte{0xCD}, 512)
	bad := []struct {
		name string
		mk   func(d *Device) []ProgramOp
	}{
		{"invalid address", func(d *Device) []ProgramOp {
			return []ProgramOp{
				{P: PPA{0, 0, 0, 0}, Data: page},
				{P: PPA{9, 9, 9, 9}, Data: page},
			}
		}},
		{"oversized data", func(d *Device) []ProgramOp {
			return []ProgramOp{
				{P: PPA{0, 0, 0, 0}, Data: page},
				{P: PPA{1, 0, 0, 0}, Data: make([]byte, 513)},
			}
		}},
		{"already programmed", func(d *Device) []ProgramOp {
			if _, err := programOne(d, 0, PPA{2, 0, 1, 0}, page); err != nil {
				t.Fatal(err)
			}
			d.ResetTimeline()
			return []ProgramOp{
				{P: PPA{0, 0, 0, 0}, Data: page},
				{P: PPA{0, 0, 0, 1}, Data: page},
				{P: PPA{2, 0, 1, 0}, Data: page},
			}
		}},
		{"already programmed, another die claimed first", func(d *Device) []ProgramOp {
			if _, err := programOne(d, 0, PPA{2, 0, 1, 0}, page); err != nil {
				t.Fatal(err)
			}
			d.ResetTimeline()
			// The batch plan claims die (0,0), whose last op is the batch's
			// last, before die (2,0): its claims must be unwound too.
			return []ProgramOp{
				{P: PPA{0, 0, 0, 0}, Data: page},
				{P: PPA{2, 0, 1, 0}, Data: page},
				{P: PPA{0, 0, 0, 1}, Data: page},
			}
		}},
		{"duplicate in batch", func(d *Device) []ProgramOp {
			return []ProgramOp{
				{P: PPA{0, 0, 0, 0}, Data: page},
				{P: PPA{0, 0, 0, 0}, Data: page},
			}
		}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDevice(t, false)
			ops := tc.mk(d)
			_, progsBefore, _ := d.Counters()
			if _, err := d.ProgramPages(ops); err == nil {
				t.Fatal("invalid batch accepted")
			}
			for _, op := range ops {
				if op.P.Valid(d.geo) && op.P != (PPA{2, 0, 1, 0}) && d.Programmed(op.P) {
					t.Fatalf("failed batch left %v programmed", op.P)
				}
			}
			if _, progs, _ := d.Counters(); progs != progsBefore {
				t.Fatalf("failed batch bumped program counter %d -> %d", progsBefore, progs)
			}
			if d.NextIdle() != 0 {
				t.Fatal("failed batch reserved timeline slots")
			}
		})
	}
}

// TestBatchBookingMatchesPerPage: ReadWords and ProgramPages book each bank's
// and each channel's operations as one run; the same ops issued as one-op
// batches book them interleaved in slice order. Bookings on different
// timelines are independent, so over random batches — pages scattered over
// the dies with repeats, arrivals that jump ahead of the timelines and fall
// back into their gaps, with and without injected read retries and program
// faults — both must complete every batch at the same time and leave every
// timeline in the same state (checkBatchBooking; FuzzBatchBooking draws the
// geometry, the seed and the plan).
func TestBatchBookingMatchesPerPage(t *testing.T) {
	geo := Geometry{Channels: 8, Banks: 4, BlocksPerBank: 64, PagesPerBlock: 16, PageSize: 512}
	for _, plan := range []FaultPlan{{}, {Seed: 3, ReadRetryEvery: 5, ProgramFailEvery: 17}} {
		checkBatchBooking(t, geo, plan, 16, 400)
	}
}

// FuzzBatchBooking is TestBatchBookingMatchesPerPage over fuzzed geometries,
// generator seeds, round counts and fault plans. The batch contract is the
// only statement of page-at-a-time timing there is, so it is fuzzed, not
// just sampled.
func FuzzBatchBooking(f *testing.F) {
	f.Add(uint8(7), uint8(3), int64(16), uint8(200), uint8(0), uint8(0), uint8(0), int64(0))
	f.Add(uint8(7), uint8(3), int64(16), uint8(200), uint8(5), uint8(17), uint8(0), int64(3))
	f.Add(uint8(0), uint8(0), int64(1), uint8(120), uint8(1), uint8(1), uint8(3), int64(9))
	f.Add(uint8(1), uint8(1), int64(42), uint8(255), uint8(3), uint8(4), uint8(1), int64(-5))
	// One die, and two, without faults: every read batch is a die chain of
	// several pages, booked as one run when it starts on the bank's tail and
	// one sense at a time when its arrival falls back into a gap.
	f.Add(uint8(0), uint8(0), int64(5), uint8(150), uint8(0), uint8(0), uint8(0), int64(0))
	f.Add(uint8(1), uint8(0), int64(11), uint8(150), uint8(0), uint8(0), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, ch, bk uint8, seed int64, rounds, retryEvery, failEvery, senses uint8, planSeed int64) {
		geo := Geometry{Channels: 1 + int(ch%8), Banks: 1 + int(bk%4), BlocksPerBank: 16, PagesPerBlock: 16, PageSize: 512}
		plan := FaultPlan{
			Seed:             planSeed,
			ReadRetryEvery:   int64(retryEvery % 16),
			ReadRetrySenses:  int(senses % 4),
			ProgramFailEvery: int64(failEvery % 32),
		}
		checkBatchBooking(t, geo, plan, seed, 1+int(rounds))
	})
}

// checkBatchBooking drives two phantom devices of geometry geo under plan
// through rounds random batches drawn from seed: one device takes each batch
// whole (a read batch, every other round, with a nil out), the other takes
// its ops as one-op batches in slice order, stopping
// at a program fault as the batch does. Every batch's completion and fault
// report, and at the end the timelines' horizons, busy dies, channel
// utilization, counters and fault statistics, must agree.
func checkBatchBooking(t *testing.T, geo Geometry, plan FaultPlan, seed int64, rounds int) {
	t.Helper()
	mk := func() *Device {
		d, err := NewDevice(geo, TLCTiming(), true)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Enabled() {
			d.SetFaultPlan(plan)
		}
		return d
	}
	batch, loop := mk(), mk()
	lay := batch.Layout()
	rng := rand.New(rand.NewSource(seed))
	next := make([]int, geo.Channels*geo.Banks) // per die: the next page to program
	free := geo.TotalPages()                    // pages no round has programmed yet
	var clock sim.Time
	arrival := func() sim.Time {
		if rng.Intn(3) == 0 {
			return sim.Max(0, clock-sim.Time(rng.Int63n(int64(4*sim.Millisecond))))
		}
		return clock + sim.Time(rng.Int63n(int64(200*sim.Microsecond)))
	}
	for round := 0; round < rounds; round++ {
		n := 1 + rng.Intn(60)
		if rng.Intn(2) == 0 || free == 0 {
			at := arrival()
			ws := make([]Word, n)
			for i := range ws {
				ws[i] = lay.Word(PPA{rng.Intn(geo.Channels), rng.Intn(geo.Banks), rng.Intn(geo.BlocksPerBank), rng.Intn(geo.PagesPerBlock)})
			}
			// Every other round the batch side only books: a phantom read
			// may pass no out at all.
			var out [][]byte
			if round%2 == 0 {
				out = make([][]byte, n)
			}
			got, err := batch.ReadWords(at, ws, out)
			if err != nil {
				t.Fatal(err)
			}
			want := at
			for _, w := range ws {
				end, err := loop.ReadWords(at, []Word{w}, make([][]byte, 1))
				if err != nil {
					t.Fatal(err)
				}
				want = sim.Max(want, end)
			}
			if got != want {
				t.Fatalf("round %d: %d-page read at %v done at %v, page by page at %v", round, n, at, got, want)
			}
			clock = sim.Max(clock, got)
			continue
		}
		n = int(min(int64(n), free))
		ops := make([]ProgramOp, 0, n)
		for len(ops) < n {
			die := rng.Intn(len(next))
			if next[die] == geo.BlocksPerBank*geo.PagesPerBlock {
				continue
			}
			p := PPA{die / geo.Banks, die % geo.Banks, next[die] / geo.PagesPerBlock, next[die] % geo.PagesPerBlock}
			next[die]++
			ops = append(ops, ProgramOp{At: arrival(), P: p})
		}
		free -= int64(n)
		got, errB := batch.ProgramPages(ops)
		var want sim.Time
		var errL error
		landed := 0
		for ; landed < len(ops) && errL == nil; landed++ {
			var end sim.Time
			end, errL = programOne(loop, ops[landed].At, ops[landed].P, nil)
			want = sim.Max(want, end)
		}
		var peB, peL *ProgramError
		if errors.As(errB, &peB) != errors.As(errL, &peL) || (peB == nil) != (errB == nil) {
			t.Fatalf("round %d: batch err %v, page by page %v", round, errB, errL)
		}
		if peB != nil {
			// The loop stopped at its fault; the batch reports the same op.
			if peB.Index != landed-1 || peB.P != ops[landed-1].P || peB.Done != peL.Done {
				t.Fatalf("round %d: batch fault %+v, page by page op %d %+v", round, peB, landed-1, peL)
			}
			// Ops past the fault were not attempted; their pages stay free.
			for _, op := range ops[landed:] {
				next[op.P.Channel*geo.Banks+op.P.Bank]--
			}
			free += int64(len(ops) - landed)
		}
		if got != want {
			t.Fatalf("round %d: %d-page program done at %v, page by page at %v", round, n, got, want)
		}
		clock = sim.Max(clock, got)
	}
	if b, l := batch.NextIdle(), loop.NextIdle(); b != l {
		t.Fatalf("timelines drain at %v after batches, %v page by page", b, l)
	}
	for _, at := range []sim.Time{clock / 4, clock / 2, clock} {
		if b, l := batch.BusyDies(at), loop.BusyDies(at); b != l {
			t.Fatalf("%d dies busy at %v after batches, %d page by page", b, at, l)
		}
	}
	ub, ul := batch.ChannelUtilization(clock), loop.ChannelUtilization(clock)
	for ch := range ub {
		if ub[ch] != ul[ch] {
			t.Fatalf("channel %d utilization %v after batches, %v page by page", ch, ub[ch], ul[ch])
		}
	}
	rb, pb, _ := batch.Counters()
	rl, pl, _ := loop.Counters()
	if rb != rl || pb != pl || batch.FaultStats() != loop.FaultStats() {
		t.Fatalf("counters: batches %d/%d %+v, page by page %d/%d %+v", rb, pb, batch.FaultStats(), rl, pl, loop.FaultStats())
	}
}
