package stl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
	"nds/internal/spec"
)

func lbaGeo() nvm.Geometry {
	return nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 8, PageSize: 256}
}

func newTestLBA(t *testing.T, geo nvm.Geometry, phantom bool) *LBA {
	t.Helper()
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), phantom)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLBA(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *LBA) pageSize() int64 { return int64(l.t.geo.PageSize) }

// readPages reads n logical pages from lpn.
func (l *LBA) readPages(t *testing.T, lpn, n int64) []byte {
	t.Helper()
	got, _, err := l.Read(0, lpn*l.pageSize(), n*l.pageSize())
	if err != nil {
		t.Fatalf("read pages [%d,%d): %v", lpn, lpn+n, err)
	}
	return got
}

func TestLBACapacityHidesOverProvision(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), true)
	raw := lbaGeo().TotalPages()
	if got, want := int64(len(l.slots)), int64(float64(raw)*0.9); got != want {
		t.Fatalf("logical pages = %d, want %d of %d raw", got, want, raw)
	}
}

func TestLBAWriteReadRoundTrip(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), false)
	want := make([]byte, 4*l.pageSize())
	for i := range want {
		want[i] = byte(i * 7)
	}
	if _, err := l.WritePages(0, 3, want, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.readPages(t, 3, 4), want) {
		t.Fatal("read-back mismatch")
	}
}

func TestLBAUnwrittenReadsZero(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), false)
	if !bytes.Equal(l.readPages(t, 10, 2), make([]byte, 2*l.pageSize())) {
		t.Fatal("unwritten LBAs should read as zeros")
	}
}

func TestLBAOverwriteReturnsNewData(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), false)
	for _, fill := range []byte{0xAA, 0xBB} {
		if _, err := l.WritePages(0, 5, bytes.Repeat([]byte{fill}, int(l.pageSize())), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(l.readPages(t, 5, 1), bytes.Repeat([]byte{0xBB}, int(l.pageSize()))) {
		t.Fatal("overwrite did not surface new data")
	}
}

func TestLBASequentialPagesStripeAcrossChannels(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), true)
	if _, err := l.WritePages(0, 0, nil, 8); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 8; lpn++ {
		w := l.slots[lpn].load().word()
		if ch, bk := l.t.lay.Channel(w), l.t.lay.Bank(w); int64(ch) != lpn%4 || int64(bk) != lpn/4 {
			t.Fatalf("logical page %d landed on ch%d/bk%d, want ch%d/bk%d", lpn, ch, bk, lpn%4, lpn/4)
		}
	}
}

func TestLBAByteReadUnaligned(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), false)
	data := make([]byte, 2*l.pageSize())
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := l.WritePages(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := l.Read(0, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100:400]) {
		t.Fatal("unaligned byte read mismatch")
	}
}

func TestLBABoundsChecked(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), true)
	n := int64(len(l.slots))
	if _, _, err := l.Read(0, n*l.pageSize(), 1); err == nil {
		t.Error("read past capacity should fail")
	}
	if _, _, err := l.Read(0, -1, 1); err == nil {
		t.Error("read at a negative offset should fail")
	}
	if _, err := l.WritePages(0, -1, nil, 1); err == nil {
		t.Error("negative LBA write should fail")
	}
	if _, err := l.WritePages(0, n-1, nil, 2); err == nil {
		t.Error("write past capacity should fail")
	}
	if _, err := l.WritePages(0, 0, make([]byte, 100), 0); err == nil {
		t.Error("non-page-aligned write should fail")
	}
}

// TestLBAGarbageCollectionPreservesData fills the device, then overwrites
// random pages until collection must run, verifying (a) it ran and moved
// pages, (b) every logical page still reads back its latest contents.
func TestLBAGarbageCollectionPreservesData(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), false)
	n := int64(len(l.slots))
	version := make([]uint32, n)
	write := func(lpn int64, v uint32) {
		page := make([]byte, l.pageSize())
		binary.LittleEndian.PutUint32(page, v)
		binary.LittleEndian.PutUint64(page[4:], uint64(lpn))
		if _, err := l.WritePages(0, lpn, page, 0); err != nil {
			t.Fatalf("write lpn %d: %v", lpn, err)
		}
		version[lpn] = v
	}
	for lpn := int64(0); lpn < n; lpn++ {
		write(lpn, 1)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < int(3*n); i++ {
		write(rng.Int63n(n), uint32(i+2))
	}
	rep := l.GCReport()
	if rep.Erases == 0 || rep.PagesRelocated == 0 {
		t.Fatalf("four capacities of writes never collected a page: %+v", rep)
	}
	if rep.WriteAmp <= 1 {
		t.Fatalf("write amplification %v should exceed 1 after collection", rep.WriteAmp)
	}
	for lpn := int64(0); lpn < n; lpn++ {
		got := l.readPages(t, lpn, 1)
		if v := binary.LittleEndian.Uint32(got); v != version[lpn] {
			t.Fatalf("lpn %d version = %d, want %d (collection corrupted the map)", lpn, v, version[lpn])
		}
		if p := binary.LittleEndian.Uint64(got[4:]); p != uint64(lpn) {
			t.Fatalf("lpn %d holds the data of lpn %d", lpn, p)
		}
	}
}

func TestLBAGCPhantomDevice(t *testing.T) {
	// The same churn on a phantom device: the map survives without bytes.
	l := newTestLBA(t, lbaGeo(), true)
	n := int64(len(l.slots))
	if _, err := l.WritePages(0, 0, nil, n); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < int(2*n); i++ {
		if _, err := l.WritePages(0, rng.Int63n(n), nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if rep := l.GCReport(); rep.Erases == 0 {
		t.Fatalf("collection should have run: %+v", rep)
	}
	auditDies(t, l.t)
	if _, _, err := l.Read(0, 0, n*l.pageSize()); err != nil {
		t.Fatal(err)
	}
}

func TestLBAReadParallelismBeatsSingleChannel(t *testing.T) {
	// A striped sequential read of Channels pages completes in about one page
	// time; reading as many through one channel would serialize.
	l := newTestLBA(t, lbaGeo(), true)
	ch := int64(lbaGeo().Channels)
	if _, err := l.WritePages(0, 0, nil, ch); err != nil {
		t.Fatal(err)
	}
	l.t.dev.ResetTimeline()
	_, done, err := l.Read(0, 0, ch*l.pageSize())
	if err != nil {
		t.Fatal(err)
	}
	if serial := l.t.dev.Timing().ReadPage * sim.Time(ch); done >= serial {
		t.Fatalf("striped read of %d pages took %v, want < %v (serial senses)", ch, done, serial)
	}
}

// lbaModel is a dense model of an LBA's logical pages: what each holds.
type lbaModel struct {
	l     *LBA
	pages []byte
}

// write writes page lpn with fresh random bytes on both sides.
func (m *lbaModel) write(t *testing.T, rng *rand.Rand, at sim.Time, lpn, n int64) sim.Time {
	t.Helper()
	ps := m.l.pageSize()
	data := fillRandom(rng, n*ps)
	done, err := m.l.WritePages(at, lpn, data, 0)
	if err != nil {
		t.Fatalf("write pages [%d,%d): %v", lpn, lpn+n, err)
	}
	copy(m.pages[lpn*ps:], data)
	return done
}

// check reads pages [lpn, lpn+n) and compares them with the model.
func (m *lbaModel) check(t *testing.T, lpn, n int64) {
	t.Helper()
	ps := m.l.pageSize()
	if got, want := m.l.readPages(t, lpn, n), m.pages[lpn*ps:(lpn+n)*ps]; !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("logical page %d diverged from the model at byte %d", lpn+int64(i)/ps, int64(i)%ps)
	}
}

// lbaChurn fills the first pages logical pages of an LBA, then overwrites
// writes single pages drawn Zipf(1.1) from a seeded permutation of them, each
// write issued at the previous one's completion. Every
// write is checked against the model and the allocator audited after it, and
// the whole device is read back every 256 writes and at the end. The trace
// pins the completions: every 128 writes, the digest of all so far.
func lbaChurn(t *testing.T, l *LBA, seed, n int64, writes int) *spec.Trace {
	t.Helper()
	m := &lbaModel{l: l, pages: make([]byte, n*l.pageSize())}
	rng := rand.New(rand.NewSource(seed))
	var (
		tr spec.Trace
		at sim.Time
	)
	h := fnv.New64a()
	for lpn := int64(0); lpn < n; lpn += 8 {
		at = m.write(t, rng, at, lpn, min(8, n-lpn))
		auditDies(t, l.t)
	}
	m.check(t, 0, n)
	tr.Add("filled %d pages done=%d gc=%+v", n, at, l.GCReport())
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	order := rng.Perm(int(n))
	for i := 1; i <= writes; i++ {
		lpn := int64(order[zipf.Uint64()])
		at = m.write(t, rng, at, lpn, 1)
		auditDies(t, l.t)
		m.check(t, lpn, 1)
		fmt.Fprintf(h, "%d %d\n", lpn, at)
		if i%256 == 0 || i == writes {
			m.check(t, 0, n)
		}
		if i%128 == 0 || i == writes {
			tr.Add("write %d done=%d sum=%016x", i, at, h.Sum64())
		}
	}
	tr.Add("end used=%d gc=%+v reliability=%+v", l.t.UsedPages(), l.GCReport(), l.Reliability())
	return &tr
}

// TestLBAAgeing ages the baseline's block device through four raw capacities
// of Zipf(1.1) overwrites: the STL's collector, with the LBA as the owner of
// its pages, keeps every page's latest contents and every die's books
// straight, and the completions and the collector's counters match the
// golden trace.
func TestLBAAgeing(t *testing.T) {
	l := newTestLBA(t, lbaGeo(), false)
	tr := lbaChurn(t, l, 11, int64(len(l.slots)), 4*int(lbaGeo().TotalPages()))
	rep := l.GCReport()
	if rep.Erases == 0 || rep.PagesRelocated == 0 {
		t.Fatalf("four raw capacities of overwrites never relocated a page: %+v", rep)
	}
	t.Logf("write amplification %.3f: %+v", rep.WriteAmp, rep)
	tr.Check(t, "TestLBAAgeing")
}

// lbaFaultRun churns a fresh LBA under TestFaultMatrixDeterministic's fault
// plan: a quarter of its logical pages, overwritten through half a raw
// capacity. Every eighth erase of a die fails and retires its victim, and
// nothing replaces a retired block: the hot pages' dies run out of blocks to
// collect into within a raw capacity.
func lbaFaultRun(t *testing.T) (*LBA, string) {
	t.Helper()
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	l := newTestLBA(t, geo, false)
	l.t.dev.SetFaultPlan(faultMatrixPlan)
	return l, lbaChurn(t, l, 5, int64(len(l.slots))/4, int(geo.TotalPages())/2).String()
}

// TestLBAFaultMatrix: the fault matrix's seeded program, erase and wear-out
// plan on the baseline's block device. Every page reads back byte-exact, a
// second run replays the first exactly, and the faulted programs were
// relocated and the faulted blocks retired.
func TestLBAFaultMatrix(t *testing.T) {
	first, a := lbaFaultRun(t)
	second, b := lbaFaultRun(t)
	if a != b {
		t.Fatalf("two runs traced differently:\n%s\n%s", a, b)
	}
	r := first.Reliability()
	if r2 := second.Reliability(); r != r2 {
		t.Fatalf("reliability reports diverged:\n%+v\n%+v", r, r2)
	}
	t.Logf("%+v", r)
	if r.ProgramFaults == 0 || r.EraseFaults == 0 || r.ProgramRetries == 0 || r.RetiredBlocks == 0 {
		t.Fatalf("the plan left program relocation or retirement unexercised: %+v", r)
	}
}
