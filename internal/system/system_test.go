package system

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
	"nds/internal/stl"
)

func smallConfig(phantom bool) Config {
	cfg := PrototypeConfig(8<<20, phantom)
	return cfg
}

func TestKindString(t *testing.T) {
	if Baseline.String() != "baseline" || SoftwareNDS.String() != "software-nds" ||
		HardwareNDS.String() != "hardware-nds" {
		t.Fatal("kind names changed")
	}
}

func TestNewWiresTheRightStack(t *testing.T) {
	for _, k := range []Kind{Baseline, SoftwareNDS, HardwareNDS} {
		s, err := New(k, smallConfig(true))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if k == Baseline && (s.FTL == nil || s.STL != nil) {
			t.Errorf("baseline should have an FTL and no STL")
		}
		if k != Baseline && (s.STL == nil || s.FTL != nil) {
			t.Errorf("%v should have an STL and no FTL", k)
		}
	}
	if _, err := New(Kind(99), smallConfig(true)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestOpsRejectWrongKind(t *testing.T) {
	base, _ := New(Baseline, smallConfig(true))
	swn, _ := New(SoftwareNDS, smallConfig(true))
	if _, _, err := base.NDSRead(0, nil, nil, nil); err == nil {
		t.Error("NDSRead on baseline should fail")
	}
	if _, _, err := swn.BaselineRead(0, nil, false, 1); err == nil {
		t.Error("BaselineRead on NDS system should fail")
	}
	if _, err := swn.BaselineWrite(0, nil, nil); err == nil {
		t.Error("BaselineWrite on NDS system should fail")
	}
	if _, err := base.NDSWrite(0, nil, nil, nil, nil); err == nil {
		t.Error("NDSWrite on baseline should fail")
	}
}

func TestBaselineRoundTripWithData(t *testing.T) {
	s, err := New(Baseline, smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	ps := int64(s.Cfg.Geometry.PageSize)
	payload := make([]byte, 4*ps)
	rand.New(rand.NewSource(1)).Read(payload)
	if _, err := s.BaselineWrite(0, []Run{{Off: 2 * ps, Len: 4 * ps}}, payload); err != nil {
		t.Fatal(err)
	}
	got, st, err := s.BaselineRead(0, []Run{{Off: 2 * ps, Len: 4 * ps}}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("baseline read-back mismatch")
	}
	if st.Commands != 1 || st.Bytes != 4*ps {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBaselineWriteRequiresAlignment(t *testing.T) {
	s, _ := New(Baseline, smallConfig(true))
	if _, err := s.BaselineWrite(0, []Run{{Off: 1, Len: 100}}, nil); err == nil {
		t.Error("unaligned baseline write accepted")
	}
}

// tile builds a phantom system of kind k holding one written 512x512 tile
// of 8-byte elements, its timelines reset.
func tile(t *testing.T, k Kind) (*System, *stl.View) {
	t.Helper()
	s, err := New(k, smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := s.STL.CreateSpace(8, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	v, err := stl.NewView(sp, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NDSWrite(0, v, []int64{0, 0}, []int64{512, 512}, nil); err != nil {
		t.Fatal(err)
	}
	s.ResetTimelines()
	return s, v
}

// readTwice issues two reads of the whole tile at time 0 on a fresh system of
// kind k, calling check after each.
func readTwice(t *testing.T, k Kind, check func(s *System, i int)) *System {
	t.Helper()
	s, v := tile(t, k)
	for i := 1; i <= 2; i++ {
		if _, _, err := s.NDSRead(0, v, []int64{0, 0}, []int64{512, 512}); err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(s, i)
		}
	}
	return s
}

// TestPipelineElementsAreIndependent: a stage queues only behind stages on
// its own element. Two hardware reads of the tile issued at once serialize
// on the controller's translator, and the second one's translation overlaps
// the first one's assembly.
func TestPipelineElementsAreIndependent(t *testing.T) {
	s := readTwice(t, HardwareNDS, func(s *System, i int) {
		tr1 := hostSubmit + NVMeoF().Duration(s.pageSize()) + ctrlCmdHandle + ctrlTranslate // the first translation's end
		// The second command is in before the first translation ends, and its
		// translation follows at once, not once the first assembly is done.
		if got, want := s.res[translator].FreeAt(), tr1+sim.Time(i-1)*ctrlTranslate; got != want {
			t.Fatalf("read %d: translator free at %v, want %v", i, got, want)
		}
	})
	if tr, asm := s.res[translator].FreeAt(), s.res[assembler].FreeAt(); tr >= asm {
		t.Fatalf("the second translation (done %v) should overlap the first assembly (done %v)", tr, asm)
	}
	if s.res[hostWorker].BusyTime() != 0 {
		t.Fatal("hardware NDS booked the host worker")
	}
}

// TestCPUSerializes: submissions, and on software NDS translations, queue on
// the host's one I/O thread, and ResetTimelines clears it.
func TestCPUSerializes(t *testing.T) {
	s := readTwice(t, HardwareNDS, func(s *System, i int) {
		if got, want := s.res[hostIO].FreeAt(), sim.Time(i)*hostSubmit; got != want {
			t.Fatalf("read %d: I/O thread free at %v, want %v", i, got, want)
		}
	})
	if got := s.res[hostIO].BusyTime(); got != 2*hostSubmit {
		t.Fatalf("I/O thread busy %v, want %v", got, 2*hostSubmit)
	}

	s = readTwice(t, SoftwareNDS, nil)
	if got, want := s.res[hostIO].FreeAt(), 2*(hostSubmit+hostTraversal); got != want {
		t.Fatalf("software NDS: I/O thread free at %v, want %v", got, want)
	}
	if got, want := s.res[hostIO].BusyTime(), 2*(hostSubmit+hostTraversal); got != want {
		t.Fatalf("software NDS: I/O thread busy %v, want %v", got, want)
	}
	s.ResetTimelines()
	if s.res[hostIO].FreeAt() != 0 || s.res[hostIO].BusyTime() != 0 {
		t.Fatal("I/O thread not idle after ResetTimelines")
	}
}

// TestTransferSerializes: transfers queue on the one link, which is busy
// for each command page and payload, and ResetTimelines clears every
// element.
func TestTransferSerializes(t *testing.T) {
	const obj = 512 * 512 * 8
	s := readTwice(t, HardwareNDS, nil)
	wire := NVMeoF()
	cmd := wire.Duration(s.pageSize())
	tr1 := hostSubmit + cmd + ctrlCmdHandle + ctrlTranslate // the first translation's end
	// The second command page backfills the link before the first object
	// goes out; the second object queues behind the first.
	if got, want := s.res[link].FreeAt(), tr1+2*wire.Duration(obj); got != want {
		t.Fatalf("link free at %v, want %v", got, want)
	}
	if got, want := s.res[link].BusyTime(), 2*(cmd+wire.Duration(obj)); got != want {
		t.Fatalf("link busy %v, want %v", got, want)
	}
	s.ResetTimelines()
	for el := range s.res {
		if s.res[el].FreeAt() != 0 || s.res[el].BusyTime() != 0 {
			t.Fatalf("element %d not idle after ResetTimelines", el)
		}
	}
}

// TestDispatchScalesWithPages: a hardware read books ctrlDispatch of channel
// dispatch for every page it reads, and the baseline none.
func TestDispatchScalesWithPages(t *testing.T) {
	s, v := tile(t, HardwareNDS)
	for _, sub := range [][]int64{{64, 64}, {512, 512}} {
		s.ResetTimelines()
		_, st, err := s.NDSRead(0, v, []int64{0, 0}, sub)
		if err != nil {
			t.Fatal(err)
		}
		if st.PagesRead == 0 {
			t.Fatal("the read read no pages")
		}
		if got, want := s.Report(st.Done).CtrlChannels, sim.Time(st.PagesRead)*ctrlDispatch; got != want {
			t.Fatalf("dispatch of %d pages = %v, want %v", st.PagesRead, got, want)
		}
	}
	base, err := New(Baseline, smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := base.BaselineRead(0, []Run{{Off: 0, Len: 64 << 10}}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Report(st.Done).CtrlChannels; got != 0 {
		t.Fatalf("baseline read booked %v of channel dispatch", got)
	}
}

// TestSoftwareNDSBooksNoController pins a model choice: software NDS's
// translation, assembly and scatter run on the host, and the model books no
// controller element for it — not even the command handler the baseline's
// and hardware NDS's commands pay. Booking one is a model change that moves
// software NDS's figures.
func TestSoftwareNDSBooksNoController(t *testing.T) {
	s, v := tile(t, SoftwareNDS) // written, then the timelines reset
	st, err := s.NDSWrite(0, v, []int64{0, 0}, []int64{64, 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err = s.NDSRead(st.Done, v, []int64{0, 0}, []int64{512, 512}); err != nil {
		t.Fatal(err)
	}
	r := s.Report(st.Done)
	if r.HostBusy == 0 || r.LinkBusy == 0 {
		t.Fatalf("host busy %v, link busy %v: the commands booked nothing", r.HostBusy, r.LinkBusy)
	}
	for name, busy := range map[string]sim.Time{"command handler": r.CtrlCmd, "translator": r.CtrlTranslate,
		"assembler": r.CtrlAssemble, "channel handlers": r.CtrlChannels} {
		if busy != 0 {
			t.Errorf("software NDS booked %v on the controller's %s", busy, name)
		}
	}
}

func TestNDSRoundTripWithData(t *testing.T) {
	for _, k := range []Kind{SoftwareNDS, HardwareNDS} {
		s, err := New(k, smallConfig(false))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := s.STL.CreateSpace(8, []int64{512, 512})
		if err != nil {
			t.Fatal(err)
		}
		v, err := stl.NewView(sp, []int64{512, 512})
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 256*256*8)
		rand.New(rand.NewSource(2)).Read(payload)
		if _, err := s.NDSWrite(0, v, []int64{1, 1}, []int64{256, 256}, payload); err != nil {
			t.Fatalf("%v write: %v", k, err)
		}
		got, st, err := s.NDSRead(0, v, []int64{1, 1}, []int64{256, 256})
		if err != nil {
			t.Fatalf("%v read: %v", k, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%v read-back mismatch", k)
		}
		if st.Commands != 1 {
			t.Fatalf("%v: NDS access should need one command, got %d", k, st.Commands)
		}
	}
}

func TestQueueDepthThrottles(t *testing.T) {
	mk := func() *System {
		s, err := New(Baseline, smallConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.FTL.WritePages(0, 0, nil, 512); err != nil {
			t.Fatal(err)
		}
		s.ResetTimelines()
		return s
	}
	runs := make([]Run, 256)
	for i := range runs {
		runs[i] = Run{Off: int64(i) * 4096, Len: 4096}
	}
	sSync := mk()
	_, stSync, err := sSync.BaselineRead(0, runs, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	sAsync := mk()
	_, stAsync, err := sAsync.BaselineRead(0, runs, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stSync.Done <= stAsync.Done {
		t.Fatalf("sync (%v) should be slower than unlimited async (%v)", stSync.Done, stAsync.Done)
	}
}

func TestWritesAreSynchronous(t *testing.T) {
	s, _ := New(Baseline, smallConfig(true))
	runs := []Run{{Off: 0, Len: 4096}, {Off: 4096, Len: 4096}}
	st, err := s.BaselineWrite(0, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two synchronous writes take at least two full program latencies.
	if st.Done < 2*s.Cfg.Timing.ProgramPage {
		t.Fatalf("sync writes finished at %v, want >= %v", st.Done, 2*s.Cfg.Timing.ProgramPage)
	}
}

// TestRowFetchOrdering pins the Figure 9(a) relationship at a small scale:
// hardware NDS tracks the baseline closely while software NDS pays the
// host-assembly penalty.
func TestRowFetchOrdering(t *testing.T) {
	cfg := PrototypeConfig(32<<20, true)
	mkLoaded := func(k Kind) (*System, *stl.View) {
		s, err := New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k == Baseline {
			if _, err := s.FTL.WritePages(0, 0, nil, 8192); err != nil {
				t.Fatal(err)
			}
			s.ResetTimelines()
			return s, nil
		}
		sp, err := s.STL.CreateSpace(8, []int64{2048, 2048})
		if err != nil {
			t.Fatal(err)
		}
		v, err := stl.NewView(sp, []int64{2048, 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 8; i++ {
			if _, _, err := s.STL.WritePartition(0, v, []int64{i, 0}, []int64{256, 2048}, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.ResetTimelines()
		return s, v
	}

	rowBand := func(s *System, v *stl.View) sim.Time {
		if s.Kind == Baseline {
			_, st, err := s.BaselineRead(0, []Run{{Off: 0, Len: 1024 * 2048 * 8}}, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			return st.Done
		}
		_, st, err := s.NDSRead(0, v, []int64{0, 0}, []int64{1024, 2048})
		if err != nil {
			t.Fatal(err)
		}
		return st.Done
	}

	base, _ := mkLoaded(Baseline)
	swn, swv := mkLoaded(SoftwareNDS)
	hwn, hwv := mkLoaded(HardwareNDS)
	tb := rowBand(base, nil)
	tsw := rowBand(swn, swv)
	thw := rowBand(hwn, hwv)

	if tsw <= tb {
		t.Errorf("software NDS row fetch (%v) should trail the baseline (%v)", tsw, tb)
	}
	if float64(thw) > 1.15*float64(tb) {
		t.Errorf("hardware NDS row fetch (%v) should be within ~15%% of the baseline (%v)", thw, tb)
	}
}

func TestBlockedAssemblyCheapens(t *testing.T) {
	cfg := PrototypeConfig(32<<20, true)
	fetch := func(blocked bool) sim.Time {
		s, err := New(SoftwareNDS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.BlockedAssembly = blocked
		sp, err := s.STL.CreateSpace(8, []int64{2048, 2048})
		if err != nil {
			t.Fatal(err)
		}
		v, err := stl.NewView(sp, []int64{2048, 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 8; i++ {
			if _, _, err := s.STL.WritePartition(0, v, []int64{i, 0}, []int64{256, 2048}, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.ResetTimelines()
		// A column band: many small extents.
		_, st, err := s.NDSRead(0, v, []int64{0, 1}, []int64{2048, 256})
		if err != nil {
			t.Fatal(err)
		}
		return st.Done
	}
	if b, u := fetch(true), fetch(false); b > u {
		t.Fatalf("blocked assembly (%v) should not be slower than unblocked (%v)", b, u)
	}
}

// baselineFaultRun drives a small baseline system, whose device injects the
// stl fault matrix's program, erase, read-retry and wear-out faults, through
// a quarter of its logical pages and half a raw capacity of Zipf(1.1)
// single-page overwrites, each issued at the previous one's completion and
// read back. It returns the completions and the system's report.
func baselineFaultRun(t *testing.T) (string, Report) {
	t.Helper()
	cfg := PrototypeConfig(1<<20, false)
	cfg.Geometry = nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	cfg.Faults = nvm.FaultPlan{Seed: 101, ProgramFailEvery: 250, EraseFailEvery: 8, ReadRetryEvery: 7, EnduranceLimit: 200}
	s, err := New(Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := int64(cfg.Geometry.PageSize)
	n := int64(float64(cfg.Geometry.TotalPages())*(1-cfg.STL.OverProvision)) / 4
	image := make([]byte, n*ps)
	rng := rand.New(rand.NewSource(5))
	var (
		trace strings.Builder
		at    sim.Time
	)
	write := func(lpn, pages int64) {
		data := make([]byte, pages*ps)
		rng.Read(data)
		st, err := s.BaselineWrite(at, []Run{{Off: lpn * ps, Len: pages * ps}}, data)
		if err != nil {
			t.Fatalf("write pages [%d,%d): %v", lpn, lpn+pages, err)
		}
		copy(image[lpn*ps:], data)
		got, rst, err := s.BaselineRead(st.Done, []Run{{Off: lpn * ps, Len: pages * ps}}, false, 1)
		if err != nil {
			t.Fatalf("read pages [%d,%d): %v", lpn, lpn+pages, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pages [%d,%d) read back other bytes than written", lpn, lpn+pages)
		}
		at = rst.Done
		fmt.Fprintf(&trace, "%d %d %d\n", lpn, st.Done, rst.Done)
	}
	for lpn := int64(0); lpn < n; lpn += 8 {
		write(lpn, min(8, n-lpn))
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	order := rng.Perm(int(n))
	for i := int64(0); i < cfg.Geometry.TotalPages()/2; i++ {
		write(int64(order[zipf.Uint64()]), 1)
	}
	got, _, err := s.BaselineRead(at, []Run{{Off: 0, Len: n * ps}}, false, 1)
	if err != nil || !bytes.Equal(got, image) {
		t.Fatalf("the device does not read back what was written (err %v)", err)
	}
	return trace.String(), s.Report(at)
}

// TestBaselineFaultMatrix: a faulted baseline program is relocated and a
// faulted erase retires its block, as on the NDS kinds. Every write reads
// back byte-exact, a second run replays the first, and the report shows the
// relocations and the retired blocks.
func TestBaselineFaultMatrix(t *testing.T) {
	a, first := baselineFaultRun(t)
	b, second := baselineFaultRun(t)
	if a != b {
		t.Fatal("two runs of the same fault plan completed at different times")
	}
	if first.Reliability != second.Reliability || first.GC != second.GC {
		t.Fatalf("the reports diverged:\n%+v %+v\n%+v %+v", first.Reliability, first.GC, second.Reliability, second.GC)
	}
	r := first.Reliability
	t.Logf("%+v %+v", r, first.GC)
	if r.ProgramFaults == 0 || r.EraseFaults == 0 || r.ProgramRetries == 0 || r.RetiredBlocks == 0 {
		t.Fatalf("the plan left program relocation or retirement unexercised: %+v", r)
	}
}
