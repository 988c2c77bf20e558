package system

import (
	"testing"

	"nds/internal/sim"
)

// The paper's anchors for the platform's calibration, each checked on what
// command books rather than on the declarations alone.

// TestEfficiencyCurveMatchesPaper: §2.1 — a 32 KB command gets about 66% of
// the link's peak, and commands of 2 MB or more saturate it. The efficiency
// is read off the link's busy time for one baseline read of each size, and it
// is the curve Figure 3 plots.
func TestEfficiencyCurveMatchesPaper(t *testing.T) {
	s, err := New(Baseline, PrototypeConfig(32<<20, true))
	if err != nil {
		t.Fatal(err)
	}
	booked := func(n int64) float64 {
		s.ResetTimelines()
		if _, _, err := s.BaselineRead(0, []Run{{Off: 0, Len: n}}, false, 1); err != nil {
			t.Fatal(err)
		}
		e := sim.TransferTime(n, NVMeoF().PeakBW).Seconds() / s.res[link].BusyTime().Seconds()
		if e != NVMeoF().Efficiency(n) {
			t.Fatalf("%d bytes: booked efficiency %.4f, the link's curve %.4f", n, e, NVMeoF().Efficiency(n))
		}
		return e
	}
	if e := booked(32 << 10); e < 0.60 || e > 0.75 {
		t.Errorf("32 KB efficiency = %.2f, want ~0.66", e)
	}
	if e := booked(2 << 20); e < 0.98 {
		t.Errorf("2 MB efficiency = %.2f, want >= 0.98 (saturated)", e)
	}
	prev := 0.0
	for _, n := range []int64{512, 4096, 32768, 262144, 2097152, 16777216} {
		e := booked(n)
		if e < prev {
			t.Errorf("efficiency not monotone at %d bytes: %.3f < %.3f", n, e, prev)
		}
		prev = e
	}
}

func TestEffectiveBandwidthBounds(t *testing.T) {
	for _, l := range []Link{NVMeoF(), ConsumerNVMe()} {
		if l.Efficiency(0) != 0 {
			t.Errorf("%+v: zero-byte efficiency should be 0", l)
		}
		if bw := l.EffectiveBandwidth(64 << 20); bw > l.PeakBW {
			t.Errorf("%+v: effective bandwidth %v exceeds peak", l, bw)
		}
	}
}

func TestMarshalCost(t *testing.T) {
	// 1000 bytes in 4 chunks: 4us fixed + 1us copy.
	if d := copyTime(1000, 4, sim.Microsecond, 1e9); d != 5*sim.Microsecond {
		t.Fatalf("copyTime = %v, want 5us", d)
	}
}

// wholeTile reads the tile of a fresh system of kind k in one command and
// returns the system and the read's record. The tile's 256x256 building
// blocks of 8-byte elements make every extent a 2 KB block row.
func wholeTile(t *testing.T, k Kind) (*System, OpStats) {
	t.Helper()
	s, v := tile(t, k)
	_, st, err := s.NDSRead(0, v, []int64{0, 0}, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != 2048*int64(st.Extents) {
		t.Fatalf("%d bytes in %d extents, want 2 KB extents", st.Bytes, st.Extents)
	}
	return s, st
}

// TestHostMatchesPaperAnchors: software NDS's host costs as command books
// them.
//   - §7.3: the host-side STL traversal adds 41 us to a request. The I/O
//     thread is busy that much longer for one read than hardware NDS's,
//     which only submits.
//   - §7.1: assembling an object out of 2 KB chunks runs at about 3.8 GB/s on
//     the host worker, the fixed per-copy cost dominating.
func TestHostMatchesPaperAnchors(t *testing.T) {
	ioBusy := func(k Kind) sim.Time {
		s, v := tile(t, k)
		if _, _, err := s.NDSRead(0, v, []int64{1, 1}, []int64{64, 64}); err != nil {
			t.Fatal(err)
		}
		return s.res[hostIO].BusyTime()
	}
	if got := ioBusy(SoftwareNDS) - ioBusy(HardwareNDS); got != 41*sim.Microsecond {
		t.Errorf("software traversal = %v, want 41us", got)
	}
	s, st := wholeTile(t, SoftwareNDS)
	if bw := sim.Bandwidth(st.Bytes, s.res[hostWorker].BusyTime()); bw < 3.0e9 || bw > 4.5e9 {
		t.Errorf("2 KB-chunk assembly bandwidth = %.2f GB/s, want ~3.8", bw/1e9)
	}
}

// TestChunkedCopySlowerThanBulk: the software-NDS penalty — the host
// assembling an object out of 2 KB chunks spends more CPU than one bulk copy
// of the same bytes.
func TestChunkedCopySlowerThanBulk(t *testing.T) {
	s, st := wholeTile(t, SoftwareNDS)
	if chunked, bulk := s.res[hostWorker].BusyTime(), HostMarshal(st.Bytes, 1); chunked <= bulk {
		t.Fatalf("chunked assembly (%v) should cost more than one bulk copy (%v)", chunked, bulk)
	}
}

// TestAssemblerCheaperThanHostChunks: §7.1 — the controller's DMA gather
// assembles the same 2 KB extents in less time than the host's memcpy loop,
// which is why hardware NDS outruns software NDS on reads.
func TestAssemblerCheaperThanHostChunks(t *testing.T) {
	sw, _ := wholeTile(t, SoftwareNDS)
	hw, _ := wholeTile(t, HardwareNDS)
	dev, host := hw.res[assembler].BusyTime(), sw.res[hostWorker].BusyTime()
	if dev == 0 || dev >= host {
		t.Fatalf("device assembly %v should be faster than host assembly %v", dev, host)
	}
}
