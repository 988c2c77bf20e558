package interconnect

import "testing"

func TestEfficiencyCurveMatchesPaper(t *testing.T) {
	l := NVMeoF()
	// §2.1: a 32 KB request achieves about 66% of peak.
	e32k := l.Efficiency(32 * 1024)
	if e32k < 0.60 || e32k > 0.75 {
		t.Errorf("32 KB efficiency = %.2f, want ~0.66", e32k)
	}
	// §2.1: bandwidth saturates for requests >= 2 MB.
	e2m := l.Efficiency(2 * 1024 * 1024)
	if e2m < 0.98 {
		t.Errorf("2 MB efficiency = %.2f, want >= 0.98 (saturated)", e2m)
	}
	// Efficiency is monotone in request size.
	prev := 0.0
	for _, n := range []int64{512, 4096, 32768, 262144, 2097152, 16777216} {
		e := l.Efficiency(n)
		if e < prev {
			t.Errorf("efficiency not monotone at %d bytes: %.3f < %.3f", n, e, prev)
		}
		prev = e
	}
}

func TestEffectiveBandwidthBounds(t *testing.T) {
	for _, l := range []*Link{NVMeoF(), ConsumerNVMe(), PCIeX16()} {
		if l.Efficiency(0) != 0 {
			t.Errorf("%s: zero-byte efficiency should be 0", l.Name)
		}
		if bw := l.EffectiveBandwidth(64 << 20); bw > l.PeakBW {
			t.Errorf("%s: effective bandwidth %v exceeds peak %v", l.Name, bw, l.PeakBW)
		}
	}
}
