package hostsim

import (
	"testing"

	"nds/internal/sim"
)

func TestMarshalCost(t *testing.T) {
	p := Params{IOSubmit: 5 * sim.Microsecond, ChunkOverhead: sim.Microsecond, MemcpyBW: 1e9}
	// 1000 bytes in 4 chunks: 4us fixed + 1us copy.
	if d := p.MarshalDuration(1000, 4); d != 5*sim.Microsecond {
		t.Fatalf("MarshalDuration = %v, want 5us", d)
	}
}

func TestChunkedCopySlowerThanBulk(t *testing.T) {
	// The software-NDS penalty: the same bytes in many small chunks cost
	// more CPU than one bulk copy.
	h := DefaultParams()
	bulk := h.MarshalDuration(1<<20, 1)
	chunked := h.MarshalDuration(1<<20, 512) // 2 KB pieces
	if chunked <= bulk {
		t.Fatalf("chunked copy (%v) should cost more than bulk (%v)", chunked, bulk)
	}
}

func TestDefaultsMatchPaperAnchors(t *testing.T) {
	p := DefaultParams()
	// §7.3: software NDS adds 41us to a worst-case request.
	if p.STLTraversal != 41*sim.Microsecond {
		t.Errorf("STLTraversal = %v, want 41us", p.STLTraversal)
	}
	// §7.1: copying a 2 KB chunk must be dominated by fixed overhead, which
	// is what caps software-NDS assembly near 3.8 GB/s.
	perChunk := p.ChunkOverhead + sim.TransferTime(2048, p.MemcpyBW)
	bw := sim.Bandwidth(2048, perChunk)
	if bw < 3.0e9 || bw > 4.5e9 {
		t.Errorf("2 KB-chunk assembly bandwidth = %.2f GB/s, want ~3.8", bw/1e9)
	}
}
