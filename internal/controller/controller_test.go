package controller

import (
	"testing"

	"nds/internal/hostsim"
	"nds/internal/sim"
)

func TestAssemblerCheaperThanHostChunks(t *testing.T) {
	// The device-side DMA gather must beat the host's per-chunk memcpy cost;
	// that gap is why hardware NDS outruns software NDS on reads (§7.1).
	p := NDSParams()
	chunks := 512 // 1 MB in 2 KB pieces
	d := sim.Time(chunks)*p.AssembleChunk + sim.TransferTime(1<<20, p.AssembleBW)
	hostD := hostsim.DefaultParams().MarshalDuration(1<<20, chunks)
	if d >= hostD {
		t.Fatalf("device assembly %v should be faster than host assembly %v", d, hostD)
	}
}
