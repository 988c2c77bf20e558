package nds

import (
	"testing"

	"nds/internal/zeromap"
)

// TestDeviceCostsWhatItStores: a device's Go heap follows the data written to
// it, not its raw array. The test opens the smallest array Open builds (1 GiB
// raw, 262 144 pages) and writes 16 MiB to it. Sized by the array, the frame
// table alone would be 6 MiB (24 B a page), the reverse map 4 MiB (16 B a
// page) and the 288 flash timelines' windows 2.3 MB; now frame chunks come a
// block at a time, and the reverse map and windows live in zero-filled
// mappings outside the heap. So the Go heap allocated by Open and the fill
// stays under the 16 MiB of frames plus 4 MiB: the chunks of the blocks
// written (6 KiB each, 1.5 MiB here), the write path's buffers and the
// device's fixed state; sized by the array, it was 13.5 MiB over. (Where the
// tables are on the heap — off Linux, under the race detector — the bound is
// not checked.) Close gives the tables back at once, and a second Close is
// harmless.
func TestDeviceCostsWhatItStores(t *testing.T) {
	const data, bound = 16 << 20, 4 << 20
	before := memStats()
	dev, err := Open(Options{Mode: ModeHardware, CapacityHint: data})
	if err != nil {
		t.Fatal(err)
	}
	geo := dev.sys.Dev.Geometry()
	if geo.Capacity() != 1<<30 {
		t.Fatalf("Open built a %d B array, the test assumes the 1 GiB minimum", geo.Capacity())
	}
	id, err := dev.CreateSpace(4, []int64{2048, 2048})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := dev.OpenSpace(id, []int64{2048, 2048})
	if err != nil {
		t.Fatal(err)
	}
	band := make([]byte, 256*2048*4)
	for i := range band {
		band[i] = byte(i*7 + 1)
	}
	for row := int64(0); row < 8; row++ {
		if _, err := sp.Write([]int64{row, 0}, []int64{256, 2048}, band); err != nil {
			t.Fatal(err)
		}
	}
	after := memStats()
	heap := int64(after.TotalAlloc-before.TotalAlloc) - int64(len(band))
	t.Logf("%.1f MiB of Go heap for %d MiB of data on a %d-page array", float64(heap)/(1<<20), data>>20, geo.TotalPages())
	if zeromap.Mapped && heap > data+bound {
		t.Fatalf("opening and filling allocated %d B of Go heap, want at most %d: a table is sized by the array again", heap, data+bound)
	}

	// The reverse map and the windows of the 32 channels' and 256 banks'
	// timelines, 512 intervals of 16 B each.
	want := geo.TotalPages()*16 + int64(geo.Channels*(geo.Banks+1))*512*16
	r0 := zeromap.Released()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	r1 := zeromap.Released()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r1 - r0; got != want {
		t.Errorf("Close released %d B, want the reverse map and the windows, %d B", got, want)
	}
	if r2 := zeromap.Released(); r2 != r1 {
		t.Errorf("a second Close released %d B more", r2-r1)
	}
}
