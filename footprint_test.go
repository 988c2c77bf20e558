package nds

import (
	"testing"

	"nds/internal/zeromap"
)

// TestDeviceCostsWhatItStores: a device's Go heap follows neither its raw
// array nor the data written to it. The test opens the smallest array Open
// builds (1 GiB raw, 262 144 pages) and writes 16 MiB to it. Sized by the
// array, the frame table alone would be 6 MiB (24 B a page), the reverse map
// 4 MiB (16 B a page) and the 288 flash timelines' windows 2.3 MB; now frame
// chunks come a block at a time (4 B a page), and the reverse map, the windows
// and the page frames themselves live in zero-filled mappings outside the
// heap. So the Go heap allocated by Open and the fill stays under 2 MiB, an
// eighth of the data: the table chunks of the blocks written (1 KiB each),
// the write path's buffers and the device's fixed state. It was 18 MiB with
// the frames on the heap, and 29.5 MiB with the tables sized by the array.
// (Where the memory is on the heap — off Linux, under the race detector — the
// bound is not checked.) Close gives the tables and the frames' chunks back at
// once, and a second Close releases nothing more.
func TestDeviceCostsWhatItStores(t *testing.T) {
	const data, bound = 16 << 20, 2 << 20
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
	if zeromap.Mapped && heap > bound {
		t.Fatalf("opening and filling allocated %d B of Go heap, want at most %d: a table is sized by the array again, or the frames are on the heap", heap, bound)
	}

	// The reverse map, the windows of the 32 channels' and 256 banks'
	// timelines, 512 intervals of 16 B each, and every chunk of frames carved:
	// a huge page each, the 4 096 frames stored and any the arena holds free.
	fs := dev.sys.Dev.FrameStats()
	perChunk := zeromap.HugePage / geo.PageSize
	chunks := (fs.Held + fs.Free + perChunk - 1) / perChunk
	want := geo.TotalPages()*16 + int64(geo.Channels*(geo.Banks+1))*512*16 + int64(chunks)*zeromap.HugePage
	r0 := zeromap.Released()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	r1 := zeromap.Released()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r1 - r0; got != want {
		t.Errorf("Close released %d B, want the reverse map, the windows and %d chunks of frames, %d B", got, chunks, want)
	}
	if r2 := zeromap.Released(); r2 != r1 {
		t.Errorf("a second Close released %d B more", r2-r1)
	}
}
