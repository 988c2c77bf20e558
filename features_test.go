package nds

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"nds/internal/spec"
)

// TestEncryptedDevice: §5.3.3 through the public API — the data path is
// unchanged with the inline cipher installed.
func TestEncryptedDevice(t *testing.T) {
	d, err := Open(Options{
		Mode:          ModeHardware,
		CapacityHint:  8 << 20,
		EncryptionKey: []byte("tenant-key"),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.CreateSpace(8, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.OpenSpace(id, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256*256*8)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := sp.Write([]int64{0, 0}, []int64{256, 256}, data); err != nil {
		t.Fatal(err)
	}
	// Reshaped consumer view over encrypted storage.
	flat, err := d.OpenSpace(id, []int64{256 * 256})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := flat.Read([]int64{0}, []int64{256 * 256})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("encrypted device corrupted data")
	}
}

// TestCompressedDevice: §5.3.4 through the public API — fewer flash pages
// for redundant content, identical bytes back.
func TestCompressedDevice(t *testing.T) {
	mk := func(compress bool) (Stats, []byte) {
		d, err := Open(Options{Mode: ModeSoftware, CapacityHint: 8 << 20, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		id, err := d.CreateSpace(8, []int64{256, 256})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := d.OpenSpace(id, []int64{256, 256})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 256*256*8)
		for i := range data {
			data[i] = byte(i / 4096)
		}
		st, err := sp.Write([]int64{0, 0}, []int64{256, 256}, data)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sp.Read([]int64{0, 0}, []int64{256, 256})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round-trip mismatch")
		}
		return st, got
	}
	raw, _ := mk(false)
	comp, _ := mk(true)
	if comp.Pages >= raw.Pages {
		t.Fatalf("compression wrote %d pages, raw wrote %d", comp.Pages, raw.Pages)
	}
}

// TestSparseDevice: the §8 page-zero optimization through the public API.
func TestSparseDevice(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 8 << 20, ZeroPageElision: true})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.CreateSpace(8, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.OpenSpace(id, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	sparse := make([]byte, 256*256*8) // all zeros
	st, err := sp.Write([]int64{0, 0}, []int64{256, 256}, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != 0 {
		t.Fatalf("all-zero write programmed %d pages, want 0", st.Pages)
	}
	got, _, err := sp.Read([]int64{0, 0}, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sparse) {
		t.Fatal("sparse read-back mismatch")
	}
}

// TestWriteBufferingThroughAPI: §4.4 staging through the public API — a
// producer streaming single rows programs nothing until units fill or the
// device is flushed.
func TestWriteBufferingThroughAPI(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 8 << 20, WriteBuffering: true})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.CreateSpace(8, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.OpenSpace(id, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 512*8)
	rand.New(rand.NewSource(8)).Read(row)
	st, err := sp.Write([]int64{9, 0}, []int64{1, 512}, row)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != 0 {
		t.Fatalf("single-row write programmed %d pages, want 0 (staged)", st.Pages)
	}
	got, _, err := sp.Read([]int64{9, 0}, []int64{1, 512})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, row) {
		t.Fatal("staged row invisible to reads")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err = sp.Read([]int64{9, 0}, []int64{1, 512})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, row) {
		t.Fatal("flushed row wrong")
	}
}

// TestResizeThroughAPI: §5.1 space restructuring.
func TestResizeThroughAPI(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.CreateSpace(8, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.OpenSpace(id, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128*128*8)
	rand.New(rand.NewSource(6)).Read(data)
	if _, err := sp.Write([]int64{0, 0}, []int64{128, 128}, data); err != nil {
		t.Fatal(err)
	}
	if err := d.ResizeSpace(id, 256); err != nil {
		t.Fatal(err)
	}
	info, err := d.Inspect(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dims[0] != 256 {
		t.Fatalf("dims after resize = %v", info.Dims)
	}
	grown, err := d.OpenSpace(id, []int64{256, 128})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := grown.Read([]int64{0, 0}, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("resize lost data")
	}
	if err := d.ResizeSpace(999, 10); err == nil {
		t.Fatal("resize of unknown space accepted")
	}
}

// TestResizeShrinkThenGrowThroughAPI: a space one building block tall, written
// whole, shrunk to 97 rows and grown back reads zeros from row 97 on and its
// bytes below, as the model says, on each configuration that keeps bytes its
// own way.
func TestResizeShrinkThenGrowThroughAPI(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Mode: ModeHardware, CapacityHint: 8 << 20}},
		{"write-buffered", Options{Mode: ModeHardware, CapacityHint: 8 << 20, WriteBuffering: true}},
		{"compressed", Options{Mode: ModeHardware, CapacityHint: 8 << 20, Compress: true}},
		{"cached", Options{Mode: ModeHardware, CapacityHint: 8 << 20, CacheBytes: 4 << 20}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			d, err := Open(cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			id, err := d.CreateSpace(4, []int64{128, 128})
			if err != nil {
				t.Fatal(err)
			}
			if info, _ := d.Inspect(id); info.BlockDims[0] < 128 {
				t.Fatalf("blocks of %v rows: the space is more than one block tall", info.BlockDims)
			}
			m := spec.New()
			mid, _ := m.Create(4, []int64{128, 128})
			data := make([]byte, 128*128*4)
			rand.New(rand.NewSource(97)).Read(data)
			sp, err := d.OpenSpace(id, []int64{128, 128})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sp.Write([]int64{0, 0}, []int64{128, 128}, data); err != nil {
				t.Fatal(err)
			}
			mv, _ := m.Open(mid, []int64{128, 128})
			mv.Write([]int64{0, 0}, []int64{128, 128}, data)
			if _, _, err := sp.Read([]int64{0, 0}, []int64{128, 128}); err != nil { // warms the cache
				t.Fatal(err)
			}
			for _, rows := range []int64{97, 128} {
				if err := d.ResizeSpace(id, rows); err != nil {
					t.Fatal(err)
				}
				m.Resize(mid, rows)
			}
			if sp, err = d.OpenSpace(id, []int64{128, 128}); err != nil {
				t.Fatal(err)
			}
			got, _, err := sp.Read([]int64{0, 0}, []int64{128, 128})
			if err != nil {
				t.Fatal(err)
			}
			mv, _ = m.Open(mid, []int64{128, 128})
			if want, _ := mv.Read([]int64{0, 0}, []int64{128, 128}); !bytes.Equal(got, want) {
				t.Fatalf("byte %d (row %d) differs from the model's", firstDiff(got, want), firstDiff(got, want)/(128*4))
			}
		})
	}
}

// TestResizeAdvancesTheClock: a shrink whose bound falls inside a programmed
// page rewrites that page's tail, issued at the device clock, and the clock
// advances past the rewrite's program. A grow and a block-aligned shrink
// rewrite nothing and leave the clock where it was.
func TestResizeAdvancesTheClock(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.CreateSpace(4, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := d.Inspect(id)
	bb := info.BlockDims[0]
	if rowBytes := info.BlockDims[1] * 4; 97*rowBytes%int64(d.sys.Cfg.Geometry.PageSize) == 0 {
		t.Fatalf("row 97 starts a page (%d-byte block rows): the shrink would rewrite nothing", rowBytes)
	}
	sp, err := d.OpenSpace(id, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write([]int64{0, 0}, []int64{128, 128}, make([]byte, 128*128*4)); err != nil {
		t.Fatal(err)
	}
	program := time.Duration(d.sys.Cfg.Timing.ProgramPage)
	for _, c := range []struct {
		rows    int64
		rewrite bool
	}{
		{97, true},      // inside a programmed page of the first block
		{2 * bb, false}, // a grow
		{bb, false},     // block-aligned: whole blocks go
	} {
		before := d.Now()
		if err := d.ResizeSpace(id, c.rows); err != nil {
			t.Fatal(err)
		}
		switch took := d.Now() - before; {
		case c.rewrite && took < program:
			t.Errorf("resize to %d rows advanced the clock %v, want at least a program's %v", c.rows, took, program)
		case !c.rewrite && took != 0:
			t.Errorf("resize to %d rows advanced the clock %v, want 0", c.rows, took)
		}
	}
}
