package nds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nds/internal/spec"
)

// tileImage is the model of a 1024x1024 space of 4-byte elements after the
// writes the concurrent suites make: base (nil: none) over the whole space,
// then the payload of each of its 256 64x64 tiles from payload(tile) — tiles
// are disjoint, so the image does not depend on the order writes arrive in.
func tileImage(t *testing.T, base []byte, payload func(tile int64) []byte) []byte {
	t.Helper()
	m := spec.New()
	id, err := m.Create(4, []int64{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Open(id, []int64{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if base != nil {
		if err := v.Write([]int64{0, 0}, []int64{1024, 1024}, base); err != nil {
			t.Fatal(err)
		}
	}
	for tile := int64(0); tile < 256; tile++ {
		if err := v.Write([]int64{tile / 16, tile % 16}, []int64{64, 64}, payload(tile)); err != nil {
			t.Fatal(err)
		}
	}
	img, err := v.Read([]int64{0, 0}, []int64{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDifferentialConcurrentStreams runs a 16-stream mixed read/write workload
// and holds the final space to the model and every command's payload bytes,
// pages and extents to the golden trace. Completion times are not traced:
// with concurrent streams the simulated schedule depends on the wall-clock
// interleaving of the streams, so time is pinned by the sequential scripts.
// Run under -race (CI does) this doubles as the race check for the sharded
// device state and pooled request scratch.
func TestDifferentialConcurrentStreams(t *testing.T) {
	const (
		clients = 16
		tiles   = 256 // 16x16 grid of 64x64 tiles
		tileB   = 64 * 64 * 4
	)
	type cmdResult struct {
		bytes   int64
		pages   int64
		extents int
	}
	tilePayload := func(tile int64) []byte {
		p := make([]byte, tileB)
		rand.New(rand.NewSource(tile)).Read(p)
		return p
	}
	d := openTraced(t, Options{Mode: ModeHardware, CapacityHint: 16 << 20})
	defer d.Close()
	id, err := d.CreateSpace(4, []int64{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := d.OpenSpace(id, []int64{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	base := make([]byte, 1024*1024*4)
	rand.New(rand.NewSource(11)).Read(base)
	if _, err := seed.Write([]int64{0, 0}, []int64{1024, 1024}, base); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	results := make([]cmdResult, tiles*2) // per tile: one write, one read
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	per := tiles / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v, err := d.OpenSpace(id, []int64{1024, 1024})
			if err != nil {
				errs <- err
				return
			}
			defer v.Close()
			buf := make([]byte, tileB)
			for k := 0; k < per; k++ {
				tile := int64(c*per + k)
				coord := []int64{tile / 16, tile % 16}
				payload := tilePayload(tile)
				st, err := v.Write(coord, []int64{64, 64}, payload)
				if err != nil {
					errs <- fmt.Errorf("tile %d write: %w", tile, err)
					return
				}
				results[tile*2] = cmdResult{st.Bytes, st.Pages, st.Extents}
				data, st, err := v.ReadInto(coord, []int64{64, 64}, buf)
				if err != nil {
					errs <- fmt.Errorf("tile %d read: %w", tile, err)
					return
				}
				if !bytes.Equal(data, payload) {
					errs <- fmt.Errorf("tile %d read back wrong bytes", tile)
					return
				}
				results[tile*2+1] = cmdResult{st.Bytes, st.Pages, st.Extents}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final, err := d.OpenSpace(id, []int64{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := final.Read([]int64{0, 0}, []int64{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, tileImage(t, base, tilePayload)) {
		t.Fatal("final space contents diverge from the model")
	}
	var tr spec.Trace
	for i, r := range results {
		tr.Add("%s tile %d bytes=%d pages=%d extents=%d", [2]string{"write", "read"}[i%2], i/2, r.bytes, r.pages, r.extents)
	}
	tr.Check(t, "TestDifferentialConcurrentStreams")
}

// TestDifferentialConcurrentVsExclusiveWrites: lock modes must be
// data-equivalent. Sixteen streams overwrite disjoint tiles of one space
// twice — once on the concurrent write path (per-space serialization) and
// once with one write at a time (a test-local mutex around every Write) — and
// both devices must end with exactly the model's image. The payloads are
// keyed by tile, not by arrival order, so the final image is
// interleaving-independent even though the two runs schedule writes
// differently.
func TestDifferentialConcurrentVsExclusiveWrites(t *testing.T) {
	const (
		clients = 16
		grid    = 16  // 16x16 tiles of 64x64 over the 1024x1024 space
		tiles   = 256 // grid * grid
		tileB   = 64 * 64 * 4
		passes  = 2
	)
	run := func(serialized bool) []byte {
		d, err := Open(Options{
			Mode:         ModeHardware,
			CapacityHint: 16 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var exclusive sync.Mutex
		id, err := d.CreateSpace(4, []int64{1024, 1024})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		per := tiles / clients
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				v, err := d.OpenSpace(id, []int64{1024, 1024})
				if err != nil {
					errs <- err
					return
				}
				defer v.Close()
				payload := make([]byte, tileB)
				buf := make([]byte, tileB)
				for p := 0; p < passes; p++ {
					for k := 0; k < per; k++ {
						tile := int64(c*per + k)
						coord := []int64{tile / grid, tile % grid}
						rand.New(rand.NewSource(int64(p)*tiles + tile)).Read(payload)
						if serialized {
							exclusive.Lock()
						}
						_, err := v.Write(coord, []int64{64, 64}, payload)
						if serialized {
							exclusive.Unlock()
						}
						if err != nil {
							errs <- fmt.Errorf("pass %d tile %d write: %w", p, tile, err)
							return
						}
						data, _, err := v.ReadInto(coord, []int64{64, 64}, buf)
						if err != nil {
							errs <- fmt.Errorf("pass %d tile %d read: %w", p, tile, err)
							return
						}
						if !bytes.Equal(data, payload) {
							errs <- fmt.Errorf("pass %d tile %d read back wrong bytes", p, tile)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		final, err := d.OpenSpace(id, []int64{1024, 1024})
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := final.Read([]int64{0, 0}, []int64{1024, 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := final.Close(); err != nil {
			t.Fatal(err)
		}
		return full
	}

	// Every tile holds its final pass's payload.
	want := tileImage(t, nil, func(tile int64) []byte {
		p := make([]byte, tileB)
		rand.New(rand.NewSource(int64(passes-1)*tiles + tile)).Read(p)
		return p
	})
	if !bytes.Equal(run(false), want) {
		t.Error("concurrent write path diverged from the model")
	}
	if !bytes.Equal(run(true), want) {
		t.Error("serialized write path diverged from the model")
	}
}
