package nds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestDifferentialConcurrentStreams runs the same 16-stream mixed read/write
// workload against a batched-path device and a scalar-path device and
// requires identical payload bytes and per-command statistics. Completion
// times are not compared here: with concurrent streams the simulated schedule
// depends on the wall-clock interleaving of the streams (equally so on both
// paths), so time equivalence is asserted by the sequential differential
// tests in internal/stl. Run under -race (CI does) this doubles as the race
// check for the sharded device state and pooled request scratch.
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
	run := func(scalar bool) ([]cmdResult, []byte) {
		d, err := Open(Options{Mode: ModeHardware, CapacityHint: 16 << 20, scalarDataPath: scalar})
		if err != nil {
			t.Fatal(err)
		}
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
				payload := make([]byte, tileB)
				for k := 0; k < per; k++ {
					tile := int64(c*per + k)
					coord := []int64{tile / 16, tile % 16}
					rand.New(rand.NewSource(tile)).Read(payload)
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
		if err := final.Close(); err != nil {
			t.Fatal(err)
		}
		return results, full
	}

	batchedRes, batchedData := run(false)
	scalarRes, scalarData := run(true)
	for i := range batchedRes {
		if batchedRes[i] != scalarRes[i] {
			t.Errorf("command %d stats diverge: batched=%+v scalar=%+v", i, batchedRes[i], scalarRes[i])
		}
	}
	if !bytes.Equal(batchedData, scalarData) {
		t.Fatal("final space contents diverge between batched and scalar paths")
	}
}

// TestDifferentialConcurrentVsExclusiveWrites: lock modes must be
// data-equivalent. Sixteen streams overwrite disjoint tiles of one space
// twice — once on the concurrent write path (per-space serialization,
// background GC) and once with one write at a time (a test-local mutex around
// every Write, SynchronousGC) — and both devices must end with exactly the
// image the host computes. The payloads are keyed by tile, not
// by arrival order, so the final image is interleaving-independent even
// though the two runs schedule writes differently.
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
			Mode:          ModeHardware,
			CapacityHint:  16 << 20,
			SynchronousGC: serialized,
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

	// The host-side expected image: every tile holds its final-pass payload.
	want := make([]byte, 1024*1024*4)
	tilePayload := make([]byte, tileB)
	for tile := int64(0); tile < tiles; tile++ {
		rand.New(rand.NewSource(int64(passes-1)*tiles + tile)).Read(tilePayload)
		lo := [2]int64{tile / grid * 64, tile % grid * 64}
		for r := int64(0); r < 64; r++ {
			row := ((lo[0]+r)*1024 + lo[1]) * 4
			copy(want[row:row+64*4], tilePayload[r*64*4:(r+1)*64*4])
		}
	}
	concurrentImg := run(false)
	serializedImg := run(true)
	if !bytes.Equal(concurrentImg, want) {
		t.Error("concurrent write path diverged from the host image")
	}
	if !bytes.Equal(serializedImg, want) {
		t.Error("serialized write path diverged from the host image")
	}
	if !bytes.Equal(concurrentImg, serializedImg) {
		t.Error("lock modes disagree on the final space contents")
	}
}
