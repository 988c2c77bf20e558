package nds

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"nds/internal/sim"
)

// fillSpace builds a device with a written 1024x1024 float32 space (4 MiB)
// and returns it with the space ID. The writes complete before the caller's
// measurement starts, so every later read hits programmed flash.
func fillSpace(tb testing.TB) (*Device, SpaceID) {
	tb.Helper()
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 16 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	id, err := d.CreateSpace(4, []int64{1024, 1024})
	if err != nil {
		tb.Fatal(err)
	}
	w, err := d.OpenSpace(id, []int64{1024, 1024})
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, 1024*1024*4)
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := w.Write([]int64{0, 0}, []int64{1024, 1024}, data); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return d, id
}

// runClients opens one view per client and has each read its share of the
// 256 disjoint 64x64 tiles (16 KiB each), in arrival order: one goroutine
// always issues the next read of the view whose stream cursor is earliest
// (ties to the lower index), so the interleaving, and every figure, is the
// same on every run whatever the Go scheduler does. It returns the simulated
// makespan of the whole phase, the payload bytes moved, and the number of
// dies whose timelines extend past the phase start (work in flight at the
// instant the streams began issuing).
func runClients(tb testing.TB, d *Device, id SpaceID, clients int) (time.Duration, int64, int) {
	tb.Helper()
	const tiles = 256 // 16x16 grid of 64x64 tiles over the 1024x1024 space
	views := make([]*Space, clients)
	for i := range views {
		v, err := d.OpenSpace(id, []int64{1024, 1024})
		if err != nil {
			tb.Fatal(err)
		}
		views[i] = v
	}
	start := d.Now()
	per := tiles / clients
	issued := make([]int, clients)
	// One assembly buffer, reused across reads (the ReadInto ownership
	// contract: each read's result is done with before the next).
	buf := make([]byte, 64*64*4)
	coord := make([]int64, 2)
	sub := []int64{64, 64}
	for {
		c := -1
		for i, v := range views {
			if issued[i] < per && (c < 0 || v.cursor < views[c].cursor) {
				c = i
			}
		}
		if c < 0 {
			break
		}
		tile := int64(c*per + issued[c])
		issued[c]++
		coord[0], coord[1] = tile/16, tile%16
		if _, _, err := views[c].ReadInto(coord, sub, buf); err != nil {
			tb.Fatalf("client %d tile %d: %v", c, tile, err)
		}
	}
	for _, v := range views {
		if err := v.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	busy := d.sys.Dev.BusyDies(sim.Time(start))
	return d.Now() - start, tiles * 64 * 64 * 4, busy
}

// TestConcurrentThroughputScales: the same total work finishes in less
// simulated time when issued by more clients, because each client is an
// independent command stream whose flash operations overlap on the array's
// dies. One client is exactly the old serial-lock behavior (every command
// issues at the previous one's completion), so the 16-client speedup is a
// direct comparison against the serial baseline. The streams issue in
// arrival order, so the figures are exact.
func TestConcurrentThroughputScales(t *testing.T) {
	want := map[int]string{1: "160.197", 4: "634.898", 16: "893.874"}
	throughput := make(map[int]float64)
	for _, clients := range []int{1, 4, 16} {
		d, id := fillSpace(t)
		makespan, bytes, busy := runClients(t, d, id, clients)
		if makespan <= 0 {
			t.Fatalf("%d clients: non-positive makespan %v", clients, makespan)
		}
		throughput[clients] = float64(bytes) / makespan.Seconds()
		t.Logf("%2d clients: makespan %v, aggregate %.1f MB/s, %d dies engaged",
			clients, makespan, throughput[clients]/1e6, busy)
		if busy < clients {
			t.Errorf("%d clients engaged only %d dies", clients, busy)
		}
		if got := fmt.Sprintf("%.3f", throughput[clients]/1e6); got != want[clients] {
			t.Errorf("%d clients: %s MB/s, want exactly %s", clients, got, want[clients])
		}
	}
	if throughput[4] <= throughput[1] {
		t.Errorf("4 clients (%.1f MB/s) not faster than 1 (%.1f MB/s)",
			throughput[4]/1e6, throughput[1]/1e6)
	}
	if throughput[16] <= throughput[4] {
		t.Errorf("16 clients (%.1f MB/s) not faster than 4 (%.1f MB/s)",
			throughput[16]/1e6, throughput[4]/1e6)
	}
	if throughput[16] < 2*throughput[1] {
		t.Errorf("16 clients (%.1f MB/s) below 2x the serial baseline (%.1f MB/s)",
			throughput[16]/1e6, throughput[1]/1e6)
	}
}

// openWriteDevice builds a device for the write-heavy workload: one
// 512x512 float32 space (1 MiB) per client, each opened once.
func openWriteDevice(tb testing.TB, clients int) (*Device, []*Space) {
	tb.Helper()
	d, err := Open(Options{
		Mode:         ModeHardware,
		CapacityHint: 64 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	spaces := make([]*Space, clients)
	for i := range spaces {
		id, err := d.CreateSpace(4, []int64{512, 512})
		if err != nil {
			tb.Fatal(err)
		}
		if spaces[i], err = d.OpenSpace(id, []int64{512, 512}); err != nil {
			tb.Fatal(err)
		}
	}
	return d, spaces
}

// writeClients has each client overwrite its whole space in 64-row bands
// (128 KiB per write, 8 bands per pass) for the given number of passes,
// each from its own goroutine; serialized holds one mutex around every
// Write, the exclusive-lock baseline. It returns the wall-clock elapsed time,
// the simulated makespan, and the payload bytes written.
func writeClients(tb testing.TB, d *Device, spaces []*Space, passes int, serialized bool) (time.Duration, time.Duration, int64) {
	tb.Helper()
	const bands = 8 // 512 rows / 64
	var exclusive sync.Mutex
	simStart := d.Now()
	wallStart := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(spaces))
	for c, sp := range spaces {
		wg.Add(1)
		go func(c int, sp *Space) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			band := make([]byte, 64*512*4)
			sub := []int64{64, 512}
			coord := make([]int64, 2)
			for p := 0; p < passes; p++ {
				for k := int64(0); k < bands; k++ {
					rng.Read(band)
					coord[0], coord[1] = k, 0
					if serialized {
						exclusive.Lock()
					}
					_, err := sp.Write(coord, sub, band)
					if serialized {
						exclusive.Unlock()
					}
					if err != nil {
						errs <- fmt.Errorf("client %d band %d: %w", c, k, err)
						return
					}
				}
			}
		}(c, sp)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Fatal(err)
	}
	wall := time.Since(wallStart)
	bytes := int64(len(spaces)) * int64(passes) * bands * 64 * 512 * 4
	return wall, d.Now() - simStart, bytes
}

// TestConcurrentWriteScaling: the acceptance gate for the concurrent write
// path — the same write-heavy workload must finish at least 2x faster in
// wall-clock time than the exclusive-lock configuration, while the simulated
// device throughput stays comparable (locking strategy must not change how
// much flash work the workload costs). Skipped on small hosts and under the
// race detector, where wall-clock parallelism is unmeasurable.
func TestConcurrentWriteScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock speedup is not measurable under the race detector")
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("need at least 4 CPUs for a meaningful wall-clock speedup, have %d", procs)
	}
	const clients, passes = 16, 4
	measure := func(serialized bool) (time.Duration, time.Duration) {
		d, spaces := openWriteDevice(t, clients)
		defer d.Close()
		for _, sp := range spaces {
			defer sp.Close()
		}
		// One untimed pass so both modes measure steady-state overwrites
		// rather than first-touch allocation.
		writeClients(t, d, spaces, 1, serialized)
		wall, sim, _ := writeClients(t, d, spaces, passes, serialized)
		return wall, sim
	}
	serWall, serSim := measure(true)
	conWall, conSim := measure(false)
	speedup := float64(serWall) / float64(conWall)
	t.Logf("serialized: wall %v sim %v; concurrent: wall %v sim %v; speedup %.2fx",
		serWall, serSim, conWall, conSim, speedup)
	if speedup < 2 {
		t.Errorf("concurrent write path only %.2fx faster than the exclusive-lock path, want >= 2x", speedup)
	}
	if ratio := float64(conSim) / float64(serSim); ratio > 1.5 || ratio < 1/1.5 {
		t.Errorf("simulated makespans diverge between lock modes: serialized %v, concurrent %v", serSim, conSim)
	}
}

// BenchmarkConcurrentClients reports aggregate simulated throughput of the
// tile-read workload as the client count grows. sim-MB/s is the headline
// metric: payload bytes divided by simulated makespan.
func BenchmarkConcurrentClients(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			d, id := fillSpace(b)
			b.ReportAllocs()
			b.ResetTimer()
			var span time.Duration
			var bytes int64
			for i := 0; i < b.N; i++ {
				m, n, _ := runClients(b, d, id, clients)
				span += m
				bytes += n
			}
			b.ReportMetric(float64(bytes)/span.Seconds()/1e6, "sim-MB/s")
		})
	}
}

// BenchmarkConcurrentWriters runs the write-heavy workload (full-space
// overwrites in 128 KiB bands, one space per client) in both lock modes.
// ns/op is the wall-clock cost of one full overwrite pass across all
// clients — the mode=serialized rows are the pre-PR exclusive-lock
// baseline the concurrent rows are gated against. sim-MB/s is the
// simulated device throughput, which must not differ between modes.
func BenchmarkConcurrentWriters(b *testing.B) {
	for _, mode := range []struct {
		name       string
		serialized bool
	}{{"serialized", true}, {"concurrent", false}} {
		for _, clients := range []int{4, 16} {
			b.Run(fmt.Sprintf("mode=%s/clients=%d", mode.name, clients), func(b *testing.B) {
				d, spaces := openWriteDevice(b, clients)
				defer d.Close()
				writeClients(b, d, spaces, 1, mode.serialized) // first-touch allocation off the clock
				b.ReportAllocs()
				b.ResetTimer()
				var span time.Duration
				var bytes int64
				for i := 0; i < b.N; i++ {
					_, m, n := writeClients(b, d, spaces, 1, mode.serialized)
					span += m
					bytes += n
				}
				b.ReportMetric(float64(bytes)/span.Seconds()/1e6, "sim-MB/s")
			})
		}
	}
}
