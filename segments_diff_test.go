package nds

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"nds/internal/spec"
)

// readConfigs has one device configuration per source the plan phase can emit
// segments from: demand-path pages (on either NDS kind), cache hits,
// compressed block images, write-buffered staging, and a phantom device
// (which carries timing but no payload).
var readConfigs = []struct {
	name string
	opts Options
}{
	{"hardware", Options{Mode: ModeHardware, CapacityHint: 16 << 20}},
	{"software", Options{Mode: ModeSoftware, CapacityHint: 16 << 20}},
	{"cached", Options{Mode: ModeHardware, CapacityHint: 16 << 20, CacheBytes: 4 << 20, PrefetchDepth: 2}},
	{"compressed", Options{Mode: ModeHardware, CapacityHint: 16 << 20, Compress: true}},
	{"write-buffered", Options{Mode: ModeHardware, CapacityHint: 16 << 20, WriteBuffering: true}},
	{"phantom", Options{Mode: ModeHardware, CapacityHint: 16 << 20, Phantom: true}},
}

// repeatRuns fills n bytes with runs of 1..64 repeats of a random byte no
// smaller than lo, so the compressed configuration actually compresses.
func repeatRuns(rng *rand.Rand, n int, lo int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; {
		v, run := byte(lo+rng.Intn(256-lo)), rng.Intn(64)+1
		for j := 0; j < run && i < n; j++ {
			b[i] = v
			i++
		}
	}
	return b
}

// TestDifferentialSegmentsVsRead holds both shapes of the one read path to the
// references. ReadInto is ReadSegments with a gather sink, so comparing the
// two to each other only checks the gather; the independent inputs are the
// model, which ReadInto's bytes and the reassembly of ReadSegments' segments
// (gaps as zeros) must both equal, and the golden trace, which every
// operation's Stats — including simulated Elapsed — must equal on both.
func TestDifferentialSegmentsVsRead(t *testing.T) {
	// Partition shapes exercised against every configuration. The wide/flat
	// shapes split building blocks across page boundaries unevenly, and the
	// whole-space read crosses everything at once.
	subs := [][]int64{{64, 64}, {16, 128}, {128, 32}, {256, 256}}
	var tr spec.Trace
	for _, cfg := range readConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			// run drives one device and returns its trace.
			run := func(useSegments bool) string {
				var tr spec.Trace
				d := openTraced(t, cfg.opts)
				defer d.Close()
				id, err := d.CreateSpace(4, []int64{256, 256})
				if err != nil {
					t.Fatal(err)
				}
				v, err := d.OpenSpace(id, []int64{256, 256})
				if err != nil {
					t.Fatal(err)
				}
				defer v.Close()
				m := spec.New()
				mid, _ := m.Create(4, []int64{256, 256})
				mv, _ := m.Open(mid, []int64{256, 256})
				write := func(coord, sub []int64, data []byte) {
					st, err := v.Write(coord, sub, data)
					if err != nil {
						t.Fatal(err)
					}
					if !cfg.opts.Phantom { // a phantom device stores nothing: its model stays zeros
						mv.Write(coord, sub, data)
					}
					traceOp(&tr, "write", coord, sub, st)
				}
				// Write the middle half only: reads below cross written
				// data, unwritten zeros, and the boundary.
				payload := repeatRuns(rand.New(rand.NewSource(7)), 128*256*4, 0)
				write([]int64{0, 0}, []int64{128, 256}, payload)
				// Touch part of it again so the write buffer (when enabled)
				// holds staged data during the reads.
				write([]int64{2, 1}, []int64{32, 64}, payload[:32*64*4])

				for _, sub := range subs {
					n0, n1 := 256/sub[0], 256/sub[1]
					for c0 := int64(0); c0 < n0; c0++ {
						for c1 := int64(0); c1 < n1; c1++ {
							coord := []int64{c0, c1}
							want := sub[0] * sub[1] * 4
							// Zeroed: segment gaps must read as zeros in the
							// reassembly, and a phantom read is all zeros.
							data := make([]byte, want)
							var st Stats
							if useSegments {
								st, err = v.ReadSegments(coord, sub, func(got int64, segs []Segment) error {
									if got != want {
										return fmt.Errorf("want %d bytes, got %d", want, got)
									}
									for _, sg := range segs {
										copy(data[sg.Dst:], sg.Src)
									}
									return nil
								})
							} else {
								var got []byte
								if got, st, err = v.ReadInto(coord, sub, data); got != nil {
									data = got
								}
							}
							if err != nil {
								t.Fatalf("sub=%v coord=%v segments=%v: %v", sub, coord, useSegments, err)
							}
							if m, _ := mv.Read(coord, sub); !bytes.Equal(data, m) {
								t.Fatalf("sub=%v coord=%v segments=%v: bytes differ from the model", sub, coord, useSegments)
							}
							traceOp(&tr, "read", coord, sub, st)
						}
					}
				}
				return tr.String()
			}
			into, segs := run(false), run(true)
			if into != segs {
				t.Fatal("ReadInto and ReadSegments traced differently")
			}
			tr.Add("== %s", cfg.name)
			tr.Add("%s", strings.TrimSuffix(into, "\n"))
		})
	}
	tr.Check(t, "TestDifferentialSegmentsVsRead")
}

// BenchmarkReadSegments measures the zero-copy read path end to end: a
// steady-state tile read through ReadSegments should allocate nothing — the
// plan scratch is pooled, the segment slice is retained on the scratch, and
// no destination buffer exists at all. The readinto variant is the same call
// with stl.Gather as the sink: it costs one gather of the tile more and must
// stay at 0 allocs/op too.
func BenchmarkReadSegments(b *testing.B) {
	d, id := fillSpace(b)
	defer d.Close()
	v, err := d.OpenSpace(id, []int64{1024, 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	var sink int64
	fn := func(want int64, segs []Segment) error {
		for _, sg := range segs {
			sink += int64(len(sg.Src))
		}
		return nil
	}
	b.Run("segments", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tile := int64(i % 256)
			if _, err := v.ReadSegments([]int64{tile / 16, tile % 16}, []int64{64, 64}, fn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("readinto", func(b *testing.B) {
		buf := make([]byte, 64*64*4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tile := int64(i % 256)
			if _, _, err := v.ReadInto([]int64{tile / 16, tile % 16}, []int64{64, 64}, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestShardedClockDifferential pins down the sharded clock's core invariant:
// identical Acquire order and arguments produce bit-identical completion
// times, no matter which goroutines perform the operations. The same strict
// round-robin schedule of tile reads runs twice on fresh devices — once on a
// single goroutine, once spread across eight goroutines that hand a token
// around to enforce the same total order — and every operation's simulated
// Elapsed must match. Run under -race (CI does) this is also the memory-model
// check for the lock-free resource timelines: a missing happens-before edge
// on the published horizons shows up here as a data race or a timing split.
func TestShardedClockDifferential(t *testing.T) {
	const (
		streams = 8
		rounds  = 16 // rounds * streams = 128 tile reads
	)
	run := func(concurrent bool) []time.Duration {
		d, id := fillSpace(t)
		defer d.Close()
		views := make([]*Space, streams)
		for i := range views {
			v, err := d.OpenSpace(id, []int64{1024, 1024})
			if err != nil {
				t.Fatal(err)
			}
			views[i] = v
		}
		defer func() {
			for _, v := range views {
				v.Close()
			}
		}()
		out := make([]time.Duration, streams*rounds)
		readOp := func(s, r int) {
			tile := int64(s*rounds + r)
			buf := make([]byte, 64*64*4)
			_, st, err := views[s].ReadInto([]int64{tile / 16, tile % 16}, []int64{64, 64}, buf)
			if err != nil {
				t.Errorf("stream %d round %d: %v", s, r, err)
				return
			}
			out[r*streams+s] = st.Elapsed
		}
		if !concurrent {
			for r := 0; r < rounds; r++ {
				for s := 0; s < streams; s++ {
					readOp(s, r)
				}
			}
			return out
		}
		// Token ring: stream s performs its round-r read only when handed the
		// token, then passes it on — the exact total order of the sequential
		// run, executed by eight goroutines.
		tokens := make([]chan struct{}, streams)
		for i := range tokens {
			tokens[i] = make(chan struct{}, 1)
		}
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					<-tokens[s]
					readOp(s, r)
					tokens[(s+1)%streams] <- struct{}{}
				}
			}(s)
		}
		tokens[0] <- struct{}{}
		wg.Wait()
		return out
	}

	sequential := run(false)
	tokenRing := run(true)
	diverged := 0
	for i := range sequential {
		if sequential[i] != tokenRing[i] {
			diverged++
			if diverged <= 5 {
				t.Errorf("op %d: sequential Elapsed %v, token-ring Elapsed %v",
					i, sequential[i], tokenRing[i])
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d/%d operations timed differently across goroutine placements", diverged, len(sequential))
	}
}

// TestReadIntoStaleBufferHoles pins the one thing standing between a reused
// caller buffer and stale data now that ReadInto is a gather over segments:
// the zeroing of the stretches no segment covers. Every read hands in a
// buffer full of 0xFF; the space has unwritten holes at the head, in the
// middle and at the tail of the partitions read — a whole untouched building
// block, unwritten pages of touched blocks, and unwritten bytes inside a
// written page — and the result must be zeros in the holes and the written
// (never-zero) bytes elsewhere, whichever source the segments come from.
func TestReadIntoStaleBufferHoles(t *testing.T) {
	// 2x2 building blocks of 512x512 elements, two rows of a block to a page.
	const side, es = 1024, 4
	// Tiles written, as (coord, sub) in partition units: a row band across the
	// two upper blocks, half a band in the lower left block, and two tiles
	// narrower than a page. The lower right block is never touched, and rows
	// 0 and 1023 stay unwritten everywhere.
	writes := []struct{ coord, sub []int64 }{
		{[]int64{1, 0}, []int64{32, 1024}},
		{[]int64{20, 0}, []int64{32, 512}},
		{[]int64{50, 3}, []int64{16, 64}},
		{[]int64{60, 9}, []int64{8, 8}},
	}
	reads := []struct{ coord, sub []int64 }{
		{[]int64{0, 0}, []int64{1024, 1024}}, // everything: head, middle and tail holes
		{[]int64{0, 1}, []int64{1024, 256}},  // column band: holes between written rows
		{[]int64{3, 0}, []int64{256, 1024}},  // a small tile, then holes to the end
		{[]int64{0, 0}, []int64{32, 1024}},   // unwritten pages of touched blocks only
		{[]int64{1, 1}, []int64{512, 512}},   // the untouched block: no segment at all
	}
	for _, cfg := range readConfigs {
		if cfg.opts.Phantom {
			continue // no bytes to be stale
		}
		t.Run(cfg.name, func(t *testing.T) {
			d, err := Open(cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			id, err := d.CreateSpace(es, []int64{side, side})
			if err != nil {
				t.Fatal(err)
			}
			v, err := d.OpenSpace(id, []int64{side, side})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()

			m := spec.New()
			mid, _ := m.Create(es, []int64{side, side})
			mv, _ := m.Open(mid, []int64{side, side})
			rng := rand.New(rand.NewSource(11))
			for _, w := range writes {
				// Nonzero bytes only: never mistakable for a hole.
				data := repeatRuns(rng, int(w.sub[0]*w.sub[1]*es), 1)
				if _, err := v.Write(w.coord, w.sub, data); err != nil {
					t.Fatalf("write %v/%v: %v", w.coord, w.sub, err)
				}
				mv.Write(w.coord, w.sub, data)
			}

			buf := make([]byte, side*side*es)
			// Twice: the second pass reads through whatever the first one
			// left warm (cache entries, prefetched blocks).
			for pass := 0; pass < 2; pass++ {
				for _, rd := range reads {
					want, _ := mv.Read(rd.coord, rd.sub)
					for i := range buf {
						buf[i] = 0xFF
					}
					got, _, err := v.ReadInto(rd.coord, rd.sub, buf)
					if err != nil {
						t.Fatalf("pass %d read %v/%v: %v", pass, rd.coord, rd.sub, err)
					}
					if len(got) != len(want) || &got[0] != &buf[0] {
						t.Fatalf("pass %d read %v/%v: result is %d bytes (want %d) or does not alias the caller's buffer",
							pass, rd.coord, rd.sub, len(got), len(want))
					}
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("pass %d read %v/%v: byte %d is %#x, want %#x (0xff is the stale buffer showing through)",
							pass, rd.coord, rd.sub, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// firstDiff returns the first index at which a and b (equal length) differ,
// or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
