package nds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nds/internal/nvm"
	"nds/internal/proto"
)

// TestCacheConcurrentStreamsDifferential runs the same 16-stream mixed
// read/write workload (each tile written, read back, and re-read warm) on a
// cached device and an uncached one and requires byte-identical payloads
// throughout. Timing and flash-op counts legitimately differ — the cache is a
// performance feature — but data must not. Run under -race (CI does) this
// doubles as the race check for the sharded cache and the prefetcher.
func TestCacheConcurrentStreamsDifferential(t *testing.T) {
	const (
		clients = 16
		tiles   = 256 // 16x16 grid of 64x64 tiles
		tileB   = 64 * 64 * 4
	)
	run := func(cacheBytes int64, depth int) []byte {
		d, err := Open(Options{
			Mode:          ModeHardware,
			CapacityHint:  16 << 20,
			CacheBytes:    cacheBytes,
			PrefetchDepth: depth,
		})
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
		rand.New(rand.NewSource(17)).Read(base)
		if _, err := seed.Write([]int64{0, 0}, []int64{1024, 1024}, base); err != nil {
			t.Fatal(err)
		}
		if err := seed.Close(); err != nil {
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
				for k := 0; k < per; k++ {
					tile := int64(c*per + k)
					coord := []int64{tile / 16, tile % 16}
					rand.New(rand.NewSource(1000 + tile)).Read(payload)
					if _, err := v.Write(coord, []int64{64, 64}, payload); err != nil {
						errs <- fmt.Errorf("tile %d write: %w", tile, err)
						return
					}
					// Cold read fills the cache, warm read hits it; both must
					// return the just-written bytes.
					for pass := 0; pass < 2; pass++ {
						data, _, err := v.Read(coord, []int64{64, 64})
						if err != nil {
							errs <- fmt.Errorf("tile %d read %d: %w", tile, pass, err)
							return
						}
						if !bytes.Equal(data, payload) {
							errs <- fmt.Errorf("tile %d read %d: wrong bytes", tile, pass)
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
		if cacheBytes > 0 {
			cs := d.CacheStats()
			if cs.Hits == 0 {
				t.Fatalf("cached run recorded no hits: %+v", cs)
			}
			if cs.ResidentBytes > cs.CapacityBytes {
				t.Fatalf("resident %d exceeds capacity %d", cs.ResidentBytes, cs.CapacityBytes)
			}
		} else if cs := d.CacheStats(); cs != (CacheStats{}) {
			t.Fatalf("uncached device reported cache activity: %+v", cs)
		}
		return full
	}

	cached := run(8<<20, 2)
	uncached := run(0, 0)
	if !bytes.Equal(cached, uncached) {
		t.Fatal("final space contents diverge between cached and uncached devices")
	}
}

// TestCacheFaultInteraction: fault injection and the cache compose — program
// faults retire blocks and relocate data mid-workload, and the cached device
// must never serve a stale copy of a relocated or retired page: entries alias
// the device's frames, so a retired block's entries have to be dropped before
// its frames are reused. faultWorkload asserts the read-back against a
// host-side image after every overwrite. The plan and the workload are
// deterministic, so the cache's counters are too: they are the counts the
// copying cache produced, which a cache that lends must reproduce exactly.
func TestCacheFaultInteraction(t *testing.T) {
	opts := faultOpts()
	opts.CacheBytes = 8 << 20
	opts.PrefetchDepth = 2
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	img, r := faultWorkload(t, d, mixedFaults)
	if r.ProgramFaults == 0 || r.RetiredBlocks == 0 {
		t.Fatalf("fault plan never fired under the cache: %+v", r)
	}
	cs := d.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("workload never hit the cache: %+v", cs)
	}
	if cs.Invalidations == 0 {
		t.Fatalf("overwrites and retirement invalidated nothing: %+v", cs)
	}
	want := CacheStats{Hits: 64, Misses: 832, HitBytes: 262144, Invalidations: 9, ResidentBytes: 1 << 20, CapacityBytes: 8 << 20}
	if cs != want {
		t.Fatalf("cache counters moved:\n got %+v\nwant %+v", cs, want)
	}

	// The cached faulty device must produce the same bytes as an uncached one
	// with the identical fault plan.
	d2, err := Open(faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	img2, _ := faultWorkload(t, d2, mixedFaults)
	if !bytes.Equal(img, img2) {
		t.Fatal("cached and uncached faulty devices diverged")
	}
}

// TestCacheEncryptedDifferential: under the inline cipher a read hands the
// cache Open's plaintext page, not a frame of the medium, and the entry keeps
// that — a hit still saves the decrypt. One stream sweeps row bands and column
// bands of a row of four 1 MiB building blocks, overwriting a tile between
// sweeps, on an encrypted device with a two-block cache and on one with none:
// every read must agree, the cached device's
// counters must be the copying cache's (the decisions are the same, only the
// bytes' owner changed), and the medium must still hold ciphertext.
func TestCacheEncryptedDifferential(t *testing.T) {
	const rows, cols = 512, 2048
	open := func(cacheBytes int64, depth int) (*Device, *Space) {
		d, err := Open(Options{
			Mode:          ModeHardware,
			CapacityHint:  8 << 20,
			EncryptionKey: []byte("tenant-key"),
			CacheBytes:    cacheBytes,
			PrefetchDepth: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		id, err := d.CreateSpace(4, []int64{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := d.OpenSpace(id, []int64{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		return d, sp
	}
	on, spOn := open(2<<20, 2)
	_, spOff := open(0, 0)
	marker := bytes.Repeat([]byte{0xA5}, 32)
	write := func(coord, sub []int64, data []byte) {
		t.Helper()
		for _, sp := range []*Space{spOn, spOff} {
			if _, err := sp.Write(coord, sub, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(coord, sub []int64) {
		t.Helper()
		a, _, err := spOn.Read(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := spOff.Read(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("read %v/%v: the cached encrypted device returned different bytes", coord, sub)
		}
	}
	// Plaintext is all marker, so ciphertext showing through would be plain to
	// see, and so would plaintext on the medium.
	write([]int64{0, 0}, []int64{rows, cols}, bytes.Repeat(marker, rows*cols*4/len(marker)))
	rng := rand.New(rand.NewSource(23))
	tile := make([]byte, 64*64*4)
	for round := 0; round < 3; round++ {
		for i := int64(0); i < rows/64; i++ {
			read([]int64{i, 0}, []int64{64, cols})
		}
		for j := int64(0); j < cols/64; j++ { // block after block: the prefetcher arms
			read([]int64{0, j}, []int64{rows, 64})
		}
		rng.Read(tile)
		copy(tile, marker)
		write([]int64{rng.Int63n(rows / 64), rng.Int63n(cols / 64)}, []int64{64, 64}, tile)
	}
	read([]int64{0, 0}, []int64{rows, cols})

	cs := on.CacheStats()
	want := CacheStats{
		Hits: 21856, Misses: 6816, HitBytes: 89522176,
		PrefetchIssued: 768, PrefetchUsed: 768,
		Evictions: 3691, Invalidations: 2,
		ResidentBytes: 2 << 20, CapacityBytes: 2 << 20,
	}
	if cs != want {
		t.Fatalf("cache counters moved:\n got %+v\nwant %+v", cs, want)
	}
	if cs.Hits == 0 || cs.Evictions == 0 || cs.Invalidations == 0 || cs.PrefetchUsed == 0 {
		t.Fatalf("the workload left a path untested: %+v", cs)
	}
	dev, programmed := on.sys.Dev, 0
	for i := int64(0); i < dev.Geometry().TotalPages(); i++ {
		raw := dev.RawPage(nvm.FromLinear(dev.Geometry(), i))
		if raw == nil {
			continue
		}
		programmed++
		if bytes.Contains(raw, marker) {
			t.Fatalf("page %d of the medium holds plaintext", i)
		}
	}
	if programmed == 0 {
		t.Fatal("nothing on the medium")
	}
}

// TestExecCacheStats: the get_cache_stats wire command returns a page whose
// decoded counters match the typed CacheStats API.
func TestExecCacheStats(t *testing.T) {
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 1 << 20, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.CreateSpace(4, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.OpenSpace(id, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256*256*4)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := sp.Write([]int64{0, 0}, []int64{256, 256}, data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := sp.Read([]int64{0, 0}, []int64{256, 256}); err != nil {
			t.Fatal(err)
		}
	}
	want := d.CacheStats()
	if want.Hits == 0 {
		t.Fatalf("warm read recorded no hits: %+v", want)
	}

	page, cpl, _, err := d.Exec(proto.NewCacheStats(0x4000).Marshal(), nil, nil)
	if err != nil || cpl.Status != proto.StatusOK {
		t.Fatalf("get_cache_stats: %v / %v", cpl.Status, err)
	}
	pl, err := proto.UnmarshalCacheStatsPayload(page)
	if err != nil {
		t.Fatal(err)
	}
	got := CacheStats{
		Hits:           pl.Hits,
		Misses:         pl.Misses,
		HitBytes:       pl.HitBytes,
		PrefetchIssued: pl.PrefetchIssued,
		PrefetchUsed:   pl.PrefetchUsed,
		PrefetchWasted: pl.PrefetchWasted,
		Evictions:      pl.Evictions,
		Invalidations:  pl.Invalidations,
		ResidentBytes:  pl.ResidentBytes,
		CapacityBytes:  pl.CapacityBytes,
	}
	if got != want {
		t.Fatalf("wire stats diverged from typed stats:\n%+v\n%+v", got, want)
	}
	if cpl.Result0 != uint64(want.Hits) {
		t.Fatalf("completion Result0 = %d, want hit count %d", cpl.Result0, want.Hits)
	}
}
