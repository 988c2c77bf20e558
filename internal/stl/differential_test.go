package stl

import (
	"bytes"
	"math/rand"
	"testing"

	"nds/internal/crypt"
	"nds/internal/nvm"
	"nds/internal/sim"
)

// Differential tests: mixed row/column/tile read-write workloads, in
// configurations that hit every flush point of the write path
// (read-modify-write, GC, write buffering, compression, zero-page elision,
// ciphers, program faults), held to the model byte for byte and to their
// golden traces for completion times and RequestStats.
//
// The writer queues its frames unfilled and fills them at the flush that
// programs them, so every script runs on an arena primed with frames full of
// 0xFF: a frame that reached the device as the arena handed it out reads back
// as bytes the model does not have.

// newTwin builds a script over a smallGeo device with one space of elem-byte
// elements shaped dims, opened as view; prep, when given, sets the device up
// (a fault plan, a cipher) before the STL is built.
func newTwin(t *testing.T, elem int, dims, view []int64, mutate func(*Config), prep ...func(*nvm.Device)) (*script, *checked) {
	t.Helper()
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prep {
		f(dev)
	}
	primeArena(dev, 256, fillFF)
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sc := newScript(t, dev, cfg)
	return sc, sc.space(t, elem, dims, view)
}

// mixedWorkload drives a 128x128 space of 4-byte elements through row,
// column, and tile writes, reads, and overwrites (read-modify-write) at
// advancing issue times.
func mixedWorkload(t *testing.T, sc *script, c *checked, rounds int) {
	rng := rand.New(rand.NewSource(99))
	payload := func(n int64, tag byte) []byte {
		b := make([]byte, n*4)
		rng.Read(b)
		for i := int64(0); i < n; i += 7 {
			b[i*4] = tag
		}
		return b
	}
	at := sim.Time(0)
	for r := 0; r < rounds; r++ {
		// Row bands, column bands, and tiles of a 128x128 space.
		at = sc.mustWrite(t, at, c, []int64{int64(r % 4), 0}, []int64{32, 128}, payload(32*128, byte(r)))
		at = sc.read(t, at, c, []int64{0, int64(r % 4)}, []int64{128, 32})
		at = sc.mustWrite(t, at, c, []int64{int64(r % 2), int64(r % 2)}, []int64{64, 64}, payload(64*64, byte(r+1)))
		at = sc.read(t, at, c, []int64{int64(r % 4), int64(r % 4)}, []int64{32, 32})
		// Sub-page partitions: exercise partial coverage and RMW.
		at = sc.mustWrite(t, at, c, []int64{int64(8 + r%8), int64(r % 16)}, []int64{8, 8}, payload(8*8, byte(r+2)))
		at = sc.read(t, at, c, []int64{int64(r % 16), int64(8 + r%8)}, []int64{8, 8})
	}
	// Whole-space read as the final byte-identity check.
	sc.read(t, at, c, []int64{0, 0}, []int64{128, 128})
}

func TestDifferentialMixedWorkload(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128}, nil)
	mixedWorkload(t, sc, c, 6)
	sc.golden(t, "TestDifferentialMixedWorkload")
}

func TestDifferentialWriteBuffering(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.WriteBuffering = true })
	mixedWorkload(t, sc, c, 6)
	// Flush the staged pages, then read everything back.
	sc.read(t, sc.flush(t, 0), c, []int64{0, 0}, []int64{128, 128})
	sc.golden(t, "TestDifferentialWriteBuffering")
}

func TestDifferentialZeroPageElision(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.ZeroPageElision = true })
	at := sc.mustWrite(t, 0, c, []int64{0, 0}, []int64{128, 128}, make([]byte, 128*128*4))
	mixedWorkload(t, sc, c, 4)
	// Overwrite a written region with zeros: its units must be released.
	at = sc.mustWrite(t, at, c, []int64{0, 0}, []int64{64, 64}, make([]byte, 64*64*4))
	// The elision test reads a whole page's payload pieces, never a frame, and a
	// read-modify-write's assembled page: one request with pages of zeros and
	// pages of data side by side; a partly covered page on a released slot, of
	// zeros (elided, no frame drawn) and of data (programmed over a cleared
	// frame); and a read-modify-write that zeroes the only data its page holds.
	half := make([]byte, 64*128*4)
	for i := 32 * 128 * 4; i < len(half); i++ {
		half[i] = byte(1 + i%250)
	}
	at = sc.mustWrite(t, at, c, []int64{0, 0}, []int64{64, 128}, half)
	at = sc.mustWrite(t, at, c, []int64{0, 0}, []int64{8, 8}, make([]byte, 8*8*4))
	at = sc.mustWrite(t, at, c, []int64{0, 1}, []int64{8, 8}, bytes.Repeat([]byte{7}, 8*8*4))
	at = sc.mustWrite(t, at, c, []int64{0, 1}, []int64{8, 8}, make([]byte, 8*8*4))
	sc.read(t, at, c, []int64{0, 0}, []int64{128, 128})
	if sc.st.ZeroPagesSkipped() == 0 {
		t.Fatal("no page was elided")
	}
	sc.golden(t, "TestDifferentialZeroPageElision")
}

func TestDifferentialCompression(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.Compress = true })
	// Compressible payloads (the rng-free variant deflates well).
	data := make([]byte, 64*64*4)
	for i := range data {
		data[i] = byte(i % 7)
	}
	at := sc.mustWrite(t, 0, c, []int64{0, 0}, []int64{64, 64}, data)
	at = sc.mustWrite(t, at, c, []int64{1, 1}, []int64{64, 64}, data)
	at = sc.read(t, at, c, []int64{0, 0}, []int64{128, 32})
	at = sc.read(t, at, c, []int64{0, 1}, []int64{32, 128})
	sc.read(t, at, c, []int64{0, 0}, []int64{128, 128})
	sc.golden(t, "TestDifferentialCompression")
}

// TestDifferentialGCPressure overwrites until garbage collection runs; the
// flush func the request hands allocation must land its queued programs before the
// collector issues anything, so the device-operation order — and with it
// timing and placement — is the trace's.
func TestDifferentialGCPressure(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.OverProvision = 0.5; c.GCLowWater = 0.3 })
	sc.after = func() { auditDies(t, sc.st) }
	// A collection between two carves of one request ran through the request's
	// flush hook with the earlier pages' frames queued and not yet filled.
	var lastErases int64 = -1
	queuedAtGC := 0
	sc.st.carved = func(nvm.PPA) {
		e, _ := sc.st.GCStats()
		if lastErases >= 0 && e != lastErases {
			queuedAtGC++
		}
		lastErases = e
	}
	rng := rand.New(rand.NewSource(7))
	at := sim.Time(0)
	for r := 0; r < 60; r++ {
		lastErases = -1
		data := make([]byte, 64*128*4)
		rng.Read(data)
		at = sc.mustWrite(t, at, c, []int64{int64(r % 2), 0}, []int64{64, 128}, data)
		if r%5 == 4 {
			at = sc.read(t, at, c, []int64{0, 0}, []int64{128, 128})
		}
	}
	if e, _ := sc.st.GCStats(); e == 0 || queuedAtGC == 0 {
		t.Fatalf("%d erases, %d of them with programs queued; raise the pressure", e, queuedAtGC)
	}
	sc.read(t, at, c, []int64{0, 0}, []int64{128, 128})
	sc.golden(t, "TestDifferentialGCPressure")
}

// TestDifferentialCipher: a queued frame is filled, then sealed in place by
// the device's cipher as the flush programs it.
func TestDifferentialCipher(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128}, nil, func(d *nvm.Device) {
		e, err := crypt.New([]byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetCipher(e); err != nil {
			t.Fatal(err)
		}
	})
	mixedWorkload(t, sc, c, 4)
	sc.golden(t, "TestDifferentialCipher")
}

// TestDifferentialProgramFault: a program fault in the middle of a batch
// leaves the faulted op and everything behind it with the caller — frames
// already filled — and recovery programs those same frames at new units.
func TestDifferentialProgramFault(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128}, nil, func(d *nvm.Device) {
		d.SetFaultPlan(nvm.FaultPlan{Seed: 9, ProgramFailEvery: 40})
	})
	mixedWorkload(t, sc, c, 4)
	if sc.st.Reliability().ProgramRetries == 0 {
		t.Fatal("no program was relocated")
	}
	sc.golden(t, "TestDifferentialProgramFault")
}

// TestDifferentialMixedPages: one request whose pages are whole (queued
// unfilled), read-modify-written (assembled on the spot, each behind a flush
// of what is queued) and, on a never-written block, partly covered over a
// cleared frame — bands of 6 rows across 4-row pages — and whole-block writes
// to a space whose blocks end in a short page (9-byte elements: 16x16-element
// blocks of four pages and a half).
func TestDifferentialMixedPages(t *testing.T) {
	sc, c := newTwin(t, 4, []int64{128, 128}, []int64{128, 128}, nil)
	rng := rand.New(rand.NewSource(22))
	at := sc.mustWrite(t, 0, c, []int64{0, 0}, []int64{64, 128}, fillRandom(rng, 64*128*4))
	for band := int64(0); band < 14; band++ { // rows 0..83: the last bands leave the written half
		at = sc.mustWrite(t, at, c, []int64{band, 0}, []int64{6, 128}, fillRandom(rng, 6*128*4))
	}
	sc.read(t, at, c, []int64{0, 0}, []int64{128, 128})
	sc.golden(t, "TestDifferentialMixedPages")

	short, s := newTwin(t, 9, []int64{64, 64}, []int64{64, 64}, nil)
	if bb := s.v.space.bbBytes; bb%int64(smallGeo().PageSize) == 0 {
		t.Fatalf("blocks of %d bytes have no short last page", bb)
	}
	at = 0
	for r := 0; r < 3; r++ {
		at = short.mustWrite(t, at, s, []int64{0, 0}, []int64{64, 64}, fillRandom(rng, 64*64*9))
		at = short.mustWrite(t, at, s, []int64{int64(r), 1}, []int64{16, 16}, fillRandom(rng, 16*16*9))
	}
	short.read(t, at, s, []int64{0, 0}, []int64{64, 64})
	short.golden(t, "TestDifferentialMixedPages.short")
}
