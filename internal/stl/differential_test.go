package stl

import (
	"bytes"
	"math/rand"
	"testing"

	"nds/internal/crypt"
	"nds/internal/nvm"
	"nds/internal/sim"
)

// Differential tests: the batched page-plan data path must be
// indistinguishable from the scalar one-page-at-a-time path — byte-identical
// buffers, identical RequestStats, and identical sim.Time completions — for
// mixed row/column/tile read-write workloads, including configurations that
// hit every flush point (read-modify-write, GC, write buffering, compression,
// zero-page elision).
//
// The batched writer queues its frames unfilled and fills them at the flush
// that programs them, so every pair runs on an arena primed with frames full
// of 0xFF: a frame that reached the device as the arena handed it out reads
// back as bytes the scalar twin does not have.

type diffPair struct {
	scalar  *STL
	batched *STL
	vs, vb  *View
	dst     []byte // reused ReadPartitionInto buffer for the batched side
}

// newDiffPair builds the twins; prep, when given, sets each device up (a
// fault plan, a cipher) before its STL is built.
func newDiffPair(t *testing.T, elem int, dims, view []int64, mutate func(*Config), prep ...func(*nvm.Device)) *diffPair {
	t.Helper()
	mk := func(scalarPath bool) (*STL, *View) {
		dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prep {
			f(dev)
		}
		for i := 0; i < 256; i++ {
			dev.Recycle(bytes.Repeat([]byte{0xFF}, smallGeo().PageSize))
		}
		cfg := DefaultConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		cfg.ScalarPath = scalarPath
		st, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := st.CreateSpace(elem, dims)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(sp, view)
		if err != nil {
			t.Fatal(err)
		}
		return st, v
	}
	p := &diffPair{}
	p.scalar, p.vs = mk(true)
	p.batched, p.vb = mk(false)
	return p
}

func (p *diffPair) write(t *testing.T, at sim.Time, coord, sub []int64, data []byte) sim.Time {
	t.Helper()
	dS, sS, errS := p.scalar.WritePartition(at, p.vs, coord, sub, data)
	dB, sB, errB := p.batched.WritePartition(at, p.vb, coord, sub, data)
	if (errS == nil) != (errB == nil) {
		t.Fatalf("write %v/%v: scalar err=%v batched err=%v", coord, sub, errS, errB)
	}
	if errS != nil {
		return at
	}
	if dS != dB {
		t.Fatalf("write %v/%v at %d: completion scalar=%d batched=%d", coord, sub, at, dS, dB)
	}
	if sS != sB {
		t.Fatalf("write %v/%v: stats scalar=%+v batched=%+v", coord, sub, sS, sB)
	}
	return dS
}

// read compares scalar ReadPartition against batched ReadPartitionInto with
// a reused buffer — the worst case for the batched path, which must clear
// and refill the caller's buffer exactly as a fresh allocation would.
func (p *diffPair) read(t *testing.T, at sim.Time, coord, sub []int64) sim.Time {
	t.Helper()
	bufS, dS, sS, errS := p.scalar.ReadPartition(at, p.vs, coord, sub)
	if cap(p.dst) < len(bufS) {
		p.dst = make([]byte, len(bufS))
	}
	bufB, dB, sB, errB := p.batched.ReadPartitionInto(at, p.vb, coord, sub, p.dst)
	if (errS == nil) != (errB == nil) {
		t.Fatalf("read %v/%v: scalar err=%v batched err=%v", coord, sub, errS, errB)
	}
	if errS != nil {
		return at
	}
	if dS != dB {
		t.Fatalf("read %v/%v at %d: completion scalar=%d batched=%d", coord, sub, at, dS, dB)
	}
	if sS != sB {
		t.Fatalf("read %v/%v: stats scalar=%+v batched=%+v", coord, sub, sS, sB)
	}
	if !bytes.Equal(bufS, bufB) {
		t.Fatalf("read %v/%v: data differs (%d vs %d bytes)", coord, sub, len(bufS), len(bufB))
	}
	return dS
}

// mixedWorkload drives the pair through row, column, and tile writes, reads,
// and overwrites (read-modify-write) at advancing issue times.
func mixedWorkload(t *testing.T, p *diffPair, rounds int) {
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
		at = p.write(t, at, []int64{int64(r % 4), 0}, []int64{32, 128}, payload(32*128, byte(r)))
		at = p.read(t, at, []int64{0, int64(r % 4)}, []int64{128, 32})
		at = p.write(t, at, []int64{int64(r % 2), int64(r % 2)}, []int64{64, 64}, payload(64*64, byte(r+1)))
		at = p.read(t, at, []int64{int64(r % 4), int64(r % 4)}, []int64{32, 32})
		// Sub-page partitions: exercise partial coverage and RMW.
		at = p.write(t, at, []int64{int64(8 + r%8), int64(r % 16)}, []int64{8, 8}, payload(8*8, byte(r+2)))
		at = p.read(t, at, []int64{int64(r % 16), int64(8 + r%8)}, []int64{8, 8})
	}
	// Whole-space read as the final byte-identity check.
	p.read(t, at, []int64{0, 0}, []int64{128, 128})
}

func TestDifferentialMixedWorkload(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128}, nil)
	mixedWorkload(t, p, 6)
}

func TestDifferentialWriteBuffering(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.WriteBuffering = true })
	mixedWorkload(t, p, 6)
	// Flush staged pages on both and compare completions.
	dS, errS := p.scalar.Flush(0)
	dB, errB := p.batched.Flush(0)
	if errS != nil || errB != nil || dS != dB {
		t.Fatalf("flush diverges: scalar (%d, %v) batched (%d, %v)", dS, errS, dB, errB)
	}
	p.read(t, dS, []int64{0, 0}, []int64{128, 128})
}

func TestDifferentialZeroPageElision(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.ZeroPageElision = true })
	at := p.write(t, 0, []int64{0, 0}, []int64{128, 128}, make([]byte, 128*128*4))
	mixedWorkload(t, p, 4)
	// Overwrite a written region with zeros: units must be released on both.
	at = p.write(t, at, []int64{0, 0}, []int64{64, 64}, make([]byte, 64*64*4))
	// The elision test reads a whole page's payload pieces, never a frame, and a
	// read-modify-write's assembled page: one request with pages of zeros and
	// pages of data side by side; a partly covered page on a released slot, of
	// zeros (elided, no frame drawn) and of data (programmed over a cleared
	// frame); and a read-modify-write that zeroes the only data its page holds.
	half := make([]byte, 64*128*4)
	for i := 32 * 128 * 4; i < len(half); i++ {
		half[i] = byte(1 + i%250)
	}
	at = p.write(t, at, []int64{0, 0}, []int64{64, 128}, half)
	at = p.write(t, at, []int64{0, 0}, []int64{8, 8}, make([]byte, 8*8*4))
	at = p.write(t, at, []int64{0, 1}, []int64{8, 8}, bytes.Repeat([]byte{7}, 8*8*4))
	at = p.write(t, at, []int64{0, 1}, []int64{8, 8}, make([]byte, 8*8*4))
	p.read(t, at, []int64{0, 0}, []int64{128, 128})
	if us, ub := p.scalar.UsedPages(), p.batched.UsedPages(); us != ub {
		t.Fatalf("used pages diverge: scalar=%d batched=%d", us, ub)
	}
	if zs, zb := p.scalar.ZeroPagesSkipped(), p.batched.ZeroPagesSkipped(); zs != zb || zb == 0 {
		t.Fatalf("elided pages diverge: scalar=%d batched=%d", zs, zb)
	}
}

func TestDifferentialCompression(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.Compress = true })
	// Compressible payloads (the rng-free variant deflates well).
	data := make([]byte, 64*64*4)
	for i := range data {
		data[i] = byte(i % 7)
	}
	at := p.write(t, 0, []int64{0, 0}, []int64{64, 64}, data)
	at = p.write(t, at, []int64{1, 1}, []int64{64, 64}, data)
	at = p.read(t, at, []int64{0, 0}, []int64{128, 32})
	at = p.read(t, at, []int64{0, 1}, []int64{32, 128})
	p.read(t, at, []int64{0, 0}, []int64{128, 128})
}

// TestDifferentialGCPressure overwrites until garbage collection runs on
// both paths; the gcFlush hook must keep the batched path's device-operation
// order (and therefore timing and placement) exactly scalar.
func TestDifferentialGCPressure(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128},
		func(c *Config) { c.OverProvision = 0.5; c.GCLowWater = 0.3 })
	// A collection between two carves of one request ran through the request's
	// flush hook with the earlier pages' frames queued and not yet filled.
	var lastErases int64 = -1
	queuedAtGC := 0
	p.batched.carved = func(nvm.PPA) {
		e, _ := p.batched.GCStats()
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
		at = p.write(t, at, []int64{int64(r % 2), 0}, []int64{64, 128}, data)
		if r%5 == 4 {
			at = p.read(t, at, []int64{0, 0}, []int64{128, 128})
		}
	}
	eS, mS := p.scalar.GCStats()
	eB, mB := p.batched.GCStats()
	if eS == 0 || queuedAtGC == 0 {
		t.Fatalf("%d erases, %d of them with programs queued; raise the pressure", eS, queuedAtGC)
	}
	if eS != eB || mS != mB {
		t.Fatalf("GC work diverges: scalar (erases=%d moves=%d) batched (erases=%d moves=%d)", eS, mS, eB, mB)
	}
	p.read(t, at, []int64{0, 0}, []int64{128, 128})
}

// TestDifferentialCipher: a queued frame is filled, then sealed in place by
// the device's cipher as the flush programs it.
func TestDifferentialCipher(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128}, nil, func(d *nvm.Device) {
		e, err := crypt.New([]byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetCipher(e); err != nil {
			t.Fatal(err)
		}
	})
	mixedWorkload(t, p, 4)
}

// TestDifferentialProgramFault: a program fault in the middle of a batch
// leaves the faulted op and everything behind it with the caller — frames
// already filled — and recovery programs those same frames at new units.
func TestDifferentialProgramFault(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128}, nil, func(d *nvm.Device) {
		d.SetFaultPlan(nvm.FaultPlan{Seed: 9, ProgramFailEvery: 40})
	})
	mixedWorkload(t, p, 4)
	rS, rB := p.scalar.Reliability(), p.batched.Reliability()
	if rB.ProgramRetries == 0 || rS.ProgramRetries != rB.ProgramRetries {
		t.Fatalf("program retries: scalar=%d batched=%d, want equal and nonzero", rS.ProgramRetries, rB.ProgramRetries)
	}
}

// TestDifferentialMixedPages: one request whose pages are whole (queued
// unfilled), read-modify-written (assembled on the spot, each behind a flush
// of what is queued) and, on a never-written block, partly covered over a
// cleared frame — bands of 6 rows across 4-row pages — and whole-block writes
// to a space whose blocks end in a short page (9-byte elements: 16x16-element
// blocks of four pages and a half).
func TestDifferentialMixedPages(t *testing.T) {
	p := newDiffPair(t, 4, []int64{128, 128}, []int64{128, 128}, nil)
	rng := rand.New(rand.NewSource(22))
	at := p.write(t, 0, []int64{0, 0}, []int64{64, 128}, fillRandom(rng, 64*128*4))
	for band := int64(0); band < 14; band++ { // rows 0..83: the last bands leave the written half
		at = p.write(t, at, []int64{band, 0}, []int64{6, 128}, fillRandom(rng, 6*128*4))
	}
	p.read(t, at, []int64{0, 0}, []int64{128, 128})

	short := newDiffPair(t, 9, []int64{64, 64}, []int64{64, 64}, nil)
	if bb := short.vb.space.bbBytes; bb%int64(smallGeo().PageSize) == 0 {
		t.Fatalf("blocks of %d bytes have no short last page", bb)
	}
	at = 0
	for r := 0; r < 3; r++ {
		at = short.write(t, at, []int64{0, 0}, []int64{64, 64}, fillRandom(rng, 64*64*9))
		at = short.write(t, at, []int64{int64(r), 1}, []int64{16, 16}, fillRandom(rng, 16*16*9))
	}
	short.read(t, at, []int64{0, 0}, []int64{64, 64})
}
