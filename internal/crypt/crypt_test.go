package crypt

import (
	"bytes"
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/stl"
)

func TestSealOpenRoundTrip(t *testing.T) {
	e, err := New([]byte("device-key"))
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(plain)
	p := nvm.PPA{Channel: 3, Bank: 1, Block: 7, Page: 9}
	sealed := make([]byte, len(plain))
	e.Seal(p, sealed, plain)
	if bytes.Equal(sealed, plain) {
		t.Fatal("sealed bytes equal plaintext")
	}
	if !bytes.Equal(e.Open(p, sealed), plain) {
		t.Fatal("open(seal(x)) != x")
	}
	// A different address yields a different keystream.
	other := make([]byte, len(plain))
	e.Seal(nvm.PPA{Channel: 3, Bank: 1, Block: 7, Page: 10}, other, plain)
	if bytes.Equal(other, sealed) {
		t.Fatal("distinct addresses produced identical ciphertext")
	}
	// In place, as the device seals a frame it was handed.
	inPlace := append([]byte(nil), plain...)
	e.Seal(p, inPlace, inPlace)
	if !bytes.Equal(inPlace, sealed) {
		t.Fatal("sealing in place differs from sealing into a second buffer")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestEncryptedSTLEndToEnd installs the engine beneath a real STL: data
// written through coordinates must read back exactly, the medium must hold
// ciphertext, and GC-driven relocation must stay transparent (§5.3.3: "the
// current NDS workflow functions well regardless").
func TestEncryptedSTLEndToEnd(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetCipher(e); err != nil {
		t.Fatal(err)
	}
	st, err := stl.New(dev, stl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := st.CreateSpace(4, []int64{96, 96})
	if err != nil {
		t.Fatal(err)
	}
	v, err := stl.NewView(sp, []int64{96, 96})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, sp.Bytes())
	rng.Read(data)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{96, 96}, data); err != nil {
		t.Fatal(err)
	}
	// The medium holds ciphertext: no programmed page's raw bytes appear in
	// the plaintext image.
	found := 0
	for ch := 0; ch < geo.Channels; ch++ {
		for bk := 0; bk < geo.Banks; bk++ {
			for blk := 0; blk < geo.BlocksPerBank; blk++ {
				for pg := 0; pg < geo.PagesPerBlock; pg++ {
					raw := dev.RawPage(nvm.PPA{Channel: ch, Bank: bk, Block: blk, Page: pg})
					if raw == nil {
						continue
					}
					found++
					if bytes.Contains(data, raw[:64]) {
						t.Fatal("plaintext fragment found on the medium")
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no programmed pages found")
	}
	// Churn overwrites until GC relocates sealed pages, then verify.
	for i := 0; i < 40; i++ {
		patch := make([]byte, 32*32*4)
		rng.Read(patch)
		coord := []int64{rng.Int63n(3), rng.Int63n(3)}
		if _, _, err := st.WritePartition(0, v, coord, []int64{32, 32}, patch); err != nil {
			t.Fatal(err)
		}
		// Mirror into the reference image.
		for r := int64(0); r < 32; r++ {
			row := (coord[0]*32 + r) * 96
			copy(data[(row+coord[1]*32)*4:(row+coord[1]*32+32)*4], patch[r*32*4:(r+1)*32*4])
		}
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{96, 96})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("encrypted data path corrupted data")
	}
	if erases, _ := st.GCStats(); erases > 0 {
		t.Logf("GC relocated sealed pages across %d erases; data intact", erases)
	}
}

func TestCipherInstallOrder(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 2, PagesPerBlock: 2, PageSize: 128}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ProgramPages([]nvm.ProgramOp{{Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	e, _ := New([]byte("k"))
	if err := dev.SetCipher(e); err == nil {
		t.Fatal("cipher installed over existing data")
	}
}

func TestCompatibleWithBlocks(t *testing.T) {
	// 256x256 blocks of 8-byte elements: every blocked dimension spans 2 KB
	// >> the 32-byte section.
	if !CompatibleWithBlocks([]int64{256, 256}, 8) {
		t.Error("prototype layout should be compatible")
	}
	// A pathological 4-element dimension of 4-byte elements (16 B < 32 B).
	if CompatibleWithBlocks([]int64{4, 256}, 4) {
		t.Error("sub-section dimension should be flagged")
	}
	// Unblocked dimensions (1) are exempt.
	if !CompatibleWithBlocks([]int64{1, 256, 256}, 4) {
		t.Error("unblocked dimension should be exempt")
	}
}
