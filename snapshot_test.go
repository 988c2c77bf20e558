package nds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"nds/internal/stl"
)

// TestExportImportRoundTrip moves two spaces between devices — including
// into the other implementation mode — and verifies contents survive while
// the receiving STL re-decides the physical layout.
func TestExportImportRoundTrip(t *testing.T) {
	src, err := Open(Options{Mode: ModeHardware, CapacityHint: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	// Space 1: a 2-D matrix.
	idA, err := src.CreateSpace(8, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	spA, err := src.OpenSpace(idA, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	dataA := make([]byte, 128*128*8)
	rng.Read(dataA)
	if _, err := spA.Write([]int64{0, 0}, []int64{128, 128}, dataA); err != nil {
		t.Fatal(err)
	}
	// Space 2: a 1-D vector.
	idB, err := src.CreateSpace(4, []int64{4096})
	if err != nil {
		t.Fatal(err)
	}
	spB, err := src.OpenSpace(idB, []int64{4096})
	if err != nil {
		t.Fatal(err)
	}
	dataB := make([]byte, 4096*4)
	rng.Read(dataB)
	if _, err := spB.Write([]int64{0}, []int64{4096}, dataB); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := src.Export(&snap); err != nil {
		t.Fatal(err)
	}

	// Import into a software-mode device (the other platform half).
	dst, err := Open(Options{Mode: ModeSoftware, CapacityHint: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := dst.Import(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(mapping) != 2 {
		t.Fatalf("imported %d spaces, want 2", len(mapping))
	}

	gotA, err := dst.OpenSpace(mapping[idA], []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	rawA, _, err := gotA.Read([]int64{0, 0}, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, dataA) {
		t.Fatal("2-D space content lost in transit")
	}
	gotB, err := dst.OpenSpace(mapping[idB], []int64{4096})
	if err != nil {
		t.Fatal(err)
	}
	rawB, _, err := gotB.Read([]int64{0}, []int64{4096})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawB, dataB) {
		t.Fatal("1-D space content lost in transit")
	}
	// The destination re-decided layout for its own geometry.
	info, err := dst.Inspect(mapping[idA])
	if err != nil {
		t.Fatal(err)
	}
	if info.BlockDims[0] != 256 {
		t.Fatalf("destination block dims = %v", info.BlockDims)
	}
}

// TestImportIntoFeatureDevices round-trips a snapshot into compressed and
// encrypted devices: snapshots are logical, so device features compose.
func TestImportIntoFeatureDevices(t *testing.T) {
	src, err := Open(Options{Mode: ModeHardware, CapacityHint: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	id, err := src.CreateSpace(4, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := src.OpenSpace(id, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256*256*4)
	for i := range data {
		data[i] = byte(i / 1024) // compressible
	}
	if _, err := sp.Write([]int64{0, 0}, []int64{256, 256}, data); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.Export(&snap); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{
		{Mode: ModeSoftware, CapacityHint: 8 << 20, Compress: true},
		{Mode: ModeHardware, CapacityHint: 8 << 20, EncryptionKey: []byte("k2")},
	} {
		dst, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		mapping, err := dst.Import(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.OpenSpace(mapping[id], []int64{256, 256})
		if err != nil {
			t.Fatal(err)
		}
		raw, _, err := got.Read([]int64{0, 0}, []int64{256, 256})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, data) {
			t.Fatalf("feature device %+v corrupted snapshot", opts)
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	phantom, err := Open(Options{Mode: ModeHardware, CapacityHint: 4 << 20, Phantom: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := phantom.Export(&bytes.Buffer{}); err == nil {
		t.Error("export of a phantom device accepted")
	}
	if _, err := phantom.Import(bytes.NewReader(nil)); err == nil {
		t.Error("import into a phantom device accepted")
	}
	real, err := Open(Options{Mode: ModeHardware, CapacityHint: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := real.Import(bytes.NewReader([]byte("XXXXgarbage"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated snapshot.
	var snap bytes.Buffer
	id, _ := real.CreateSpace(4, []int64{64})
	sp, _ := real.OpenSpace(id, []int64{64})
	if _, err := sp.Write([]int64{0}, []int64{64}, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if err := real.Export(&snap); err != nil {
		t.Fatal(err)
	}
	trunc := snap.Bytes()[:snap.Len()-10]
	dst, _ := Open(Options{Mode: ModeHardware, CapacityHint: 4 << 20})
	if _, err := dst.Import(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

// TestImportFailureLeavesNoSpace: a failed Import returns no mapping and
// leaves no space behind, whether the entry that fails is the one whose
// write the device refuses or one after entries that went in.
func TestImportFailureLeavesNoSpace(t *testing.T) {
	src, err := Open(Options{Mode: ModeHardware, CapacityHint: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][]int64{{64, 64}, {4096}} {
		id, err := src.CreateSpace(4, dims)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := src.OpenSpace(id, dims)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(4)
		for _, d := range dims {
			n *= d
		}
		data := make([]byte, n)
		rng.Read(data)
		if _, err := sp.Write(make([]int64, len(dims)), dims, data); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Export(&snap); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		opts Options
		snap []byte
		want error
	}{
		{"failed write", Options{Mode: ModeHardware, CapacityHint: 4 << 20, Faults: &FaultPlan{Seed: 1, ProgramFailEvery: 1}}, snap.Bytes(), stl.ErrMedia},
		{"truncated second entry", Options{Mode: ModeHardware, CapacityHint: 4 << 20}, snap.Bytes()[:snap.Len()-10], nil},
	} {
		dst, err := Open(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		mapping, err := dst.Import(bytes.NewReader(c.snap))
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Fatalf("%s: import returned %v, want %v", c.name, err, c.want)
		}
		if mapping != nil {
			t.Errorf("%s: a failed import returned mapping %v", c.name, mapping)
		}
		if ids := dst.sys.STL.SpaceIDs(); len(ids) != 0 {
			t.Errorf("%s: the failed import left spaces %v behind", c.name, ids)
		}
		if _, err := dst.Inspect(1); err == nil {
			t.Errorf("%s: Inspect found space 1 after the failed import", c.name)
		}
	}
}

// TestImportRefusesOversizedPayload: an entry whose header declares more
// payload than the device holds is refused before anything is allocated for
// it, and leaves no space behind.
func TestImportRefusesOversizedPayload(t *testing.T) {
	dst, err := Open(Options{Mode: ModeHardware, CapacityHint: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// One entry: id 1, 8-byte elements, dims 2^21 x 2^21, a payload of 2^45
	// bytes, and no payload bytes behind it.
	var snap bytes.Buffer
	snap.WriteString(snapshotMagic)
	for _, v := range []any{uint32(snapshotVersion), uint32(1), uint32(1), uint32(8), uint32(2), []int64{1 << 21, 1 << 21}, int64(1 << 45)} {
		if err := binary.Write(&snap, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.Import(&snap); err == nil {
		t.Fatal("a 2^45-byte payload was accepted")
	}
	if ids := dst.sys.STL.SpaceIDs(); len(ids) != 0 {
		t.Errorf("the refused import left spaces %v behind", ids)
	}
}
