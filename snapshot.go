package nds

import (
	"encoding/binary"
	"fmt"
	"io"

	"nds/internal/stl"
)

// Export and Import move datasets between devices as logical snapshots: the
// producer-side dump/restore path a deployment needs for backup, device
// replacement, or migrating a dataset onto a drive with a different internal
// geometry (the snapshot carries dimensionality, not physical layout, so the
// receiving STL re-places building blocks for its own device — exactly the
// portability argument of challenge [C1]).
//
// Snapshot format (little-endian):
//
//	magic "NDSS", uint32 version, uint32 space count, then per space:
//	uint32 id, uint32 elemSize, uint32 rank, rank x int64 dims,
//	int64 payload length, payload (row-major bytes).

const (
	snapshotMagic   = "NDSS"
	snapshotVersion = 1
)

// Export writes every space of the device to w. Data-bearing devices only.
// Each space is read whole in one request; a space created meanwhile is left
// out, and one deleted or resized meanwhile fails the export.
func (d *Device) Export(w io.Writer) error {
	if d.sys.Dev.Phantom() {
		return fmt.Errorf("nds: cannot export a phantom device (no stored bytes)")
	}
	ids := d.sys.STL.SpaceIDs()
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(snapshotVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := d.exportSpace(w, id); err != nil {
			return fmt.Errorf("nds: export space %d: %w", id, err)
		}
	}
	return nil
}

func (d *Device) exportSpace(w io.Writer, id SpaceID) error {
	var view *stl.View
	if err := d.sys.STL.WithSpace(id, func(sp *stl.Space) (err error) {
		view, err = stl.NewView(sp, sp.Dims())
		return err
	}); err != nil {
		return err
	}
	dims := view.Dims()
	hdr := []any{uint32(id), uint32(view.Space().ElemSize()), uint32(len(dims))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, dim := range dims {
		if err := binary.Write(w, binary.LittleEndian, dim); err != nil {
			return err
		}
	}
	coord := make([]int64, len(dims))
	data, _, _, err := d.sys.STL.ReadPartition(d.clock(), view, coord, dims)
	if err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(data))); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Import restores a snapshot into this device, creating one space per
// snapshot entry and returning the mapping from snapshot space IDs to the
// IDs assigned here. The device's own geometry decides the building-block
// layout. Each entry is a create and a write of its own, so other clients'
// commands may run between them.
func (d *Device) Import(r io.Reader) (map[SpaceID]SpaceID, error) {
	if d.sys.Dev.Phantom() {
		return nil, fmt.Errorf("nds: cannot import into a phantom device")
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("nds: bad snapshot magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("nds: unsupported snapshot version %d", version)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	mapping := make(map[SpaceID]SpaceID, count)
	for i := uint32(0); i < count; i++ {
		oldID, newID, err := d.importSpace(r)
		if err != nil {
			return nil, fmt.Errorf("nds: import entry %d: %w", i, err)
		}
		mapping[oldID] = newID
	}
	return mapping, nil
}

func (d *Device) importSpace(r io.Reader) (SpaceID, SpaceID, error) {
	var oldID, elem, rank uint32
	for _, p := range []*uint32{&oldID, &elem, &rank} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return 0, 0, err
		}
	}
	if rank == 0 || rank > 32 {
		return 0, 0, fmt.Errorf("rank %d out of range", rank)
	}
	dims := make([]int64, rank)
	vol := int64(1)
	for i := range dims {
		if err := binary.Read(r, binary.LittleEndian, &dims[i]); err != nil {
			return 0, 0, err
		}
		if dims[i] <= 0 || vol > (1<<42)/dims[i] {
			return 0, 0, fmt.Errorf("unreasonable dims %v", dims)
		}
		vol *= dims[i]
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, 0, err
	}
	if n != vol*int64(elem) {
		return 0, 0, fmt.Errorf("payload %d bytes does not match dims %v x %d", n, dims, elem)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return 0, 0, err
	}
	sp, err := d.sys.STL.CreateSpace(int(elem), dims)
	if err != nil {
		return 0, 0, err
	}
	view, err := stl.NewView(sp, dims)
	if err != nil {
		return 0, 0, err
	}
	coord := make([]int64, rank)
	done, _, err := d.sys.STL.WritePartition(d.clock(), view, coord, dims, data)
	if err != nil {
		return 0, 0, err
	}
	d.advance(done)
	return SpaceID(oldID), sp.ID(), nil
}
