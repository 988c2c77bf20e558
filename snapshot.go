package nds

import (
	"encoding/binary"
	"fmt"
	"io"
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
// Each space is read whole in one request through a view of its own, booked
// like any client's read, so Export moves the device clock; a space created
// meanwhile is left out, and one deleted or resized meanwhile fails the
// export.
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

// exportSpace writes space id's entry: its header, from Inspect, and its
// contents.
func (d *Device) exportSpace(w io.Writer, id SpaceID) error {
	info, err := d.Inspect(id)
	if err != nil {
		return err
	}
	sp, err := d.OpenSpace(id, info.Dims)
	if err != nil {
		return err
	}
	defer sp.Close()
	data, _, err := sp.Read(make([]int64, len(info.Dims)), info.Dims)
	if err != nil {
		return err
	}
	for _, v := range []any{uint32(id), uint32(info.ElemSize), uint32(len(info.Dims)), info.Dims, int64(len(data))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	_, err = w.Write(data)
	return err
}

// Import restores a snapshot into this device, creating one space per
// snapshot entry and returning the mapping from snapshot space IDs to the
// IDs assigned here. The device's own geometry decides the building-block
// layout. Each entry is a create and a write of its own, so other clients'
// commands may run between them. A failed import returns no mapping and
// leaves no space behind: it deletes the spaces it created.
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
			for _, id := range mapping {
				_ = d.DeleteSpace(id)
			}
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
	if n > d.Capacity() {
		return 0, 0, fmt.Errorf("payload of %d bytes exceeds the device's %d", n, d.Capacity())
	}
	if n != vol*int64(elem) {
		return 0, 0, fmt.Errorf("payload %d bytes does not match dims %v x %d", n, dims, elem)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return 0, 0, err
	}
	// The entry is a client's create, open and write; a failed write deletes
	// the space again, as a failed open does.
	id, sp, err := d.execCreateSpace(int(elem), dims, d.OpenSpace)
	if err != nil {
		return 0, 0, err
	}
	if _, err := sp.Write(make([]int64, rank), dims, data); err != nil {
		_ = d.DeleteSpace(id)
		return 0, 0, err
	}
	return SpaceID(oldID), id, sp.Close()
}
