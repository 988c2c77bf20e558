package nds

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nds/internal/proto"
)

// lifecycleFixture is execFixture plus a couple of extra views, typed and
// wire, so retirement tests can watch a populated registry empty out.
func lifecycleFixture(t *testing.T) (d *Device, space SpaceID, views []uint32, typed *Space) {
	t.Helper()
	dev, spaceID, view := execFixture(t)
	d, space = dev, SpaceID(spaceID)
	views = append(views, view)
	page, err := proto.SpacePayload{ElemSize: 4, Dims: []int64{32, 32}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, cpl, _, _ := d.Exec(proto.NewOpenSpace(spaceID, 0, false).Marshal(), page, nil)
	if cpl.Status != proto.StatusOK {
		t.Fatalf("second wire view: %v", cpl.Status)
	}
	views = append(views, uint32(cpl.Result1))
	typed, err = d.OpenSpace(space, []int64{1024})
	if err != nil {
		t.Fatal(err)
	}
	return d, space, views, typed
}

// TestDeleteSpaceRetiresViews is the regression test for the registry leak:
// deleting a space must close every open view of it — wire and typed — so
// the registry returns to zero and stale wire IDs answer StatusUnknownView.
func TestDeleteSpaceRetiresViews(t *testing.T) {
	d, space, views, typed := lifecycleFixture(t)
	if got := d.OpenViews(); got != 3 {
		t.Fatalf("fixture registry size = %d, want 3", got)
	}
	if err := d.DeleteSpace(space); err != nil {
		t.Fatal(err)
	}
	if got := d.OpenViews(); got != 0 {
		t.Fatalf("registry size after delete = %d, want 0 (views leaked)", got)
	}
	page, err := proto.CoordPayload{Coord: []int64{0, 0}, Sub: []int64{8, 8}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if _, cpl, _, _ := d.Exec(proto.NewRead(v, 0).Marshal(), page, nil); cpl.Status != proto.StatusUnknownView {
			t.Errorf("stale wire read on view %d = %v, want unknown view", v, cpl.Status)
		}
		if _, cpl, _, _ := d.Exec(proto.NewCloseSpace(v).Marshal(), nil, nil); cpl.Status != proto.StatusUnknownView {
			t.Errorf("stale wire close on view %d = %v, want unknown view", v, cpl.Status)
		}
	}
	if _, _, err := typed.Read([]int64{0}, []int64{4}); !errors.Is(err, ErrClosedView) {
		t.Errorf("typed read after delete err = %v, want ErrClosedView", err)
	}
	if err := typed.Close(); !errors.Is(err, ErrClosedView) {
		t.Errorf("typed close after delete err = %v, want ErrClosedView", err)
	}
}

// TestResizeSpaceRetiresViews: the documented "views become stale" path must
// actually retire them, exactly like delete — a stale-volume view silently
// serving reads against the restructured space would compute wrong offsets.
func TestResizeSpaceRetiresViews(t *testing.T) {
	d, space, views, typed := lifecycleFixture(t)
	if err := d.ResizeSpace(space, 64); err != nil {
		t.Fatal(err)
	}
	if got := d.OpenViews(); got != 0 {
		t.Fatalf("registry size after resize = %d, want 0 (views leaked)", got)
	}
	page, err := proto.CoordPayload{Coord: []int64{0, 0}, Sub: []int64{8, 8}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if _, cpl, _, _ := d.Exec(proto.NewRead(v, 0).Marshal(), page, nil); cpl.Status != proto.StatusUnknownView {
			t.Errorf("stale wire read on view %d = %v, want unknown view", v, cpl.Status)
		}
	}
	if _, _, err := typed.Read([]int64{0}, []int64{4}); !errors.Is(err, ErrClosedView) {
		t.Errorf("typed read after resize err = %v, want ErrClosedView", err)
	}
	// The space itself survived the resize: a fresh view of the new volume
	// opens and reads.
	fresh, err := d.OpenSpace(space, []int64{64, 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.Read([]int64{0, 0}, []int64{8, 8}); err != nil {
		t.Fatalf("read through fresh view after resize: %v", err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	// A failed resize (unknown space) retires nothing.
	_, _, _, typed2 := lifecycleFixture(t)
	if err := typed2.dev.ResizeSpace(SpaceID(999), 64); err == nil {
		t.Fatal("resize of unknown space succeeded")
	}
	if got := typed2.dev.OpenViews(); got != 3 {
		t.Fatalf("failed resize retired views: registry = %d, want 3", got)
	}
}

// TestWireViewLifecycleSequences walks multi-command lifecycle sequences at
// the wire level, asserting the status of the final command in each.
func TestWireViewLifecycleSequences(t *testing.T) {
	coordPage := func(t *testing.T) []byte {
		t.Helper()
		p, err := proto.CoordPayload{Coord: []int64{0, 0}, Sub: []int64{8, 8}}.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		run  func(t *testing.T, d *Device, space, view uint32) proto.Status
		want proto.Status
	}{
		{"read after delete_space", func(t *testing.T, d *Device, space, view uint32) proto.Status {
			if _, cpl, _, _ := d.Exec(proto.NewDeleteSpace(space).Marshal(), nil, nil); cpl.Status != proto.StatusOK {
				t.Fatalf("delete: %v", cpl.Status)
			}
			_, cpl, _, _ := d.Exec(proto.NewRead(view, 0).Marshal(), coordPage(t), nil)
			return cpl.Status
		}, proto.StatusUnknownView},

		{"write after delete_space", func(t *testing.T, d *Device, space, view uint32) proto.Status {
			if _, cpl, _, _ := d.Exec(proto.NewDeleteSpace(space).Marshal(), nil, nil); cpl.Status != proto.StatusOK {
				t.Fatalf("delete: %v", cpl.Status)
			}
			_, cpl, _, _ := d.Exec(proto.NewWrite(view, 0).Marshal(), coordPage(t), make([]byte, 8*8*4))
			return cpl.Status
		}, proto.StatusUnknownView},

		{"close after delete_space", func(t *testing.T, d *Device, space, view uint32) proto.Status {
			if _, cpl, _, _ := d.Exec(proto.NewDeleteSpace(space).Marshal(), nil, nil); cpl.Status != proto.StatusOK {
				t.Fatalf("delete: %v", cpl.Status)
			}
			_, cpl, _, _ := d.Exec(proto.NewCloseSpace(view).Marshal(), nil, nil)
			return cpl.Status
		}, proto.StatusUnknownView},

		{"delete twice", func(t *testing.T, d *Device, space, _ uint32) proto.Status {
			if _, cpl, _, _ := d.Exec(proto.NewDeleteSpace(space).Marshal(), nil, nil); cpl.Status != proto.StatusOK {
				t.Fatalf("delete: %v", cpl.Status)
			}
			_, cpl, _, _ := d.Exec(proto.NewDeleteSpace(space).Marshal(), nil, nil)
			return cpl.Status
		}, proto.StatusUnknownSpace},

		{"reopen after close", func(t *testing.T, d *Device, space, view uint32) proto.Status {
			if _, cpl, _, _ := d.Exec(proto.NewCloseSpace(view).Marshal(), nil, nil); cpl.Status != proto.StatusOK {
				t.Fatalf("close: %v", cpl.Status)
			}
			page, _ := proto.SpacePayload{ElemSize: 4, Dims: []int64{32, 32}}.Marshal()
			_, cpl, _, _ := d.Exec(proto.NewOpenSpace(space, 0, false).Marshal(), page, nil)
			if cpl.Status != proto.StatusOK {
				return cpl.Status
			}
			if uint32(cpl.Result1) == view {
				t.Fatal("retired view ID reused")
			}
			_, cpl, _, _ = d.Exec(proto.NewRead(uint32(cpl.Result1), 0).Marshal(), coordPage(t), nil)
			return cpl.Status
		}, proto.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, space, view := execFixture(t)
			if got := c.run(t, d, space, view); got != c.want {
				t.Fatalf("status = %v, want %v", got, c.want)
			}
			if got := d.OpenViews(); got != 0 && c.want != proto.StatusOK {
				t.Fatalf("registry size after sequence = %d, want 0", got)
			}
		})
	}
}

// TestDeleteSpaceConcurrentWithReads: deleting or shrinking a space while
// clients stream reads and writes through its views — typed and through Exec
// — lets every operation either run before the change or fail with
// ErrClosedView (StatusUnknownView on the wire), never run on a stale view:
// after a delete no unit of the space is live, and after a shrink of
// 2048×2048 to 300 rows, rows 0–299 hold only what was written to them. The
// registry ends empty. Many iterations, because an operation queued behind
// the change is a scheduling race.
func TestDeleteSpaceConcurrentWithReads(t *testing.T) {
	for _, arm := range []string{"delete", "shrink"} {
		t.Run(arm, func(t *testing.T) {
			for i := 0; i < 50 && !t.Failed(); i++ {
				lifetimeRace(t, arm == "delete")
			}
		})
	}
}

// lifetimeRace is one iteration of TestDeleteSpaceConcurrentWithReads: two
// typed readers, two typed writers and a writer through Exec stream one-row
// partitions of a 2048×2048 byte space until the delete (or the shrink to
// 300 rows) refuses them. Three writes in four aim past row 300.
func lifetimeRace(t *testing.T, del bool) {
	const side, kept = 2048, 300
	d, err := Open(Options{Mode: ModeHardware, CapacityHint: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	whole := []int64{side, side}
	id, err := d.CreateSpace(1, whole)
	if err != nil {
		t.Fatal(err)
	}
	// Row r holds byte r+c at column c, so a write that wrapped into another
	// row shows.
	pattern := func(r int64, buf []byte) []byte {
		for c := range buf {
			buf[c] = byte(r + int64(c))
		}
		return buf
	}
	rowHolds := func(r int64, got []byte) bool {
		return bytes.Equal(got, make([]byte, len(got))) || bytes.Equal(got, pattern(r, make([]byte, len(got))))
	}
	writeRow := func(w, i int) int64 {
		if i%4 == 3 {
			return int64(i*7+w*13) % kept
		}
		return kept + int64(i*37+w*101)%(side-kept)
	}
	row := func(r int64) ([]int64, []int64) { return []int64{r, 0}, []int64{1, side} }

	var ops []func(i int) error
	for k := 0; k < 2; k++ {
		v, err := d.OpenSpace(id, whole)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, func(i int) error {
			r := int64(i*53+k*17) % side
			coord, sub := row(r)
			got, _, err := v.Read(coord, sub)
			if err == nil && !rowHolds(r, got) {
				t.Errorf("row %d read back bytes written to another row", r)
			}
			return err
		})
	}
	for w := 0; w < 2; w++ {
		v, err := d.OpenSpace(id, whole)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, side)
		ops = append(ops, func(i int) error {
			r := writeRow(w, i)
			coord, sub := row(r)
			_, err := v.Write(coord, sub, pattern(r, buf))
			return err
		})
	}
	page, err := proto.SpacePayload{ElemSize: 1, Dims: whole}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, cpl, _, err := d.Exec(proto.NewOpenSpace(uint32(id), 0, false).Marshal(), page, nil)
	if err != nil || cpl.Status != proto.StatusOK {
		t.Fatalf("open_space: %v / %v", cpl.Status, err)
	}
	wire, buf := uint32(cpl.Result1), make([]byte, side)
	ops = append(ops, func(i int) error {
		r := writeRow(2, i)
		coord, sub := row(r)
		p, err := proto.CoordPayload{Coord: coord, Sub: sub}.Marshal()
		if err != nil {
			return err
		}
		_, cpl, _, err := d.Exec(proto.NewWrite(wire, 0).Marshal(), p, pattern(r, buf))
		switch {
		case err != nil:
			return err
		case cpl.Status == proto.StatusUnknownView:
			return ErrClosedView
		case cpl.Status != proto.StatusOK:
			return fmt.Errorf("nds_write: %v", cpl.Status)
		}
		return nil
	})

	// Every client runs until refused; the change comes once each has run.
	var running, done sync.WaitGroup
	for _, op := range ops {
		running.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			for i := 0; ; i++ {
				err := op(i)
				if i == 0 {
					running.Done()
				}
				switch {
				case errors.Is(err, ErrClosedView):
					return
				case err != nil:
					t.Errorf("op %d: %v, want success or ErrClosedView", i, err)
					return
				case i == 100000:
					t.Error("no operation was refused")
					return
				}
			}
		}()
	}
	running.Wait()
	if del {
		err = d.DeleteSpace(id)
	} else {
		err = d.ResizeSpace(id, kept)
	}
	if err != nil {
		t.Fatal(err)
	}
	done.Wait()
	if got := d.OpenViews(); got != 0 {
		t.Fatalf("registry size after the change = %d, want 0", got)
	}
	if del {
		if used := d.Reliability().UsedPages; used != 0 {
			t.Fatalf("%d units of the deleted space are live", used)
		}
		return
	}
	v, err := d.OpenSpace(id, []int64{kept, side})
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := v.Read([]int64{0, 0}, []int64{kept, side})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < kept; r++ {
		if !rowHolds(r, all[r*side:(r+1)*side]) {
			t.Fatalf("row %d holds bytes written to another row", r)
		}
	}
}
