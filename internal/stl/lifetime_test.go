package stl

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"nds/internal/nvm"
)

// TestStaleViewsAreRefused: a view kept across a shrink and one kept across a
// delete are refused by every data-path entry with ErrClosedView, and the
// refusals change nothing — not the live units, not the device's program
// count, not the bytes that survive. The shrunk space's write aims wholly past
// the new bound; through the stale view's shape it would wrap into the rows
// the shrink kept.
func TestStaleViewsAreRefused(t *testing.T) {
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScript(t, dev, DefaultConfig())
	sc.after = func() { auditDies(t, sc.st) }
	rng := rand.New(rand.NewSource(30))
	whole, small := []int64{128, 128}, []int64{64, 64}
	shrunk := sc.space(t, 4, whole, whole)
	sc.mustWrite(t, 0, shrunk, []int64{0, 0}, whole, fillRandom(rng, 128*128*4))
	gone := sc.space(t, 4, small, small)
	sc.mustWrite(t, 0, gone, []int64{0, 0}, small, fillRandom(rng, 64*64*4))

	id, gid := shrunk.v.space.ID(), gone.v.space.ID()
	if _, err := sc.st.ResizeSpace(0, id, 97); err != nil {
		t.Fatal(err)
	}
	if err := sc.model.Resize(uint32(id), 97); err != nil {
		t.Fatal(err)
	}
	if err := sc.st.DeleteSpace(gid); err != nil {
		t.Fatal(err)
	}
	if err := sc.model.Delete(uint32(gid)); err != nil {
		t.Fatal(err)
	}

	used := sc.st.UsedPages()
	_, programs, _ := dev.Counters()
	for _, c := range []struct {
		name       string
		v          *View
		coord, sub []int64
	}{
		{"shrunk", shrunk.v, []int64{7, 0}, []int64{16, 128}}, // rows 112..127
		{"deleted", gone.v, []int64{1, 0}, []int64{32, 64}},
	} {
		data := fillRandom(rng, prod(c.sub)*4)
		for op, run := range map[string]func() error{
			"read": func() error {
				_, _, _, err := sc.st.ReadPartition(0, c.v, c.coord, c.sub)
				return err
			},
			"write": func() error {
				_, _, err := sc.st.WritePartition(0, c.v, c.coord, c.sub, data)
				return err
			},
			"scan": func() error {
				_, _, _, err := sc.st.ScanPartition(0, c.v, c.coord, c.sub, ScanQuery{Pred: Predicate{Hi: math.MaxUint64}})
				return err
			},
			"reduce": func() error {
				_, _, _, err := sc.st.ReducePartition(0, c.v, c.coord, c.sub, ReduceQuery{Kind: ReduceSum})
				return err
			},
			"extent count": func() error {
				_, _, err := c.v.ExtentCount(c.coord, c.sub)
				return err
			},
		} {
			var err error
			sc.do(func() { err = run() })
			if !errors.Is(err, ErrClosedView) {
				t.Errorf("%s through the %s space's stale view: err = %v, want ErrClosedView", op, c.name, err)
			}
		}
	}
	if got := sc.st.UsedPages(); got != used {
		t.Errorf("refused requests moved UsedPages %d -> %d", used, got)
	}
	if _, got, _ := dev.Counters(); got != programs {
		t.Errorf("refused requests programmed %d pages", got-programs)
	}

	// The rows the shrink kept read back as written, through a fresh view.
	kept := []int64{97, 128}
	shrunk.v = mustView(t, shrunk.v.space, kept...)
	if shrunk.m, err = sc.model.Open(uint32(id), kept); err != nil {
		t.Fatal(err)
	}
	sc.read(t, 0, shrunk, []int64{0, 0}, kept)
}
