package spec

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// TestViewsShareBytes: every view of a space addresses its row-major bytes;
// a partition is its rows in order, clamped at the view's edge.
func TestViewsShareBytes(t *testing.T) {
	m := New()
	id, err := m.Create(2, []int64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := m.Open(id, []int64{24})
	data := make([]byte, 48)
	for i := range data {
		data[i] = byte(i)
	}
	if err := flat.Write([]int64{0}, []int64{24}, data); err != nil {
		t.Fatal(err)
	}
	grid, _ := m.Open(id, []int64{4, 6})
	// Rows 2..3, columns 4..5: elements 16, 17, 22, 23.
	got, err := grid.Read([]int64{1, 2}, []int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{32, 33, 34, 35, 44, 45, 46, 47}; !bytes.Equal(got, want) {
		t.Fatalf("partition reads %v, want %v", got, want)
	}
	// Rows 3..5 clamped to row 3, columns 4..5: elements 22, 23.
	got, _ = grid.Read([]int64{1, 2}, []int64{3, 2})
	if want := []byte{44, 45, 46, 47}; !bytes.Equal(got, want) {
		t.Fatalf("partition reads %v, want %v", got, want)
	}
	cube, _ := m.Open(id, []int64{2, 3, 4})
	if got, _ := cube.Read([]int64{1, 0, 0}, []int64{1, 1, 4}); !bytes.Equal(got, data[24:32]) {
		t.Fatalf("3-d view reads %v, want %v", got, data[24:32])
	}
	for _, c := range []struct {
		coord, sub []int64
		want       error
	}{
		{[]int64{2, 0}, []int64{2, 6}, ErrBounds},
		{[]int64{0, -1}, []int64{2, 6}, ErrBounds},
		{[]int64{0, 0}, []int64{0, 6}, ErrInvalid},
		{[]int64{0}, []int64{6}, ErrInvalid},
	} {
		if _, err := grid.Read(c.coord, c.sub); !errors.Is(err, c.want) {
			t.Errorf("read %v/%v: %v, want %v", c.coord, c.sub, err, c.want)
		}
	}
	if err := grid.Write([]int64{0, 0}, []int64{1, 6}, data[:11]); !errors.Is(err, ErrInvalid) {
		t.Errorf("a short payload: %v", err)
	}
	if _, err := m.Open(id, []int64{5, 5}); !errors.Is(err, ErrInvalid) {
		t.Errorf("a view of another volume: %v", err)
	}
}

// TestResizeZeroesWhatAShrinkCut: bytes past a shrink's bound read zero after
// a grow; every view retires on resize and delete.
func TestResizeZeroesWhatAShrinkCut(t *testing.T) {
	m := New()
	id, _ := m.Create(1, []int64{4, 2})
	v, _ := m.Open(id, []int64{4, 2})
	v.Write([]int64{0, 0}, []int64{4, 2}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err := m.Resize(id, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read([]int64{0, 0}, []int64{1, 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("a view read after its space's resize: %v", err)
	}
	if err := v.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closing a retired view: %v", err)
	}
	m.Resize(id, 5)
	v, _ = m.Open(id, []int64{10})
	if got, _ := v.Read([]int64{0}, []int64{10}); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 0, 0, 0, 0}) {
		t.Fatalf("after shrink and grow: %v", got)
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read([]int64{0}, []int64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("a view read after its space's delete: %v", err)
	}
	for _, err := range []error{m.Delete(id), m.Resize(id, 1)} {
		if !errors.Is(err, ErrUnknownSpace) {
			t.Fatalf("a deleted space: %v", err)
		}
	}
	if _, err := m.Open(id, []int64{10}); !errors.Is(err, ErrUnknownSpace) {
		t.Fatalf("opening a deleted space: %v", err)
	}
}

// TestPushdown: scan paging and every reduction over one partition.
func TestPushdown(t *testing.T) {
	elems := Elems([]byte{5, 0, 9, 0, 0, 0, 9, 0, 1, 0}, 2) // 5 9 0 9 1
	if want := []uint64{5, 9, 0, 9, 1}; !slices.Equal(elems, want) {
		t.Fatalf("decoded %v, want %v", elems, want)
	}
	s := ScanElems(elems, ScanQuery{Pred: Predicate{1, 9}, Cursor: 1, Max: 2})
	if s.Total != 4 || s.NextCursor != 4 || len(s.Matches) != 2 || s.Matches[0] != (Match{1, 9}) || s.Matches[1] != (Match{3, 9}) {
		t.Fatalf("scan: %+v", s)
	}
	for _, c := range []struct {
		q    ReduceQuery
		want ReduceResult
	}{
		{ReduceQuery{Kind: ReduceSum}, ReduceResult{Value: 24, Index: -1, Count: 5}},
		{ReduceQuery{Kind: ReduceCount}, ReduceResult{Value: 4, Index: -1, Count: 4}},
		{ReduceQuery{Kind: ReduceCount, Pred: &Predicate{0, 0}}, ReduceResult{Value: 1, Index: -1, Count: 1}},
		{ReduceQuery{Kind: ReduceMin, Pred: &Predicate{1, 100}}, ReduceResult{Value: 1, Index: 4, Count: 4}},
		{ReduceQuery{Kind: ReduceMax}, ReduceResult{Value: 9, Index: 1, Count: 5}},
	} {
		if got := ReduceElems(elems, c.q); got.Value != c.want.Value || got.Index != c.want.Index || got.Count != c.want.Count {
			t.Errorf("%+v: %+v, want %+v", c.q, got, c.want)
		}
	}
	top := ReduceElems(elems, ReduceQuery{Kind: ReduceTopK, K: 3})
	if top.Count != 3 || top.TopK[0] != (Match{1, 9}) || top.TopK[1] != (Match{3, 9}) || top.TopK[2] != (Match{0, 5}) {
		t.Fatalf("top-3: %+v", top)
	}
}
