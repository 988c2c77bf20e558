// Package spec is the executable specification of N-dimensional storage:
// what every space holds after any sequence of the paper's commands — create,
// open, read, write, resize, delete, flush, close (§4, §5.1) and the pushdown
// scan and reduce — written as a dense in-memory model that shares no code
// with the STL. Tests hold a device to it byte for byte; the golden traces
// (golden.go) hold its timing.
//
// The rules:
//
//   - A space is a dense row-major array of elements of one size. Bytes never
//     written read as zeros.
//   - A view is any shape of the space's volume. View-linear and space-linear
//     order coincide, so every view addresses the same bytes.
//   - A partition of a view is coord/sub: the elements [coord_i*sub_i,
//     (coord_i+1)*sub_i) on each axis, clamped at the view's edge, in the
//     partition's own row-major order. A coordinate whose partition starts
//     past the edge is out of bounds.
//   - Resize changes dimension 0. Bytes within the new bound keep their
//     values; every coordinate a grow exposes reads zero, including rows an
//     earlier shrink cut off. Resize and delete retire every view of the space.
//   - Flush changes nothing a read can observe.
//   - Scan and reduce are computed over the bytes a read of the same partition
//     returns, as little-endian unsigned elements of 1, 2, 4 or 8 bytes.
//
// The model has no capacity: a device may refuse a write the model accepts
// (out of space, media failure), and a test decides what the model does then.
package spec

import (
	"errors"
	"fmt"
	"slices"
)

// The model's errors. A device's own errors differ in type; tests compare
// whether an operation failed and in which of these classes.
var (
	ErrInvalid      = errors.New("spec: invalid argument")
	ErrBounds       = errors.New("spec: partition out of bounds")
	ErrUnknownSpace = errors.New("spec: unknown space")
	ErrClosed       = errors.New("spec: closed view")
)

// Model is a registry of spaces.
type Model struct {
	spaces map[uint32]*space
	next   uint32
}

type space struct {
	elem  int
	dims  []int64
	data  []byte
	views []*View // open views, retired by resize and delete
}

// View is an opened view of a space. After Close, a resize or a delete of its
// space every operation on it fails with ErrClosed.
type View struct {
	sp   *space
	dims []int64
}

// New returns a model holding no spaces.
func New() *Model { return &Model{spaces: make(map[uint32]*space), next: 1} }

// Create makes a zero-filled space and returns its identifier; identifiers
// count up from 1 and are never reused.
func (m *Model) Create(elem int, dims []int64) (uint32, error) {
	if elem <= 0 {
		return 0, fmt.Errorf("element size %d: %w", elem, ErrInvalid)
	}
	if err := shapeOK(dims); err != nil {
		return 0, err
	}
	id := m.next
	m.next++
	m.spaces[id] = &space{elem: elem, dims: slices.Clone(dims), data: make([]byte, volume(dims)*int64(elem))}
	return id, nil
}

// Open opens a view of space id shaped dims.
func (m *Model) Open(id uint32, dims []int64) (*View, error) {
	s := m.spaces[id]
	if s == nil {
		return nil, fmt.Errorf("open of space %d: %w", id, ErrUnknownSpace)
	}
	if err := shapeOK(dims); err != nil {
		return nil, err
	}
	if volume(dims) != volume(s.dims) {
		return nil, fmt.Errorf("view %v of space %v: volumes differ: %w", dims, s.dims, ErrInvalid)
	}
	v := &View{sp: s, dims: slices.Clone(dims)}
	s.views = append(s.views, v)
	return v, nil
}

// Resize sets dimension 0 of space id to dim0 and retires its views.
func (m *Model) Resize(id uint32, dim0 int64) error {
	s := m.spaces[id]
	if s == nil {
		return fmt.Errorf("resize of space %d: %w", id, ErrUnknownSpace)
	}
	if dim0 <= 0 {
		return fmt.Errorf("resize to %d: %w", dim0, ErrInvalid)
	}
	s.dims[0] = dim0
	data := make([]byte, volume(s.dims)*int64(s.elem))
	copy(data, s.data) // what the old bound held; anything beyond is zeros
	s.data = data
	s.retire()
	return nil
}

// Delete forgets space id and retires its views.
func (m *Model) Delete(id uint32) error {
	s := m.spaces[id]
	if s == nil {
		return fmt.Errorf("delete of space %d: %w", id, ErrUnknownSpace)
	}
	delete(m.spaces, id)
	s.retire()
	return nil
}

// Flush is the flush command: it changes nothing a read can observe.
func (m *Model) Flush() {}

// Dims reports the dimensionality of space id (nil for an unknown space).
func (m *Model) Dims(id uint32) []int64 {
	if s := m.spaces[id]; s != nil {
		return slices.Clone(s.dims)
	}
	return nil
}

func (s *space) retire() {
	for _, v := range s.views {
		v.sp = nil
	}
	s.views = nil
}

// Close closes the view.
func (v *View) Close() error {
	if v.sp == nil {
		return fmt.Errorf("close: %w", ErrClosed)
	}
	v.sp.views = slices.DeleteFunc(v.sp.views, func(o *View) bool { return o == v })
	v.sp = nil
	return nil
}

// Dims reports the view's shape.
func (v *View) Dims() []int64 { return slices.Clone(v.dims) }

// Read returns the partition's bytes in its own row-major order.
func (v *View) Read(coord, sub []int64) ([]byte, error) {
	lo, shape, err := v.partition(coord, sub)
	if err != nil {
		return nil, err
	}
	out := make([]byte, volume(shape)*int64(v.sp.elem))
	v.rows(lo, shape, func(at, dst, n int64) { copy(out[dst:dst+n], v.sp.data[at:at+n]) })
	return out, nil
}

// Write stores data, laid out in the partition's row-major order.
func (v *View) Write(coord, sub []int64, data []byte) error {
	lo, shape, err := v.partition(coord, sub)
	if err != nil {
		return err
	}
	if want := volume(shape) * int64(v.sp.elem); int64(len(data)) != want {
		return fmt.Errorf("write of %d bytes to a %d-byte partition: %w", len(data), want, ErrInvalid)
	}
	v.rows(lo, shape, func(at, dst, n int64) { copy(v.sp.data[at:at+n], data[dst:dst+n]) })
	return nil
}

// Scan is ScanElems over the partition a Read returns.
func (v *View) Scan(coord, sub []int64, q ScanQuery) (ScanResult, error) {
	if err := v.pushdownOK(); err != nil {
		return ScanResult{}, err
	}
	if q.Cursor < 0 || q.Pred.Lo > q.Pred.Hi {
		return ScanResult{}, fmt.Errorf("scan %+v: %w", q, ErrInvalid)
	}
	part, err := v.Read(coord, sub)
	if err != nil {
		return ScanResult{}, err
	}
	return ScanElems(Elems(part, v.sp.elem), q), nil
}

// Reduce is ReduceElems over the partition a Read returns.
func (v *View) Reduce(coord, sub []int64, q ReduceQuery) (ReduceResult, error) {
	if err := v.pushdownOK(); err != nil {
		return ReduceResult{}, err
	}
	if q.Kind < ReduceSum || q.Kind > ReduceTopK || q.Kind == ReduceTopK && q.K < 1 || q.Pred != nil && q.Pred.Lo > q.Pred.Hi {
		return ReduceResult{}, fmt.Errorf("reduce %+v: %w", q, ErrInvalid)
	}
	part, err := v.Read(coord, sub)
	if err != nil {
		return ReduceResult{}, err
	}
	return ReduceElems(Elems(part, v.sp.elem), q), nil
}

func (v *View) pushdownOK() error {
	if v.sp == nil {
		return ErrClosed
	}
	if e := v.sp.elem; e != 1 && e != 2 && e != 4 && e != 8 {
		return fmt.Errorf("pushdown over %d-byte elements: %w", e, ErrInvalid)
	}
	return nil
}

// partition validates coord/sub against the view and returns the partition's
// first element and its clamped shape.
func (v *View) partition(coord, sub []int64) (lo, shape []int64, err error) {
	if v.sp == nil {
		return nil, nil, ErrClosed
	}
	m := len(v.dims)
	if len(coord) != m || len(sub) != m {
		return nil, nil, fmt.Errorf("rank %d/%d against a rank-%d view: %w", len(coord), len(sub), m, ErrInvalid)
	}
	lo, shape = make([]int64, m), make([]int64, m)
	for i := range v.dims {
		if sub[i] <= 0 {
			return nil, nil, fmt.Errorf("sub-dimension %d is %d: %w", i, sub[i], ErrInvalid)
		}
		if coord[i] < 0 || coord[i]*sub[i] >= v.dims[i] {
			return nil, nil, fmt.Errorf("coordinate %d=%d past %d: %w", i, coord[i], v.dims[i], ErrBounds)
		}
		lo[i] = coord[i] * sub[i]
		shape[i] = min(sub[i], v.dims[i]-lo[i])
	}
	return lo, shape, nil
}

// rows calls f for each row of the partition (lo, shape), in partition order:
// the row's byte offset in the space, its offset in the partition, and its
// length. A row is contiguous in both because view-linear order is the
// space's.
func (v *View) rows(lo, shape []int64, f func(at, dst, n int64)) {
	m, es := len(shape), int64(v.sp.elem)
	n := shape[m-1] * es
	idx := make([]int64, m) // odometer over the partition's rows; idx[m-1] stays 0
	for dst := int64(0); dst < volume(shape)*es; dst += n {
		var lin int64
		for i := range shape {
			lin = lin*v.dims[i] + lo[i] + idx[i]
		}
		f(lin*es, dst, n)
		for i := m - 2; i >= 0; i-- {
			if idx[i]++; idx[i] < shape[i] {
				break
			}
			idx[i] = 0
		}
	}
}

func shapeOK(dims []int64) error {
	if len(dims) == 0 {
		return fmt.Errorf("no dimensions: %w", ErrInvalid)
	}
	for i, d := range dims {
		if d <= 0 {
			return fmt.Errorf("dimension %d is %d: %w", i, d, ErrInvalid)
		}
	}
	return nil
}

func volume(dims []int64) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}
