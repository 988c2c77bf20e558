package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"nds"
)

// mirror is the oracle for one space: a dense row-major copy of what the
// space must hold. Set-up fills it with the seeded input, the replay pass
// applies every write to it, and every read payload, scan match list and
// reduce result is compared with what the mirror says.
type mirror struct {
	elem int
	dims [2]int64
	data []byte
}

func newMirror(elem int, dims [2]int64, seed uint64) *mirror {
	m := &mirror{elem: elem, dims: dims, data: make([]byte, int64(elem)*dims[0]*dims[1])}
	fillRandom(m.data, seed)
	return m
}

// rowSpan returns the byte range of partition row r (coord/sub) in the mirror.
func (m *mirror) rowSpan(coord, sub [2]int64, r int64) (lo, hi int64) {
	es := int64(m.elem)
	lo = ((coord[0]*sub[0]+r)*m.dims[1] + coord[1]*sub[1]) * es
	return lo, lo + sub[1]*es
}

// extract assembles the partition coord/sub in its own row-major layout.
func (m *mirror) extract(coord, sub [2]int64, dst []byte) []byte {
	rowBytes := sub[1] * int64(m.elem)
	dst = dst[:sub[0]*rowBytes]
	for r := int64(0); r < sub[0]; r++ {
		lo, hi := m.rowSpan(coord, sub, r)
		copy(dst[r*rowBytes:], m.data[lo:hi])
	}
	return dst
}

// apply stores a write payload laid out in the partition's row-major shape.
func (m *mirror) apply(coord, sub [2]int64, payload []byte) {
	rowBytes := sub[1] * int64(m.elem)
	for r := int64(0); r < sub[0]; r++ {
		lo, hi := m.rowSpan(coord, sub, r)
		copy(m.data[lo:hi], payload[r*rowBytes:(r+1)*rowBytes])
	}
}

// elemAt decodes little-endian unsigned element i of a partition buffer.
func elemAt(buf []byte, elem int, i int64) uint64 {
	switch elem {
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[i*4:]))
	case 8:
		return binary.LittleEndian.Uint64(buf[i*8:])
	}
	panic("bench: oracle supports 4- and 8-byte elements")
}

// scan lists every element of the partition within [lo, hi], by row-major
// index: what a host would compute from the payload of a read.
func (m *mirror) scan(part []byte, lo, hi uint64) []nds.Match {
	var out []nds.Match
	n := int64(len(part) / m.elem)
	for i := int64(0); i < n; i++ {
		if v := elemAt(part, m.elem, i); v >= lo && v <= hi {
			out = append(out, nds.Match{Index: i, Value: v})
		}
	}
	return out
}

// topK lists the k largest elements of the partition, descending, ties by
// ascending index — the order ReduceTopK documents.
func (m *mirror) topK(part []byte, k int) []nds.Match {
	top := make([]nds.Match, 0, k+1)
	n := int64(len(part) / m.elem)
	for i := int64(0); i < n; i++ {
		v := elemAt(part, m.elem, i)
		if len(top) == k && v <= top[k-1].Value {
			continue // a later index never displaces an equal value
		}
		j := len(top)
		top = append(top, nds.Match{})
		for j > 0 && top[j-1].Value < v {
			top[j] = top[j-1]
			j--
		}
		top[j] = nds.Match{Index: i, Value: v}
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

func sameMatches(a, b []nds.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkOp compares what the system returned for op with the mirror and, for
// a write, applies it. scratch is a partition-sized buffer.
func (m *mirror) checkOp(op *Op, res *opResult, payload, scratch []byte) error {
	switch op.Kind {
	case opWrite:
		m.apply(op.Coord, op.Sub, payload)
		return nil
	case opRead:
		want := m.extract(op.Coord, op.Sub, scratch)
		if !bytes.Equal(res.Payload, want) {
			return fmt.Errorf("read %v/%v: payload differs from the oracle (%d bytes returned, %d expected)",
				op.Coord, op.Sub, len(res.Payload), len(want))
		}
	case opScan:
		want := m.scan(m.extract(op.Coord, op.Sub, scratch), op.Lo, op.Hi)
		if res.Total != int64(len(want)) || !sameMatches(res.Matches, want) {
			return fmt.Errorf("scan %v/%v [%d,%d]: %d matches (total %d), oracle has %d",
				op.Coord, op.Sub, op.Lo, op.Hi, len(res.Matches), res.Total, len(want))
		}
	case opReduce:
		want := m.topK(m.extract(op.Coord, op.Sub, scratch), reduceK)
		if !sameMatches(res.Matches, want) {
			return fmt.Errorf("reduce top-%d %v/%v: result differs from the oracle", reduceK, op.Coord, op.Sub)
		}
	}
	return nil
}
