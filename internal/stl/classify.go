package stl

import (
	"encoding/binary"
	"math/bits"
)

// The run classifier under the pushdown kernels (pushdown.go). A kernel never
// tests an element and branches on the answer: a run is classified into one
// bit an element — straight-line arithmetic, five or six operations a lane,
// no branch inside a block of eight; for widths 4 and 8 on an AVX2 CPU, one
// vector compare a block (classify_amd64.s) — and the kernel consumes the
// answers as a count, as a list of the matching indices, or, when every
// element matched, as nothing but a sum.

// runElems bounds a run: 512 uint32 are 2 KiB, the piece a tile's row arrives
// as, and the answers to them fit a cache line.
const runElems = 512

// matcher classifies runs; every kernel embeds one.
type matcher struct {
	es    int
	elems int // in the run last classified
	// bit j of hits[b] is set iff element 8b+j of the run matched, so bit j of
	// the little-endian word w answers element 64w+j.
	hits [runElems / 8]uint8
	idx  [runElems + 2]uint16 // list's result, and room for its two blind writes
}

// match classifies the run src against r and returns how many elements
// matched. It is the one place the element width is resolved: whole blocks of
// eight go to the width's classifier, and the fewer than eight elements after
// them are the only ones tested one at a time.
func (c *matcher) match(src []byte, r laneRange) (found int) {
	if r.lo > r.hi {
		return 0
	}
	lo, span := r.lo, r.hi-r.lo
	c.elems, c.hits = count(src, c.es), [runElems / 8]uint8{}
	switch c.es {
	case 1:
		classify1(&c.hits, src, lo, span)
	case 2:
		classify2(&c.hits, src, lo, span)
	case 4:
		classify4(&c.hits, src, lo, span)
	case 8:
		classify8(&c.hits, src, lo, span)
	}
	for i := c.elems &^ 7; i < c.elems; i++ {
		if elem(src, c.es, i)-lo <= span {
			c.hits[i/8] |= 1 << (i % 8)
		}
	}
	for w := 0; 64*w < c.elems; w++ {
		found += bits.OnesCount64(c.word(w))
	}
	return found
}

// word returns the answers for elements 64w to 64w+63, the first in bit 0.
func (c *matcher) word(w int) uint64 { return binary.LittleEndian.Uint64(c.hits[8*w:]) }

// list returns the indices of the matching elements of the run last
// classified, in order. Where matches are sparse, whether a word of answers
// holds none, one or two is a coin toss a branch would lose: the first two
// indices of every word are written blind and the count decides how many
// stand.
func (c *matcher) list() []uint16 {
	n := 0
	for w := 0; 64*w < c.elems; w++ {
		m := c.word(w)
		at, stand := uint16(64*w), bits.OnesCount64(m)
		c.idx[n] = at + uint16(bits.TrailingZeros64(m))
		m &= m - 1
		c.idx[n+1] = at + uint16(bits.TrailingZeros64(m))
		for i := n + 2; i < n+stand; i++ {
			m &= m - 1
			c.idx[i] = at + uint16(bits.TrailingZeros64(m))
		}
		n += stand
	}
	return c.idx[:n]
}

// count returns how many es-byte elements src holds (es is a power of two).
func count(src []byte, es int) int { return len(src) >> bits.TrailingZeros(uint(es)) }

// elem decodes element i of src: a word load cut to the width while eight
// bytes remain, byte by byte at the very end of src.
func elem(src []byte, es, i int) (v uint64) {
	src = src[i*es:]
	if len(src) >= 8 {
		return binary.LittleEndian.Uint64(src) & (^uint64(0) >> (64 - 8*uint(es)))
	}
	for b := es - 1; b >= 0; b-- {
		v = v<<8 | uint64(src[b])
	}
	return v
}

// miss is 1 iff v lies outside the range: one unsigned compare, since v < lo
// wraps above any span. Inlined it is a subtract, a compare and a SETcc.
func miss(v, lo, span uint64) uint64 {
	if v-lo > span {
		return 1
	}
	return 0
}

// miss4 shifts into m the misses of four widened elements, the first highest.
func miss4(m, lo, span, a, b, c, d uint64) uint64 {
	return 2*(2*(2*(2*m+miss(a, lo, span))+miss(b, lo, span))+miss(c, lo, span)) + miss(d, lo, span)
}

func classify1(hits *[runElems / 8]uint8, src []byte, lo, span uint64) {
	for j := 0; len(src) >= 8; j, src = j+1, src[8:] {
		m := miss4(0, lo, span, uint64(src[7]), uint64(src[6]), uint64(src[5]), uint64(src[4]))
		hits[j] = ^uint8(miss4(m, lo, span, uint64(src[3]), uint64(src[2]), uint64(src[1]), uint64(src[0])))
	}
}

func classify2(hits *[runElems / 8]uint8, src []byte, lo, span uint64) {
	for j := 0; len(src) >= 16; j, src = j+1, src[16:] {
		a, b := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
		m := miss4(0, lo, span, b>>48, b>>32&0xffff, b>>16&0xffff, b&0xffff)
		hits[j] = ^uint8(miss4(m, lo, span, a>>48, a>>32&0xffff, a>>16&0xffff, a&0xffff))
	}
}

// classify4 hands a run to the vector classifier where the CPU has one
// (classify_amd64.s), cut to runElems elements so that it cannot write past
// hits where this body would panic. Otherwise it tests a word's high lane
// where it lies: v<<32+x is in the range shifted up 32 bits, low bits all
// ones, iff v is in the range.
func classify4(hits *[runElems / 8]uint8, src []byte, lo, span uint64) {
	if useAVX2 {
		classify4AVX2(hits, src[:min(len(src), 4*runElems)], lo, span)
		return
	}
	loHigh, spanHigh := lo<<32, span<<32|0xffffffff
	miss2 := func(m, w uint64) uint64 {
		return 2*(2*m+miss(w, loHigh, spanHigh)) + miss(uint64(uint32(w)), lo, span)
	}
	for j := 0; len(src) >= 32; j, src = j+1, src[32:] {
		a, b := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
		c, d := binary.LittleEndian.Uint64(src[16:]), binary.LittleEndian.Uint64(src[24:])
		hits[j] = ^uint8(miss2(miss2(miss2(miss2(0, d), c), b), a))
	}
}

// classify8 hands a run to the vector classifier as classify4 does, and
// otherwise tests each element's word as it is.
func classify8(hits *[runElems / 8]uint8, src []byte, lo, span uint64) {
	if useAVX2 {
		classify8AVX2(hits, src[:min(len(src), 8*runElems)], lo, span)
		return
	}
	le := binary.LittleEndian
	for j := 0; len(src) >= 64; j, src = j+1, src[64:] {
		m := miss4(0, lo, span, le.Uint64(src[56:]), le.Uint64(src[48:]), le.Uint64(src[40:]), le.Uint64(src[32:]))
		hits[j] = ^uint8(miss4(m, lo, span, le.Uint64(src[24:]), le.Uint64(src[16:]), le.Uint64(src[8:]), le.Uint64(src)))
	}
}

// everyOther[s/8] masks every other s-bit lane of a word.
var everyOther = [5]uint64{1: 0x00ff00ff00ff00ff, 2: 0x0000ffff0000ffff, 4: 0x00000000ffffffff}

// sumAll sums every element of a run (wrapping arithmetic) without testing
// any. Below width 8 a word adds its even lanes and its odd lanes into lanes
// twice as wide, which the words of runElems elements cannot overflow, and
// those are folded into one at the end.
func sumAll(src []byte, es int) (sum uint64) {
	if es == 8 {
		for ; len(src) >= 8; src = src[8:] {
			sum += binary.LittleEndian.Uint64(src)
		}
		return sum
	}
	s, m := 8*uint(es)&63, everyOther[es]
	for ; len(src) >= 8; src = src[8:] {
		w := binary.LittleEndian.Uint64(src)
		sum += w&m + w>>s&m
	}
	for f := 2 * s; f < 64; f *= 2 {
		sum = sum&everyOther[f/8] + sum>>f&everyOther[f/8]
	}
	for i := count(src, es) - 1; i >= 0; i-- {
		sum += elem(src, es, i)
	}
	return sum
}
