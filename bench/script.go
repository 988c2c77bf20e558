package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
)

// opKind is what an operation asks of the system under test.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opScan
	opReduce
)

func (k opKind) String() string {
	return [...]string{"read", "write", "scan", "reduce"}[k]
}

// Op is one generated operation. The program under test receives ops, never
// the seed: everything random about a run is fixed here, before set-up.
type Op struct {
	Kind   opKind
	Stream uint8 // client that issues it (its own view / connection)
	Class  uint8 // workload-defined label: shape (row/col/tile) or phase
	Space  uint8 // index into the workload's spaces
	Coord  [2]int64
	Sub    [2]int64
	Lo, Hi uint64 // scan predicate, inclusive
}

// Shape classes of shape_read (Op.Class), also used to split stl.read_ns.
const (
	classRow uint8 = iota
	classCol
	classTile
)

// Phases of cached_rescan (Op.Class).
const (
	classFits uint8 = iota
	classExceeds
)

// scriptDigest hashes the binary form of a script: two scripts are
// byte-identical exactly when their digests agree.
func scriptDigest(ops []Op) [sha256.Size]byte {
	h := sha256.New()
	var b [4 + 4*8 + 2*8]byte
	for i := range ops {
		o := &ops[i]
		b[0], b[1], b[2], b[3] = byte(o.Kind), o.Stream, o.Class, o.Space
		binary.LittleEndian.PutUint64(b[4:], uint64(o.Coord[0]))
		binary.LittleEndian.PutUint64(b[12:], uint64(o.Coord[1]))
		binary.LittleEndian.PutUint64(b[20:], uint64(o.Sub[0]))
		binary.LittleEndian.PutUint64(b[28:], uint64(o.Sub[1]))
		binary.LittleEndian.PutUint64(b[36:], o.Lo)
		binary.LittleEndian.PutUint64(b[44:], o.Hi)
		h.Write(b[:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// zipfTiles draws tile indexes with Zipf(s) popularity over n tiles; which
// tiles are the popular ones is itself a seeded permutation, so hot tiles
// are not neighbours on the device.
type zipfTiles struct {
	z    *rand.Zipf
	perm []int
}

func newZipfTiles(r *rand.Rand, s float64, n int) *zipfTiles {
	return &zipfTiles{z: rand.NewZipf(r, s, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (z *zipfTiles) next() int { return z.perm[z.z.Uint64()] }

// fillRandom fills b with a xorshift64 stream: seeded, fast enough that
// generating 100 MiB of input does not dominate set-up.
func fillRandom(b []byte, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 | 1
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	for ; i < len(b); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
}

// payloadPool holds a few pre-generated write payloads of one size. The
// payload of write number seq is pool[seq%len] with seq stamped over its
// first 8 bytes, so every write is distinguishable in the oracle without
// generating a fresh megabyte inside the timed region.
type payloadPool struct {
	bufs [][]byte
}

func newPayloadPool(r *rand.Rand, size, n int) *payloadPool {
	p := &payloadPool{bufs: make([][]byte, n)}
	for i := range p.bufs {
		p.bufs[i] = make([]byte, size)
		fillRandom(p.bufs[i], r.Uint64())
	}
	return p
}

// fill writes the payload of write seq into dst (len = payload size).
func (p *payloadPool) fill(dst []byte, seq int64) {
	copy(dst, p.bufs[int(seq%int64(len(p.bufs)))])
	binary.LittleEndian.PutUint64(dst, uint64(seq))
}
