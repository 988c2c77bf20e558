package main

import "time"

// The reference kernel. The speed of the box this benchmark is measured on
// moves in steps of 10-40 % that last from a second to a quarter of an hour,
// with no steal time reported: a register-only multiply loop with nothing
// else running takes 11.9, 13.0, 14.3 or 16.6 us from one stretch to the
// next, and two sweeps of unchanged code ten minutes apart read 5134 and 3748
// ops/s on shape_read (README.md, "Reference speed"). The driver refuses a
// metric whose ten runs lie further apart than its bound, or whose median
// moves by more than it between two sweeps, so no statistic inside a run is
// enough. Each client therefore interrupts its op stream every refEvery to
// time a fixed piece of work of the benchmark's own — copies out of a buffer
// larger than L2 and integer arithmetic — and every slice of the timed pass
// is scaled by how much slower than refNominal that work ran in it.
//
// refNominal only fixes the unit: it is the kernel's time on this box in a
// quiet stretch, so that scaled and raw figures read alike; any constant
// would compare two commits the same way. The kernel never calls the program
// under test, but it does share the cores and the memory bus with it: a
// change that makes the other client evict more cache moves the scale a
// little. machine_slowdown and the raw figures are printed beside the scaled
// ones so that a claim can be checked against both.
const (
	refEvery   = 25 * time.Millisecond
	refNominal = 190 * time.Microsecond
)

type refKernel struct {
	src, dst []byte
	x        [4]uint64
	n        int
}

func newRefKernel() *refKernel {
	r := &refKernel{src: make([]byte, 4*mib), dst: make([]byte, 64<<10), x: [4]uint64{1, 2, 3, 4}}
	fillRandom(r.src, 42)
	return r
}

// run does the fixed work: twelve 64 KiB copies from scattered offsets, then
// four independent multiply-add chains seeded from what was copied.
func (r *refKernel) run() {
	for j := 0; j < 12; j++ {
		r.n++
		off := (r.n * 2654435761) % (len(r.src) - len(r.dst))
		copy(r.dst, r.src[off:off+len(r.dst)])
		r.x[j&3] += uint64(r.dst[j])
	}
	a, b, c, d := r.x[0], r.x[1], r.x[2], r.x[3]
	for k := 0; k < 40000; k++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		c = c*6364136223846793005 + 1442695040888963407
		d = d*6364136223846793005 + 1442695040888963407
	}
	r.x = [4]uint64{a, b, c, d}
}
