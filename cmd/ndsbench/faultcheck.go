package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"nds"
)

// faultCheck is a reliability sanity run: a mixed workload over a device
// with a nonzero fault plan, verifying that every byte survives program
// faults, ECC retries, and block retirement, and that an identical second
// device replays the same fault history. It exits nonzero on any mismatch,
// so CI can gate on it.
func faultCheck() {
	header("Fault-injection sanity (seeded plan, mixed workload)")
	r1, clk1 := faultCheckRun()
	r2, clk2 := faultCheckRun()
	if r1 != r2 {
		fatalf("fault replay diverged:\n  run 1: %+v\n  run 2: %+v", r1, r2)
	}
	if clk1 != clk2 {
		fatalf("simulated clocks diverged: %v vs %v", clk1, clk2)
	}
	if r1.ProgramFaults == 0 || r1.ReadRetries == 0 {
		fatalf("fault plan injected nothing: %+v", r1)
	}
	if r1.ProgramRetries != r1.ProgramFaults {
		fatalf("%d program faults but %d recovered", r1.ProgramFaults, r1.ProgramRetries)
	}
	fmt.Printf("faults injected:   %d program, %d erase, %d wear-out, %d read retries\n",
		r1.ProgramFaults, r1.EraseFaults, r1.WearoutFaults, r1.ReadRetries)
	fmt.Printf("recovery:          %d programs relocated, %d blocks retired (%d pages)\n",
		r1.ProgramRetries, r1.RetiredBlocks, r1.RetiredPages)
	fmt.Printf("capacity:          %d/%d logical pages after degradation, %d in use\n",
		r1.EffectivePages, r1.MaxPages, r1.UsedPages)
	fmt.Printf("verdict:           data intact, replay deterministic\n")
}

func faultCheckRun() (nds.ReliabilityReport, int64) {
	d, err := nds.Open(nds.Options{
		Mode:         nds.ModeHardware,
		CapacityHint: 4 << 20,
		Faults: &nds.FaultPlan{
			Seed:             2021,
			ProgramFailEvery: 12,
			EraseFailEvery:   16,
			ReadRetryEvery:   5,
		},
	})
	if err != nil {
		fatalf("open: %v", err)
	}
	const dim = 1024
	id, err := d.CreateSpace(4, []int64{dim, dim})
	if err != nil {
		fatalf("create space: %v", err)
	}
	sp, err := d.OpenSpace(id, []int64{dim, dim})
	if err != nil {
		fatalf("open space: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	image := make([]byte, dim*dim*4)
	rng.Read(image)
	if _, err := sp.Write([]int64{0, 0}, []int64{dim, dim}, image); err != nil {
		fatalf("fill write: %v", err)
	}
	const tile = 256
	for i := 0; i < 12; i++ {
		data := make([]byte, tile*tile*4)
		rng.Read(data)
		coord := []int64{rng.Int63n(dim / tile), rng.Int63n(dim / tile)}
		if _, err := sp.Write(coord, []int64{tile, tile}, data); err != nil {
			fatalf("tile write %d: %v", i, err)
		}
		for r := int64(0); r < tile; r++ {
			row := ((coord[0]*tile+r)*dim + coord[1]*tile) * 4
			copy(image[row:], data[r*tile*4:(r+1)*tile*4])
		}
	}
	got, _, err := sp.Read([]int64{0, 0}, []int64{dim, dim})
	if err != nil {
		fatalf("verify read: %v", err)
	}
	if !bytes.Equal(got, image) {
		fatalf("read-back mismatch under fault injection")
	}
	return d.Reliability(), int64(d.Now())
}
