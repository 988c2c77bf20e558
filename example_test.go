package nds_test

import (
	"encoding/binary"
	"fmt"
	"log"

	"nds"
)

// Example shows the producer/consumer flow of the paper's Figure 4: the
// producer defines the space's dimensionality, the consumer opens its own
// view and fetches a partition with one command.
func Example() {
	dev, err := nds.Open(nds.Options{Mode: nds.ModeHardware, CapacityHint: 8 << 20})
	if err != nil {
		log.Fatal(err)
	}
	// Producer: a 64x64 space of 8-byte elements, numbered linearly.
	id, _ := dev.CreateSpace(8, []int64{64, 64})
	prod, _ := dev.OpenSpace(id, []int64{64, 64})
	data := make([]byte, 64*64*8)
	for i := 0; i < 64*64; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i))
	}
	prod.Write([]int64{0, 0}, []int64{64, 64}, data)

	// Consumer: a column through the 2-D view — one command.
	col, stats, _ := prod.Read([]int64{0, 10}, []int64{64, 1})
	fmt.Println("column[3] =", binary.LittleEndian.Uint64(col[3*8:]))
	fmt.Println("commands  =", stats.Commands)
	// Output:
	// column[3] = 202
	// commands  = 1
}

// ExampleDevice_Inspect shows the building-block layout the STL chooses for
// the prototype geometry (Equations 1-2: 256x256 blocks for 8-byte
// elements).
func ExampleDevice_Inspect() {
	dev, _ := nds.Open(nds.Options{Mode: nds.ModeSoftware, CapacityHint: 32 << 20})
	id, _ := dev.CreateSpace(8, []int64{1024, 1024})
	info, _ := dev.Inspect(id)
	fmt.Println("blocks:", info.BlockDims[0], "x", info.BlockDims[1])
	fmt.Println("pages per block:", info.PagesPerBB)
	// Output:
	// blocks: 256 x 256
	// pages per block: 128
}

// ExampleSpace_Read demonstrates dimensionality elasticity: the same stored
// bytes consumed through a reshaped view.
func ExampleSpace_Read() {
	dev, _ := nds.Open(nds.Options{Mode: nds.ModeHardware, CapacityHint: 8 << 20})
	id, _ := dev.CreateSpace(8, []int64{32, 32})
	prod, _ := dev.OpenSpace(id, []int64{32, 32})
	data := make([]byte, 32*32*8)
	for i := 0; i < 32*32; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i))
	}
	prod.Write([]int64{0, 0}, []int64{32, 32}, data)

	flat, _ := dev.OpenSpace(id, []int64{1024}) // 1-D view of the same space
	seg, _, _ := flat.Read([]int64{10}, []int64{4})
	for i := 0; i < 4; i++ {
		fmt.Println(binary.LittleEndian.Uint64(seg[i*8:]))
	}
	// Output:
	// 40
	// 41
	// 42
	// 43
}

// ExampleSpace_Scan shows in-storage compute pushdown: the device scans the
// partition next to the flash and only the matching elements cross the
// interconnect, where a Read would have moved the whole partition.
func ExampleSpace_Scan() {
	dev, _ := nds.Open(nds.Options{Mode: nds.ModeHardware, CapacityHint: 8 << 20})
	id, _ := dev.CreateSpace(8, []int64{64, 64})
	prod, _ := dev.OpenSpace(id, []int64{64, 64})
	data := make([]byte, 64*64*8)
	for i := 0; i < 64*64; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i%100))
	}
	prod.Write([]int64{0, 0}, []int64{64, 64}, data)

	// Read-then-filter moves the raw partition; pushdown moves the matches.
	_, rstats, _ := prod.Read([]int64{0, 0}, []int64{64, 64})
	res, sstats, _ := prod.Scan([]int64{0, 0}, []int64{64, 64},
		nds.ScanQuery{Pred: nds.Predicate{Lo: 98, Hi: 99}})
	fmt.Println("matches         =", res.Total)
	fmt.Println("read link bytes =", rstats.RawBytes)
	fmt.Println("scan link bytes =", sstats.RawBytes)

	top, _, _ := prod.Reduce([]int64{0, 0}, []int64{64, 64},
		nds.ReduceQuery{Kind: nds.ReduceMax})
	fmt.Println("max value       =", top.Value)
	// Output:
	// matches         = 80
	// read link bytes = 32768
	// scan link bytes = 110
	// max value       = 99
}
