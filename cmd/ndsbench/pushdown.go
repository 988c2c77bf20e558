package main

import (
	"encoding/binary"
	"fmt"

	"nds"
)

// The pushdown benchmark: the same selective query executed as
// read-then-filter and as an in-storage scan, on both NDS implementations.
// Hardware NDS runs the operator on the controller — slower compute, but only
// the matches cross the interconnect; software NDS filters at host speed but
// ships every raw page first. The selectivity sweep shows where each side of
// the [P2] tradeoff wins.

const (
	pdDim   = 1024 // 1024x1024 space of 8-byte elements = 8 MiB
	pdTile  = 256  // scanned partition edge
	pdTiles = 16   // (pdDim/pdTile)^2 disjoint tiles
)

// pdSetup builds a device with the benchmark's fill: element j holds j%1000,
// so the predicate [0, m-1] selects exactly m/10 percent of any aligned tile.
func pdSetup(mode nds.Mode, cacheBytes int64, prefetch int) (*nds.Device, *nds.Space, error) {
	d, err := nds.Open(nds.Options{
		Mode:          mode,
		CapacityHint:  32 << 20,
		CacheBytes:    cacheBytes,
		PrefetchDepth: prefetch,
	})
	if err != nil {
		return nil, nil, err
	}
	id, err := d.CreateSpace(8, []int64{pdDim, pdDim})
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	v, err := d.OpenSpace(id, []int64{pdDim, pdDim})
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	data := make([]byte, pdDim*pdDim*8)
	for j := 0; j < pdDim*pdDim; j++ {
		binary.LittleEndian.PutUint64(data[8*j:], uint64(j%1000))
	}
	if _, err := v.Write([]int64{0, 0}, []int64{pdDim, pdDim}, data); err != nil {
		v.Close()
		d.Close()
		return nil, nil, err
	}
	return d, v, nil
}

// runPushdown prints the selectivity sweep: per mode and selectivity, the
// interconnect bytes and simulated time of scanning every tile via pushdown
// versus reading every tile and filtering on the host.
func runPushdown(cacheBytes int64, prefetch int) {
	header("In-storage compute pushdown: scan vs read-then-filter")
	fmt.Printf("%d MiB space, %d %dx%d tiles, predicate [0,m) over values 0..999\n\n",
		pdDim*pdDim*8>>20, pdTiles, pdTile, pdTile)
	fmt.Printf("%-8s %11s %14s %14s %9s %12s %12s\n",
		"mode", "selectivity", "read link B", "scan link B", "savings", "read sim", "scan sim")
	for _, mode := range []nds.Mode{nds.ModeHardware, nds.ModeSoftware} {
		for _, sel := range []struct {
			label string
			hi    uint64
		}{
			{"0.1%", 0}, {"1%", 9}, {"10%", 99},
		} {
			d, v, err := pdSetup(mode, cacheBytes, prefetch)
			if err != nil {
				fatalf("pushdown: %v", err)
			}
			var readRaw, scanRaw int64
			var readSim, scanSim int64
			var matches int64
			for t := int64(0); t < pdTiles; t++ {
				coord := []int64{t / (pdDim / pdTile), t % (pdDim / pdTile)}
				_, rst, err := v.Read(coord, []int64{pdTile, pdTile})
				if err != nil {
					fatalf("pushdown read: %v", err)
				}
				res, sst, err := v.Scan(coord, []int64{pdTile, pdTile},
					nds.ScanQuery{Pred: nds.Predicate{Lo: 0, Hi: sel.hi}})
				if err != nil {
					fatalf("pushdown scan: %v", err)
				}
				readRaw += rst.RawBytes
				scanRaw += sst.RawBytes
				readSim += rst.Elapsed.Nanoseconds()
				scanSim += sst.Elapsed.Nanoseconds()
				matches += res.Total
			}
			fmt.Printf("%-8s %11s %14d %14d %8.1fx %10.0fus %10.0fus\n",
				mode, sel.label, readRaw, scanRaw,
				float64(readRaw)/float64(scanRaw),
				float64(readSim)/1e3, float64(scanSim)/1e3)
			v.Close()
			d.Close()
		}
	}
	fmt.Println("\nsavings = interconnect bytes a read-then-filter moves / bytes the pushdown moves")
	fmt.Println("hardware NDS trades slower controller compute for the link; software NDS cannot save link bytes")
}
