package stl

import (
	"time"

	"nds/internal/sim"
)

// RequestStats is the one record of a partition operation, handed up the
// stack of Figure 7b/7c by value: each layer fills in the fields it owns on
// the record the layer below returned, and nobody re-types it. system.OpStats
// and nds.Stats are aliases of it; DESIGN.md's "Records" table lists who
// writes what. A failed operation returns the zero record.
type RequestStats struct {
	// Written by the STL: the device work the access performed, which the host
	// and controller models consume to charge software and assembly costs.
	Extents         int   // building-block byte extents the translator produced
	Blocks          int   // distinct building blocks touched
	Traversals      int   // B-tree lookups performed
	PagesRead       int64 // device page reads (including read-modify-write)
	PagesProgrammed int64 // device page programs
	ProgramRetries  int64 // faulted programs relocated and retried (recover.go)
	Bytes           int64 // payload bytes moved for the application

	// Written by the system model (internal/system), which adds the host, link
	// and controller stages around the STL's work.
	Done     sim.Time // completion time, on the device clock (Device.Now)
	RawBytes int64    // bytes that crossed the host interconnect
	Pages    int64    // flash page operations: PagesRead + PagesProgrammed
	Commands int      // I/O commands the host issued

	// Written by package nds: Done minus the issue time of the command's
	// stream, the simulated service time of this operation alone.
	Elapsed time.Duration
}

// pageKey names page page of building block block of a space: a page a
// request reads or a staged page (Space.staged).
type pageKey struct {
	block int64
	page  int
}
