package system

import (
	"fmt"

	"nds/internal/sim"
	"nds/internal/stl"
)

// element is one of the system model's timelines: a serially occupied unit
// of Figure 7 that a command's stages queue on. Distinct elements run
// concurrently, which is the pipelining the paper's host and controller
// exploit (the host's I/O and restructuring stages run on different cores;
// the controller's elements are statically mapped to ARM cores, §5.3).
type element int

const (
	hostIO          element = iota // host I/O thread: submission, software translation
	hostWorker                     // host worker thread: marshal, assembly, scatter, scan
	link                           // the host interconnect, both directions
	cmdHandler                     // controller command handler
	translator                     // controller space translator (baseline: address lookup)
	assembler                      // data assembler: gather, disassembly, pushdown kernels
	channelHandlers                // channel-handler dispatch
	numElements
)

// stage names one booking of a command. command records each stage's end in
// a [numStages]sim.Time, zero for a stage the command's kind skips.
type stage int

const (
	submitted    stage = iota // host I/O thread: syscall, driver, completion
	cmdSent                   // link: a hardware command and its coordinate page
	handled                   // controller command handler
	translated                // the translator: host or controller; the baseline's lookup
	scattered                 // host worker: a software write's scatter
	sent                      // link: a write's payload
	disassembled              // assembler: a hardware write's disassembly
	deviceDone                // the STL, or the baseline's block device
	dispatched                // channel handlers: a hardware read's page fan-out
	consumed                  // whatever eats a read's pages (consumer)
	returned                  // link: what a read sends back
	numStages
)

// consumer is the stage of a read-shaped command that eats the pages the
// device read.
type consumer int

const (
	// deliver does nothing: a baseline run lands in the caller's buffer.
	deliver consumer = iota
	// hostCopy is the host marshalling an arrived baseline run into the
	// destination object (problem [P1]).
	hostCopy
	// assemble gathers the extents into the object (§4.4's data assembler);
	// the object is what a hardware device puts on the link.
	assemble
	// kernel runs a pushdown operator over the pages at scan rate; only its
	// result leaves a hardware device.
	kernel
)

// request is what command needs to know of a command besides its system's
// kind: whether a payload goes in before the device, and what eats what the
// device read.
type request struct {
	write  bool
	bytes  int64 // a write's payload
	chunks int   // the pieces the payload is scattered or disassembled into
	use    consumer
}

// device is a command's device half, run at the time it may start: the STL's
// work, or the baseline's block device's. Besides its completion time and
// record it reports the bytes a device-side consumer puts on the link (the
// assembled object, a kernel's result, a baseline run).
type device func(at sim.Time) (done sim.Time, st OpStats, out int64, err error)

// command books one command arriving at at on s's timelines and runs its
// device half: the four steps of Figure 7, which differ by Kind only in where
// each runs.
//
//   - Submit and translate. The host submits; the baseline controller handles
//     the command and looks the address up. Software NDS translates on the
//     host's I/O thread (§7.3: 41 us). Hardware NDS sends one extended NVMe
//     command carrying the coordinates (and query) over the link, and the
//     controller handles and translates it.
//   - A write's payload. The baseline and hardware NDS stream it over the link
//     behind the submission; the controller's firmware-driven disassembly is
//     the write-path bottleneck behind hardware NDS's 17% loss (§7.1). The
//     software host scatters it into building-block pieces first — the
//     strided scatter §7.1 blames for its 30% loss — and then sends it.
//   - The device, from when translation (and a write's payload) is done.
//   - A read's consumer and link. Software NDS moves every raw page over the
//     link, whatever the consumer, and the host assembles the object from
//     per-extent copies — the 2 KB-chunk cost §7.1 identifies — or filters at
//     host-scan rate. Hardware NDS dispatches the pages, gathers the extents
//     in device DRAM or runs the kernel on the ARM core, and sends only the
//     consumer's output. Both stream concurrently with the device reads. A
//     baseline run crosses the link and, when marshalled, is copied once it
//     has arrived.
//
// command returns the device's record with Done, RawBytes, Pages and
// Commands filled in. When the device fails it returns the zero record and
// the error, and leaves booked exactly the stages before the device.
func (s *System) command(at sim.Time, r request, dev device) (OpStats, error) {
	var end [numStages]sim.Time
	book := func(st stage, el element, from, d sim.Time) sim.Time {
		_, end[st] = s.res[el].Acquire(from, d)
		return end[st]
	}
	wire, ps := NVMeoF(), s.pageSize()

	book(submitted, hostIO, at, hostSubmit)
	switch s.Kind {
	case Baseline:
		book(handled, cmdHandler, end[submitted], ctrlCmdHandle)
		book(translated, translator, end[handled], ctrlAddrLookup)
	case SoftwareNDS:
		book(translated, hostIO, end[submitted], hostTraversal)
	case HardwareNDS:
		book(cmdSent, link, end[submitted], wire.Duration(ps))
		book(handled, cmdHandler, end[cmdSent], ctrlCmdHandle)
		book(translated, translator, end[handled], ctrlTranslate)
	}

	start := end[translated]
	if r.write {
		switch s.Kind {
		case Baseline:
			start = max(start, book(sent, link, end[submitted], wire.Duration(r.bytes)))
		case SoftwareNDS:
			book(scattered, hostWorker, end[translated], copyTime(r.bytes, r.chunks, hostScatterChunk, hostMemcpyBW))
			start = book(sent, link, end[scattered], wire.Duration(r.bytes))
		case HardwareNDS:
			book(sent, link, end[submitted], wire.Duration(r.bytes))
			start = book(disassembled, assembler, max(end[translated], end[sent]),
				copyTime(r.bytes, r.chunks, ctrlAssembleChunk, ctrlDisassembleBW))
		}
	}

	done, st, out, err := dev(start)
	if err != nil {
		return OpStats{}, err
	}
	end[deviceDone] = done
	st.Pages += st.PagesRead + st.PagesProgrammed // the baseline's device counts Pages itself
	// raw is what crosses the link; a software host moves it in whole pages.
	raw, pages := out, st.PagesRead
	if r.write {
		raw, pages = r.bytes, st.PagesProgrammed
	}
	if s.Kind == SoftwareNDS {
		raw = pages * ps
	}

	if !r.write {
		from := end[translated]
		book(returned, link, from, wire.Duration(raw))
		switch s.Kind {
		case Baseline:
			if r.use == hostCopy {
				book(consumed, hostWorker, max(done, end[returned]), HostMarshal(st.Bytes, 1))
			}
		case SoftwareNDS:
			d := HostMarshal(st.Bytes, s.assemblyChunks(st))
			if r.use == kernel {
				d = hostScanRate.Duration(st.Bytes, st.Bytes)
			}
			book(consumed, hostWorker, from, d)
		case HardwareNDS:
			book(dispatched, channelHandlers, from, sim.Time(st.PagesRead)*ctrlDispatch)
			d := copyTime(st.Bytes, s.assemblyChunks(st), ctrlAssembleChunk, ctrlAssembleBW)
			if r.use == kernel {
				d = ctrlScanRate.Duration(st.Bytes, st.Bytes)
			}
			book(consumed, assembler, from, d)
		}
	}

	// st.Bytes stays the payload read, written or scanned: what the tenant is
	// charged.
	st.Done = max(end[deviceDone], end[dispatched], end[consumed], end[returned])
	st.RawBytes, st.Commands = raw, 1
	return st, nil
}

// copyTime is the service time of moving n bytes in chunks discrete pieces
// at per a piece and bw bytes a second: the shape of every restructuring
// stage, host or controller, gather or scatter.
func copyTime(n int64, chunks int, per sim.Time, bw float64) sim.Time {
	return sim.Time(chunks)*per + sim.TransferTime(n, bw)
}

// wrongKind is the error of the entry point op called on a system of a kind
// it does not run on. It is returned before anything is booked.
func (s *System) wrongKind(op string) error {
	return fmt.Errorf("system: %s on %v system", op, s.Kind)
}

// merge folds the record of one run of a multi-run baseline command into the
// command's.
func merge(total *OpStats, st OpStats) {
	total.Done = max(total.Done, st.Done)
	total.Commands += st.Commands
	total.Bytes += st.Bytes
	total.RawBytes += st.RawBytes
	total.Pages += st.Pages
}

// Run is one contiguous byte range in the baseline SSD's linear space.
type Run struct {
	Off int64
	Len int64
}

// BaselineRead issues one I/O command per run through the conventional
// stack: host submission (CPU), command handling and address lookup in the
// controller, the block device's page reads, link transfer, and — when
// marshal is true — a host-side copy placing each arrived run into the
// destination object (problem [P1]). qd is the application's I/O queue depth:
// run i+qd is submitted only after run i completes (qd=1 is a synchronous
// read loop, qd<=0 is unlimited async). Every shared resource serializes
// naturally, so throughput is set by the bottleneck stage.
//
// The returned buffer concatenates the runs in order (nil on phantom
// devices).
func (s *System) BaselineRead(at sim.Time, runs []Run, marshal bool, qd int) ([]byte, OpStats, error) {
	if s.Kind != Baseline {
		return nil, OpStats{}, s.wrongKind("BaselineRead")
	}
	use := deliver
	if marshal {
		use = hostCopy
	}
	var total int64
	for _, r := range runs {
		total += r.Len
	}
	var buf []byte
	if !s.Dev.Phantom() {
		buf = make([]byte, 0, total)
	}
	var window []sim.Time
	if qd > 0 {
		window = make([]sim.Time, 0, len(runs))
	}
	ps := s.pageSize()
	stats := OpStats{Extents: len(runs), Done: at}
	for i, r := range runs {
		issue := at
		if qd > 0 && i >= qd {
			issue = max(issue, window[i-qd])
		}
		st, err := s.command(issue, request{use: use}, func(at sim.Time) (sim.Time, OpStats, int64, error) {
			data, done, err := s.FTL.Read(at, r.Off, r.Len)
			buf = append(buf, data...)
			return done, OpStats{Bytes: r.Len, Pages: (r.Off%ps + r.Len + ps - 1) / ps}, r.Len, err
		})
		if err != nil {
			return nil, OpStats{}, err
		}
		if qd > 0 {
			window = append(window, st.Done)
		}
		merge(&stats, st)
	}
	return buf, stats, nil
}

// BaselineWrite writes runs synchronously (the paper's Figure 9(d) disables
// asynchronous writes): each run's data crosses the link, is programmed
// through the block device, and the next run is issued only after
// completion. data, when non-nil, concatenates the runs' payloads; offsets
// and lengths must be page-aligned. Both are checked before anything is
// booked.
func (s *System) BaselineWrite(at sim.Time, runs []Run, data []byte) (OpStats, error) {
	if s.Kind != Baseline {
		return OpStats{}, s.wrongKind("BaselineWrite")
	}
	ps := s.pageSize()
	var total int64
	for _, r := range runs {
		if r.Off < 0 || r.Len < 0 || r.Off%ps != 0 || r.Len%ps != 0 {
			return OpStats{}, fmt.Errorf("system: baseline write run [%d,%d) not page-aligned", r.Off, r.Off+r.Len)
		}
		total += r.Len
	}
	if data != nil && int64(len(data)) != total {
		return OpStats{}, fmt.Errorf("system: baseline write of %d bytes of runs with %d bytes of data", total, len(data))
	}
	stats := OpStats{Done: at}
	for _, r := range runs {
		var payload []byte
		if data != nil {
			payload, data = data[:r.Len], data[r.Len:]
		}
		st, err := s.command(stats.Done, request{write: true, bytes: r.Len}, func(at sim.Time) (sim.Time, OpStats, int64, error) {
			done, err := s.FTL.WritePages(at, r.Off/ps, payload, r.Len/ps)
			return done, OpStats{Bytes: r.Len, Pages: r.Len / ps}, r.Len, err
		})
		if err != nil {
			return OpStats{}, err
		}
		merge(&stats, st)
	}
	return stats, nil
}

// NDSRead reads one partition through an NDS configuration, returning it in
// a freshly allocated buffer.
func (s *System) NDSRead(at sim.Time, v *stl.View, coord, sub []int64) ([]byte, OpStats, error) {
	return s.NDSReadInto(at, v, coord, sub, nil)
}

// NDSReadInto is NDSRead assembling the partition into dst when dst has
// enough capacity (a fresh buffer is allocated otherwise). Streams reuse
// their assembly buffer across commands this way; the returned slice aliases
// dst, so the caller must consume it before issuing the next read with the
// same buffer.
func (s *System) NDSReadInto(at sim.Time, v *stl.View, coord, sub []int64, dst []byte) ([]byte, OpStats, error) {
	if s.Kind == Baseline {
		return nil, OpStats{}, s.wrongKind("NDSRead")
	}
	var data []byte
	stats, err := s.command(at, request{use: assemble}, func(at sim.Time) (done sim.Time, st OpStats, out int64, err error) {
		data, done, st, err = s.STL.ReadPartitionInto(at, v, coord, sub, dst)
		return done, st, st.Bytes, err
	})
	return data, stats, err
}

// NDSReadSegments is NDSRead delivering the partition as ordered source
// segments instead of an assembled buffer: fn receives the payload size and
// the segment list (gaps are zeros) while the request still holds its locks,
// exactly as stl.ReadPartitionSegments documents. It is the same command as
// NDSReadInto with the gather left to the consumer (the ndsd completion
// writer gathers straight into its response frame), so simulated time and
// statistics cannot differ.
func (s *System) NDSReadSegments(at sim.Time, v *stl.View, coord, sub []int64, fn func(want int64, segs []stl.Segment) error) (OpStats, error) {
	if s.Kind == Baseline {
		return OpStats{}, s.wrongKind("NDSReadSegments")
	}
	return s.command(at, request{use: assemble}, func(at sim.Time) (sim.Time, OpStats, int64, error) {
		done, st, err := s.STL.ReadPartitionSegments(at, v, coord, sub, fn)
		return done, st, st.Bytes, err
	})
}

// NDSWrite writes one partition through an NDS configuration,
// synchronously (matching Figure 9(d)'s methodology).
func (s *System) NDSWrite(at sim.Time, v *stl.View, coord, sub []int64, data []byte) (OpStats, error) {
	if s.Kind == Baseline {
		return OpStats{}, s.wrongKind("NDSWrite")
	}
	// The scatter and the disassembly are sized by the extent count alone;
	// the list is WritePartition's to build.
	extents, elems, err := v.ExtentCount(coord, sub)
	if err != nil {
		return OpStats{}, err
	}
	bytes := elems * int64(v.Space().ElemSize())
	return s.command(at, request{write: true, bytes: bytes, chunks: extents}, func(at sim.Time) (sim.Time, OpStats, int64, error) {
		done, st, err := s.STL.WritePartition(at, v, coord, sub, data)
		return done, st, bytes, err
	})
}
