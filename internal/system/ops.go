package system

import (
	"fmt"

	"nds/internal/sim"
	"nds/internal/stl"
)

// Run is one contiguous byte range in the baseline SSD's linear space.
type Run struct {
	Off int64
	Len int64
}

// BaselineRead issues one I/O command per run through the conventional
// stack: host submission (CPU), command handling and address lookup in the
// controller, FTL page reads, link transfer, and — when marshal is true —
// a host-side copy placing each arrived run into the destination object
// (problem [P1]). qd is the application's I/O queue depth: run i+qd is
// submitted only after run i completes (qd=1 is a synchronous read loop,
// qd<=0 is unlimited async). Every shared resource serializes naturally, so
// throughput is set by the bottleneck stage.
//
// The returned buffer concatenates the runs in order (nil on phantom
// devices).
func (s *System) BaselineRead(at sim.Time, runs []Run, marshal bool, qd int) ([]byte, OpStats, error) {
	if s.Kind != Baseline {
		return nil, OpStats{}, fmt.Errorf("system: BaselineRead on %v system", s.Kind)
	}
	var stats OpStats
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
	done := at
	for i, r := range runs {
		issue := at
		if qd > 0 && i >= qd {
			issue = sim.Max(issue, window[i-qd])
		}
		_, subEnd := s.Host.SubmitIO(issue)
		_, cmdEnd := s.Ctrl.HandleCommand(subEnd)
		_, lkEnd := s.Ctrl.Lookup(cmdEnd)
		data, devDone, err := s.FTL.Read(lkEnd, r.Off, r.Len)
		if err != nil {
			return nil, stats, err
		}
		ps := s.pageSize()
		stats.Pages += (r.Off%ps + r.Len + ps - 1) / ps
		_, linkEnd := s.Link.Transfer(lkEnd, r.Len)
		arrive := sim.Max(devDone, linkEnd)
		if marshal {
			_, mEnd := s.Host.Marshal(arrive, r.Len, 1)
			arrive = mEnd
		}
		if buf != nil {
			buf = append(buf, data...)
		}
		if qd > 0 {
			window = append(window, arrive)
		}
		done = sim.Max(done, arrive)
		stats.Commands++
		stats.Bytes += r.Len
		stats.RawBytes += r.Len
	}
	stats.Extents = len(runs)
	stats.Done = done
	return buf, stats, nil
}

// BaselineWrite writes runs synchronously (the paper's Figure 9(d) disables
// asynchronous writes): each run's data crosses the link, is programmed
// through the FTL, and the next run is issued only after completion. data,
// when non-nil, concatenates the runs' payloads; offsets and lengths must be
// page-aligned.
func (s *System) BaselineWrite(at sim.Time, runs []Run, data []byte) (OpStats, error) {
	if s.Kind != Baseline {
		return OpStats{}, fmt.Errorf("system: BaselineWrite on %v system", s.Kind)
	}
	var stats OpStats
	ps := s.pageSize()
	var pos int64
	now := at
	for _, r := range runs {
		if r.Off%ps != 0 || r.Len%ps != 0 {
			return stats, fmt.Errorf("system: baseline write run [%d,%d) not page-aligned", r.Off, r.Off+r.Len)
		}
		_, subEnd := s.Host.SubmitIO(now)
		_, linkEnd := s.Link.Transfer(subEnd, r.Len)
		_, cmdEnd := s.Ctrl.HandleCommand(subEnd)
		_, lkEnd := s.Ctrl.Lookup(cmdEnd)
		start := sim.Max(linkEnd, lkEnd)
		var payload []byte
		if data != nil {
			payload = data[pos : pos+r.Len]
		}
		devDone, err := s.FTL.WritePages(start, r.Off/ps, payload, r.Len/ps)
		if err != nil {
			return stats, err
		}
		now = devDone
		pos += r.Len
		stats.Commands++
		stats.Bytes += r.Len
		stats.RawBytes += r.Len
		stats.Pages += r.Len / ps
	}
	stats.Done = now
	return stats, nil
}

// prologue gets a command's coordinates to wherever the STL runs and
// translates them there: submit then translate on the host (software NDS,
// Figure 7b), or submit, the command and its coordinate/query page over the
// link, command handling and translation in the controller (hardware NDS,
// Figure 7c). It returns when the submission and the translation end; op
// names the command in the wrong-Kind error, before anything is booked.
func (s *System) prologue(at sim.Time, op string) (subEnd, trEnd sim.Time, err error) {
	switch s.Kind {
	case SoftwareNDS:
		_, subEnd = s.Host.SubmitIO(at)
		_, trEnd = s.Host.Translate(subEnd)
	case HardwareNDS:
		_, subEnd = s.Host.SubmitIO(at)
		_, cmdXfer := s.Link.Transfer(subEnd, s.pageSize())
		_, cmdEnd := s.Ctrl.HandleCommand(cmdXfer)
		_, trEnd = s.Ctrl.Translate(cmdEnd)
	default:
		return 0, 0, fmt.Errorf("system: %s on %v system", op, s.Kind)
	}
	return subEnd, trEnd, nil
}

// consumer is the stage of a read-shaped command that eats the pages the STL
// fetched.
type consumer int

const (
	// assemble gathers the extents into the object (§4.4's data assembler);
	// the object is what a hardware device puts on the link.
	assemble consumer = iota
	// kernel runs a pushdown operator over the pages at scan rate; only its
	// result leaves a hardware device.
	kernel
)

// ndsRead is the read stage model of Figure 7b/7c, which every read-shaped
// NDS command — read, segment read, scan, reduce, select — is a caller of:
// the prologue that gets the coordinates to wherever the STL runs, the STL
// read itself, the consumer stage, and the link transfer. op names the
// command in the wrong-Kind error. read runs the STL half at the time
// translation ends and reports, besides the STL's completion time and
// statistics, the bytes a device-side consumer sends back (the assembled
// object, or a kernel's result).
//
// Software NDS (Figure 7b): the host submits, translates on its own CPU
// (§7.3: 41 us), every raw page crosses the link whatever the consumer, and
// the host assembles the object from per-extent copies — the 2 KB-chunk cost
// §7.1 identifies — or filters at host-scan rate.
//
// Hardware NDS (Figure 7c): one extended NVMe command carries the coordinates
// (and query); the controller translates and dispatches, the data assembler
// gathers extents in device DRAM — or the ARM core runs the kernel — and only
// the consumer's output crosses the link. Device reads, the consumer, and the
// link stream concurrently.
func (s *System) ndsRead(at sim.Time, op string, c consumer, read func(at sim.Time) (sim.Time, OpStats, int64, error)) (OpStats, error) {
	_, trEnd, err := s.prologue(at, op)
	if err != nil {
		return OpStats{}, err
	}
	done, st, out, err := read(trEnd)
	if err != nil {
		return OpStats{}, err
	}
	switch s.Kind {
	case SoftwareNDS:
		out = st.PagesRead * s.pageSize() // the consumer is on the host: raw pages cross
		_, linkEnd := s.Link.Transfer(trEnd, out)
		var cEnd sim.Time
		if c == assemble {
			_, cEnd = s.Host.Marshal(trEnd, st.Bytes, s.assemblyChunks(st))
		} else {
			_, cEnd = s.Host.Compute(trEnd, hostScanRate.Duration(st.Bytes, st.Bytes))
		}
		done = sim.Max(done, sim.Max(linkEnd, cEnd))
	case HardwareNDS:
		_, dpEnd := s.Ctrl.DispatchPages(trEnd, st.PagesRead)
		var cEnd sim.Time
		if c == assemble {
			_, cEnd = s.Ctrl.Assemble(trEnd, st.Bytes, s.assemblyChunks(st))
		} else {
			_, cEnd = s.Ctrl.Pushdown(trEnd, ctrlScanRate.Duration(st.Bytes, st.Bytes))
		}
		_, linkEnd := s.Link.Transfer(trEnd, out)
		done = sim.Max(sim.Max(done, dpEnd), sim.Max(cEnd, linkEnd))
	}
	// st.Bytes stays the payload read or scanned: what the tenant is charged.
	return complete(st, done, out), nil
}

// NDSRead reads one partition through an NDS configuration (ndsRead with the
// assembling consumer), returning it in a freshly allocated buffer.
func (s *System) NDSRead(at sim.Time, v *stl.View, coord, sub []int64) ([]byte, OpStats, error) {
	return s.NDSReadInto(at, v, coord, sub, nil)
}

// NDSReadInto is NDSRead assembling the partition into dst when dst has
// enough capacity (a fresh buffer is allocated otherwise). Streams reuse
// their assembly buffer across commands this way; the returned slice aliases
// dst, so the caller must consume it before issuing the next read with the
// same buffer.
func (s *System) NDSReadInto(at sim.Time, v *stl.View, coord, sub []int64, dst []byte) ([]byte, OpStats, error) {
	var data []byte
	stats, err := s.ndsRead(at, "NDSRead", assemble, func(at sim.Time) (done sim.Time, st OpStats, out int64, err error) {
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
	return s.ndsRead(at, "NDSReadSegments", assemble, func(at sim.Time) (sim.Time, OpStats, int64, error) {
		done, st, err := s.STL.ReadPartitionSegments(at, v, coord, sub, fn)
		return done, st, st.Bytes, err
	})
}

// NDSWrite writes one partition through an NDS configuration,
// synchronously (matching Figure 9(d)'s methodology).
func (s *System) NDSWrite(at sim.Time, v *stl.View, coord, sub []int64, data []byte) (OpStats, error) {
	// The scatter and the disassembly are sized by the extent count alone;
	// the list is WritePartition's to build.
	extents, elems, err := v.ExtentCount(coord, sub)
	if err != nil {
		return OpStats{}, err
	}
	bytes := elems * int64(v.Space().ElemSize())
	subEnd, trEnd, err := s.prologue(at, "NDSWrite")
	if err != nil {
		return OpStats{}, err
	}

	var start sim.Time // when the STL may begin programming
	if s.Kind == SoftwareNDS {
		// Host breaks the object into building-block pieces (the strided
		// scatter §7.1 blames for the 30% write loss)...
		_, scEnd := s.Host.Scatter(trEnd, bytes, extents)
		// ...then raw pages cross the link before programming starts.
		_, start = s.Link.Transfer(scEnd, bytes)
	} else {
		// Bulk data follows the command over the link in large pieces;
		// the controller's firmware-driven disassembly is the write-path
		// bottleneck behind the 17% loss of §7.1.
		_, linkEnd := s.Link.Transfer(subEnd, bytes)
		_, start = s.Ctrl.Disassemble(sim.Max(trEnd, linkEnd), bytes, extents)
	}
	done, st, err := s.STL.WritePartition(start, v, coord, sub, data)
	if err != nil {
		return OpStats{}, err
	}
	raw := bytes
	if s.Kind == SoftwareNDS {
		raw = st.PagesProgrammed * s.pageSize() // the open-channel host ships whole pages
	}
	return complete(st, done, raw), nil
}
