package nds

import (
	"errors"
	"math"

	"nds/internal/proto"
	"nds/internal/stl"
)

// Exec processes one raw extended-NVMe submission entry (§5.3.1): the
// command-level interface beneath the typed API, used by hosts that speak
// the wire format directly. payload is the 4 KB page the command's second
// word points at (coordinates for read/write, dimensionality for
// open_space); data is the write payload for nds_write.
//
// The returned bytes are the read payload (nil for non-reads and phantom
// devices). Errors in command handling surface as completion statuses, not
// Go errors; only a malformed entry returns an error.
//
// Exec is safe for concurrent use: commands from multiple submission queues
// are translated and scheduled concurrently, exactly like the typed API (see
// the package comment's Concurrency section).
//
// Buffer contract: Exec does not retain payload or data after it returns —
// the coordinate page is decoded by value and write data is copied (staged,
// transformed or programmed) before the command completes — so the caller
// may overwrite or recycle both at once. The network server's pooled request
// frames depend on this.
func (d *Device) Exec(raw [proto.CommandSize]byte, payload, data []byte) ([]byte, proto.Completion, Stats, error) {
	cmd, err := proto.Unmarshal(raw)
	if err != nil {
		// A well-formed extended entry with an opcode this device lacks is
		// "unsupported command", not "malformed field": hosts probing for
		// newer commands need to tell the two apart.
		if errors.Is(err, proto.ErrUnknownOpcode) {
			return nil, proto.Completion{Status: proto.StatusUnsupportedOp}, Stats{}, err
		}
		return nil, proto.Completion{Status: proto.StatusInvalidField}, Stats{}, err
	}
	switch cmd.Opcode() {
	case proto.OpOpenSpace:
		sp, err := proto.UnmarshalSpacePayload(payload)
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInvalidField}, Stats{}, nil
		}
		var id SpaceID
		var view *Space
		if cmd.CreateFlag() {
			if sp.ElemSize == 0 {
				// 0 is "unspecified" — meaningful only against an existing
				// space's element size; creation needs a concrete one.
				return nil, proto.Completion{Status: proto.StatusInvalidField}, Stats{}, nil
			}
			id, view, err = d.execCreateSpace(sp.ElemSize, sp.Dims, d.OpenSpace)
		} else {
			id = SpaceID(cmd.Target())
			// A nonzero payload element size must match the space being
			// opened: a host that believes the elements are a different
			// width would compute wrong offsets on every access. 0 opts out
			// for hosts that only reshape (backward compatible: older
			// clients always sent the real size or nothing meaningful).
			if sp.ElemSize != 0 {
				info, err := d.Inspect(id)
				if err != nil {
					return nil, completionFor(err), Stats{}, nil
				}
				if info.ElemSize != sp.ElemSize {
					return nil, proto.Completion{Status: proto.StatusInvalidField}, Stats{}, nil
				}
			}
			view, err = d.OpenSpace(id, sp.Dims)
		}
		if err != nil {
			return nil, completionFor(err), Stats{}, nil
		}
		return nil, proto.Completion{Status: proto.StatusOK, Result0: uint64(id), Result1: uint64(view.WireID())}, Stats{}, nil

	case proto.OpCloseSpace:
		view, ok := d.lookupView(cmd.Target())
		if !ok {
			return nil, proto.Completion{Status: proto.StatusUnknownView}, Stats{}, nil
		}
		if err := view.Close(); err != nil {
			return nil, completionFor(err), Stats{}, nil
		}
		return nil, proto.Completion{Status: proto.StatusOK}, Stats{}, nil

	case proto.OpDeleteSpace:
		if err := d.DeleteSpace(SpaceID(cmd.Target())); err != nil {
			return nil, completionFor(err), Stats{}, nil
		}
		return nil, proto.Completion{Status: proto.StatusOK}, Stats{}, nil

	case proto.OpRead, proto.OpWrite:
		var pl proto.Coords
		view, status := d.coordCommand(cmd, payload, &pl)
		if status != proto.StatusOK {
			return nil, proto.Completion{Status: status}, Stats{}, nil
		}
		if cmd.Opcode() == proto.OpRead {
			out, st, err := view.Read(pl.Coord(), pl.Sub())
			if err != nil {
				return nil, completionFor(err), Stats{}, nil
			}
			return out, proto.Completion{Status: proto.StatusOK, Result0: uint64(st.Bytes)}, st, nil
		}
		st, err := view.Write(pl.Coord(), pl.Sub(), data)
		if err != nil {
			return nil, completionFor(err), Stats{}, nil
		}
		return nil, proto.Completion{Status: proto.StatusOK, Result0: uint64(st.Bytes)}, st, nil

	case proto.OpScan:
		// A pushdown-disabled device answers like a drive without the
		// capability — before decoding, exactly as real firmware rejects an
		// unimplemented opcode without parsing its payload.
		if d.noPushdown {
			return nil, proto.Completion{Status: proto.StatusUnsupportedOp}, Stats{}, nil
		}
		view, ok := d.lookupView(cmd.Target())
		if !ok {
			return nil, proto.Completion{Status: proto.StatusUnknownView}, Stats{}, nil
		}
		pl, err := proto.UnmarshalScanPayload(payload)
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInvalidField}, Stats{}, nil
		}
		// The result page bounds a wire scan: max 0 means "fill the page",
		// and anything larger is clamped to what the page can carry in the
		// partition's layout. Hosts resume past a truncated page with the
		// returned cursor.
		layout := view.resultLayout(pl.Sub, pl.Lo, pl.Hi)
		max := int(pl.Max)
		if capacity := layout.Capacity(proto.OpScan); max <= 0 || max > capacity {
			max = capacity
		}
		res, st, err := view.Scan(pl.Coord, pl.Sub, ScanQuery{
			Pred:   Predicate{Lo: pl.Lo, Hi: pl.Hi},
			Cursor: pl.Cursor,
			Max:    max,
		})
		if err != nil {
			return nil, completionFor(err), Stats{}, nil
		}
		rp := proto.ScanResultPayload{Total: res.Total, NextCursor: res.NextCursor}
		rp.Matches = make([]proto.ScanMatch, 0, len(res.Matches))
		for _, m := range res.Matches {
			rp.Matches = append(rp.Matches, proto.ScanMatch{Index: m.Index, Value: m.Value})
		}
		page, err := rp.Marshal(layout)
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInternal}, Stats{}, nil
		}
		next := proto.ScanCursorNone
		if res.NextCursor >= 0 {
			next = uint64(res.NextCursor)
		}
		return page, proto.Completion{Status: proto.StatusOK, Result0: uint64(res.Total), Result1: next}, st, nil

	case proto.OpReduce:
		if d.noPushdown {
			return nil, proto.Completion{Status: proto.StatusUnsupportedOp}, Stats{}, nil
		}
		view, ok := d.lookupView(cmd.Target())
		if !ok {
			return nil, proto.Completion{Status: proto.StatusUnknownView}, Stats{}, nil
		}
		pl, err := proto.UnmarshalReducePayload(payload)
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInvalidField}, Stats{}, nil
		}
		q := ReduceQuery{Kind: ReduceKind(pl.Op), K: int(pl.K)}
		if pl.HasPred {
			q.Pred = &Predicate{Lo: pl.Lo, Hi: pl.Hi}
		}
		res, st, err := view.Reduce(pl.Coord, pl.Sub, q)
		if err != nil {
			return nil, completionFor(err), Stats{}, nil
		}
		rp := proto.ReduceResultPayload{Value: res.Value, Index: res.Index, Count: res.Count}
		rp.TopK = make([]proto.ScanMatch, 0, len(res.TopK))
		for _, m := range res.TopK {
			rp.TopK = append(rp.TopK, proto.ScanMatch{Index: m.Index, Value: m.Value})
		}
		lo, hi := pl.ValueRange()
		page, err := rp.Marshal(view.resultLayout(pl.Sub, lo, hi))
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInternal}, Stats{}, nil
		}
		return page, proto.Completion{Status: proto.StatusOK, Result0: res.Value, Result1: uint64(res.Count)}, st, nil

	case proto.OpReliability:
		r := d.Reliability()
		page, err := proto.ReliabilityPayload(r).Marshal()
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInternal}, Stats{}, nil
		}
		return page, proto.Completion{Status: proto.StatusOK, Result0: uint64(r.RetiredBlocks)}, Stats{}, nil

	case proto.OpCacheStats:
		c := d.CacheStats()
		page, err := proto.CacheStatsPayload(c).Marshal()
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInternal}, Stats{}, nil
		}
		return page, proto.Completion{Status: proto.StatusOK, Result0: uint64(c.Hits)}, Stats{}, nil
	case proto.OpTenantStats:
		ts := d.TenantStats()
		p := proto.TenantStatsPayload{Total: int64(len(ts))}
		for _, t := range ts {
			if len(p.Entries) == proto.MaxTenantStatsEntries {
				break // page full; Result0 still reports the true total
			}
			e := proto.TenantStatsEntry{
				Tenant:      uint64(t.Space),
				WeightMilli: int64(math.Round(t.Weight * 1000)),
				Ops:         t.Ops,
				Bytes:       t.Bytes,
				SimBusyNs:   int64(t.SimBusy),
				QueueWaitNs: int64(t.QueueWait),
				ThrottleNs:  int64(t.Throttle),
			}
			if t.IsGroup {
				e.Tenant = proto.TenantGroupBit | uint64(t.Group)
			}
			p.Entries = append(p.Entries, e)
		}
		page, err := p.Marshal()
		if err != nil {
			return nil, proto.Completion{Status: proto.StatusInternal}, Stats{}, nil
		}
		return page, proto.Completion{Status: proto.StatusOK, Result0: uint64(len(ts))}, Stats{}, nil
	}
	// Unreachable while Unmarshal rejects unknown opcodes, but kept so a
	// future opcode added to proto without a handler here still answers
	// honestly instead of claiming a field was malformed.
	return nil, proto.Completion{Status: proto.StatusUnsupportedOp}, Stats{}, nil
}

// ExecRead processes one raw nds_read submission entry, delivering the
// payload through fn as ordered source segments instead of an assembled
// buffer — the zero-copy path beneath the network server's gather writer.
// fn's contract is Space.ReadSegments': the segments are valid only for the
// call, and on a phantom device fn receives (want, nil). fn runs only when
// the command decodes and executes successfully, so a non-OK completion
// means fn never ran; an error fn returns aborts the request and comes back
// in the error return (with an internal-status completion), letting the
// caller tell its own gather failures apart from device statuses. Entries
// with any opcode other than nds_read complete with StatusUnsupportedOp.
// Like Exec, ExecRead does not retain payload after it returns.
func (d *Device) ExecRead(raw [proto.CommandSize]byte, payload []byte, fn func(want int64, segs []Segment) error) (proto.Completion, Stats, error) {
	cmd, err := proto.Unmarshal(raw)
	if err != nil {
		if errors.Is(err, proto.ErrUnknownOpcode) {
			return proto.Completion{Status: proto.StatusUnsupportedOp}, Stats{}, err
		}
		return proto.Completion{Status: proto.StatusInvalidField}, Stats{}, err
	}
	if cmd.Opcode() != proto.OpRead {
		return proto.Completion{Status: proto.StatusUnsupportedOp}, Stats{}, nil
	}
	var pl proto.Coords
	view, status := d.coordCommand(cmd, payload, &pl)
	if status != proto.StatusOK {
		return proto.Completion{Status: status}, Stats{}, nil
	}
	st, err := view.ReadSegments(pl.Coord(), pl.Sub(), fn)
	if err != nil {
		return completionFor(err), Stats{}, err
	}
	return proto.Completion{Status: proto.StatusOK, Result0: uint64(st.Bytes)}, st, nil
}

// coordCommand is the decode-and-lookup of a command addressed by partition
// coordinates (nds_read through Exec or ExecRead, nds_write): the view the
// entry targets, with its coordinate page decoded into the caller's pl, or
// the status that rejects the entry — an unknown view before a malformed
// page.
func (d *Device) coordCommand(cmd proto.Command, payload []byte, pl *proto.Coords) (*Space, proto.Status) {
	view, ok := d.lookupView(cmd.Target())
	if !ok {
		return nil, proto.StatusUnknownView
	}
	if pl.Unmarshal(payload) != nil {
		return nil, proto.StatusInvalidField
	}
	return view, proto.StatusOK
}

// execCreateSpace handles open_space with the create flag: create, then open
// the producer view. If the open fails the just-created space is deleted, so
// a failed command never leaks an unreachable space. The open step is
// injectable so tests can force the failure path.
func (d *Device) execCreateSpace(elemSize int, dims []int64, open func(SpaceID, []int64) (*Space, error)) (SpaceID, *Space, error) {
	id, err := d.CreateSpace(elemSize, dims)
	if err != nil {
		return 0, nil, err
	}
	view, err := open(id, dims)
	if err != nil {
		_ = d.DeleteSpace(id)
		return 0, nil, err
	}
	return id, view, nil
}

// resultLayout is the record layout of the view's pushdown results over a
// partition of sub's shape matching values in [lo, hi]. A closed view
// reports element size 0, and the command that asked then fails on the
// closed view.
func (s *Space) resultLayout(sub []int64, lo, hi uint64) proto.Layout {
	s.mu.Lock()
	defer s.mu.Unlock()
	es := 0
	if s.view != nil {
		es = s.view.Space().ElemSize()
	}
	return proto.LayoutFor(es, sub, lo, hi)
}

// lookupView resolves a dynamic view ID from the registry.
func (d *Device) lookupView(id uint32) (*Space, bool) {
	d.viewMu.RLock()
	defer d.viewMu.RUnlock()
	s, ok := d.views[id]
	return s, ok
}

// completionFor maps library errors onto wire statuses via the typed
// sentinels wrapped at each error's origin.
func completionFor(err error) proto.Completion {
	switch {
	case errors.Is(err, stl.ErrUnknownSpace):
		return proto.Completion{Status: proto.StatusUnknownSpace}
	case errors.Is(err, ErrClosedView):
		return proto.Completion{Status: proto.StatusUnknownView}
	case errors.Is(err, stl.ErrCapacity):
		return proto.Completion{Status: proto.StatusCapacity}
	case errors.Is(err, stl.ErrMedia):
		return proto.Completion{Status: proto.StatusMediaError}
	case errors.Is(err, stl.ErrBounds), errors.Is(err, stl.ErrInvalid):
		return proto.Completion{Status: proto.StatusInvalidField}
	case errors.Is(err, ErrPushdownDisabled):
		return proto.Completion{Status: proto.StatusUnsupportedOp}
	default:
		return proto.Completion{Status: proto.StatusInternal}
	}
}
