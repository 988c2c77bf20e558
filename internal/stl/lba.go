package stl

import (
	"cmp"
	"fmt"
	"slices"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// LBA is the baseline SSD's block device: the conventional linear address
// space NDS is compared against throughout the paper, a page-level map from
// logical pages to flash pages with conventional striping. It is a second
// owner of an STL's dies: allocation, inline collection, program-fault
// relocation, block retirement and frame discards are the STL's own, and the
// LBA keeps only its map. Its pages are space 0 of the STL's reverse table
// (spaces are numbered from 1), whose block field is the logical page, so the
// collector finds a survivor's slot the way it finds a building block's
// (slotAt).
//
// An LBA serves one request at a time: its caller serializes WritePages and
// Read, as the system model does.
type LBA struct {
	t     *STL       // the STL it owns, with no space of its own
	slots []pageSlot // logical page -> its unit, zero while unwritten

	// WritePages' program queue, kept between calls.
	q programQueue
	// Read's batch, kept between calls: the mapped pages' words, their
	// positions in the request, and what the device returned.
	words []nvm.Word
	pos   []int64
	data  [][]byte
}

// NewLBA builds a block device over dev. Of cfg it takes the over-provision
// fraction, which hides that share of the raw capacity from the host, and
// the collection low mark; every other field is the NDS data path's.
func NewLBA(dev *nvm.Device, cfg Config) (*LBA, error) {
	t, err := New(dev, Config{OverProvision: cfg.OverProvision, GCLowWater: cfg.GCLowWater})
	if err != nil {
		return nil, err
	}
	l := &LBA{t: t, slots: make([]pageSlot, t.maxPages)}
	l.q.plan.ops, l.q.plan.owner = &l.q.ops, l
	t.lba = l
	return l, nil
}

// Close gives back at once the memory of the STL the block device owns, and
// so of its device (STL.Close). A closed LBA must not be used; a second Close
// does nothing.
func (l *LBA) Close() error { return l.t.Close() }

// slotAt is the slot that reverse entry e names: logical page e.block of the
// LBA for space 0, page e.page of building block e.block of space e.space
// otherwise. It is nil if e's space is gone or its block was never written.
// gcrd is grid-coordinate scratch, returned grown for reuse.
func (t *STL) slotAt(e revEntry, gcrd []int64) (*pageSlot, []int64) {
	if e.space == 0 {
		return &t.lba.slots[e.block], gcrd
	}
	s, ok := t.spaces[e.space]
	if !ok {
		return nil, gcrd
	}
	gcrd = growInt64(gcrd, len(s.grid))
	s.GridCoord(int64(e.block), gcrd)
	if blk, _ := t.block(s, gcrd, false); blk != nil {
		return &blk.pages[e.page], gcrd
	}
	return nil, gcrd
}

// WritePages writes len(data)/PageSize logical pages starting at lpn; when
// data is nil (a phantom device) it writes n pages that hold nothing. Every
// page goes to the die its logical page stripes to: consecutive pages to
// consecutive channels, so a sequential read engages them all, the bank
// moving on after every sweep of the channels. A fresh page's unit is planned
// there if the die can supply it without collecting, and carved with the rest
// of its die's when the batch lands; any other page carves the plan and takes
// its unit at once (unitPlan). The pages are issued at time at and their
// programs land as one batch, which drains early only before a collection
// (the flush hook takeUnit is handed), so the device books them as it would
// one page at a time. It returns the slowest page's completion.
func (l *LBA) WritePages(at sim.Time, lpn int64, data []byte, n int64) (sim.Time, error) {
	t := l.t
	ps := int64(t.geo.PageSize)
	if data != nil {
		if int64(len(data))%ps != 0 {
			return at, fmt.Errorf("stl: write of %d bytes is not page-aligned (page=%d): %w", len(data), ps, ErrInvalid)
		}
		n = int64(len(data)) / ps
	}
	if lpn < 0 || n < 0 || lpn+n > int64(len(l.slots)) {
		return at, fmt.Errorf("stl: write [%d,%d) beyond logical capacity %d pages: %w", lpn, lpn+n, len(l.slots), ErrBounds)
	}
	done := at
	var stats RequestStats // the LBA keeps no per-request record
	q := &l.q
	flush := func() error { return t.flushPrograms(q, &done, &stats) }
	channels, banks := int64(t.geo.Channels), int64(t.geo.Banks)
	q.ops = slices.Grow(q.ops, int(n))
	q.plan.reserve(int(n), len(t.dies))
	for i := int64(0); i < n; i++ {
		page := lpn + i
		slot, e := &l.slots[page], revEntry{block: uint32(page)}
		old, replacing := t.takeSlot(slot)
		if !replacing {
			if err := t.budget(q.plan.pending() + 1); err != nil {
				return at, cmp.Or(flush(), err) // what is queued lands first
			}
		}
		ch, bk := int(page%channels), int((page/channels)%banks)
		unit, ready := noUnit, at
		if replacing || !t.planUnit(&q.plan, ch, bk, uint32(page)) {
			err := t.carvePlan(&q.plan)
			if err == nil {
				unit, ready, err = t.takeUnit(at, ch, bk, defaultStream, flush)
			}
			if err != nil {
				if replacing {
					t.restoreUnit(e, slot, old.w)
				}
				return at, cmp.Or(flush(), err)
			}
		}
		op := nvm.ProgramOp{At: ready, P: unit}
		if data != nil {
			op.Data = data[i*ps : (i+1)*ps]
		}
		q.ops = append(q.ops, op)
		if replacing {
			old.after = int32(len(q.ops))
			q.dead = append(q.dead, old)
		}
		if unit != noUnit {
			t.bind(slot, e, unit)
		}
		t.progs.Add(1)
	}
	if err := flush(); err != nil {
		return at, err
	}
	return done, nil
}

// page resolves a planned unit's page: logical page ref.
func (l *LBA) page(ref uint32) (*pageSlot, revEntry) {
	return &l.slots[ref], revEntry{block: ref}
}

// fillPending has nothing to fill: the LBA's ops carry the caller's pages.
func (l *LBA) fillPending(int64) {}

// Read reads n bytes from byte offset off, issuing every mapped page it
// touches at time at as one batch (the controller fans the request out to
// the channels). It returns the bytes (nil on a phantom device) and the
// slowest page's completion. An unwritten page reads as zeros and costs no
// device work.
func (l *LBA) Read(at sim.Time, off, n int64) ([]byte, sim.Time, error) {
	t := l.t
	ps := int64(t.geo.PageSize)
	first, last := off/ps, (off+n+ps-1)/ps
	if off < 0 || n < 0 || last > int64(len(l.slots)) {
		return nil, at, fmt.Errorf("stl: read [%d,%d) beyond logical capacity %d pages: %w", first, last, len(l.slots), ErrBounds)
	}
	words, pos := l.words[:0], l.pos[:0]
	for i := first; i < last; i++ {
		if s := l.slots[i].load(); s.allocated() {
			words = append(words, s.word())
			pos = append(pos, i-first)
		}
	}
	for len(l.data) < len(words) {
		l.data = append(l.data, nil)
	}
	l.words, l.pos = words, pos
	done, err := t.dev.ReadWords(at, words, l.data)
	if err != nil {
		return nil, at, err
	}
	if t.dev.Phantom() {
		return nil, done, nil
	}
	buf := make([]byte, (last-first)*ps)
	for k, i := range pos {
		copy(buf[i*ps:], l.data[k])
		l.data[k] = nil
	}
	start := off - first*ps
	return buf[start : start+n], done, nil
}

// GCReport returns a snapshot of the collector's counters on the LBA's dies.
func (l *LBA) GCReport() GCReport { return l.t.GCReport() }

// Reliability reports the device's fault counters and the recovery and
// retirement state of the LBA's dies.
func (l *LBA) Reliability() ReliabilityReport { return l.t.Reliability() }
