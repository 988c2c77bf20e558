package nvm

import (
	"fmt"
	"math/bits"
)

// Word is a physical page address packed into 32 bits: from the low end, the
// page within its block, the block within its die, the bank and the channel,
// each field only as wide as the geometry needs (Layout). It is the address the
// translation layers keep per page — a B-tree leaf slot, a slot of the
// baseline's logical page map — and the one the read batch runs on, at a tenth
// of a PPA's 32 bytes. Field extraction is shifts and masks; a dense index
// (die, in-die page, Linear) is a multiply-add over the fields, so nothing on a
// per-page path divides.
//
// A PPA stays the address at the device's edges — ProgramOp, EraseBlock, fault
// reports and diagnostics — where a caller names a page by its coordinates.
type Word uint32

// Layout is the packing of one geometry's page words. Build it with NewLayout
// (a Device carries its own: Device.Layout); its zero value packs nothing.
type Layout struct {
	channels, banks, blocks, pages int
	pagesPerDie                    int64

	blockShift, bankShift, chShift uint8
	pageMask, blockMask, bankMask  Word
}

// fieldBits is how many bits a field of n values takes (none for one value).
func fieldBits(n int) uint8 { return uint8(bits.Len(uint(n - 1))) }

// NewLayout packs g's page addresses into words. It refuses a geometry whose
// four fields take more than 32 bits, and one with 2³² pages, whose last page
// would be the all-ones word: word+1 — the page slot's encoding, with 0 for
// "none" — must not wrap.
func NewLayout(g Geometry) (Layout, error) {
	if err := g.Validate(); err != nil {
		return Layout{}, err
	}
	pb, bb, kb, cb := fieldBits(g.PagesPerBlock), fieldBits(g.BlocksPerBank), fieldBits(g.Banks), fieldBits(g.Channels)
	if n := int(pb) + int(bb) + int(kb) + int(cb); n > 32 || g.TotalPages() >= 1<<32 {
		return Layout{}, fmt.Errorf("nvm: geometry %v needs %d bits per page address; a page word holds 32 and keeps one value spare", g, n)
	}
	return Layout{
		channels:    g.Channels,
		banks:       g.Banks,
		blocks:      g.BlocksPerBank,
		pages:       g.PagesPerBlock,
		pagesPerDie: g.PagesPerBank(),
		blockShift:  pb,
		bankShift:   pb + bb,
		chShift:     pb + bb + kb,
		pageMask:    1<<pb - 1,
		blockMask:   1<<bb - 1,
		bankMask:    1<<kb - 1,
	}, nil
}

// field extracts the bits of w above shift, under mask. A shift of 32 (the
// fields below fill the word) yields 0; the 64-bit shift, masked to its
// width, compiles to one instruction.
func field(w Word, shift uint8, mask Word) int {
	return int(Word(uint64(w)>>(shift&63)) & mask)
}

// Word packs p, which must be valid for the layout's geometry (PPA.Valid).
func (l *Layout) Word(p PPA) Word {
	return Word(p.Channel)<<l.chShift | Word(p.Bank)<<l.bankShift | Word(p.Block)<<l.blockShift | Word(p.Page)
}

// Channel, Bank, Block and Page extract w's fields.
func (l *Layout) Channel(w Word) int { return int(uint64(w) >> (l.chShift & 63)) }
func (l *Layout) Bank(w Word) int    { return field(w, l.bankShift, l.bankMask) }
func (l *Layout) Block(w Word) int   { return field(w, l.blockShift, l.blockMask) }
func (l *Layout) Page(w Word) int    { return int(w & l.pageMask) }

// Valid reports whether every field of w is in range.
func (l *Layout) Valid(w Word) bool {
	return l.Channel(w) < l.channels && l.Bank(w) < l.banks && l.Block(w) < l.blocks && l.Page(w) < l.pages
}

// PPA unpacks w.
func (l *Layout) PPA(w Word) PPA {
	return PPA{Channel: l.Channel(w), Bank: l.Bank(w), Block: l.Block(w), Page: l.Page(w)}
}

// Die is w's dense die index, channel*Banks + bank: the index of the device's
// per-die shards and bank timelines.
func (l *Layout) Die(w Word) int { return l.Channel(w)*l.banks + l.Bank(w) }

// DieIndex is w's page index within its die, block*PagesPerBlock + page.
func (l *Layout) DieIndex(w Word) int64 {
	return int64(l.Block(w))*int64(l.pages) + int64(l.Page(w))
}

// Linear is w's dense index in [0, TotalPages()): PPA.Linear of the address it
// packs, and the index of every dense per-page table.
func (l *Layout) Linear(w Word) int64 { return int64(l.Die(w))*l.pagesPerDie + l.DieIndex(w) }
