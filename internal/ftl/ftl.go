// Package ftl implements the baseline SSD's flash translation layer: a
// page-level LBA-to-physical mapping with channel striping for sequential
// LBAs, per-die log-structured write allocation, greedy garbage collection,
// and over-provisioning — the conventional linear-address device NDS is
// compared against throughout the paper.
package ftl

import (
	"fmt"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// Config holds FTL policy parameters.
type Config struct {
	// OverProvision is the fraction of raw capacity hidden from the host and
	// reserved for garbage collection (the paper's prototype reserves 10%).
	OverProvision float64
	// GCLowWater triggers collection on a die when its free-page fraction
	// falls below this threshold.
	GCLowWater float64
}

// DefaultConfig mirrors the paper's prototype: 10% OP, GC below 10% free.
func DefaultConfig() Config {
	return Config{OverProvision: 0.10, GCLowWater: 0.10}
}

// die tracks per-(channel,bank) allocation state.
type die struct {
	freeBlocks  []int // erased blocks ready for allocation
	activeBlock int   // block currently receiving writes, -1 if none
	nextPage    int   // next free page in activeBlock
	freePages   int64 // erased-and-unwritten pages in the die
}

// FTL is the baseline translation layer over an nvm.Device.
type FTL struct {
	dev *nvm.Device
	geo nvm.Geometry
	lay nvm.Layout
	cfg Config

	// The maps hold one plus what they map, so that their zero value — what
	// make returns — reads as unmapped.
	logicalPages int64
	l2p          []nvm.Word // logical page -> 1 + its page word
	p2l          []uint32   // Linear page index -> 1 + its logical page
	validInBlk   []int32    // valid-page count per linear block index
	dies         []*die     // indexed channel*Banks+bank

	gcErases int64
	gcMoves  int64
	hostProg int64

	// ReadPages' batch, kept between calls: the mapped pages' words, their
	// positions in the request, and what the device returned.
	readWords []nvm.Word
	readPos   []int64
	readData  [][]byte
}

// New builds an FTL over dev.
func New(dev *nvm.Device, cfg Config) (*FTL, error) {
	if cfg.OverProvision < 0 || cfg.OverProvision >= 1 {
		return nil, fmt.Errorf("ftl: over-provision fraction %v out of range [0,1)", cfg.OverProvision)
	}
	geo := dev.Geometry()
	f := &FTL{
		dev:          dev,
		geo:          geo,
		lay:          dev.Layout(),
		cfg:          cfg,
		logicalPages: int64(float64(geo.TotalPages()) * (1 - cfg.OverProvision)),
		l2p:          make([]nvm.Word, geo.TotalPages()),
		p2l:          make([]uint32, geo.TotalPages()),
		validInBlk:   make([]int32, int64(geo.Channels)*int64(geo.Banks)*int64(geo.BlocksPerBank)),
		dies:         make([]*die, geo.Channels*geo.Banks),
	}
	for i := range f.dies {
		d := &die{activeBlock: -1, freePages: geo.PagesPerBank()}
		for b := 0; b < geo.BlocksPerBank; b++ {
			d.freeBlocks = append(d.freeBlocks, b)
		}
		f.dies[i] = d
	}
	return f, nil
}

// Device exposes the underlying array (for instrumentation).
func (f *FTL) Device() *nvm.Device { return f.dev }

// LogicalPages is the host-visible capacity in pages.
func (f *FTL) LogicalPages() int64 { return f.logicalPages }

// LogicalBytes is the host-visible capacity in bytes.
func (f *FTL) LogicalBytes() int64 { return f.logicalPages * int64(f.geo.PageSize) }

// PageSize is the device page size in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// GCStats reports garbage-collection work done so far.
func (f *FTL) GCStats() (erases, pageMoves int64) { return f.gcErases, f.gcMoves }

// WriteAmplification is (host+GC programs)/host programs, 1.0 when idle.
func (f *FTL) WriteAmplification() float64 {
	if f.hostProg == 0 {
		return 1
	}
	return float64(f.hostProg+f.gcMoves) / float64(f.hostProg)
}

// stripe maps a logical page to its home die following conventional striping:
// consecutive logical pages land on consecutive channels (so sequential reads
// engage all channels), rotating banks every full channel sweep.
func (f *FTL) stripe(lpn int64) (channel, bank int) {
	channel = int(lpn % int64(f.geo.Channels))
	bank = int((lpn / int64(f.geo.Channels)) % int64(f.geo.Banks))
	return channel, bank
}

func (f *FTL) dieOf(channel, bank int) *die { return f.dies[channel*f.geo.Banks+bank] }

// allocate returns the next free PPA on the given die, running GC if the die
// is below its low-water mark. The returned time covers any GC stall.
func (f *FTL) allocate(at sim.Time, channel, bank int) (nvm.PPA, sim.Time, error) {
	d := f.dieOf(channel, bank)
	lowWater := int64(f.cfg.GCLowWater * float64(f.geo.PagesPerBank()))
	if d.freePages <= lowWater {
		var err error
		at, err = f.collectDie(at, channel, bank)
		if err != nil {
			return nvm.PPA{}, at, err
		}
	}
	if d.activeBlock < 0 || d.nextPage >= f.geo.PagesPerBlock {
		// Keep one erased block in reserve as a GC destination; if opening a
		// new active block would consume it, collect first.
		if len(d.freeBlocks) <= 1 {
			var err error
			at, err = f.collectDie(at, channel, bank)
			if err != nil {
				return nvm.PPA{}, at, err
			}
		}
		if len(d.freeBlocks) == 0 {
			return nvm.PPA{}, at, fmt.Errorf("ftl: die ch%d/bk%d out of free blocks", channel, bank)
		}
		d.activeBlock = d.freeBlocks[0]
		d.freeBlocks = d.freeBlocks[1:]
		d.nextPage = 0
	}
	p := nvm.PPA{Channel: channel, Bank: bank, Block: d.activeBlock, Page: d.nextPage}
	d.nextPage++
	d.freePages--
	return p, at, nil
}

// collectDie performs greedy GC on one die: victim = closed block with the
// fewest valid pages; valid pages are relocated within the die, then the
// victim is erased. Collection is best-effort: it stops (without error) when
// no victim would net free space, leaving the caller to proceed with whatever
// free pages remain.
func (f *FTL) collectDie(at sim.Time, channel, bank int) (sim.Time, error) {
	d := f.dieOf(channel, bank)
	lowWater := int64(f.cfg.GCLowWater * float64(f.geo.PagesPerBank()))
	for d.freePages <= lowWater {
		victim := f.pickVictim(channel, bank)
		if victim < 0 && d.activeBlock >= 0 &&
			f.validInBlk[f.blockIndex(channel, bank, d.activeBlock)] < int32(d.nextPage) {
			// All reclaimable pages sit in the open block: close it (losing
			// its unwritten tail until the erase returns it) and retry.
			d.freePages -= int64(f.geo.PagesPerBlock - d.nextPage)
			d.activeBlock = -1
			victim = f.pickVictim(channel, bank)
		}
		if victim < 0 {
			return at, nil // nothing reclaimable; best effort only
		}
		// Ensure the victim's survivors fit in the remaining free pages.
		survivors := int64(f.validInBlk[f.blockIndex(channel, bank, victim)])
		room := int64(len(d.freeBlocks)) * int64(f.geo.PagesPerBlock)
		if d.activeBlock >= 0 {
			room += int64(f.geo.PagesPerBlock - d.nextPage)
		}
		if room < survivors {
			return at, nil // cannot evacuate safely; stop collecting
		}
		var err error
		at, err = f.evacuateBlock(at, channel, bank, victim)
		if err != nil {
			return at, err
		}
	}
	return at, nil
}

// pickVictim chooses the closed block with the fewest valid pages among those
// with at least one reclaimable (programmed but invalid) page; -1 if none.
func (f *FTL) pickVictim(channel, bank int) int {
	d := f.dieOf(channel, bank)
	best, bestScore := -1, int32(1<<30)
	free := make(map[int]bool, len(d.freeBlocks))
	for _, b := range d.freeBlocks {
		free[b] = true
	}
	for b := 0; b < f.geo.BlocksPerBank; b++ {
		if b == d.activeBlock || free[b] {
			continue
		}
		v := f.validInBlk[f.blockIndex(channel, bank, b)]
		if v >= int32(f.geo.PagesPerBlock) {
			continue // fully valid: erasing frees nothing
		}
		if v < bestScore {
			best, bestScore = b, v
		}
	}
	return best
}

func (f *FTL) blockIndex(channel, bank, block int) int64 {
	return (int64(channel)*int64(f.geo.Banks)+int64(bank))*int64(f.geo.BlocksPerBank) + int64(block)
}

// evacuateBlock relocates the victim's valid pages within the die, then
// erases it. Each relocation is a one-page read batch and a one-page program
// batch that waits on it, page by page: the read and the program share the
// die's bank, so a batch of the victim's reads ahead of its programs would
// book the bank in another order and move the baseline's timing.
func (f *FTL) evacuateBlock(at sim.Time, channel, bank, block int) (sim.Time, error) {
	for pg := 0; pg < f.geo.PagesPerBlock; pg++ {
		src := f.lay.Word(nvm.PPA{Channel: channel, Bank: bank, Block: block, Page: pg})
		l := f.p2l[f.lay.Linear(src)]
		if l == 0 {
			continue
		}
		var data [1][]byte
		done, err := f.dev.ReadWords(at, []nvm.Word{src}, data[:])
		if err != nil {
			return at, err
		}
		// Relocation target must come from the same die; allocate directly to
		// avoid recursive GC (the erase below restores free pages).
		d := f.dieOf(channel, bank)
		if d.activeBlock < 0 || d.nextPage >= f.geo.PagesPerBlock {
			if len(d.freeBlocks) == 0 {
				return at, fmt.Errorf("ftl: GC relocation out of space on ch%d/bk%d", channel, bank)
			}
			d.activeBlock = d.freeBlocks[0]
			d.freeBlocks = d.freeBlocks[1:]
			d.nextPage = 0
		}
		dst := nvm.PPA{Channel: channel, Bank: bank, Block: d.activeBlock, Page: d.nextPage}
		d.nextPage++
		d.freePages--
		done, err = f.dev.ProgramPages([]nvm.ProgramOp{{At: done, P: dst, Data: data[0]}})
		if err != nil {
			return at, err
		}
		f.unmapPhysical(src)
		f.mapPage(int64(l-1), dst)
		f.gcMoves++
		at = sim.Max(at, done)
	}
	done, err := f.dev.EraseBlock(at, nvm.PPA{Channel: channel, Bank: bank, Block: block})
	if err != nil {
		return at, err
	}
	d := f.dieOf(channel, bank)
	d.freeBlocks = append(d.freeBlocks, block)
	d.freePages += int64(f.geo.PagesPerBlock)
	f.gcErases++
	return done, nil
}

func (f *FTL) mapPage(lpn int64, p nvm.PPA) {
	f.l2p[lpn] = f.lay.Word(p) + 1
	f.p2l[p.Linear(f.geo)] = uint32(lpn + 1)
	f.validInBlk[f.blockIndex(p.Channel, p.Bank, p.Block)]++
}

func (f *FTL) unmapLogical(lpn int64) {
	w := f.l2p[lpn]
	if w == 0 {
		return
	}
	f.l2p[lpn] = 0
	f.unmapPhysical(w - 1)
}

func (f *FTL) unmapPhysical(w nvm.Word) {
	idx := f.lay.Linear(w)
	if f.p2l[idx] == 0 {
		return
	}
	f.p2l[idx] = 0
	f.validInBlk[f.blockIndex(f.lay.Channel(w), f.lay.Bank(w), f.lay.Block(w))]--
}
