package stl

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"nds/internal/nvm"
)

// sortedBankCandidates and sortedChannelCandidates are the candidate lists
// allocateUnit used to build and insertion-sort for every unit it placed,
// kept as the oracle for nextBank and nextChannel: placement feeds timing, so
// the lazy selection must yield exactly these sequences, fall-over included.

func sortedBankCandidates(bankUse []uint16, preferred int) []int {
	order := []int{preferred}
	var rest []int
	for b := range bankUse {
		if b != preferred {
			rest = append(rest, b)
		}
	}
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && bankUse[rest[j]] < bankUse[rest[j-1]]; j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	return append(order, rest...)
}

func sortedChannelCandidates(chanUse []uint16, free []int64) []int {
	order := make([]int, len(chanUse))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			ua, fa := chanUse[order[j]], -free[order[j]]
			ub, fb := chanUse[order[j-1]], -free[order[j-1]]
			if ua < ub || (ua == ub && fa < fb) {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}
	return order
}

// TestChannelChoiceMatchesSortedOrder: over randomised usage counts and
// free-page counts drawn from small ranges (ties everywhere, full dies
// among them), the lazy selection — the block's leastChannel, then
// nextChannel — walks the same bank and channel sequences as the sorted
// lists; and on an STL with some dies exhausted, allocateUnit places each
// unit on the first die of that order that can supply one. The counters are
// set the one way production sets them (noteUnit, and resetUse through a
// compressed store's dropAllUnits), and after each change the block's sweep
// must be exactly its least-used channels; units are forgotten too
// (forgetUnit), as a failed landing forgets them. A die's count is its free
// pages less the units planned on it. 72 channels take the sweep past one
// word.
func TestChannelChoiceMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		channels, banks := 1+rng.Intn(32), 1+rng.Intn(8)
		if trial%8 == 0 {
			channels = 72
		}
		blk := newBuildingBlock(1, nvm.Geometry{Channels: channels, Banks: banks})
		checkSweep(t, blk)
		var units [][2]int // the units counted, to forget one of
		for n := rng.Intn(3 * channels); n > 0; n-- {
			switch {
			case rng.Intn(2*channels) == 0:
				blk.resetUse()
				units = units[:0]
			case len(units) > 0 && rng.Intn(4) == 0:
				k := rng.Intn(len(units))
				blk.forgetUnit(units[k][0], units[k][1])
				units = slices.Delete(units, k, k+1)
			default:
				ch, bk := rng.Intn(channels), rng.Intn(banks)
				blk.noteUnit(ch, bk)
				units = append(units, [2]int{ch, bk})
			}
			checkSweep(t, blk)
		}
		// The bank's live counts, and units planned on its dies: what the
		// order reads is their difference.
		free := make([]int64, channels)
		row, planned := make([]atomic.Int64, channels), make([]int32, channels)
		for i := range free {
			free[i] = int64(rng.Intn(4)) // 0: a full die
			planned[i] = int32(rng.Intn(3))
			row[i].Store(free[i] + int64(planned[i]))
		}
		preferred := rng.Intn(banks)

		var gotBanks, gotChans []int
		for bk := preferred; bk >= 0; bk = nextBank(blk.bankUse, preferred, bk) {
			if gotBanks = append(gotBanks, bk); len(gotBanks) > banks {
				t.Fatalf("trial %d: nextBank does not terminate: %v", trial, gotBanks)
			}
		}
		for ch := blk.leastChannel(row, planned); ch >= 0; ch = nextChannel(blk.chanUse, free, ch) {
			if gotChans = append(gotChans, ch); len(gotChans) > channels {
				t.Fatalf("trial %d: nextChannel does not terminate: %v", trial, gotChans)
			}
		}
		if want := sortedBankCandidates(blk.bankUse, preferred); !equalInts(gotBanks, want) {
			t.Fatalf("trial %d: bankUse %v preferred %d: banks %v, sorted order %v", trial, blk.bankUse, preferred, gotBanks, want)
		}
		if want := sortedChannelCandidates(blk.chanUse, free); !equalInts(gotChans, want) {
			t.Fatalf("trial %d: chanUse %v free %v: channels %v, sorted order %v", trial, blk.chanUse, free, gotChans, want)
		}
	}

	// End to end: exhaust a random half of the dies, give a block random
	// usage, and place units until the array is dry.
	for _, geo := range []nvm.Geometry{
		{Channels: 8, Banks: 4, BlocksPerBank: 2, PagesPerBlock: 4, PageSize: 512},
		{Channels: 72, Banks: 2, BlocksPerBank: 2, PagesPerBlock: 4, PageSize: 512},
	} {
		placeUntilDry(t, rng, geo)
	}
}

// placeUntilDry is TestChannelChoiceMatchesSortedOrder's end-to-end half on
// one geometry.
func placeUntilDry(t *testing.T, rng *rand.Rand, geo nvm.Geometry) {
	t.Helper()
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.OverProvision, cfg.GCLowWater = 0, 0
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.CreateSpace(4, []int64{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < geo.Channels; ch++ {
		for bk := 0; bk < geo.Banks; bk++ {
			d := st.die(ch, bk)
			for n := rng.Intn(3) * 4; n > 0; n-- { // leave 8, 4 or 0 pages
				p, _ := d.carve(ch, bk, geo.PagesPerBlock, defaultStream)
				d.validInBlk[p.Block]++ // live, so collection cannot win it back
			}
		}
	}
	blk := newBuildingBlock(s.pagesPerBB, geo)
	for placed := 0; ; placed++ {
		if placed%16 == 15 {
			st.dropAllUnits(blk) // a compressed store starts the block afresh
			checkSweep(t, blk)
		}
		for n := rng.Intn(3); n > 0; n-- { // units beyond the ones placed here
			blk.noteUnit(rng.Intn(geo.Channels), rng.Intn(geo.Banks))
			checkSweep(t, blk)
		}
		blk.used, blk.lastBank = 1, rng.Intn(geo.Banks) // rule 2: the bank is lastBank, no draw
		want, found := nvm.PPA{}, false
		for _, bk := range sortedBankCandidates(blk.bankUse, blk.lastBank) {
			free := make([]int64, geo.Channels)
			for ch := range free {
				free[ch] = st.die(ch, bk).freePages.Load()
			}
			for _, ch := range sortedChannelCandidates(blk.chanUse, free) {
				if !found && free[ch] > 0 {
					want, found = nvm.PPA{Channel: ch, Bank: bk}, true
				}
			}
		}
		p, _, err := st.allocateUnit(0, s, blk, nil, nil, 0)
		if !found {
			if err == nil {
				t.Fatalf("%d channels: unit %d placed at %v on a dry array", geo.Channels, placed, p)
			}
			if placed == 0 {
				t.Fatalf("%d channels: the array was dry from the start", geo.Channels)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d channels: unit %d: %v, want a unit on ch%d/bk%d", geo.Channels, placed, err, want.Channel, want.Bank)
		}
		if p.Channel != want.Channel || p.Bank != want.Bank {
			t.Fatalf("%d channels: unit %d placed on ch%d/bk%d, the sorted order's first die with room is ch%d/bk%d",
				geo.Channels, placed, p.Channel, p.Bank, want.Channel, want.Bank)
		}
		checkSweep(t, blk)
		st.die(p.Channel, p.Bank).validInBlk[p.Block]++
	}
}

// checkSweep fails the test unless blk's sweep holds exactly the channels at
// its least use, sweepLeft counts them, and no bit past the last channel is
// set.
func checkSweep(t *testing.T, blk *BuildingBlock) {
	t.Helper()
	least := slices.Min(blk.chanUse)
	want := make([]uint64, len(blk.sweep))
	n := 0
	for ch, u := range blk.chanUse {
		if u == least {
			want[ch/64] |= 1 << (ch % 64)
			n++
		}
	}
	if !slices.Equal(blk.sweep, want) || blk.sweepLeft != n {
		t.Fatalf("chanUse %v: sweep %x (%d left), want the least-used channels %x (%d)", blk.chanUse, blk.sweep, blk.sweepLeft, want, n)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
