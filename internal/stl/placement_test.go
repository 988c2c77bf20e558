package stl

import (
	"math/rand"
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
// among them), the lazy selection walks the same bank and channel sequences
// as the sorted lists; and on an STL with some dies exhausted, allocateUnit
// places each unit on the first die of that order that can supply one.
func TestChannelChoiceMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		channels, banks := 1+rng.Intn(32), 1+rng.Intn(8)
		chanUse, bankUse := make([]uint16, channels), make([]uint16, banks)
		free := make([]int64, channels)
		for i := range chanUse {
			chanUse[i] = uint16(rng.Intn(3))
			free[i] = int64(rng.Intn(4)) // 0: a full die
		}
		for i := range bankUse {
			bankUse[i] = uint16(rng.Intn(3))
		}
		preferred := rng.Intn(banks)

		var gotBanks, gotChans []int
		for bk := preferred; bk >= 0; bk = nextBank(bankUse, preferred, bk) {
			if gotBanks = append(gotBanks, bk); len(gotBanks) > banks {
				t.Fatalf("trial %d: nextBank does not terminate: %v", trial, gotBanks)
			}
		}
		for ch := nextChannel(chanUse, free, -1); ch >= 0; ch = nextChannel(chanUse, free, ch) {
			if gotChans = append(gotChans, ch); len(gotChans) > channels {
				t.Fatalf("trial %d: nextChannel does not terminate: %v", trial, gotChans)
			}
		}
		if want := sortedBankCandidates(bankUse, preferred); !equalInts(gotBanks, want) {
			t.Fatalf("trial %d: bankUse %v preferred %d: banks %v, sorted order %v", trial, bankUse, preferred, gotBanks, want)
		}
		if want := sortedChannelCandidates(chanUse, free); !equalInts(gotChans, want) {
			t.Fatalf("trial %d: chanUse %v free %v: channels %v, sorted order %v", trial, chanUse, free, gotChans, want)
		}
	}

	// End to end: exhaust a random half of the dies, give a block random
	// usage, and place units until the array is dry.
	geo := nvm.Geometry{Channels: 8, Banks: 4, BlocksPerBank: 2, PagesPerBlock: 4, PageSize: 512}
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
		for i := range blk.chanUse {
			blk.chanUse[i] = uint16(rng.Intn(3))
		}
		for i := range blk.bankUse {
			blk.bankUse[i] = uint16(rng.Intn(3))
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
		p, _, err := st.allocateUnit(0, s, blk, nil)
		if !found {
			if err == nil {
				t.Fatalf("unit %d placed at %v on a dry array", placed, p)
			}
			if placed == 0 {
				t.Fatal("the array was dry from the start")
			}
			return
		}
		if err != nil {
			t.Fatalf("unit %d: %v, want a unit on ch%d/bk%d", placed, err, want.Channel, want.Bank)
		}
		if p.Channel != want.Channel || p.Bank != want.Bank {
			t.Fatalf("unit %d placed on ch%d/bk%d, the sorted order's first die with room is ch%d/bk%d",
				placed, p.Channel, p.Bank, want.Channel, want.Bank)
		}
		st.die(p.Channel, p.Bank).validInBlk[p.Block]++
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
