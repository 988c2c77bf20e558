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

func sortedBankCandidates(banks []uint16, preferred int) []int {
	order := []int{preferred}
	var rest []int
	for b := range banks {
		if b != preferred {
			rest = append(rest, b)
		}
	}
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && banks[rest[j]] < banks[rest[j-1]]; j-- {
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}
	return append(order, rest...)
}

func sortedChannelCandidates(chans []uint16, free []int64) []int {
	order := make([]int, len(chans))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			ua, fa := chans[order[j]], -free[order[j]]
			ub, fb := chans[order[j-1]], -free[order[j-1]]
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
// among them), the lazy selection — the count's leastChannel, then
// nextChannel — walks the same bank and channel sequences as the sorted
// lists; and on an STL with some dies exhausted, allocateUnit places each
// unit on the first die of that order that can supply one. The counts are
// made the two ways production makes them: read off a block's slots (count;
// random slot sets, empty ones included) and added to unit by unit (note).
// After each change they must be exactly the slots' and the notes', and the
// sweep exactly the least-used channels. A die's count is its free pages less
// the units planned on it. 72 channels take the sweep past one word.
func TestChannelChoiceMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		channels, banks := 1+rng.Intn(32), 1+rng.Intn(8)
		if trial%8 == 0 {
			channels = 72
		}
		geo := nvm.Geometry{Channels: channels, Banks: banks, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
		lay, err := nvm.NewLayout(geo)
		if err != nil {
			t.Fatal(err)
		}
		blk := newBuildingBlock(2 * channels)
		var use blockUse
		wantChans, wantBanks := make([]uint16, channels), make([]uint16, banks) // what the count must read
		recount := func(fill int) {
			clear(wantChans)
			clear(wantBanks)
			for i := range blk.pages {
				blk.pages[i].store(0)
				if rng.Intn(4) < fill {
					ch, bk := rng.Intn(channels), rng.Intn(banks)
					blk.pages[i].store(slotOf(lay.Word(nvm.PPA{Channel: ch, Bank: bk, Block: rng.Intn(4), Page: rng.Intn(4)})))
					wantChans[ch]++
					wantBanks[bk]++
				}
			}
			use.count(blk, geo, &lay)
		}
		recount(0)
		checkUse(t, &use, wantChans, wantBanks)
		for n := rng.Intn(3 * channels); n > 0; n-- {
			if rng.Intn(channels) == 0 {
				recount(rng.Intn(5)) // 0: an empty block; 4: every slot held
			} else {
				ch, bk := rng.Intn(channels), rng.Intn(banks)
				use.note(ch, bk)
				wantChans[ch]++
				wantBanks[bk]++
			}
			checkUse(t, &use, wantChans, wantBanks)
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
		for bk := preferred; bk >= 0; bk = nextBank(use.banks, preferred, bk) {
			if gotBanks = append(gotBanks, bk); len(gotBanks) > banks {
				t.Fatalf("trial %d: nextBank does not terminate: %v", trial, gotBanks)
			}
		}
		for ch := use.leastChannel(row, planned); ch >= 0; ch = nextChannel(use.chans, free, ch) {
			if gotChans = append(gotChans, ch); len(gotChans) > channels {
				t.Fatalf("trial %d: nextChannel does not terminate: %v", trial, gotChans)
			}
		}
		if want := sortedBankCandidates(use.banks, preferred); !equalInts(gotBanks, want) {
			t.Fatalf("trial %d: bank counts %v preferred %d: banks %v, sorted order %v", trial, use.banks, preferred, gotBanks, want)
		}
		if want := sortedChannelCandidates(use.chans, free); !equalInts(gotChans, want) {
			t.Fatalf("trial %d: channel counts %v free %v: channels %v, sorted order %v", trial, use.chans, free, gotChans, want)
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
	blk := newBuildingBlock(s.pagesPerBB)
	var use blockUse
	for placed := 0; ; placed++ {
		if placed%16 == 0 {
			// The block's slots name random units (the count reads their
			// words, not the dies behind them), and a request counts them.
			for i := range blk.pages {
				blk.pages[i].store(0)
				if rng.Intn(2) == 0 {
					blk.pages[i].store(slotOf(st.lay.Word(nvm.PPA{Channel: rng.Intn(geo.Channels), Bank: rng.Intn(geo.Banks)})))
				}
			}
			use.count(blk, st.geo, &st.lay)
			checkSweep(t, &use)
		}
		for n := rng.Intn(3); n > 0; n-- { // units beyond the ones placed here
			use.note(rng.Intn(geo.Channels), rng.Intn(geo.Banks))
			checkSweep(t, &use)
		}
		use.used, blk.lastDie = 1, rng.Intn(len(st.dies)) // rule 2: the bank is lastDie's, no draw
		want, found := nvm.PPA{}, false
		for _, bk := range sortedBankCandidates(use.banks, blk.lastDie%geo.Banks) {
			free := make([]int64, geo.Channels)
			for ch := range free {
				free[ch] = st.die(ch, bk).freePages.Load()
			}
			for _, ch := range sortedChannelCandidates(use.chans, free) {
				if !found && free[ch] > 0 {
					want, found = nvm.PPA{Channel: ch, Bank: bk}, true
				}
			}
		}
		p, _, err := st.allocateUnit(0, s, blk, &use, nil, nil, 0)
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
		if blk.lastDie != p.Channel*geo.Banks+p.Bank {
			t.Fatalf("%d channels: unit %d placed on ch%d/bk%d, and the block's last die is %d", geo.Channels, placed, p.Channel, p.Bank, blk.lastDie)
		}
		checkSweep(t, &use)
		st.die(p.Channel, p.Bank).validInBlk[p.Block]++
	}
}

// TestReleasedUnitsLeaveTheCount: a unit a block gives up with nothing in
// its place — a page that zero-page elision releases, or one past a shrink's
// bound — is not counted when the block's next unit is placed, so the
// rewritten pages go back to the channels they left. On the 4 × 2 test
// geometry every 8-page block holds 2 units a channel after each of three
// cycles: zero and rewrite the pages of one block that sit on channels 0 and
// 1, or shrink a 64 × 64 space to 40 rows, regrow it and rewrite rows 40–63.
// Every byte is the model's.
func TestReleasedUnitsLeaveTheCount(t *testing.T) {
	balanced := func(t *testing.T, sc *script, c *checked, cycle int) {
		t.Helper()
		for g, pages := range blockSlots(sc.st, c.v.space) {
			if per, _ := slotChannels(sc.st, pages); !slices.Equal(per, []int{2, 2, 2, 2}) {
				t.Fatalf("cycle %d: written block %d holds %v units per channel, want 2 on each", cycle, g, per)
			}
		}
	}
	t.Run("elision", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.ZeroPageElision = true
		sc := newScript(t, mustDevice(t, smallGeo()), cfg)
		rng := rand.New(rand.NewSource(54))
		whole, page := []int64{32, 32}, []int64{4, 32} // one block; one page of it
		c := sc.space(t, 4, whole, whole)
		at := sc.mustWrite(t, 0, c, []int64{0, 0}, whole, fillRandom(rng, 32*32*4))
		for cycle := 1; cycle <= 3; cycle++ {
			pages := blockSlots(sc.st, c.v.space)[0]
			var low []int64 // the pages on channels 0 and 1
			for p := range pages {
				if sc.st.lay.Channel(pages[p].load().word()) < 2 {
					low = append(low, int64(p))
				}
			}
			for _, p := range low {
				at = sc.mustWrite(t, at, c, []int64{p, 0}, page, make([]byte, 512))
			}
			for _, p := range low {
				at = sc.mustWrite(t, at, c, []int64{p, 0}, page, fillRandom(rng, 512))
			}
			balanced(t, sc, c, cycle)
			at = sc.read(t, at, c, []int64{0, 0}, whole)
		}
	})
	t.Run("shrink", func(t *testing.T) {
		sc := newScript(t, mustDevice(t, smallGeo()), DefaultConfig())
		rng := rand.New(rand.NewSource(54))
		whole := []int64{64, 64} // 2 × 2 blocks; row 40 is a page boundary of the second row
		c := sc.space(t, 4, whole, whole)
		id := c.v.space.ID()
		at := sc.mustWrite(t, 0, c, []int64{0, 0}, whole, fillRandom(rng, 64*64*4))
		for cycle := 1; cycle <= 3; cycle++ {
			var err error
			for _, rows := range []int64{40, 64} {
				if at, err = sc.st.ResizeSpace(at, id, rows); err != nil {
					t.Fatal(err)
				}
				if err := sc.model.Resize(uint32(id), rows); err != nil {
					t.Fatal(err)
				}
			}
			if c.m, err = sc.model.Open(uint32(id), whole); err != nil {
				t.Fatal(err)
			}
			c.v = mustView(t, c.v.space, whole...)
			for r := int64(5); r < 8; r++ { // rows 40–63, eight at a time
				at = sc.mustWrite(t, at, c, []int64{r, 0}, []int64{8, 64}, fillRandom(rng, 8*64*4))
			}
			balanced(t, sc, c, cycle)
			at = sc.read(t, at, c, []int64{0, 0}, whole)
		}
	})
}

// checkUse fails the test unless use counts exactly chans and banks, in all
// their sum, and its sweep is their least-used channels.
func checkUse(t *testing.T, use *blockUse, chans, banks []uint16) {
	t.Helper()
	used := 0
	for _, n := range chans {
		used += int(n)
	}
	if !slices.Equal(use.chans, chans) || !slices.Equal(use.banks, banks) || use.used != used {
		t.Fatalf("the count reads %d units, per channel %v and per bank %v; want %d, %v and %v",
			use.used, use.chans, use.banks, used, chans, banks)
	}
	checkSweep(t, use)
}

// checkSweep fails the test unless use's sweep holds exactly the channels at
// its least count, sweepLeft counts them, and no bit past the last channel is
// set.
func checkSweep(t *testing.T, use *blockUse) {
	t.Helper()
	least := slices.Min(use.chans)
	want := make([]uint64, len(use.sweep))
	n := 0
	for ch, u := range use.chans {
		if u == least {
			want[ch/64] |= 1 << (ch % 64)
			n++
		}
	}
	if !slices.Equal(use.sweep, want) || use.sweepLeft != n {
		t.Fatalf("channel counts %v: sweep %x (%d left), want the least-used channels %x (%d)", use.chans, use.sweep, use.sweepLeft, want, n)
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
