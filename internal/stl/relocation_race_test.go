package stl

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// relocationRig is one die of 32 four-page blocks holding a space of eight
// one-page building blocks (128 float32 each), beside the model of it.
type relocationRig struct {
	sc  *script
	c   *checked
	d   *die
	rng *rand.Rand
	at  sim.Time
}

const rigPages, rigElems = 8, 128

func newRelocationRig(t *testing.T, seed int64) *relocationRig {
	t.Helper()
	geo := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 32, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	r := &relocationRig{sc: newScript(t, dev, DefaultConfig()), rng: rand.New(rand.NewSource(seed))}
	r.c = r.sc.space(t, 4, []int64{rigPages * rigElems}, []int64{rigPages * rigElems})
	if n := r.c.v.space.pagesPerBB; n != 1 {
		t.Fatalf("building blocks of %d pages, the rig wants 1", n)
	}
	r.d = r.sc.st.die(0, 0)
	for pg := int64(0); pg < rigPages; pg++ {
		r.write(t, pg)
	}
	return r
}

// write stores fresh bytes in page pg of the space.
func (r *relocationRig) write(t *testing.T, pg int64) {
	t.Helper()
	r.at = r.sc.mustWrite(t, r.at, r.c, []int64{pg}, []int64{rigElems}, fillRandom(r.rng, rigElems*4))
}

// unit is the word of the unit holding page pg.
func (r *relocationRig) unit(pg int64) nvm.Word {
	return r.sc.st.blockAt(r.c.v.space, pg, false).pages[0].load().word()
}

// strand rewrites page pg and closes the open block it lands in, as a
// collection does, leaving room on the die to relocate the block's live pages
// and to take an overwrite beside them. It returns that block and how many
// live pages it holds.
func (r *relocationRig) strand(t *testing.T, pg int64) (block int, live int32) {
	t.Helper()
	st, geo := r.sc.st, r.sc.st.geo
	if _, err := st.collectDie(r.at, 0, 0, st.lowWaterPages()+int64(2*geo.PagesPerBlock)); err != nil {
		t.Fatal(err)
	}
	r.write(t, pg)
	block = st.lay.Block(r.unit(pg))
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	for s := range r.d.open {
		if r.d.open[s].block == block {
			r.d.closeOpen(s, geo.PagesPerBlock)
		}
	}
	return block, r.d.validInBlk[block]
}

// evacuate collects block as a second writer's collection would: it takes the
// die's claim, waiting for any collection under way, and evacuates the block.
func (r *relocationRig) evacuate(block int) (bool, error) {
	d := r.d
	for {
		d.mu.Lock()
		if !d.collecting {
			d.collecting = true
			d.mu.Unlock()
			break
		}
		d.mu.Unlock()
		time.Sleep(time.Microsecond)
	}
	defer func() {
		d.mu.Lock()
		d.collecting = false
		d.mu.Unlock()
	}()
	_, progress, err := r.sc.st.evacuateBlock(r.at, 0, 0, block)
	return progress, err
}

// auditSlots checks the translation state after a round: the dies'
// summaries (auditDies), every slot of the space named back by a live
// reverse entry, every live reverse entry named by its slot, and usedPages
// counting exactly the slots — a unit left live with no slot naming it, or a
// slot naming a dead one, fails.
func (r *relocationRig) auditSlots(t *testing.T) {
	t.Helper()
	st, s := r.sc.st, r.c.v.space
	auditDies(t, st)
	for g := int64(0); g < rigPages; g++ {
		slot := st.blockAt(s, g, false).pages[0].load()
		if !slot.allocated() {
			t.Fatalf("page %d lost its unit", g)
		}
		if e := st.rev[st.lay.Linear(slot.word())]; !e.valid || e.space != s.id || int64(e.block) != g || e.page != 0 {
			t.Fatalf("page %d names %v, whose reverse entry is %+v", g, st.lay.PPA(slot.word()), e)
		}
	}
	for i, e := range st.rev {
		w := st.lay.Word(nvm.FromLinear(st.geo, int64(i)))
		if e.valid && st.blockAt(s, int64(e.block), false).pages[e.page].load() != slotOf(w) {
			t.Fatalf("%v is live for page %d, whose slot names another unit", st.lay.PPA(w), e.block)
		}
	}
	if used := st.UsedPages(); used != rigPages {
		t.Fatalf("usedPages %d, %d slots allocated", used, rigPages)
	}
}

// spin burns about n iterations of CPU.
func spin(n int) {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	spinSink.Store(int64(x))
}

var spinSink atomic.Int64

// TestRelocationRace races the collector's relocation of a page against its
// owner's overwrite of it, with no lock between them but the slot.
//
// "overwrite" races them round after round: one goroutine evacuates the
// block holding the page while another overwrites the page. The collector
// swings the slot by compare-and-swap from the word it found to its copy's,
// and the overwrite takes whatever the slot holds, so either the relocation
// commits first and the overwrite drops the copy, or the overwrite wins and
// the collector drops its copy. Both orders must occur — a head start for one
// side, moved after every round towards the side that lost (by steps that
// halve when the order flips and double when it does not), keeps the two
// arriving together — and after each round the space reads as the model says
// and the translation state audits clean.
//
// "discard" is "overwrite" on an arena primed with 0xFF frames, with payloads
// that hold no 0xFF. The overwrite gives the frame of the unit it replaced
// back once its program lands, while the collector may be reading that unit
// to relocate it: the discard must leave a die under collection alone
// (discardUnits), or the relocation copies a frame the arena hands out again.
// After every round of either arm no frame has two owners (nvm.FrameStats).
//
// "parked reader" parks a read between loading the page's word and reading
// it (STL.reading) while the collector relocates the page and reaches the
// erase of its block: the erase must wait for the read to be issued, and the
// read must return the page's bytes.
func TestRelocationRace(t *testing.T) {
	for _, primed := range []bool{false, true} {
		name := "overwrite"
		if primed {
			name = "discard"
		}
		t.Run(name, func(t *testing.T) { raceOverwrites(t, primed) })
	}

	t.Run("parked reader", func(t *testing.T) {
		r := newRelocationRig(t, 92)
		st := r.sc.st
		const pg = 3
		block, _ := r.strand(t, pg)
		want, err := r.c.m.Read([]int64{pg}, []int64{rigElems})
		if err != nil {
			t.Fatal(err)
		}
		erases, moved := st.dev.EraseCount(nvm.PPA{Block: block}), st.GCReport().PagesRelocated
		src := r.unit(pg)

		parked, resume := make(chan struct{}), make(chan struct{})
		var once sync.Once
		st.reading = func() {
			once.Do(func() {
				close(parked)
				<-resume
			})
		}
		var got []byte
		var readErr error
		readDone := make(chan struct{})
		go func() {
			defer close(readDone)
			got, _, _, readErr = st.ReadPartition(r.at, r.c.v, []int64{pg}, []int64{rigElems})
		}()
		select {
		case <-parked:
		case <-readDone:
			t.Fatalf("the read returned (err %v) without loading a word", readErr)
		case <-time.After(10 * time.Second):
			t.Fatal("the read neither loaded a word nor returned")
		}
		var progress bool
		var gcErr error
		gcDone := make(chan struct{})
		go func() {
			defer close(gcDone)
			progress, gcErr = r.evacuate(block)
		}()
		// The collector commits the page's move, then must wait for the read.
		for deadline := time.Now().Add(10 * time.Second); st.GCReport().PagesRelocated == moved; {
			if time.Now().After(deadline) {
				t.Fatal("the collector never committed the page's move")
			}
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(20 * time.Millisecond)
		select {
		case <-gcDone:
			t.Errorf("the collection finished with a read of %v parked before it", st.lay.PPA(src))
		default:
		}
		if st.dev.EraseCount(nvm.PPA{Block: block}) != erases {
			t.Error("the victim was erased under a read that had loaded one of its words")
		}
		close(resume)
		<-readDone
		<-gcDone
		st.reading = nil
		if readErr != nil || gcErr != nil || !progress {
			t.Fatalf("read err=%v; evacuation progress=%v err=%v", readErr, progress, gcErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the parked read did not return the page's bytes")
		}
		if r.unit(pg) == src || st.dev.EraseCount(nvm.PPA{Block: block}) != erases+1 {
			t.Fatal("the page was not relocated and its block erased")
		}
		r.auditSlots(t)
		r.sc.read(t, r.at, r.c, []int64{0}, []int64{rigPages * rigElems})
	})
}

// raceOverwrites is TestRelocationRace's "overwrite" arm, and with primed its
// "discard" arm.
func raceOverwrites(t *testing.T, primed bool) {
	r := newRelocationRig(t, 91)
	st := r.sc.st
	fill := fillRandom
	if primed {
		primeArena(st.dev, 64, fillFF)
		fill = func(rng *rand.Rand, n int64) []byte {
			b := make([]byte, n)
			fillNoFF(rng, b)
			return b
		}
	}
	const rounds = 120
	var relocatedFirst, overwrittenFirst int
	bias, step := 0, 256 // >0: the overwrite starts late; <0: the collector does
	prev := false
	for round := 0; round < rounds; round++ {
		pg := int64(round % rigPages)
		block, live := r.strand(t, pg)
		erases, moved := st.dev.EraseCount(nvm.PPA{Block: block}), st.GCReport().PagesRelocated

		start := make(chan struct{})
		var wg sync.WaitGroup
		var progress bool
		var gcErr, writeErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			spin(-bias)
			progress, gcErr = r.evacuate(block)
		}()
		data := fill(r.rng, rigElems*4)
		go func() {
			defer wg.Done()
			<-start
			spin(bias)
			_, _, writeErr = st.WritePartition(r.at, r.c.v, []int64{pg}, []int64{rigElems}, data)
		}()
		close(start)
		wg.Wait()
		if gcErr != nil || writeErr != nil || !progress {
			t.Fatalf("round %d: evacuation progress=%v err=%v, overwrite err=%v", round, progress, gcErr, writeErr)
		}
		if err := r.c.m.Write([]int64{pg}, []int64{rigElems}, data); err != nil {
			t.Fatal(err)
		}
		if st.dev.EraseCount(nvm.PPA{Block: block}) != erases+1 {
			t.Fatalf("round %d: the victim was not erased", round)
		}
		collectorFirst := false
		switch st.GCReport().PagesRelocated - moved {
		case int64(live):
			relocatedFirst, collectorFirst = relocatedFirst+1, true
		case int64(live) - 1:
			overwrittenFirst++
		default:
			t.Fatalf("round %d: %d of the victim's %d live pages relocated", round, st.GCReport().PagesRelocated-moved, live)
		}
		if round > 0 && collectorFirst != prev {
			step = max(step/2, 8) // the order flipped: close in on the tie
		} else if round > 0 {
			step = min(step*2, 1<<16)
		}
		prev = collectorFirst
		if collectorFirst {
			bias -= step
		} else {
			bias += step
		}
		r.auditSlots(t)
		if fs := st.dev.FrameStats(); fs.Lost != 0 {
			t.Fatalf("round %d: frames %+v: %d with two owners", round, fs, fs.Lost)
		}
		r.at = r.sc.read(t, r.at, r.c, []int64{0}, []int64{rigPages * rigElems})
	}
	t.Logf("%d rounds: relocation committed first %d times, the overwrite %d times", rounds, relocatedFirst, overwrittenFirst)
	if relocatedFirst == 0 || overwrittenFirst == 0 {
		t.Fatalf("only one order occurred: relocation first %d, overwrite first %d", relocatedFirst, overwrittenFirst)
	}
}
