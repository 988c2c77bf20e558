package nds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nds/internal/proto"
)

// faultOpts is the shared end-to-end fault configuration: rates tuned so a
// modest workload on the smallest prototype geometry (256 dies) hits every
// transient class while staying inside the over-provision reserve.
func faultOpts() Options {
	return Options{
		Mode:         ModeHardware,
		CapacityHint: 1 << 20,
		Faults: &FaultPlan{
			Seed:             19,
			ProgramFailEvery: 16,
			ReadRetryEvery:   5,
		},
	}
}

// faultWorkload drives one device through a fixed mixed read/write sequence
// and returns the final space image and the reliability report.
func faultWorkload(t *testing.T, d *Device) ([]byte, ReliabilityReport) {
	t.Helper()
	id, err := d.CreateSpace(4, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := d.OpenSpace(id, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	whole := make([]byte, 512*512*4)
	rng.Read(whole)
	var retries int64
	st, err := sp.Write([]int64{0, 0}, []int64{512, 512}, whole)
	if err != nil {
		t.Fatal(err)
	}
	retries += st.ProgramRetries
	for i := 0; i < 10; i++ {
		tile := make([]byte, 128*128*4)
		rng.Read(tile)
		coord := []int64{rng.Int63n(4), rng.Int63n(4)}
		st, err := sp.Write(coord, []int64{128, 128}, tile)
		if err != nil {
			t.Fatalf("tile write %d: %v", i, err)
		}
		retries += st.ProgramRetries
		if _, _, err := sp.Read(coord, []int64{128, 128}); err != nil {
			t.Fatalf("tile read %d: %v", i, err)
		}
		lo := [2]int64{coord[0] * 128, coord[1] * 128}
		for r := int64(0); r < 128; r++ {
			row := ((lo[0]+r)*512 + lo[1]) * 4
			copy(whole[row:], tile[r*128*4:(r+1)*128*4])
		}
	}
	img, _, err := sp.Read([]int64{0, 0}, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, whole) {
		t.Fatal("read-back diverged from the host image under fault injection")
	}
	r := d.Reliability()
	if retries != r.ProgramRetries {
		t.Fatalf("per-request Stats counted %d relocations, report says %d", retries, r.ProgramRetries)
	}
	return img, r
}

// TestFaultInjectionEndToEnd: the public API absorbs a seeded fault plan —
// data survives, the report shows the recovery work, and an identical second
// device replays the exact same fault history.
func TestFaultInjectionEndToEnd(t *testing.T) {
	d1, err := Open(faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	img1, r1 := faultWorkload(t, d1)
	if r1.ProgramFaults == 0 || r1.ProgramRetries == 0 || r1.RetiredBlocks == 0 {
		t.Fatalf("program-fault recovery never ran: %+v", r1)
	}
	if r1.ReadRetries == 0 {
		t.Fatalf("no ECC read retries recorded: %+v", r1)
	}
	if r1.EffectivePages > r1.MaxPages || r1.RetiredPages == 0 {
		t.Fatalf("inconsistent capacity accounting: %+v", r1)
	}

	d2, err := Open(faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	img2, r2 := faultWorkload(t, d2)
	if r1 != r2 {
		t.Fatalf("reliability reports diverged across identical runs:\n%+v\n%+v", r1, r2)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("images diverged across identical runs")
	}
	if d1.Now() != d2.Now() {
		t.Fatalf("simulated clocks diverged: %v vs %v", d1.Now(), d2.Now())
	}
}

// TestExecReliabilityFault: the get_reliability wire command returns a page
// whose decoded counters match the typed Reliability API.
func TestExecReliabilityFault(t *testing.T) {
	d, err := Open(faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, want := faultWorkload(t, d)

	page, cpl, _, err := d.Exec(proto.NewReliability(0x3000).Marshal(), nil, nil)
	if err != nil || cpl.Status != proto.StatusOK {
		t.Fatalf("get_reliability: %v / %v", cpl.Status, err)
	}
	pl, err := proto.UnmarshalReliabilityPayload(page)
	if err != nil {
		t.Fatal(err)
	}
	got := ReliabilityReport{
		ProgramFaults:  pl.ProgramFaults,
		EraseFaults:    pl.EraseFaults,
		WearoutFaults:  pl.WearoutFaults,
		ReadRetries:    pl.ReadRetries,
		ProgramRetries: pl.ProgramRetries,
		RetiredBlocks:  pl.RetiredBlocks,
		RetiredPages:   pl.RetiredPages,
		MaxPages:       pl.MaxPages,
		EffectivePages: pl.EffectivePages,
		UsedPages:      pl.UsedPages,
	}
	if got != want {
		t.Fatalf("wire report diverged from typed report:\n%+v\n%+v", got, want)
	}
	if cpl.Result0 != uint64(want.RetiredBlocks) {
		t.Fatalf("completion Result0 = %d, want retired-block count %d", cpl.Result0, want.RetiredBlocks)
	}
}

// TestFaultConcurrentClients: concurrent request streams over a faulty
// medium recover independently — every client's data reads back intact.
// (Run under -race by the fault-matrix CI step.)
func TestFaultConcurrentClients(t *testing.T) {
	d, err := Open(Options{
		Mode:         ModeHardware,
		CapacityHint: 1 << 20,
		Faults:       &FaultPlan{Seed: 29, ProgramFailEvery: 8, ReadRetryEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id, err := d.CreateSpace(4, []int64{128, 128})
			if err != nil {
				errs <- err
				return
			}
			sp, err := d.OpenSpace(id, []int64{128, 128})
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < 6; i++ {
				data := make([]byte, 128*128*4)
				rng.Read(data)
				if _, err := sp.Write([]int64{0, 0}, []int64{128, 128}, data); err != nil {
					errs <- fmt.Errorf("client %d write %d: %w", c, i, err)
					return
				}
				got, _, err := sp.Read([]int64{0, 0}, []int64{128, 128})
				if err != nil {
					errs <- fmt.Errorf("client %d read %d: %w", c, i, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("client %d iteration %d: read-back mismatch", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r := d.Reliability(); r.ProgramFaults == 0 || r.ReadRetries == 0 {
		t.Fatalf("concurrent workload never hit the fault plan: %+v", r)
	}
}
