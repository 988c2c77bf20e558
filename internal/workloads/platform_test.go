package workloads

import (
	"strings"
	"testing"

	"nds/internal/nvm"
	"nds/internal/system"
)

// TestLoadsRefuseCollection: a load the collector ran in leaves a layout no
// figure may time, so both loaders refuse it, while a fresh load of the same
// size succeeds. The device is 512 pages (2 MiB) and the dataset 1 MiB: one
// load fits, and a second over the first's dead pages must collect.
func TestLoadsRefuseCollection(t *testing.T) {
	const n = 512 // a 512 x 512 matrix of 4-byte elements: 1 MiB
	cfg := system.PrototypeConfig(n*n*4, true)
	cfg.Geometry = nvm.Geometry{Channels: 2, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 16, PageSize: 4096}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "the load collected") {
			t.Errorf("%s: got %v, want a refusal of the collecting load", what, err)
		}
	}

	// Baseline: rewriting the linear space over the first load.
	if err := LoadLinear(p.Baseline, n*n*4); err != nil {
		t.Fatalf("fresh baseline load: %v", err)
	}
	refused("second baseline load", LoadLinear(p.Baseline, n*n*4))

	// NDS: a second space where the first one was deleted.
	for _, sys := range []*system.System{p.Software, p.Hardware} {
		v, err := LoadBands(sys, 4, []int64{n, n})
		if err != nil {
			t.Fatalf("fresh %v load: %v", sys.Kind, err)
		}
		if err := sys.STL.DeleteSpace(v.Space().ID()); err != nil {
			t.Fatal(err)
		}
		_, err = LoadBands(sys, 4, []int64{n, n})
		refused("second "+sys.Kind.String()+" load", err)
	}
}

// BenchmarkLoadPlatform is the set-up every paper figure pays: the paper's
// prototype geometry, phantom, and one N = 8192 matrix of 8-byte elements
// loaded into the baseline's linear space and as building-block bands into
// both NDS kinds. Building block placement (§4.2) runs once per unit of the
// two band loads, so this is where its cost shows.
func BenchmarkLoadPlatform(b *testing.B) {
	const n = 8192
	dims := []int64{n, n}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := NewPlatform(system.PrototypeConfig(n*n*8, true))
		if err != nil {
			b.Fatal(err)
		}
		if err := LoadLinear(p.Baseline, n*n*8); err != nil {
			b.Fatal(err)
		}
		for _, sys := range []*system.System{p.Software, p.Hardware} {
			if _, err := LoadBands(sys, 8, dims); err != nil {
				b.Fatal(err)
			}
		}
	}
}
