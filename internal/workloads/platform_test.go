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
