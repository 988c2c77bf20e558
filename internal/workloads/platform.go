package workloads

import (
	"fmt"

	"nds/internal/stl"
	"nds/internal/system"
)

// Platform is the evaluation platform of the paper's §6–7: a baseline SSD,
// software NDS and hardware NDS over identically configured devices.
type Platform struct {
	Baseline *system.System
	Software *system.System
	Hardware *system.System
}

// NewPlatform builds the three systems of one configuration.
func NewPlatform(cfg system.Config) (*Platform, error) {
	var sys [3]*system.System
	for i, kind := range []system.Kind{system.Baseline, system.SoftwareNDS, system.HardwareNDS} {
		var err error
		if sys[i], err = system.New(kind, cfg); err != nil {
			for _, s := range sys[:i] {
				s.Close()
			}
			return nil, err
		}
	}
	return &Platform{Baseline: sys[0], Software: sys[1], Hardware: sys[2]}, nil
}

// Close closes all three systems (system.System.Close).
func (p *Platform) Close() {
	p.Baseline.Close()
	p.Software.Close()
	p.Hardware.Close()
}

// ResetTimelines quiesces all three systems.
func (p *Platform) ResetTimelines() {
	p.Baseline.ResetTimelines()
	p.Software.ResetTimelines()
	p.Hardware.ResetTimelines()
}

// NewSpace creates a space of elem-byte elements with the given dimensions
// on an NDS system and returns its full view.
func NewSpace(sys *system.System, elem int, dims []int64) (*stl.View, error) {
	sp, err := sys.STL.CreateSpace(elem, dims)
	if err != nil {
		return nil, err
	}
	return stl.NewView(sp, dims)
}

// The loaders below are dataset setup: every figure times the layout a load
// left, and a collection during the load would move it, so each refuses a
// load its layer's collector ran in (Collected). Both quiesce the system's
// timelines afterwards, so measurements start from a quiet device.

// LoadLinear writes the baseline's linear space from logical page 0 on,
// bytes of it, one page after another.
func LoadLinear(base *system.System, bytes int64) error {
	before := base.FTL.GCReport()
	pages := bytes / int64(base.Cfg.Geometry.PageSize)
	const batch = 65536 // the layout is fixed per logical page; this only bounds one call
	for lpn := int64(0); lpn < pages; lpn += batch {
		if _, err := base.FTL.WritePages(0, lpn, nil, min(batch, pages-lpn)); err != nil {
			return fmt.Errorf("workloads: baseline load: %w", err)
		}
	}
	if err := Collected(before, base.FTL.GCReport()); err != nil {
		return fmt.Errorf("workloads: baseline load: %w", err)
	}
	base.ResetTimelines()
	return nil
}

// LoadBands creates a space of elem-byte elements with the given dimensions
// on an NDS system, writes all of it in building-block row bands, and
// returns its full view.
func LoadBands(sys *system.System, elem int, dims []int64) (*stl.View, error) {
	before := sys.STL.GCReport()
	v, err := NewSpace(sys, elem, dims)
	if err != nil {
		return nil, err
	}
	band := v.Space().BlockDims()[0]
	sub := append([]int64{band}, dims[1:]...)
	coord := make([]int64, len(dims))
	for coord[0] = 0; coord[0]*band < dims[0]; coord[0]++ {
		if _, _, err := sys.STL.WritePartition(0, v, coord, sub, nil); err != nil {
			return nil, fmt.Errorf("workloads: %v load: %w", sys.Kind, err)
		}
	}
	if err := Collected(before, sys.STL.GCReport()); err != nil {
		return nil, fmt.Errorf("workloads: %v load: %w", sys.Kind, err)
	}
	sys.ResetTimelines()
	return v, nil
}

// collected reports an error when a collector erased or relocated between
// two reports.
func Collected(before, after stl.GCReport) error {
	if after.Erases != before.Erases || after.PagesRelocated != before.PagesRelocated {
		return fmt.Errorf("the load collected: %d erases, %d pages relocated",
			after.Erases-before.Erases, after.PagesRelocated-before.PagesRelocated)
	}
	return nil
}
