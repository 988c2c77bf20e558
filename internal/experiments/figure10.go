package experiments

import (
	"fmt"

	"nds/internal/workloads"
)

// Figure 10: (a) end-to-end speedup of software NDS, the zero-overhead
// software oracle, and hardware NDS over the baseline SSD for the ten
// Table 1 workloads; (b) the reduction of compute-kernel idle time.

// Fig10Summary aggregates the per-workload results.
type Fig10Summary struct {
	Results []workloads.Result

	AvgSpeedupSW     float64
	AvgSpeedupHW     float64
	AvgSpeedupOracle float64
	AvgIdleRedSW     float64
	AvgIdleRedHW     float64
}

// Figure10 runs every Table 1 workload on the three configurations plus the
// oracle. Averages are arithmetic means, matching the paper's reporting.
func Figure10() (Fig10Summary, error) {
	var s Fig10Summary
	for _, spec := range workloads.Catalog() {
		r, err := workloads.Run(spec)
		if err != nil {
			return s, fmt.Errorf("experiments: %s: %w", spec.Name, err)
		}
		s.Results = append(s.Results, r)
		s.AvgSpeedupSW += r.SpeedupSoftware
		s.AvgSpeedupHW += r.SpeedupHardware
		s.AvgSpeedupOracle += r.SpeedupOracle
		s.AvgIdleRedSW += r.IdleReductionSW
		s.AvgIdleRedHW += r.IdleReductionHW
	}
	n := float64(len(s.Results))
	s.AvgSpeedupSW /= n
	s.AvgSpeedupHW /= n
	s.AvgSpeedupOracle /= n
	s.AvgIdleRedSW /= n
	s.AvgIdleRedHW /= n
	return s, nil
}
