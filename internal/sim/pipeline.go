package sim

// Pipeline computes the schedule of a K-stage software pipeline over a stream
// of iterations, the way the paper's applications overlap I/O, marshalling,
// host-to-device copy, and the compute kernel. Stage s of iteration i starts
// when both stage s-1 of iteration i (its input) and stage s of iteration i-1
// (the stage unit itself) have finished.
//
// It also accounts, per stage, the idle time: the gap during which the stage
// unit is free but its input has not arrived yet. The paper's Figure 10(b)
// reports exactly this quantity for the compute-kernel stage.
// The one-time pipeline-fill delay of each stage is not charged as idle time:
// only steady-state starvation (the stage unit free, input late) accumulates.
type Pipeline struct {
	stageDone []Time // completion time of the stage's latest iteration
	idle      []Time // accumulated input-starvation time per stage
	fed       []int  // iterations seen per stage
	end       Time
}

// NewPipeline creates a pipeline with the given number of stages.
func NewPipeline(stages int) *Pipeline {
	if stages < 1 {
		panic("sim: pipeline needs at least one stage")
	}
	return &Pipeline{
		stageDone: make([]Time, stages),
		idle:      make([]Time, stages),
		fed:       make([]int, stages),
	}
}

// Feed schedules one iteration whose per-stage service times are durs
// (len(durs) must equal the stage count). It returns the completion time of the
// iteration's final stage.
func (p *Pipeline) Feed(durs ...Time) Time {
	if len(durs) != len(p.stageDone) {
		panic("sim: Feed arity does not match pipeline stages")
	}
	inputReady := Time(0) // stage 0 input is always ready
	for s, d := range durs {
		start := Max(inputReady, p.stageDone[s])
		if s > 0 && p.fed[s] > 0 && start > p.stageDone[s] {
			// The stage unit was free at stageDone[s] but waited for input.
			p.idle[s] += start - p.stageDone[s]
		}
		p.fed[s]++
		p.stageDone[s] = start + d
		inputReady = p.stageDone[s]
	}
	p.end = Max(p.end, inputReady)
	return inputReady
}

// End reports the completion time of the last finished iteration.
func (p *Pipeline) End() Time { return p.end }

// Idle reports the accumulated input-starvation time of stage s.
func (p *Pipeline) Idle(s int) Time { return p.idle[s] }
