// Package sim provides the simulated-time substrate shared by every model in
// this repository: a nanosecond clock, serially-occupied resources with busy
// accounting, pools of identical resources, bandwidth helpers, and a K-stage
// pipeline calculator used to model overlapped I/O + compute.
//
// The simulator is a resource-timeline model rather than a full event queue:
// request flows issue operations in program order, and each operation reserves
// an interval on the resources it touches. This is sufficient (and exact) for
// the closed-loop, pipelined request streams the NDS paper evaluates, while
// keeping every model deterministic and fast enough to run at paper scale.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation start.
// It doubles as a duration; the zero value is the simulation epoch.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// TransferTime is the duration of moving n bytes at bytesPerSec.
// A non-positive rate yields zero duration, letting callers disable a link.
func TransferTime(n int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSec * float64(Second))
}

// Bandwidth reports achieved bytes/second for n bytes over elapsed d.
func Bandwidth(n int64, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two times.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
