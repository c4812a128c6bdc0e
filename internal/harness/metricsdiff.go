// Metrics-equivalence oracle for frame-size invariance: a plan whose
// operators are monitored must collect the SAME time-independent
// secondary metadata at every frame size. Counts and
// application-time stamps are per-element exact; selectivity derives from
// the counts; and the maintenance stride
// fires on the same 1-based element ordinals (1, 17, 33, ...) regardless
// of frame grouping, so even the *number* of service-time samples must
// agree. Rates, EWMA costs and latency quantiles are wall-clock-dependent
// and excluded from the comparison.
package harness

import (
	"fmt"

	"pipes/internal/metadata"
)

// MonitorSnapshot is the comparable, time-independent metadata of one
// monitored operator after a run completed.
type MonitorSnapshot struct {
	// Op is the operator's name.
	Op string
	// InputCount and OutputCount are exact element tallies.
	InputCount  float64
	OutputCount float64
	// Selectivity is outputs per input, derived from the counts.
	Selectivity float64
	// LastInput and LastOutput are application timestamps (not wall time).
	LastInput  float64
	LastOutput float64
	// SvcSamples counts service-time observations: one per maintenance
	// stride hit, a pure function of InputCount.
	SvcSamples uint64
}

// SnapshotMonitors captures each monitor's comparable metadata, in the
// given order.
func SnapshotMonitors(ms []*metadata.Monitored) []MonitorSnapshot {
	out := make([]MonitorSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MonitorSnapshot{Op: m.Inner().Name(), SvcSamples: m.ServiceTimeHistogram().Count()}
		s.InputCount, _ = m.Get(metadata.InputCount)
		s.OutputCount, _ = m.Get(metadata.OutputCount)
		s.Selectivity, _ = m.Get(metadata.Selectivity)
		s.LastInput, _ = m.Get(metadata.LastInputStamp)
		s.LastOutput, _ = m.Get(metadata.LastOutputStamp)
		out = append(out, s)
	}
	return out
}

// MetricsDiff compares two runs' snapshots for exact agreement and reports
// the first divergence.
func MetricsDiff(want, got []MonitorSnapshot) error {
	if len(want) != len(got) {
		return fmt.Errorf("monitors: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("monitor %s: want %+v, got %+v", want[i].Op, want[i], got[i])
		}
	}
	return nil
}
