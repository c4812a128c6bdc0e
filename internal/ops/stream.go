package ops

import "pipes/internal/temporal"

// NewIStream returns CQL's ISTREAM relation-to-stream converter: a chronon
// element whenever a value enters the snapshot, realised per element as
// (v, [s,e)) ↦ (v, [s,s+1)) — the NOW window's map.
func NewIStream(name string) *TimeWindow { return NewNowWindow(name) }

// DStream emits a chronon element whenever a value leaves the snapshot —
// CQL's DSTREAM: (v, [s,e)) ↦ (v, [e,e+1)). Because interval ends are not
// arrival-ordered, results pass through an order buffer. Elements with
// unbounded validity never leave and produce no output.
type DStream struct{ ordered }

// NewDStream returns a DSTREAM converter.
func NewDStream(name string) *DStream {
	d := &DStream{}
	d.init(name, 1, d.processOne, nil)
	return d
}

// processOne is the per-element body, under ProcMu.
func (d *DStream) processOne(_ int, e temporal.Element) {
	if e.End != temporal.MaxTime {
		d.add(e.WithInterval(temporal.NewInterval(e.End, e.End+1)))
	}
}
