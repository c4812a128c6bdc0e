package ops

import (
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// NewIStream returns CQL's ISTREAM relation-to-stream converter: a chronon
// element whenever a value enters the snapshot, realised per element as
// (v, [s,e)) ↦ (v, [s,s+1)) — the NOW window's map.
func NewIStream(name string) *NowWindow { return NewNowWindow(name) }

// DStream emits a chronon element whenever a value leaves the snapshot —
// CQL's DSTREAM: (v, [s,e)) ↦ (v, [e,e+1)). Because interval ends are not
// arrival-ordered, results pass through an order buffer. Elements with
// unbounded validity never leave and produce no output.
type DStream struct {
	pubsub.PipeBase
	out *orderBuffer
}

// NewDStream returns a DSTREAM converter.
func NewDStream(name string) *DStream {
	d := &DStream{PipeBase: pubsub.NewPipeBase(name, 1), out: newOrderBuffer(1)}
	d.OnAllDone = func() { d.out.flush(d.Emit) }
	return d
}

// ProcessBatch implements pubsub.BatchSink.
func (d *DStream) ProcessBatch(b temporal.Batch, _ int) {
	d.ProcMu.Lock()
	defer d.ProcMu.Unlock()
	for _, e := range b {
		if e.End != temporal.MaxTime {
			d.out.add(e.WithInterval(temporal.NewInterval(e.End, e.End+1)))
		}
		d.out.observe(0, e.Start)
		d.out.release(d.out.watermark(), d.Emit)
	}
	d.Flush()
}
