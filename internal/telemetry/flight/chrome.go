// Chrome trace_event export of the flight ring: /flight.json. One track
// (tid) per interned operator plus a dedicated barrier-round track, so
// Perfetto / chrome://tracing shows frame flow, buffer waterlines and
// checkpoint phases on a shared timeline.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
)

// barrierTID is the reserved track for checkpoint-round events
// (KindStoreWrite, KindRoundDone). Operator tracks start at 1.
const barrierTID = 0

// chromeEvent mirrors telemetry's trace_event shape (kept local: flight
// events add instant-phase and metadata records the tracer never emits).
type chromeEvent struct {
	Name     string         `json:"name"`
	Phase    string         `json:"ph"`
	TS       float64        `json:"ts"`            // microseconds
	Dur      float64        `json:"dur,omitempty"` // microseconds
	PID      int            `json:"pid"`
	TID      uint64         `json:"tid"`
	Category string         `json:"cat,omitempty"`
	Scope    string         `json:"s,omitempty"` // instant-event scope
	Args     map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the current ring contents as Chrome
// trace_event JSON. Point events (frames, enqueues, drains, replays,
// sheds, steals) become thread-scoped instants on their operator's
// track; phase events carrying a duration (alignment hold, state encode,
// store write, round completion) become complete slices spanning
// [wall-dur, wall]. Track names are emitted as thread_name metadata.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := []chromeEvent{{
		Name:  "thread_name",
		Phase: "M",
		PID:   1,
		TID:   barrierTID,
		Args:  map[string]any{"name": "checkpoint rounds"},
	}}
	for _, ref := range r.Refs() {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   uint64(ref.idx) + 1,
			Args:  map[string]any{"name": ref.name},
		})
	}
	for _, ev := range r.Events() {
		events = append(events, chromeify(r, ev))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

// chromeify converts one ring event to its trace_event form.
func chromeify(r *Recorder, ev Event) chromeEvent {
	tid := uint64(barrierTID)
	if ev.Op != "" {
		if ref, ok := r.lookup(ev.Op); ok {
			tid = uint64(ref.idx) + 1
		}
	}
	ce := chromeEvent{
		PID:      1,
		TID:      tid,
		Category: "pipes-flight",
		Args:     map[string]any{"seq": ev.Seq, "op": ev.Op},
	}
	switch ev.Kind {
	case KindAlignHold, KindSnapshot, KindEncode, KindStoreWrite, KindRoundDone:
		// Duration-bearing phases: B is the ns duration ending at WallNS.
		ce.Phase = "X"
		ce.TS = float64(ev.WallNS-ev.B) / 1e3
		ce.Dur = float64(ev.B) / 1e3
		ce.Name = fmt.Sprintf("%s#%d", ev.Kind, ev.A)
		ce.Args["round"] = ev.A
		if ev.Kind == KindEncode || ev.Kind == KindStoreWrite {
			ce.Args["bytes"] = ev.C
		}
		if ev.Kind == KindStoreWrite || ev.Kind == KindRoundDone {
			ce.TID = barrierTID
		}
	default:
		ce.Phase = "i"
		ce.Scope = "t"
		ce.TS = float64(ev.WallNS) / 1e3
		switch ev.Kind {
		case KindFrame:
			ce.Name = fmt.Sprintf("frame(%d)", ev.A)
			ce.Args["occupancy"] = ev.A
		case KindEnqueue:
			ce.Name = fmt.Sprintf("enqueue(+%d)", ev.A)
			ce.Args["depth"] = ev.B
		case KindDrain:
			ce.Name = fmt.Sprintf("drain(-%d)", ev.A)
			ce.Args["depth"] = ev.B
		case KindGateReplay:
			ce.Name = fmt.Sprintf("replay#%d(%d)", ev.A, ev.B)
			ce.Args["round"] = ev.A
			ce.Args["replayed"] = ev.B
		case KindShed:
			ce.Name = fmt.Sprintf("shed(%dB)", ev.A)
			ce.Args["freed"] = ev.A
			ce.Args["usage"] = ev.B
			ce.Args["limit"] = ev.C
		case KindSteal:
			ce.Name = fmt.Sprintf("steal(w%d<-w%d)", ev.A, ev.B)
		default:
			ce.Name = ev.Kind.String()
		}
	}
	return ce
}

// lookup resolves an interned name back to its handle.
func (r *Recorder) lookup(name string) (*OpRef, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.refs[name]
	return ref, ok
}
