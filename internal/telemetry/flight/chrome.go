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
// A forgotten operator's track is named where its first event still in
// the ring appears.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := []chromeEvent{trackName(barrierTID, "checkpoint rounds")}
	named := map[uint64]bool{barrierTID: true}
	for _, ref := range r.Refs() {
		named[uint64(ref.idx)+1] = true
		events = append(events, trackName(uint64(ref.idx)+1, ref.name))
	}
	for _, ev := range r.Events() {
		ce := chromeify(ev)
		if !named[ce.TID] {
			named[ce.TID] = true
			events = append(events, trackName(ce.TID, ev.Op))
		}
		events = append(events, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

// trackName is the thread_name metadata record naming track tid.
func trackName(tid uint64, name string) chromeEvent {
	return chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: tid, Args: map[string]any{"name": name}}
}

// chromeify converts one ring event to its trace_event form.
func chromeify(ev Event) chromeEvent {
	tid := uint64(barrierTID)
	if ev.Op != "" {
		tid = uint64(ev.idx) + 1
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
