package ft_test

import (
	"strings"
	"testing"
	"time"

	"pipes/internal/ft"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// TestRoundTimedOnRecorderClock pins the Manager's one clock: with the
// flight recorder on a frozen fake clock, every phase of a sealed round —
// the per-operator snapshot and encode, the store write and the round as a
// whole — reads zero duration, on the flight ring and in the
// pipes_checkpoint_duration_nanos histogram alike.
func TestRoundTimedOnRecorderClock(t *testing.T) {
	rec := flight.New(0)
	rec.SetClock(telemetry.NewFakeClock(time.Unix(1000, 0)))
	mgr := ft.NewManager(ft.NewMemStore())
	mgr.SetFlightRecorder(rec)
	reg := telemetry.NewRegistry()
	mgr.RegisterMetrics(reg)

	src := ft.NewCheckpointSource(pubsub.NewSliceSource("src", []temporal.Element{el(1, 1, 10), el(2, 2, 10)}))
	join := ops.NewEquiJoin("join", func(v any) any { return v }, func(v any) any { return v }, nil)
	sink := ft.NewCheckpointSink("sink")
	if err := src.Subscribe(join, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe(join, 1); err != nil {
		t.Fatal(err)
	}
	if err := join.Subscribe(sink, 0); err != nil {
		t.Fatal(err)
	}
	mgr.RegisterSource(src)
	mgr.RegisterOperator(join, join)
	mgr.RegisterSink(sink)
	mgr.Start(0)
	defer mgr.Stop()

	id, err := mgr.Trigger()
	if err != nil {
		t.Fatal(err)
	}
	src.EmitNext()
	waitSealed(t, mgr, id)

	seen := map[flight.Kind]bool{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case flight.KindSnapshot, flight.KindEncode, flight.KindStoreWrite, flight.KindRoundDone:
			seen[ev.Kind] = true
			if ev.B != 0 {
				t.Errorf("%s of round %d lasted %d ns on a frozen clock", ev.Kind, ev.A, ev.B)
			}
		}
	}
	for _, k := range []flight.Kind{flight.KindSnapshot, flight.KindEncode, flight.KindStoreWrite, flight.KindRoundDone} {
		if !seen[k] {
			t.Errorf("no %s event recorded", k)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	metrics, err := telemetry.ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range metrics {
		if m.Name == "pipes_checkpoint_duration_nanos_sum" {
			found = true
			if m.Value != 0 {
				t.Errorf("pipes_checkpoint_duration_nanos_sum = %v on a frozen clock, want 0", m.Value)
			}
		}
	}
	if !found {
		t.Error("pipes_checkpoint_duration_nanos_sum not exported")
	}
}
