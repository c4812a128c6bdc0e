package pipes

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
)

// TestFlightMetricsRoundTrip runs the traffic workload with checkpointing
// on, scrapes /metrics through the real writer, re-parses the exposition
// with the repo's own parser, and checks the pipes_edge_* and
// pipes_checkpoint_round_* families survive the round trip with values
// matching the recorder's aggregates.
func TestFlightMetricsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// 200k readings keep the stream flowing for tens of milliseconds, so
	// the 1ms cadence fires many mid-stream rounds (post-stream rounds
	// are refused, ft.ErrStreamEnded) and Wait→Checkpoints.Stop seals any
	// round completing concurrently with shutdown (the manager's final
	// drain). Completed is therefore deterministic here and the
	// encode/write phase histograms are populated by the engine itself.
	dsms := runTelemetryWorkloadN(t, Config{
		Workers:            2,
		MonitorQueries:     true,
		CheckpointDir:      dir,
		CheckpointInterval: time.Millisecond,
	}, 200_000)
	if dsms.Flight == nil {
		t.Fatal("flight recorder not created by default")
	}
	if dsms.Checkpoints.Completed() == 0 {
		t.Fatal("no checkpoint round completed; barrier phases unexercised")
	}
	// Queue-depth and align-hold events need boundary buffers and blocked
	// barrier alignment, which this single-chain inline workload never
	// produces. Feed them through the recorder directly — this test pins
	// the writer→parser round trip for every family, not the wiring
	// (covered by the pubsub/ft instrumentation and unit tests).
	syn := dsms.Flight.Ref("synthetic.buf")
	for i := 0; i < 16; i++ {
		syn.Enqueue(1, i)
	}
	syn.Phase(flight.KindAlignHold, 1, 250_000, 0)

	rec := httptest.NewRecorder()
	dsms.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	metrics, err := telemetry.ParsePrometheus(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("exposition does not re-parse: %v", err)
	}

	frames := map[string]float64{}
	elements := map[string]float64{}
	occOps := map[string]bool{}
	depthOps := map[string]bool{}
	phaseCounts := map[string]float64{}
	for _, m := range metrics {
		switch m.Name {
		case "pipes_edge_frames_total":
			frames[m.Label("op")] = m.Value
		case "pipes_edge_elements_total":
			elements[m.Label("op")] = m.Value
		case "pipes_edge_frame_occupancy_count":
			occOps[m.Label("op")] = true
		case "pipes_edge_queue_depth_count":
			depthOps[m.Label("op")] = true
		case "pipes_checkpoint_round_phase_ns_count":
			phaseCounts[m.Label("phase")] = m.Value
		}
	}

	// Every recorder ref that saw frames must round-trip exactly; the
	// batch lane is the production path, so at least one must be non-zero.
	var sawFrames bool
	for _, ref := range dsms.Flight.Refs() {
		op := ref.Name()
		if ref.Frames() == 0 {
			continue
		}
		sawFrames = true
		if got := frames[op]; got != float64(ref.Frames()) {
			t.Errorf("pipes_edge_frames_total{op=%q} = %v, recorder says %d", op, got, ref.Frames())
		}
		if got := elements[op]; got != float64(ref.Elements()) {
			t.Errorf("pipes_edge_elements_total{op=%q} = %v, recorder says %d", op, got, ref.Elements())
		}
		// Occupancy is sampled 1-in-16 frames, so only ops past one full
		// stride are guaranteed a series.
		if ref.Frames() >= 16 && !occOps[op] {
			t.Errorf("no pipes_edge_frame_occupancy series for %q despite %d frames", op, ref.Frames())
		}
	}
	if !sawFrames {
		t.Fatal("no operator recorded frames; batch lane not instrumented")
	}
	if !depthOps["synthetic.buf"] {
		t.Error("no pipes_edge_queue_depth series for the fed buffer ref")
	}
	for _, phase := range []string{"align", "snapshot", "encode", "write"} {
		if phaseCounts[phase] == 0 {
			t.Errorf("pipes_checkpoint_round_phase_ns{phase=%q} absent or empty", phase)
		}
	}

	// One block per node: every monitored operator's flight ref is keyed
	// by the operator's own name, the namespace pipes_metadata uses.
	refs := map[string]bool{}
	for _, ref := range dsms.Flight.Refs() {
		refs[ref.Name()] = true
	}
	for _, m := range dsms.Monitors() {
		if !refs[m.Inner().Name()] {
			t.Errorf("monitored operator %q has no flight ref under its own name", m.Inner().Name())
		}
	}
}

// TestFlightJSONEndpoint checks /flight.json serves a Chrome-trace
// document for the live engine: valid JSON, a traceEvents array, and the
// per-operator thread_name tracks present.
func TestFlightJSONEndpoint(t *testing.T) {
	dsms := runTelemetryWorkload(t, Config{Workers: 2, MonitorQueries: true})
	rec := httptest.NewRecorder()
	dsms.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/flight.json", nil))
	if rec.Code != 200 {
		t.Fatalf("/flight.json returned %d", rec.Code)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/flight.json is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/flight.json has no trace events")
	}
	var tracks, points int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			tracks++
		case "i", "X":
			points++
		}
	}
	if tracks < 2 || points == 0 {
		t.Fatalf("trace has %d tracks and %d events; want per-op tracks with events", tracks, points)
	}
}

// TestBottleneckEndpoint checks /bottleneck.json decodes into a
// flight.Report whose ops cover the monitored operators and whose query
// section names the registered query.
func TestBottleneckEndpoint(t *testing.T) {
	dsms := runTelemetryWorkload(t, Config{Workers: 2, MonitorQueries: true})
	rec := httptest.NewRecorder()
	dsms.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/bottleneck.json", nil))
	if rec.Code != 200 {
		t.Fatalf("/bottleneck.json returned %d", rec.Code)
	}
	var rep flight.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/bottleneck.json does not decode as a Report: %v", err)
	}
	if len(rep.Ops) == 0 {
		t.Fatal("report diagnoses no operators")
	}
	if len(rep.Queries) != 1 {
		t.Fatalf("report covers %d queries, want 1", len(rep.Queries))
	}
	diagnosed := map[string]bool{}
	for _, d := range rep.Ops {
		diagnosed[d.Op] = true
		if d.Verdict == "" {
			t.Errorf("operator %q has an empty verdict", d.Op)
		}
	}
	for _, m := range dsms.Monitors() {
		if !diagnosed[m.Inner().Name()] {
			t.Errorf("monitored operator %q missing from the report", m.Inner().Name())
		}
	}
}

// TestDisableFlight pins the off switch: no recorder, no pipes_edge_*
// families, metadata unaffected, and /flight.json degrades to an empty trace rather than 404
// (so a viewer pointed at a disabled engine still loads).
func TestDisableFlight(t *testing.T) {
	dsms := runTelemetryWorkload(t, Config{Workers: 1, MonitorQueries: true, DisableFlight: true})
	if dsms.Flight != nil {
		t.Fatal("DisableFlight left a recorder attached")
	}
	h := dsms.TelemetryHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "pipes_edge_") {
		t.Error("pipes_edge_* exported with the flight recorder disabled")
	}
	// Only the recorder is off: the monitors read recorder-less blocks.
	if !strings.Contains(rec.Body.String(), `kind="input_count"`) || len(dsms.Monitors()) == 0 {
		t.Error("MonitorQueries stopped working with the flight recorder disabled")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/flight.json", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatalf("/flight.json with flight disabled: %d %q", rec.Code, rec.Body.String())
	}
}

// TestFlightRefsFollowQueries registers and deregisters a group-by query
// over and over: each cycle's operators leave the recorder's blocks, and
// their pipes_edge_* series the scrape, with the query that built them.
func TestFlightRefsFollowQueries(t *testing.T) {
	dsms := NewDSMS(Config{})
	dsms.RegisterStream("s", NewSliceSource("s", nil), 10)
	before := len(dsms.Flight.Refs())
	for i := 0; i < 50; i++ {
		q, err := dsms.RegisterQuery(`SELECT k, COUNT(*) AS n FROM s [RANGE 10] GROUP BY k`)
		if err != nil {
			t.Fatal(err)
		}
		if err := dsms.DeregisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(dsms.Flight.Refs()); got != before {
		t.Fatalf("flight refs went from %d to %d over 50 register/deregister cycles", before, got)
	}
	rec := httptest.NewRecorder()
	dsms.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); strings.Contains(body, "γ#") {
		t.Fatalf("the scrape still names a removed group-by:\n%s", body)
	}
}
