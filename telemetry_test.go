package pipes

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pipes/internal/telemetry"
	"pipes/internal/traffic"
)

// runTelemetryWorkload drives the traffic scenario on a telemetry-enabled
// engine and returns the completed DSMS (endpoint still addressable via
// TelemetryHandler).
func runTelemetryWorkload(t *testing.T, cfg Config) *DSMS {
	t.Helper()
	return runTelemetryWorkloadN(t, cfg, 10_000)
}

// runTelemetryWorkloadN is runTelemetryWorkload with a chosen stream
// length — checkpoint tests size the workload so the periodic trigger is
// guaranteed to fire while the stream still flows (rounds cannot start
// after end-of-stream, see ft.ErrStreamEnded).
func runTelemetryWorkloadN(t *testing.T, cfg Config, readings int) *DSMS {
	t.Helper()
	gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: readings})
	dsms := NewDSMS(cfg)
	dsms.RegisterStream("traffic", gen.Source("traffic"), 1000)
	q, err := dsms.RegisterQuery(traffic.QueryAvgHOVSpeed)
	if err != nil {
		t.Fatal(err)
	}
	out := NewCounter("results", 1)
	if err := q.Subscribe(out); err != nil {
		t.Fatal(err)
	}
	dsms.Start()
	dsms.Wait()
	out.Wait()
	if out.Count() == 0 {
		t.Fatal("workload produced no results")
	}
	t.Cleanup(dsms.Stop)
	return dsms
}

// TestScrapeEndpoint runs the traffic workload with tracing on and
// asserts the /metrics exposition parses and contains the per-operator
// queue/service-time histograms and every metadata kind the monitors
// report, plus topology, traces and pprof endpoints.
func TestScrapeEndpoint(t *testing.T) {
	dsms := runTelemetryWorkload(t, Config{Workers: 2, MonitorQueries: true, TraceEvery: 16})
	h := dsms.TelemetryHandler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	metrics, err := telemetry.ParsePrometheus(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("Prometheus exposition does not parse: %v", err)
	}

	ops := map[string]bool{}
	kindsSeen := map[string]bool{}
	phases := map[string]bool{}
	histCounts := map[string]float64{}
	for _, m := range metrics {
		switch m.Name {
		case "pipes_metadata":
			ops[m.Label("op")] = true
			kindsSeen[m.Label("kind")] = true
		case "pipes_op_latency_ns_count":
			phases[m.Label("phase")] = true
			histCounts[m.Label("op")+"/"+m.Label("phase")] += m.Value
		}
	}
	if len(ops) == 0 {
		t.Fatal("no monitored operators exported")
	}
	for _, k := range []string{"input_count", "output_count", "selectivity", "input_rate",
		"processing_cost_ns", "service_time_p50_ns", "service_time_p99_ns"} {
		if !kindsSeen[k] {
			t.Errorf("metadata kind %q missing from scrape", k)
		}
	}
	if !phases["service"] {
		t.Fatal("no service-time histograms exported")
	}
	if !phases["queue"] {
		t.Fatal("no queue-time histograms exported (tracing should feed them)")
	}
	for op, n := range histCounts {
		if n == 0 {
			t.Errorf("histogram %s exported with zero observations", op)
		}
	}
	var sawSched, sawMemory bool
	for _, m := range metrics {
		if strings.HasPrefix(m.Name, "pipes_sched_") {
			sawSched = true
		}
		if strings.HasPrefix(m.Name, "pipes_memory_") {
			sawMemory = true
		}
	}
	if !sawSched || !sawMemory {
		t.Fatalf("scheduler (%v) or memory (%v) metrics missing", sawSched, sawMemory)
	}

	var topo Topology
	if rec := get("/topology.json"); rec.Code != 200 {
		t.Fatalf("/topology.json returned %d", rec.Code)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &topo); err != nil {
		t.Fatalf("topology is not valid JSON: %v", err)
	}
	if len(topo.Nodes) == 0 || len(topo.Edges) == 0 || len(topo.Queries) != 1 {
		t.Fatalf("topology incomplete: %d nodes %d edges %d queries",
			len(topo.Nodes), len(topo.Edges), len(topo.Queries))
	}

	if rec := get("/traces.json"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatalf("/traces.json: %d %q", rec.Code, rec.Body.String()[:min(rec.Body.Len(), 120)])
	}
	if rec := get("/debug/pprof/goroutine?debug=1"); rec.Code != 200 {
		t.Fatalf("/debug/pprof/goroutine returned %d", rec.Code)
	}
}

// TestTelemetryAddrServesLive binds a real socket via Config.TelemetryAddr
// and scrapes it over HTTP while the engine exists — the remote-monitoring
// path pipesmon -attach uses.
func TestTelemetryAddrServesLive(t *testing.T) {
	dsms := runTelemetryWorkload(t, Config{Workers: 1, TelemetryAddr: "127.0.0.1:0"})
	addr := dsms.TelemetryAddr()
	if addr == "" {
		t.Fatal("telemetry endpoint did not bind")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	metrics, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sampled float64
	for _, m := range metrics {
		if m.Name == "pipes_traces_sampled" {
			sampled = m.Value
		}
	}
	if sampled == 0 {
		t.Fatal("TelemetryAddr should imply tracing; no traces sampled")
	}
	dsms.Stop()
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Fatal("endpoint still serving after Stop")
	}
}

// TestListenerServeAndClose drives the facade's one listener type: it
// binds a free port, serves its handler there, and close stops it; an
// unbound (nil) listener reports no address and closes as a no-op.
func TestListenerServeAndClose(t *testing.T) {
	l, err := listen("127.0.0.1:0", telemetry.Mux(telemetry.NewRegistry(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	addr := l.addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	l.close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still serving after close")
	}
	var unbound *listener
	if unbound.addr() != "" {
		t.Fatal("unbound listener reports an address")
	}
	unbound.close()
}

// TestScrapeSurfaceFamilies pins the set of metric names /metrics serves
// with every telemetry source on — flight recorder, monitors, tracing,
// checkpointing with a sealed round and the service — against a list
// written out here: OBSERVABILITY.md calls each name stable API, so a
// family appearing or vanishing must show up as a diff of this list.
func TestScrapeSurfaceFamilies(t *testing.T) {
	gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: 10_000})
	dsms := NewDSMS(Config{
		Workers:        1,
		MonitorQueries: true,
		TraceEvery:     16,
		CheckpointDir:  t.TempDir(),
		ServiceTenants: []TenantConfig{{Name: "acme", Token: "acme-token"}},
	})
	t.Cleanup(dsms.Stop)
	dsms.RegisterStream("traffic", gen.Source("traffic"), 1000)
	q, err := dsms.RegisterQuery(traffic.QueryAvgHOVSpeed)
	if err != nil {
		t.Fatal(err)
	}
	out := NewCounter("results", 1)
	if err := q.Subscribe(out); err != nil {
		t.Fatal(err)
	}
	// Requested before Start, the barrier enters at the first element.
	if _, err := dsms.Checkpoints.Trigger(); err != nil {
		t.Fatal(err)
	}
	dsms.Start()
	dsms.Wait()
	out.Wait()
	if got := dsms.Checkpoints.Completed(); got != 1 {
		t.Fatalf("%d checkpoint rounds sealed, want 1", got)
	}

	rec := httptest.NewRecorder()
	dsms.TelemetryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics, err := telemetry.ParsePrometheus(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range metrics {
		got[m.Name] = true
	}
	want := map[string]bool{}
	for _, name := range scrapeScalarFamilies {
		want[name] = true
	}
	for _, name := range scrapeHistogramFamilies {
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_quantile_ns", "_max_ns"} {
			want[name+suffix] = true
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("%s missing from the scrape", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("%s served but not in the pinned list", name)
		}
	}
}

// The scrape surface of TestScrapeSurfaceFamilies's engine. Families that
// need a stateful query operator (pipes_memory_sub_*) or a boundary buffer
// (pipes_edge_queue_depth) are absent from its single-chain workload.
var (
	scrapeScalarFamilies = []string{
		"pipes_checkpoint_completed_total",
		"pipes_checkpoint_encode_nanos_total",
		"pipes_checkpoint_failed_total",
		"pipes_checkpoint_full_bytes_total",
		"pipes_checkpoint_last_bytes",
		"pipes_checkpoint_last_id",
		"pipes_checkpoint_last_success_unix_nanos",
		"pipes_checkpoint_skipped_total",
		"pipes_edge_elements_total",
		"pipes_edge_frames_total",
		"pipes_goroutines",
		"pipes_graph_nodes",
		"pipes_memory_budget_bytes",
		"pipes_memory_usage_bytes",
		"pipes_metadata",
		"pipes_queries",
		"pipes_sched_batches",
		"pipes_sched_lock_conflicts",
		"pipes_sched_steal_misses",
		"pipes_sched_steals",
		"pipes_task_done",
		"pipes_task_max_backlog",
		"pipes_task_processed",
		"pipes_task_stolen_batches",
		"pipes_tenant_admission_rejects",
		"pipes_tenant_buffer_bytes",
		"pipes_tenant_operators",
		"pipes_tenant_queries",
		"pipes_tenant_result_shed",
		"pipes_tenant_results",
		"pipes_trace_every",
		"pipes_traces_sampled",
	}
	scrapeHistogramFamilies = []string{
		"pipes_checkpoint_barrier_stall_nanos",
		"pipes_checkpoint_duration_nanos",
		"pipes_checkpoint_round_phase_ns",
		"pipes_edge_frame_occupancy",
		"pipes_op_latency_ns",
	}
)
