package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func scrape(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRegistryPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	reg.RegisterCollector(func(c *Collect) {
		c.Gauge("pipes_test_gauge", Labels{"op": "filter", "weird label": "a\"b"}, 1.5)
		c.Counter("pipes_sched.steals", nil, 7) // sanitised to pipes_sched_steals
		c.Histogram("pipes_op_latency_ns", Labels{"op": "filter", "phase": "service"}, h)
	})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	metrics, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	byName := map[string][]Metric{}
	for _, m := range metrics {
		byName[m.Name] = append(byName[m.Name], m)
	}
	if g := byName["pipes_test_gauge"]; len(g) != 1 || g[0].Value != 1.5 || g[0].Label("op") != "filter" || g[0].Label("weird label") != `a"b` {
		t.Fatalf("gauge round-trip failed: %+v", g)
	}
	if c := byName["pipes_sched_steals"]; len(c) != 1 || c[0].Value != 7 {
		t.Fatalf("counter round-trip failed: %+v", c)
	}
	if cnt := byName["pipes_op_latency_ns_count"]; len(cnt) != 1 || cnt[0].Value != 100 {
		t.Fatalf("histogram count failed: %+v", cnt)
	}
	buckets := byName["pipes_op_latency_ns_bucket"]
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets exported")
	}
	sawInf := false
	for _, b := range buckets {
		if b.Label("le") == "+Inf" {
			sawInf = true
			if b.Value != 100 {
				t.Fatalf("+Inf bucket = %g, want 100", b.Value)
			}
		}
	}
	if !sawInf {
		t.Fatal("no +Inf bucket")
	}
	if qs := byName["pipes_op_latency_ns_quantile_ns"]; len(qs) != 3 {
		t.Fatalf("expected 3 quantile gauges, got %+v", qs)
	}
	// Deterministic ordering: scrape twice, identical output (gauge values
	// are constant here).
	var sb2 strings.Builder
	_ = reg.WritePrometheus(&sb2)
	if sb2.String() != text {
		t.Fatal("scrape output is not deterministic")
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCollector(func(c *Collect) { c.Gauge("pipes_up", nil, 1) })
	tc := NewTracer(1, 0)
	tc.MaybeTrace().Hop("src", "emit", 0)
	h := Mux(reg, func() any { return map[string]any{"nodes": []string{"src"}} }, tc)

	if rec := scrape(t, h, "/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "pipes_up 1") {
		t.Fatalf("/metrics: code=%d body=%q", rec.Code, rec.Body.String())
	}
	if rec := scrape(t, h, "/topology.json"); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"src"`) {
		t.Fatalf("/topology.json: code=%d body=%q", rec.Code, rec.Body.String())
	}
	if rec := scrape(t, h, "/traces.json"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "src/emit") {
		t.Fatalf("/traces.json: code=%d body=%q", rec.Code, rec.Body.String())
	}
	if rec := scrape(t, h, "/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz: code=%d", rec.Code)
	}
	if rec := scrape(t, h, "/debug/pprof/goroutine?debug=1"); rec.Code != 200 {
		t.Fatalf("/debug/pprof/goroutine: code=%d", rec.Code)
	}
}
