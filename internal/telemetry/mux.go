package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Mux returns the DSMS scrape endpoint's routing table:
//
//	/metrics            Prometheus text-format metrics from the Registry
//	/topology.json      JSON snapshot of the live query-graph topology
//	/traces.json        Chrome trace_event JSON of the retained traces
//	/debug/pprof/...    the standard Go profiling handlers
//	/healthz            200 ok
//
// topology and tracer may be nil. Embedders add their own documents to the
// returned mux (the DSMS facade adds /flight.json, /bottleneck.json and the
// service's /v1/) and serve it on a listener of their choosing.
func Mux(reg *Registry, topology func() any, tracer *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/topology.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var topo any
		if topology != nil {
			topo = topology()
		}
		_ = json.NewEncoder(w).Encode(topo)
	})
	mux.HandleFunc("/traces.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if tracer == nil {
			_, _ = w.Write([]byte(`{"traceEvents":[]}`))
			return
		}
		_ = tracer.WriteChromeTrace(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
