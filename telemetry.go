package pipes

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"

	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
)

// This file wires the DSMS runtime components into the live telemetry
// layer (internal/telemetry): every metadata kind of every monitored
// operator, the per-operator queue/service-time histograms, the
// scheduler's batch/steal/contention counters and per-task progress, the
// memory manager's budget assignments, and a JSON snapshot of the live
// graph topology — all served over HTTP for remote monitoring
// (cmd/pipesmon -attach, Prometheus, chrome://tracing, go tool pprof).
// See OBSERVABILITY.md for the metric inventory and contracts.

// Telemetry re-exports for library users assembling their own engines.
type (
	// Histogram is the lock-free latency histogram of the telemetry layer.
	Histogram = telemetry.Histogram
	// Tracer samples elements for end-to-end trace spans.
	Tracer = telemetry.Tracer
	// Trace is one sampled element's hop record.
	Trace = telemetry.Trace
)

// NewHistogram returns an empty latency histogram.
var NewHistogram = telemetry.NewHistogram

// NewTracer returns a tracer sampling one element in every n.
var NewTracer = telemetry.NewTracer

// TopologyNode is one node of the topology snapshot.
type TopologyNode struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// TopologyEdge is one subscription edge of the topology snapshot.
type TopologyEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Input int    `json:"input"`
}

// Topology is the JSON document served at /topology.json.
type Topology struct {
	Nodes   []TopologyNode `json:"nodes"`
	Edges   []TopologyEdge `json:"edges"`
	Queries []string       `json:"queries"`
}

// Topology snapshots the live query graph.
func (d *DSMS) Topology() Topology {
	var t Topology
	for _, n := range d.Graph.Nodes() {
		t.Nodes = append(t.Nodes, TopologyNode{Name: n.Name(), Type: fmt.Sprintf("%T", n)})
	}
	for _, e := range d.Graph.Edges() {
		t.Edges = append(t.Edges, TopologyEdge{From: e.From.Name(), To: e.To.Name(), Input: e.Input})
	}
	for _, q := range d.Queries() {
		t.Queries = append(t.Queries, q.Text)
	}
	return t
}

// registerExports populates the registry with collectors over the runtime
// components. Collectors run at scrape time, so monitors registered after
// engine construction are picked up automatically.
func (d *DSMS) registerExports() {
	// Secondary metadata: every active kind of every monitored operator as
	// pipes_metadata{op,kind}, plus the latency histograms as
	// pipes_op_latency_ns{op,phase}.
	d.Registry.RegisterCollector(func(c *telemetry.Collect) {
		for _, m := range d.Monitors() {
			op := m.Inner().Name()
			for _, k := range m.Kinds() {
				if v, ok := m.Get(k); ok {
					c.Gauge("pipes_metadata", telemetry.Labels{"op": op, "kind": string(k)}, v)
				}
			}
			if h := m.ServiceTimeHistogram(); h.Count() > 0 {
				c.Histogram("pipes_op_latency_ns", telemetry.Labels{"op": op, "phase": "service"}, h)
			}
			if h := m.QueueTimeHistogram(); h.Count() > 0 {
				c.Histogram("pipes_op_latency_ns", telemetry.Labels{"op": op, "phase": "queue"}, h)
			}
		}
	})
	// Scheduler: contention counters and per-task progress.
	d.Registry.RegisterCollector(func(c *telemetry.Collect) {
		ct := d.Scheduler.Contention()
		c.Counter("pipes_sched_batches", nil, ct.Batches)
		c.Counter("pipes_sched_steals", nil, ct.Steals)
		c.Counter("pipes_sched_steal_misses", nil, ct.StealMisses)
		c.Counter("pipes_sched_lock_conflicts", nil, ct.LockConflicts)
		for _, ts := range d.Scheduler.Stats() {
			lb := telemetry.Labels{"task": ts.Name}
			c.Counter("pipes_task_processed", lb, ts.Processed)
			c.Gauge("pipes_task_max_backlog", lb, float64(ts.MaxBacklog))
			c.Counter("pipes_task_stolen_batches", lb, ts.Stolen)
			done := 0.0
			if ts.Done {
				done = 1
			}
			c.Gauge("pipes_task_done", lb, done)
		}
	})
	// Memory manager: global budget/usage and per-subscription assignment.
	d.Registry.RegisterCollector(func(c *telemetry.Collect) {
		st := d.Memory.Stats()
		c.Gauge("pipes_memory_budget_bytes", nil, float64(st.Budget))
		c.Gauge("pipes_memory_usage_bytes", nil, float64(st.TotalUsage))
		for _, s := range st.Subs {
			lb := telemetry.Labels{"op": s.Name}
			c.Gauge("pipes_memory_sub_usage_bytes", lb, float64(s.Usage))
			c.Gauge("pipes_memory_sub_limit_bytes", lb, float64(s.Limit))
			c.Counter("pipes_memory_sub_shed_bytes", lb, s.ShedBytes)
			c.Counter("pipes_memory_sub_shed_events", lb, s.ShedEvents)
		}
	})
	// Engine-level gauges.
	d.Registry.RegisterCollector(func(c *telemetry.Collect) {
		c.Gauge("pipes_graph_nodes", nil, float64(len(d.Graph.Nodes())))
		c.Gauge("pipes_queries", nil, float64(len(d.Queries())))
		c.Gauge("pipes_goroutines", nil, float64(runtime.NumGoroutine()))
		if d.Tracer != nil {
			c.Counter("pipes_traces_sampled", nil, int64(d.Tracer.Sampled()))
			c.Gauge("pipes_trace_every", nil, float64(d.Tracer.Every()))
		}
	})
	// Flight recorder: per-edge transfer aggregates and checkpoint-round
	// phase durations (OBSERVABILITY.md, "Flight recorder").
	if d.Flight != nil {
		d.Registry.RegisterCollector(func(c *telemetry.Collect) {
			for _, ref := range d.Flight.Refs() {
				lb := telemetry.Labels{"op": ref.Name()}
				c.Counter("pipes_edge_frames_total", lb, ref.Frames())
				c.Counter("pipes_edge_elements_total", lb, ref.Elements())
				if h := ref.OccupancyHistogram(); h.Count() > 0 {
					c.Histogram("pipes_edge_frame_occupancy", lb, h)
				}
				if h := ref.DepthHistogram(); h.Count() > 0 {
					c.Histogram("pipes_edge_queue_depth", lb, h)
				}
			}
			align, snapshot, encode, write := d.Flight.PhaseHistograms()
			for phase, h := range map[string]*telemetry.Histogram{
				"align": align, "snapshot": snapshot, "encode": encode, "write": write,
			} {
				if h.Count() > 0 {
					c.Histogram("pipes_checkpoint_round_phase_ns", telemetry.Labels{"phase": phase}, h)
				}
			}
		})
	}
}

// flightInstrumented is the capability contract pubsub.SourceBase
// implements: an interned per-operator flight handle.
type flightInstrumented interface {
	SetFlightRef(*flight.OpRef)
	FlightRef() *flight.OpRef
}

// attachFlight hands every source node of the live graph its flight
// block — one per node, shared by the recorder and the metadata views, so
// flight tracks, pipes_metadata rows and pipesmon rows line up by
// construction. Idempotent (already-attached nodes are skipped) and called from
// every registration path plus Start, so nodes added late still record.
// It takes no DSMS lock — Graph and the recorder synchronise themselves —
// and is therefore safe to call while d.mu is held.
func (d *DSMS) attachFlight() {
	if d.Flight == nil {
		return
	}
	for _, n := range d.Graph.Nodes() {
		fi, ok := n.(flightInstrumented)
		if !ok || fi.FlightRef() != nil {
			continue
		}
		fi.SetFlightRef(d.Flight.Ref(n.Name()))
	}
}

// Bottleneck snapshots the flight ring and the monitored operators and
// attributes the current bottleneck per operator and per query (served at
// /bottleneck.json, rendered by pipesmon -attach as the "why slow"
// column). With the recorder disabled it returns an empty report.
func (d *DSMS) Bottleneck() flight.Report {
	if d.Flight == nil {
		return flight.Report{}
	}
	frameCap := d.cfg.BatchSize
	if frameCap <= 0 {
		frameCap = 64
	}
	// Upstream adjacency over flight names: an operator's input signals
	// (queue depth, frame occupancy) live on the nodes feeding it.
	up := map[string][]string{}
	for _, e := range d.Graph.Edges() {
		up[e.To.Name()] = append(up[e.To.Name()], e.From.Name())
	}
	in := flight.Input{
		Events:   d.Flight.Events(),
		FrameCap: frameCap,
	}
	for _, m := range d.Monitors() {
		op := m.Inner().Name()
		in.Ops = append(in.Ops, flight.OpStats{
			Op:         op,
			QueueP99NS: m.QueueTimeHistogram().Quantile(0.99),
			SvcP99NS:   m.ServiceTimeHistogram().Quantile(0.99),
			Inputs:     up[op],
		})
	}
	for _, q := range d.Queries() {
		spec := flight.QuerySpec{Name: q.Text}
		// Every operator reachable upstream of the query root belongs to
		// the query's blame set.
		seen := map[string]bool{}
		frontier := []string{q.Instance.Root.Name()}
		for len(frontier) > 0 {
			name := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if seen[name] {
				continue
			}
			seen[name] = true
			spec.Ops = append(spec.Ops, name)
			frontier = append(frontier, up[name]...)
		}
		in.Queries = append(in.Queries, spec)
	}
	return flight.Attribute(in)
}

// instrumentSource taps a registered root source's dispatch path: each
// published element passes the tracer's 1-in-N sampler, and sampled
// elements leave with a trace context whose first span is the source's
// "emit" hop.
func (d *DSMS) instrumentSource(name string, src pubsub.Source) {
	hooked, ok := src.(interface{ SetTransferHook(pubsub.TransferHook) })
	if !ok {
		return
	}
	tracer := d.Tracer
	hooked.SetTransferHook(func(e Element) Element {
		if tr := tracer.MaybeTrace(); tr != nil {
			tr.Hop(name, "emit", e.Start)
			e = telemetry.Attach(e, tr)
		}
		return e
	})
}

// TelemetryHandler returns the telemetry endpoint's HTTP handler without
// binding a socket — the hook for embedding the scrape surface into an
// existing server or an httptest harness. Beside the telemetry package's
// documents it serves the flight-recorder timeline at /flight.json
// (Chrome trace_event JSON, one track per operator plus the
// checkpoint-round track), the bottleneck attribution report at
// /bottleneck.json and, with the continuous-query service enabled, its
// API under /v1/ (SERVICE.md).
func (d *DSMS) TelemetryHandler() http.Handler {
	mux := telemetry.Mux(d.Registry, func() any { return d.Topology() }, d.Tracer)
	mux.HandleFunc("/flight.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if d.Flight == nil {
			_, _ = w.Write([]byte(`{"traceEvents":[]}`))
			return
		}
		_ = d.Flight.WriteChromeTrace(w)
	})
	mux.HandleFunc("/bottleneck.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.Bottleneck())
	})
	if d.service != nil {
		mux.Handle("/v1/", d.service.Handler())
	}
	return mux
}

// TelemetryAddr returns the bound address of the live telemetry endpoint
// ("" when disabled or before Start). With Config.TelemetryAddr ":0" this
// is where the free port landed.
func (d *DSMS) TelemetryAddr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tserver.addr()
}

// listener is one bound HTTP endpoint of the facade: the telemetry
// endpoint (Config.TelemetryAddr) and the control plane
// (Config.ServiceAddr) are served by one each.
type listener struct {
	ln net.Listener
	hs *http.Server
}

// listen binds addr (host:port; port 0 picks a free one) and serves h on a
// background goroutine until close.
func listen(addr string, h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &listener{ln: ln, hs: &http.Server{Handler: h}}
	go func() { _ = l.hs.Serve(ln) }()
	return l, nil
}

// addr returns the bound address ("" for a nil listener: not serving).
func (l *listener) addr() string {
	if l == nil {
		return ""
	}
	return l.ln.Addr().String()
}

// close stops serving; a no-op on a nil listener.
func (l *listener) close() {
	if l != nil {
		_ = l.hs.Close()
	}
}

// startListeners binds Config.TelemetryAddr and Config.ServiceAddr, each
// when set and not already serving.
func (d *DSMS) startListeners() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.TelemetryAddr != "" && d.tserver == nil {
		l, err := listen(d.cfg.TelemetryAddr, d.TelemetryHandler())
		if err != nil {
			return fmt.Errorf("telemetry endpoint: %w", err)
		}
		d.tserver = l
	}
	// Without ServiceAddr the /v1/ mount on the telemetry endpoint does not
	// need a second socket.
	if d.service != nil && d.cfg.ServiceAddr != "" && d.sserver == nil {
		l, err := listen(d.cfg.ServiceAddr, d.service.Handler())
		if err != nil {
			return fmt.Errorf("service endpoint: %w", err)
		}
		d.sserver = l
	}
	return nil
}
