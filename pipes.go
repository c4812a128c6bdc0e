// Package pipes is the public infrastructure for processing and exploring
// streams: a Go library of exchangeable building blocks — a
// publish-subscribe query-graph framework, a temporal operator algebra
// with CQL-conformant snapshot semantics, a SweepArea join framework, a
// 3-layer scheduler, an adaptive memory manager with load shedding, a
// secondary-metadata framework and a rule-based multi-query optimizer —
// from which fully functional prototypes of a data stream management
// system are assembled. It reproduces "PIPES — A Public Infrastructure
// for Processing and Exploring Streams" (Krämer & Seeger, SIGMOD 2004).
//
// The quickest start is the DSMS facade:
//
//	dsms := pipes.NewDSMS(pipes.Config{})
//	dsms.RegisterStream("traffic", src, 1000)
//	q, _ := dsms.RegisterQuery(`SELECT AVG(speed) FROM traffic [RANGE 3600000]`)
//	q.Subscribe(pipes.NewFuncSink("out", 1, handle, nil))
//	dsms.Start()
//
// Every building block is also usable on its own; see the examples
// directory and DESIGN.md for the component inventory.
package pipes

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pipes/internal/cql"
	"pipes/internal/ft"
	"pipes/internal/memory"
	"pipes/internal/metadata"
	"pipes/internal/optimizer"
	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/service"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// Core re-exported types: the time model and the node taxonomy.
type (
	// Time is a discrete application timestamp.
	Time = temporal.Time
	// Interval is a half-open validity interval.
	Interval = temporal.Interval
	// Element is a stream element: value plus validity interval.
	Element = temporal.Element
	// Tuple is the record type used by CQL queries.
	Tuple = cql.Tuple

	// Source publishes elements to subscribed sinks.
	Source = pubsub.Source
	// Batch is a frame of elements, the engine's unit of transfer.
	Batch = temporal.Batch

	// Sink consumes elements from subscribed sources, through either
	// ProcessBatch(Batch, int) or the per-element Process(Element, int).
	Sink = pubsub.Sink
	// Pipe is an operator: both sink and source.
	Pipe = pubsub.Pipe
	// Graph introspects a running query graph.
	Graph = pubsub.Graph
	// Collector is a terminal sink storing everything it receives.
	Collector = pubsub.Collector
	// Counter is a terminal sink that only counts.
	Counter = pubsub.Counter
)

// MaxTime is the "forever" timestamp.
const MaxTime = temporal.MaxTime

// Element constructors.
var (
	// NewElement returns an element valid during [start, end).
	NewElement = temporal.NewElement
	// At returns a chronon element valid for a single instant.
	At = temporal.At
	// NewInterval returns the interval [start, end).
	NewInterval = temporal.NewInterval
)

// Source and sink constructors.
var (
	NewSliceSource = pubsub.NewSliceSource
	NewFuncSource  = pubsub.NewFuncSource
	NewChanSource  = pubsub.NewChanSource
	NewCollector   = pubsub.NewCollector
	NewFuncSink    = pubsub.NewFuncSink
	NewCounter     = pubsub.NewCounter
	NewBuffer      = pubsub.NewBuffer
	NewGraph       = pubsub.NewGraph
	// Drive runs an emitter to exhaustion synchronously.
	Drive = pubsub.Drive
	// Connect subscribes a chain of pipes in sequence.
	Connect = pubsub.Connect
)

// ParseCQL parses one CQL query.
func ParseCQL(query string) (*cql.Query, error) { return cql.Parse(query) }

// PlanFromQuery builds the canonical logical plan of a parsed query (for
// inspection, XML persistence via internal/planio, or RegisterPlan).
var PlanFromQuery = optimizer.FromQuery

// memoryPeriod is how often a running engine with a MemoryBudget
// redistributes the budget and sheds what exceeds it.
const memoryPeriod = 10 * time.Millisecond

// Config parameterises a DSMS prototype. The zero value is a sensible
// single-threaded, unlimited-memory engine.
type Config struct {
	// Workers is the number of scheduler threads (default 1).
	Workers int
	// Strategy picks the layer-2 scheduling strategy (default round-robin).
	Strategy sched.Factory
	// BatchSize is the scheduler batch size (default 64).
	BatchSize int
	// MemoryBudget is the global state budget in bytes (0 = unlimited),
	// enforced while the engine runs and once more when Wait returns.
	// Over budget, a stateful operator sheds its soonest-expiring state.
	MemoryBudget int
	// MonitorQueries turns the secondary-metadata framework on for every
	// newly created query operator (all kinds; see OBSERVABILITY.md).
	MonitorQueries bool
	// TelemetryAddr, when non-empty, serves the live telemetry endpoint
	// (Prometheus /metrics, /topology.json, /traces.json, /debug/pprof)
	// on this host:port once Start runs (":0" picks a free port; see
	// TelemetryAddr() for the bound address). Implies MonitorQueries.
	TelemetryAddr string
	// TraceEvery samples one element in every N for element-level trace
	// spans (0 with TelemetryAddr set defaults to 128; negative disables
	// tracing even when the endpoint is on).
	TraceEvery int
	// CheckpointInterval enables the fault-tolerance subsystem (see
	// FAULT_TOLERANCE.md): the engine periodically checkpoints every
	// registered stream's offset and every stateful query
	// operator's state at this cadence. Recovery: LatestCheckpoint, rebuild
	// the same graph over sources replaying from its offsets, Recover.
	CheckpointInterval time.Duration
	// CheckpointDir selects the durable file-backed checkpoint store. An
	// empty dir with CheckpointInterval set keeps checkpoints in memory
	// (tests; survives graph rebuilds but not the process). A non-empty
	// dir with interval 0 enables on-demand checkpoints only
	// (Checkpoints.Trigger).
	CheckpointDir string
	// CheckpointBaseEvery is ignored: every checkpoint round writes each
	// operator's state in full.
	//
	// Deprecated: it has no effect and will be removed.
	CheckpointBaseEvery int
	// ServiceTenants enables the multi-tenant continuous-query service
	// (SERVICE.md): an HTTP control plane where the listed tenants submit
	// CQL into the running shared graph, stream results and kill queries,
	// under token authn and per-tenant admission quotas. The API is
	// mounted under /v1/ on the telemetry endpoint (when TelemetryAddr is
	// set) and on the dedicated ServiceAddr listener.
	ServiceTenants []TenantConfig
	// ServiceAddr, when non-empty, serves the control plane on its own
	// host:port once Start runs (":0" picks a free port; see
	// ServiceAddr() for the bound address). Useful when the service
	// should be reachable separately from the operator-facing telemetry
	// endpoint.
	ServiceAddr string
	// DisableFlight turns the flight recorder off. The recorder is on by
	// default (a ring of flight.DefaultRingSize events; see
	// internal/telemetry/flight and OBSERVABILITY.md) and hands every node
	// the block the scheduler and the cost model measure with. Off: no
	// ring, no pipes_edge_* export, empty /flight.json and
	// /bottleneck.json, and the task profiles and stream rates go
	// unmeasured. MonitorQueries keeps working on recorder-less blocks.
	DisableFlight bool
}

// DSMS is a prototype data stream management system assembled from the
// PIPES building blocks, as in the paper's Figure 1: heterogeneous
// sources at the bottom, query plans above them, sinks on top, and the
// runtime components — scheduler, memory manager, query optimizer — on
// the side, usable individually or in combination.
type DSMS struct {
	cfg Config

	// The runtime components, exposed for direct use.
	Catalog   *optimizer.Catalog
	Optimizer *optimizer.Optimizer
	Scheduler *sched.Scheduler
	Memory    *memory.Manager
	Graph     *pubsub.Graph

	// Telemetry components (see telemetry.go): the metric registry is
	// always populated; Tracer is nil unless tracing is enabled; Flight
	// is the always-on system-event recorder (nil only with
	// Config.DisableFlight).
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Flight   *flight.Recorder

	// Checkpoints coordinates the fault-tolerance subsystem (nil unless
	// Config enables checkpointing; see checkpoint.go).
	Checkpoints *ft.Manager
	ckptStore   ft.CheckpointStore

	mu      sync.Mutex
	queries []*Query
	tserver *listener // Config.TelemetryAddr (telemetry.go)
	memStop func()    // ends the memory manager's cycle; nil when none runs

	// Control plane (service.go; nil unless Config enables it).
	service *service.Service
	sserver *listener // Config.ServiceAddr
}

// Query is one registered continuous query.
type Query struct {
	// Text is the original CQL text.
	Text string
	// Instance carries the chosen plan, cost and sharing statistics.
	Instance *optimizer.Instance
	dsms     *DSMS
}

// NewDSMS assembles a prototype engine.
func NewDSMS(cfg Config) *DSMS {
	if cfg.TelemetryAddr != "" {
		cfg.MonitorQueries = true
		if cfg.TraceEvery == 0 {
			cfg.TraceEvery = 128
		}
	}
	cat := optimizer.NewCatalog()
	d := &DSMS{
		cfg:       cfg,
		Catalog:   cat,
		Optimizer: optimizer.New(cat),
		Scheduler: sched.New(sched.Config{
			Workers:   cfg.Workers,
			Strategy:  cfg.Strategy,
			BatchSize: cfg.BatchSize,
		}),
		Memory:   memory.NewManager(cfg.MemoryBudget),
		Graph:    pubsub.NewGraph(),
		Registry: telemetry.NewRegistry(),
	}
	if cfg.TraceEvery > 0 {
		d.Tracer = telemetry.NewTracer(cfg.TraceEvery, 0)
	}
	if !cfg.DisableFlight {
		d.Flight = flight.New(flight.DefaultRingSize)
		d.Scheduler.SetFlightRecorder(d.Flight)
	}
	if err := d.initCheckpoints(); err != nil {
		panic(err.Error())
	}
	if d.Checkpoints != nil && d.Flight != nil {
		d.Checkpoints.SetFlightRecorder(d.Flight)
	}
	d.initService()
	d.registerExports()
	return d
}

// RegisterStream adds a raw tuple stream under name with a declared rate
// (elements/second), the cost model's prior until the stream's flight
// block has counted elements: from then on queries are planned against its
// measured rate. When Start runs, a source with Run(ctx) (an
// autonomous source: ChanSource) gets a thread of its own, and an active
// emitter is scheduled.
func (d *DSMS) RegisterStream(name string, src pubsub.Source, rate float64) {
	// With checkpointing on, streams are wrapped so barrier rounds record
	// their replay offsets (recovery replays an archive.ReplayFrom emitter
	// through the same path). Offsets are keyed by src.Name().
	pub := d.checkpointSource(src)
	d.Catalog.Register(name, pub, rate)
	d.Graph.AddRoot(pub)
	if d.Tracer != nil {
		d.instrumentSource(name, pub)
	}
	switch s := src.(type) {
	case interface{ Run(context.Context) error }:
		d.Scheduler.Go(s.Run)
	case pubsub.Emitter:
		d.Scheduler.Add(sched.NewEmitterTask(s))
	}
	d.attachFlight()
}

// RegisterQuery parses, optimises and instantiates a CQL query against
// the running graph, sharing operators with earlier queries where
// signatures match. Its new operators are attached to the memory manager,
// the checkpoint manager and the flight recorder; with MonitorQueries set
// every new operator is monitored (retrievable via Monitors).
func (d *DSMS) RegisterQuery(text string) (*Query, error) {
	return d.RegisterQueryAdmitted(text, nil)
}

// RegisterQueryAdmitted is RegisterQuery with an admission gate: once the
// plan is built but before it is wired into the running graph, admit (if
// non-nil) sees the created/reused node counts and may abort the
// registration, which releases what was built and leaves the graph as it
// was — the quota seam of the multi-tenant service (SERVICE.md).
func (d *DSMS) RegisterQueryAdmitted(text string, admit optimizer.Admission) (*Query, error) {
	parsed, err := cql.Parse(text)
	if err != nil {
		return nil, err
	}
	inst, err := d.Optimizer.AddQueryAdmitted(parsed, admit)
	if err != nil {
		return nil, err
	}
	return d.register(text, inst), nil
}

// register is the one registration step behind RegisterQueryAdmitted and
// RegisterPlan: it attaches the instance's new operators, then records
// the query. Holding d.mu serialises concurrent registrations' attaches,
// and no caller can deregister the query before its attach is done.
func (d *DSMS) register(text string, inst *optimizer.Instance) *Query {
	q := &Query{Text: text, Instance: inst, dsms: d}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attach(inst.Created)
	d.queries = append(d.queries, q)
	return q
}

// attach enters newly built query operators into the components that
// follow an operator's lifetime: stateful ones are subscribed to the
// memory manager, those with serialisable state to the checkpoint
// manager, and every node of the live graph gets its flight block. With
// MonitorQueries it turns the metadata kinds on over the new operators'
// blocks. It takes no DSMS lock.
func (d *DSMS) attach(created []pubsub.Pipe) {
	d.attachFlight()
	var opts []metadata.Option
	if d.Tracer != nil {
		opts = append(opts, metadata.WithTracer(d.Tracer))
	}
	for _, p := range created {
		if _, isShedder := p.(memory.Shedder); isShedder {
			if u, ok := p.(memory.User); ok {
				d.Memory.Subscribe(u, memory.DropState(), 1)
			}
		}
		d.registerCheckpointed(p)
		if d.cfg.MonitorQueries {
			metadata.Monitor(p, opts...)
		}
	}
}

// detach takes operators the optimizer spliced out — those no query
// references any more — out of the memory manager, the checkpoint manager
// and the flight recorder's scrape: the counterpart of attach.
func (d *DSMS) detach(removed []pubsub.Pipe) {
	for _, p := range removed {
		if u, ok := p.(memory.User); ok {
			d.Memory.Unsubscribe(u)
		}
		if d.Checkpoints != nil {
			d.Checkpoints.Unregister(p.Name())
		}
		if d.Flight != nil {
			d.Flight.Forget(p.Name())
		}
	}
}

// DeregisterQuery removes a query from the engine: its plan drops its
// references and operators no other query needs are spliced out of the
// running graph and detached.
func (d *DSMS) DeregisterQuery(q *Query) error {
	if q == nil || q.dsms != d {
		return fmt.Errorf("pipes: query not registered with this engine")
	}
	d.mu.Lock()
	for i, reg := range d.queries {
		if reg == q {
			d.queries = append(d.queries[:i], d.queries[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
	q.dsms = nil // marks the query as deregistered
	err := d.Optimizer.RemoveQuery(q.Instance)
	d.detach(q.Instance.Removed)
	return err
}

// RegisterPlan instantiates a pre-built logical plan (e.g. loaded from an
// XML plan file) with the same sharing semantics as RegisterQuery.
func (d *DSMS) RegisterPlan(plan optimizer.Plan) (*Query, error) {
	inst, err := d.Optimizer.AddPlan(plan)
	if err != nil {
		return nil, err
	}
	return d.register(plan.Signature(), inst), nil
}

// Subscribe attaches a sink to the query's result stream.
func (q *Query) Subscribe(sink pubsub.Sink) error {
	return q.Instance.Root.Subscribe(sink, 0)
}

// Unsubscribe detaches a sink from the query's result stream.
func (q *Query) Unsubscribe(sink pubsub.Sink) error {
	return q.Instance.Root.Unsubscribe(sink, 0)
}

// Queries returns the registered queries.
func (d *DSMS) Queries() []*Query {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Query, len(d.queries))
	copy(out, d.queries)
	return out
}

// Monitors returns a metadata handle for every monitored operator of the
// live graph, in graph (BFS) order — the query operators, with
// Config.MonitorQueries.
func (d *DSMS) Monitors() []*metadata.Monitored {
	var out []*metadata.Monitored
	for _, n := range d.Graph.Nodes() {
		if m := metadata.Of(n); m != nil {
			out = append(out, m)
		}
	}
	return out
}

// Start launches the scheduler workers driving the registered emitters,
// the autonomous sources' threads, with Config.MemoryBudget set the memory
// manager's cycle and, with Config.TelemetryAddr set, the telemetry scrape
// endpoint.
func (d *DSMS) Start() {
	d.attachFlight()
	if err := d.startListeners(); err != nil {
		panic(fmt.Sprintf("pipes: %v", err))
	}
	if d.Checkpoints != nil {
		d.Checkpoints.Start(d.cfg.CheckpointInterval)
	}
	if d.cfg.MemoryBudget > 0 {
		// Not a Scheduler.Go thread: the scheduler's Wait waits for those,
		// and this cycle ends only when Wait or Stop ends it.
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			d.Memory.Run(stop, memoryPeriod)
		}()
		d.mu.Lock()
		d.memStop = func() { close(stop); <-done }
		d.mu.Unlock()
	}
	d.Scheduler.Start()
}

// stopMemory ends the memory manager's cycle, if one runs, and waits for
// it to exit.
func (d *DSMS) stopMemory() {
	d.mu.Lock()
	stop := d.memStop
	d.memStop = nil
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Wait blocks until all scheduled work has finished, ends the memory
// manager's cycle, then runs a final memory-manager step.
func (d *DSMS) Wait() {
	d.Scheduler.Wait()
	d.stopMemory()
	d.Memory.Step()
	if d.Checkpoints != nil {
		d.Checkpoints.Stop() // drains a queued round; idempotent
	}
}

// Stop aborts the scheduler, ends the memory manager's cycle and closes
// the telemetry endpoint.
func (d *DSMS) Stop() {
	d.Scheduler.Stop()
	d.stopMemory()
	if d.Checkpoints != nil {
		d.Checkpoints.Stop()
	}
	d.mu.Lock()
	tserver, sserver := d.tserver, d.sserver
	d.tserver, d.sserver = nil, nil
	d.mu.Unlock()
	tserver.close()
	sserver.close()
}

// Explain renders the live query graph (textual Fig. 2 stand-in).
func (d *DSMS) Explain() string {
	out := d.Graph.Explain()
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, q := range d.queries {
		out += fmt.Sprintf("\nquery %d: %s\n%s", i, q.Text, optimizer.Explain(q.Instance.Plan))
	}
	return out
}
