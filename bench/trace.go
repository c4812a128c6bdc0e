package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// The benchmark's own tracing: spans recorded around the calls the
// benchmark makes into each layer, kept in memory and written as Chrome
// trace JSON when the run ends. A nil *tracer means tracing is off; every
// method is nil-safe so call sites carry no branches. End-to-end metrics
// never come from a traced run.

// hotStride is the sampling stride of per-frame spans on the hot path.
// Counts kept beside the spans are exact.
const hotStride = 64

type span struct {
	name       string
	start, end int64 // ns since the tracer was created
	id, parent int
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string // run id shared by every span of this invocation
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, id: len(t.spans) + 1, parent: parent})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: s, end: s + int64(d), id: len(t.spans) + 1, parent: parent})
	t.mu.Unlock()
}

// write stores the spans as Chrome trace_event JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		end := s.end
		if end < s.start {
			end = s.start
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": t.run},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// hotStats is what the benchmark keeps at a hot-path measuring point:
// exact frame and element counts, the accumulated time, and one span per
// hotStride frames.
type hotStats struct {
	tr     *tracer
	parent int

	frames, elems atomic.Int64
	ns            atomic.Int64
}

// observe records one frame of n elements that took from t0 until now.
func (h *hotStats) observe(name string, n int, t0 time.Time) {
	d := time.Since(t0)
	h.ns.Add(int64(d))
	h.elems.Add(int64(n))
	if h.frames.Add(1)%hotStride == 1 {
		h.tr.add(name, h.parent, t0, d)
	}
}

// probe is a pass-through pipe the benchmark inserts into its own graphs.
// Its time is the inclusive time of everything downstream of it: direct
// connections run synchronously inside the probe's Transfer call.
type probe struct {
	pubsub.PipeBase
	hotStats
}

func newProbe(name string, tr *tracer, parent int) *probe {
	return &probe{PipeBase: pubsub.NewPipeBase(name, 1), hotStats: hotStats{tr: tr, parent: parent}}
}

func (p *probe) Process(e temporal.Element, _ int) {
	t0 := time.Now()
	p.Transfer(e)
	p.observe(p.Name(), 1, t0)
}

func (p *probe) ProcessBatch(b temporal.Batch, _ int) {
	t0 := time.Now()
	p.TransferBatch(b)
	p.observe(p.Name(), len(b), t0)
}

// tracedSource times every activation of the emitter it wraps — the
// inclusive time of the whole graph behind the source when everything is
// directly connected. Subscriptions go straight to the wrapped source.
type tracedSource struct {
	pubsub.BatchEmitter
	hotStats
}

func newTracedSource(inner pubsub.BatchEmitter, tr *tracer, parent int) *tracedSource {
	return &tracedSource{BatchEmitter: inner, hotStats: hotStats{tr: tr, parent: parent}}
}

func (s *tracedSource) EmitNext() bool {
	_, more := s.EmitBatch(1)
	return more
}

func (s *tracedSource) EmitBatch(max int) (int, bool) {
	t0 := time.Now()
	n, more := s.BatchEmitter.EmitBatch(max)
	s.observe("activate:"+s.Name(), n, t0)
	return n, more
}
