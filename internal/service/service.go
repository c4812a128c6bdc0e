// Package service is the multi-tenant continuous-query control plane of
// PIPES: it turns one running query graph into a serving system. Tenants
// authenticate with bearer tokens, submit CQL text that the rule-based
// multi-query optimizer compiles *into the live shared graph* (sharing
// physical operators across tenants), list and inspect their standing
// queries, stream results through bounded shed-and-count buffers, and
// kill queries — all over HTTP (http.go), without ever stopping the
// graph. An admission controller enforces per-tenant quotas (standing
// queries, private operators after sharing credit, result-buffer bytes)
// and rejects with structured errors before a single physical operator
// is built. See SERVICE.md for the API reference and tenancy model.
//
// The package is engine-agnostic: it drives any Engine implementation.
// The pipes facade adapts the DSMS (pipes.Config.ServiceAddr /
// ServiceTenants) and exports the per-tenant metric families
// (pipes_tenant_queries, pipes_tenant_admission_rejects,
// pipes_tenant_result_shed) on the scrape registry.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

// DefaultBufferBytes is the per-query result-buffer capacity when a
// submission does not choose one.
const DefaultBufferBytes = 256 << 10

// EngineQuery is the service's handle on one compiled standing query.
type EngineQuery interface {
	// Attach subscribes a result sink to the query's root operator.
	Attach(sink pubsub.Sink) error
	// Detach removes a previously attached sink.
	Detach(sink pubsub.Sink) error
	// PlanText renders the chosen logical plan.
	PlanText() string
	// NewNodes and SharedNodes report the physical operators created vs
	// reused when the query entered the graph.
	NewNodes() int
	SharedNodes() int
}

// Engine is the slice of a streaming engine the control plane drives.
// The pipes.DSMS facade implements it over the optimizer's dynamic
// query integration.
type Engine interface {
	// SubmitQuery compiles CQL text into the running graph. admit runs
	// under the graph mutation lock with the counts of the built but
	// unwired query; returning an error aborts the submission, releases
	// what was built so the graph is as it was, and is returned
	// verbatim. A build error comes before admit runs.
	SubmitQuery(text string, admit func(newNodes, sharedNodes int) error) (EngineQuery, error)
	// KillQuery removes a standing query: operators no other query
	// references are spliced out of the running graph.
	KillQuery(q EngineQuery) error
}

// QueryInfo is the JSON document describing one standing query.
type QueryInfo struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	CQL    string `json:"cql"`
	// Status is "running", "done" (stream ended) or "killed".
	Status string `json:"status"`
	Plan   string `json:"plan"`
	// NewOperators/SharedOperators are the multi-query-sharing figures
	// at submission time.
	NewOperators    int `json:"new_operators"`
	SharedOperators int `json:"shared_operators"`
	// BufferBytes is the result buffer's byte capacity.
	BufferBytes int `json:"buffer_bytes"`
	// Results/ResultBytes count everything the query ever delivered into
	// its buffer; Shed counts results lost to slow consumers; Buffered
	// is current ring occupancy; Readers the attached consumers.
	Results     int64 `json:"results"`
	ResultBytes int64 `json:"result_bytes"`
	Shed        int64 `json:"shed"`
	Buffered    int   `json:"buffered"`
	Readers     int   `json:"readers"`
	// RatePerSec is mean delivery throughput since submission.
	RatePerSec    float64 `json:"rate_per_sec"`
	CreatedUnixMS int64   `json:"created_unix_ms"`
}

// TenantStats aggregates one tenant's footprint for the scrape registry.
type TenantStats struct {
	Name string
	// ActiveQueries, PrivateOperators and BufferBytesReserved are the
	// quota dimensions currently in use.
	ActiveQueries       int
	PrivateOperators    int
	BufferBytesReserved int
	// AdmissionRejects counts structured quota rejections.
	AdmissionRejects int64
	// Results and ResultShed sum over live and killed queries.
	Results    int64
	ResultShed int64
}

// Query is one standing query's control-plane record.
type Query struct {
	// Immutable after registration.
	id      string
	tenant  string
	text    string
	plan    string
	newN    int
	sharedN int
	bufCap  int
	created time.Time

	eq   EngineQuery
	sink *resultSink
	buf  *ResultBuffer

	// killed is guarded by Service.mu.
	killed bool
}

// tenantState tracks one tenant's reservations and counters. All fields
// are guarded by Service.mu; reservations are counters (not derived from
// the query map) because admission reserves before registration.
type tenantState struct {
	cfg      TenantConfig
	queries  int // standing queries reserved
	ops      int // private operators reserved
	bufBytes int // result-buffer capacity reserved
	rejects  int64
	// Folded-in totals of killed queries, so tenant metrics are
	// monotonic across kills.
	retiredResults int64
	retiredShed    int64
	live           map[string]*Query
}

// Service is the control plane over one Engine.
type Service struct {
	eng   Engine
	clock telemetry.Clock

	// mu guards the tenant and query registries. It is a leaf lock for
	// the engine: no Engine/EngineQuery method is called while holding
	// it (admission callbacks run under the optimizer's mutation lock
	// and take mu *inside* it — the one sanctioned nesting, in that
	// order only).
	//pipesvet:lockclass stats
	mu      sync.Mutex
	tenants map[string]*tenantState
	tokens  []tokenEntry
	queries map[string]*Query
	seq     int
}

// New assembles a service over eng for the configured tenants. Tenants
// with empty names or tokens are ignored.
func New(eng Engine, tenants []TenantConfig) *Service {
	s := &Service{
		eng:     eng,
		clock:   telemetry.SystemClock{},
		tenants: map[string]*tenantState{},
		queries: map[string]*Query{},
	}
	for _, tc := range tenants {
		if tc.Name == "" || tc.Token == "" {
			continue
		}
		s.tenants[tc.Name] = &tenantState{cfg: tc, live: map[string]*Query{}}
		s.tokens = append(s.tokens, tokenEntry{token: []byte(tc.Token), tenant: tc.Name})
	}
	return s
}

// Authenticate resolves a bearer token to a tenant name.
func (s *Service) Authenticate(token string) (string, *Error) {
	name, ok := resolveToken(s.tokens, token)
	if !ok {
		return "", errUnauthorized()
	}
	return name, nil
}

// Tenants returns the configured tenant names, sorted.
func (s *Service) Tenants() []string {
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Submit admits and compiles one CQL query for tenant, returning its
// registered info or a structured error. bufBytes sizes the result
// buffer (0 = DefaultBufferBytes). Admission — quota checks and
// reservation — runs inside the engine's mutation lock on the counts of
// the built but unwired query, so it prices exactly what the query adds,
// and a rejection leaves the running graph as it was.
func (s *Service) Submit(tenant, text string, bufBytes int) (QueryInfo, *Error) {
	if bufBytes <= 0 {
		bufBytes = DefaultBufferBytes
	}
	s.mu.Lock()
	ts, ok := s.tenants[tenant]
	s.mu.Unlock()
	if !ok {
		return QueryInfo{}, errUnauthorized()
	}

	reserved := false
	reservedOps := 0
	admit := func(newNodes, _ int) error {
		if serr := s.reserve(ts, newNodes, bufBytes); serr != nil {
			return serr
		}
		reserved, reservedOps = true, newNodes
		return nil
	}

	eq, err := s.eng.SubmitQuery(text, admit)
	if err != nil {
		var serr *Error
		if errors.As(err, &serr) {
			return QueryInfo{}, serr // admission rejection, counted in reserve
		}
		if reserved {
			// Admitted but wiring failed: the engine released what it
			// built, so refund the full reservation.
			s.release(ts, reservedOps, bufBytes)
		}
		return QueryInfo{}, errInvalidQuery(err)
	}

	buf := NewResultBuffer(bufBytes)
	q := &Query{
		tenant:  tenant,
		text:    text,
		plan:    eq.PlanText(),
		newN:    eq.NewNodes(),
		sharedN: eq.SharedNodes(),
		bufCap:  bufBytes,
		created: s.clock.Now(),
		eq:      eq,
		buf:     buf,
	}
	q.sink = newResultSink(buf)

	s.mu.Lock()
	s.seq++
	q.id = fmt.Sprintf("q%d", s.seq)
	s.queries[q.id] = q
	ts.live[q.id] = q
	s.mu.Unlock()

	if err := eq.Attach(q.sink); err != nil {
		// The stream already ended: the query is valid but will never
		// deliver — surface it as done rather than failing the submit.
		buf.MarkDone()
	}
	return s.info(q), nil
}

// reserve checks every quota dimension and, when all fit, books the
// submission against the tenant's counters — atomically, so concurrent
// submissions cannot jointly exceed a quota. Called from the admission
// callback, i.e. under the engine's mutation lock.
func (s *Service) reserve(ts *tenantState, newNodes, bufBytes int) *Error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := ts.cfg.Quota
	if q.MaxQueries > 0 && ts.queries+1 > q.MaxQueries {
		ts.rejects++
		return errQuota("quota_queries", "standing queries", q.MaxQueries, ts.queries, 1)
	}
	if q.MaxOperators > 0 && ts.ops+newNodes > q.MaxOperators {
		ts.rejects++
		return errQuota("quota_operators", "private operators after sharing credit",
			q.MaxOperators, ts.ops, newNodes)
	}
	if q.MaxResultBytes > 0 && ts.bufBytes+bufBytes > q.MaxResultBytes {
		ts.rejects++
		return errQuota("quota_result_bytes", "result-buffer bytes",
			q.MaxResultBytes, ts.bufBytes, bufBytes)
	}
	ts.queries++
	ts.ops += newNodes
	ts.bufBytes += bufBytes
	return nil
}

// release refunds one query's reservation.
func (s *Service) release(ts *tenantState, ops, bufBytes int) {
	s.mu.Lock()
	ts.queries--
	ts.ops -= ops
	ts.bufBytes -= bufBytes
	s.mu.Unlock()
}

// lookupLocked returns tenant's query id, or a structured 404 that does
// not reveal other tenants' query ids.
func (s *Service) lookupLocked(tenant, id string) (*Query, *Error) {
	q, ok := s.queries[id]
	if !ok || q.tenant != tenant {
		return nil, errUnknownQuery(id)
	}
	return q, nil
}

// Get returns one query's info.
func (s *Service) Get(tenant, id string) (QueryInfo, *Error) {
	s.mu.Lock()
	q, serr := s.lookupLocked(tenant, id)
	s.mu.Unlock()
	if serr != nil {
		return QueryInfo{}, serr
	}
	return s.info(q), nil
}

// List returns the tenant's standing queries, oldest first.
func (s *Service) List(tenant string) []QueryInfo {
	s.mu.Lock()
	ts, ok := s.tenants[tenant]
	var qs []*Query
	if ok {
		qs = make([]*Query, 0, len(ts.live))
		for _, q := range ts.live {
			qs = append(qs, q)
		}
	}
	s.mu.Unlock()
	// Ids are "q<seq>", so shorter-then-lexicographic is numeric order.
	sort.Slice(qs, func(i, j int) bool {
		if len(qs[i].id) != len(qs[j].id) {
			return len(qs[i].id) < len(qs[j].id)
		}
		return qs[i].id < qs[j].id
	})
	out := make([]QueryInfo, len(qs))
	for i, q := range qs {
		out[i] = s.info(q)
	}
	return out
}

// Kill removes a standing query: its quota reservation is refunded, its
// operators are released to the optimizer (which splices out everything
// no other query references) and its result buffer is closed. The
// returned info is the query's final snapshot.
func (s *Service) Kill(tenant, id string) (QueryInfo, *Error) {
	s.mu.Lock()
	q, serr := s.lookupLocked(tenant, id)
	s.mu.Unlock()
	if serr != nil {
		return QueryInfo{}, serr
	}

	// Stop delivery first — engine calls happen strictly outside mu
	// (dynamic dispatch into the graph) — so the buffer's counters are
	// final before they fold into the tenant's retired totals. Detach may
	// report ErrNotSubscribed when the stream already ended; the buffer
	// is closed either way.
	_ = q.eq.Detach(q.sink)
	q.buf.MarkDone()
	st := q.buf.Stats()

	s.mu.Lock()
	if _, live := s.queries[id]; !live {
		// Lost a concurrent kill of the same query: the winner did the
		// bookkeeping and owns the engine-side removal.
		s.mu.Unlock()
		return QueryInfo{}, errUnknownQuery(id)
	}
	ts := s.tenants[tenant]
	delete(s.queries, id)
	delete(ts.live, id)
	q.killed = true
	ts.queries--
	ts.ops -= q.newN
	ts.bufBytes -= q.bufCap
	ts.retiredResults += st.Results
	ts.retiredShed += st.Shed
	s.mu.Unlock()

	if err := s.eng.KillQuery(q.eq); err != nil {
		return QueryInfo{}, &Error{Status: 500, Code: "kill_failed", Message: err.Error()}
	}
	return s.info(q), nil
}

// Reader attaches a result reader to tenant's query id at cursor
// `after`. The caller must Close it.
func (s *Service) Reader(tenant, id string, after uint64) (*Reader, *Error) {
	s.mu.Lock()
	q, serr := s.lookupLocked(tenant, id)
	s.mu.Unlock()
	if serr != nil {
		return nil, serr
	}
	return q.buf.NewReader(after), nil
}

// info snapshots a query document.
func (s *Service) info(q *Query) QueryInfo {
	st := q.buf.Stats()
	s.mu.Lock()
	status := "running"
	if q.killed {
		status = "killed"
	} else if st.Done {
		status = "done"
	}
	s.mu.Unlock()
	elapsed := s.clock.Now().Sub(q.created).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(st.Results) / elapsed
	}
	return QueryInfo{
		ID:              q.id,
		Tenant:          q.tenant,
		CQL:             q.text,
		Status:          status,
		Plan:            q.plan,
		NewOperators:    q.newN,
		SharedOperators: q.sharedN,
		BufferBytes:     q.bufCap,
		Results:         st.Results,
		ResultBytes:     st.ResultBytes,
		Shed:            st.Shed,
		Buffered:        st.Buffered,
		Readers:         st.Readers,
		RatePerSec:      rate,
		CreatedUnixMS:   q.created.UnixMilli(),
	}
}

// TenantStats snapshots every tenant's footprint, sorted by name — the
// source of the pipes_tenant_* scrape families.
func (s *Service) TenantStats() []TenantStats {
	s.mu.Lock()
	type live struct {
		stats TenantStats
		qs    []*Query
	}
	rows := make([]live, 0, len(s.tenants))
	for name, ts := range s.tenants {
		l := live{stats: TenantStats{
			Name:                name,
			ActiveQueries:       ts.queries,
			PrivateOperators:    ts.ops,
			BufferBytesReserved: ts.bufBytes,
			AdmissionRejects:    ts.rejects,
			Results:             ts.retiredResults,
			ResultShed:          ts.retiredShed,
		}}
		for _, q := range ts.live {
			l.qs = append(l.qs, q)
		}
		rows = append(rows, l)
	}
	s.mu.Unlock()
	out := make([]TenantStats, len(rows))
	for i, l := range rows {
		for _, q := range l.qs {
			st := q.buf.Stats()
			l.stats.Results += st.Results
			l.stats.ResultShed += st.Shed
		}
		out[i] = l.stats
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// resultSink is the graph-facing delivery adapter: a terminal sink that
// renders each result to JSON and appends it to the query's bounded
// buffer. ProcessBatch never blocks and never takes a lock beyond the
// buffer's leaf mutex, so a slow or stalled remote consumer cannot
// backpressure the shared graph.
//
// scratch and ends are reused across frames without a lock: the sink
// subscribes to one query root, and one goroutine publishes on a node
// at a time (CONCURRENCY.md).
type resultSink struct {
	buf     *ResultBuffer
	scratch []byte // the frame's renderings, back to back
	ends    []int  // ends[i] is where result i's rendering ends in scratch
}

func newResultSink(buf *ResultBuffer) *resultSink { return &resultSink{buf: buf} }

// Name implements pubsub.Node.
func (k *resultSink) Name() string { return "service-results" }

// ProcessBatch implements pubsub.BatchSink. The frame is rendered into
// the sink's scratch, then copied once into an exact-size arena the
// buffer's entries share, so a frame costs one allocation and one lock
// acquisition. Rendering copies everything the sink keeps, honouring the
// frame borrow contract (SEMANTICS.md §3.7): nothing of b is retained
// after return. So the sink borrows lent values and declares no
// KeepsValues: a lending projection hands it its rows without copies.
func (k *resultSink) ProcessBatch(b temporal.Batch, _ int) {
	k.scratch, k.ends = k.scratch[:0], k.ends[:0]
	for _, e := range b {
		k.scratch = appendValue(k.scratch, e.Value)
		k.ends = append(k.ends, len(k.scratch))
	}
	k.buf.appendFrame(b, bytes.Clone(k.scratch), k.ends)
}

// Done implements pubsub.Sink.
func (k *resultSink) Done(_ int) { k.buf.MarkDone() }

// jsonAppender is a result value that renders itself without
// reflection: AppendJSON appends exactly json.Marshal's bytes, or
// reports false for content it does not render. cql.Tuple implements
// it; declaring it here keeps the service engine-agnostic.
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, bool)
}

// appendValue appends v's JSON rendering to dst: the value's own
// AppendJSON when it has one and it succeeds, else marshalValue.
func appendValue(dst []byte, v any) []byte {
	if a, ok := v.(jsonAppender); ok {
		if out, ok := a.AppendJSON(dst); ok {
			return out
		}
	}
	return append(dst, marshalValue(v)...)
}

// marshalValue renders a result value to JSON; values that do not
// marshal (exotic user types) degrade to their Go string rendering.
// It is the reference appendValue's fast path is tested against.
func marshalValue(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		data, _ = json.Marshal(map[string]string{"unserializable": fmt.Sprintf("%v", v)})
	}
	return data
}
