package service

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// fakeQuery is an EngineQuery whose results are fed by the test.
type fakeQuery struct {
	text    string
	newN    int
	sharedN int

	mu   sync.Mutex
	sink pubsub.Sink
}

func (q *fakeQuery) Attach(s pubsub.Sink) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sink = s
	return nil
}

func (q *fakeQuery) Detach(s pubsub.Sink) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.sink != s {
		return pubsub.ErrNotSubscribed
	}
	q.sink = nil
	return nil
}

func (q *fakeQuery) PlanText() string { return "plan(" + q.text + ")" }
func (q *fakeQuery) NewNodes() int    { return q.newN }
func (q *fakeQuery) SharedNodes() int { return q.sharedN }

// emit pushes one result into the query's attached sink, as the graph
// would.
func (q *fakeQuery) emit(v any, t temporal.Time) {
	q.mu.Lock()
	sink := q.sink
	q.mu.Unlock()
	if sink != nil {
		sink.(pubsub.BatchSink).ProcessBatch(temporal.Batch{temporal.At(v, t)}, 0)
	}
}

func (q *fakeQuery) finish() {
	q.mu.Lock()
	sink := q.sink
	q.mu.Unlock()
	if sink != nil {
		sink.Done(0)
	}
}

// fakeEngine implements Engine with scripted per-query node counts:
// "new=3,shared=2" in the text sets the counts, "bad" fails the parse,
// "lateFail" fails after admission (a wiring failure).
type fakeEngine struct {
	mu     sync.Mutex
	live   map[*fakeQuery]bool
	killed int
}

func newFakeEngine() *fakeEngine { return &fakeEngine{live: map[*fakeQuery]bool{}} }

func scriptCounts(text string) (newN, sharedN int) {
	newN, sharedN = 2, 1
	for _, f := range strings.Fields(text) {
		if n, ok := strings.CutPrefix(f, "new="); ok && n != "" {
			newN = int(n[0] - '0')
		}
		if n, ok := strings.CutPrefix(f, "shared="); ok && n != "" {
			sharedN = int(n[0] - '0')
		}
	}
	return newN, sharedN
}

func (e *fakeEngine) SubmitQuery(text string, admit func(newNodes, sharedNodes int) error) (EngineQuery, error) {
	if strings.Contains(text, "bad") {
		return nil, errors.New("parse error near 'bad'")
	}
	newN, sharedN := scriptCounts(text)
	if admit != nil {
		if err := admit(newN, sharedN); err != nil {
			return nil, err
		}
	}
	if strings.Contains(text, "lateFail") {
		return nil, errors.New("wiring failed after admission")
	}
	q := &fakeQuery{text: text, newN: newN, sharedN: sharedN}
	e.mu.Lock()
	e.live[q] = true
	e.mu.Unlock()
	return q, nil
}

func (e *fakeEngine) KillQuery(q EngineQuery) error {
	fq := q.(*fakeQuery)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.live[fq] {
		return errors.New("unknown query")
	}
	delete(e.live, fq)
	e.killed++
	return nil
}

func (e *fakeEngine) liveCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.live)
}

var testTenants = []TenantConfig{
	{Name: "alice", Token: "alice-secret", Quota: Quota{MaxQueries: 2, MaxOperators: 6, MaxResultBytes: 1 << 20}},
	{Name: "bob", Token: "bob-secret", Quota: Quota{MaxQueries: 1}},
}

func newTestService() (*Service, *fakeEngine) {
	eng := newFakeEngine()
	return New(eng, testTenants), eng
}

func TestAuthenticate(t *testing.T) {
	s, _ := newTestService()
	if name, serr := s.Authenticate("alice-secret"); serr != nil || name != "alice" {
		t.Fatalf("Authenticate(alice-secret) = %q, %v", name, serr)
	}
	if _, serr := s.Authenticate("nope"); serr == nil || serr.Code != "unauthorized" {
		t.Fatalf("bad token accepted: %v", serr)
	}
}

func TestSubmitGetListKill(t *testing.T) {
	s, eng := newTestService()
	info, serr := s.Submit("alice", "SELECT new=3 shared=2", 0)
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	if info.Status != "running" || info.NewOperators != 3 || info.SharedOperators != 2 {
		t.Fatalf("info = %+v", info)
	}
	if info.BufferBytes != DefaultBufferBytes {
		t.Fatalf("default buffer = %d", info.BufferBytes)
	}
	if got, _ := s.Get("alice", info.ID); got.Plan == "" || got.CQL != "SELECT new=3 shared=2" {
		t.Fatalf("Get = %+v", got)
	}
	// Other tenants cannot see or kill it.
	if _, serr := s.Get("bob", info.ID); serr == nil || serr.Code != "unknown_query" {
		t.Fatalf("cross-tenant Get: %v", serr)
	}
	if _, serr := s.Kill("bob", info.ID); serr == nil || serr.Code != "unknown_query" {
		t.Fatalf("cross-tenant Kill: %v", serr)
	}
	if l := s.List("alice"); len(l) != 1 || l[0].ID != info.ID {
		t.Fatalf("List = %+v", l)
	}
	if l := s.List("bob"); len(l) != 0 {
		t.Fatalf("bob's List = %+v", l)
	}
	final, serr := s.Kill("alice", info.ID)
	if serr != nil || final.Status != "killed" {
		t.Fatalf("Kill = %+v, %v", final, serr)
	}
	if eng.liveCount() != 0 || eng.killed != 1 {
		t.Fatalf("engine live=%d killed=%d", eng.liveCount(), eng.killed)
	}
	if _, serr := s.Get("alice", info.ID); serr == nil {
		t.Fatal("killed query still visible")
	}
}

func TestQuotaMaxQueries(t *testing.T) {
	s, eng := newTestService()
	if _, serr := s.Submit("bob", "SELECT one", 0); serr != nil {
		t.Fatalf("first submit: %v", serr)
	}
	_, serr := s.Submit("bob", "SELECT two", 0)
	if serr == nil || serr.Code != "quota_queries" || serr.Status != 429 {
		t.Fatalf("over-quota submit: %+v", serr)
	}
	if serr.Detail["limit"] != 1 || serr.Detail["in_use"] != 1 {
		t.Fatalf("detail = %+v", serr.Detail)
	}
	if eng.liveCount() != 1 {
		t.Fatalf("rejected submit built a query: live=%d", eng.liveCount())
	}
	// The rejection is counted; the reservation is not leaked.
	st := tenantStatsFor(t, s, "bob")
	if st.AdmissionRejects != 1 || st.ActiveQueries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQuotaMaxOperatorsUsesSharingCredit(t *testing.T) {
	s, _ := newTestService()
	// alice: MaxOperators 6. new=4 fits, then new=4 again would break the
	// cap — but a fully shared resubmission (new=0) is free.
	if _, serr := s.Submit("alice", "SELECT new=4 shared=0", 0); serr != nil {
		t.Fatalf("first: %v", serr)
	}
	_, serr := s.Submit("alice", "SELECT new=4 shared=1 again", 0)
	if serr == nil || serr.Code != "quota_operators" {
		t.Fatalf("expected operator quota reject, got %v", serr)
	}
	if _, serr := s.Submit("alice", "SELECT new=0 shared=4 again", 0); serr != nil {
		t.Fatalf("fully shared submit rejected: %v", serr)
	}
	st := tenantStatsFor(t, s, "alice")
	if st.PrivateOperators != 4 {
		t.Fatalf("private operators = %d, want 4", st.PrivateOperators)
	}
}

func TestQuotaMaxResultBytes(t *testing.T) {
	s, _ := newTestService()
	if _, serr := s.Submit("alice", "SELECT big", 1<<20); serr != nil {
		t.Fatalf("first: %v", serr)
	}
	_, serr := s.Submit("alice", "SELECT more", 1)
	if serr == nil || serr.Code != "quota_result_bytes" {
		t.Fatalf("expected result-bytes reject, got %v", serr)
	}
}

func TestFailedBuildRefundsReservation(t *testing.T) {
	s, eng := newTestService()
	_, serr := s.Submit("bob", "SELECT lateFail", 0)
	if serr == nil || serr.Code != "invalid_query" {
		t.Fatalf("lateFail submit: %v", serr)
	}
	// The slot must be free again.
	if _, serr := s.Submit("bob", "SELECT ok", 0); serr != nil {
		t.Fatalf("slot not refunded: %v", serr)
	}
	if eng.liveCount() != 1 {
		t.Fatalf("live = %d", eng.liveCount())
	}
	st := tenantStatsFor(t, s, "bob")
	if st.ActiveQueries != 1 || st.PrivateOperators != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestParseErrorIsInvalidQuery(t *testing.T) {
	s, _ := newTestService()
	_, serr := s.Submit("alice", "SELECT bad", 0)
	if serr == nil || serr.Code != "invalid_query" || serr.Status != 422 {
		t.Fatalf("parse error mapped to %v", serr)
	}
	if st := tenantStatsFor(t, s, "alice"); st.ActiveQueries != 0 {
		t.Fatalf("reservation leaked on parse error: %+v", st)
	}
}

func TestResultsFlowAndTenantStatsFoldRetired(t *testing.T) {
	s, eng := newTestService()
	_ = eng
	info, serr := s.Submit("alice", "SELECT r", 0)
	if serr != nil {
		t.Fatal(serr)
	}
	s.mu.Lock()
	q := s.queries[info.ID]
	s.mu.Unlock()
	fq := q.eq.(*fakeQuery)

	for i := 0; i < 5; i++ {
		fq.emit(map[string]any{"i": i}, temporal.Time(i))
	}
	r, serr := s.Reader("alice", info.ID, 0)
	if serr != nil {
		t.Fatal(serr)
	}
	out, _, _ := r.TryNext(100)
	if len(out) != 5 {
		t.Fatalf("read %d results, want 5", len(out))
	}
	r.Close()

	got, _ := s.Get("alice", info.ID)
	if got.Results != 5 {
		t.Fatalf("Results = %d", got.Results)
	}

	// Kill folds the counters into the tenant's retired totals.
	if _, serr := s.Kill("alice", info.ID); serr != nil {
		t.Fatal(serr)
	}
	st := tenantStatsFor(t, s, "alice")
	if st.Results != 5 || st.ActiveQueries != 0 || st.PrivateOperators != 0 || st.BufferBytesReserved != 0 {
		t.Fatalf("post-kill stats = %+v", st)
	}
}

func TestStreamEndMarksDone(t *testing.T) {
	s, _ := newTestService()
	info, _ := s.Submit("alice", "SELECT r", 0)
	s.mu.Lock()
	fq := s.queries[info.ID].eq.(*fakeQuery)
	s.mu.Unlock()
	fq.emit("x", 1)
	fq.finish()
	got, _ := s.Get("alice", info.ID)
	if got.Status != "done" || got.Results != 1 {
		t.Fatalf("after stream end: %+v", got)
	}
}

func tenantStatsFor(t *testing.T, s *Service, name string) TenantStats {
	t.Helper()
	for _, st := range s.TenantStats() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("no stats for %q", name)
	return TenantStats{}
}

// The sink renders each result exactly as marshalValue, the reflective
// reference, would: tuples through their own AppendJSON, tuples it
// refuses and every other value through json.Marshal, and values json
// cannot marshal through the unserializable wrapper.
func TestResultSinkRenderingMatchesMarshalValue(t *testing.T) {
	type point struct{ X, Y int }
	values := []any{
		cql.Tuple{"id": 7, "price": 12.5, "name": "bid", "ok": true, "none": nil},
		cql.Tuple{"tiny": 1e-9, "huge": 1e22, "big": int64(math.MaxInt64)},
		cql.Tuple{"html": "a<b&c"},             // refused: json escapes it
		cql.Tuple{"nested": cql.Tuple{"a": 1}}, // refused: a kind outside the set
		cql.Tuple{},
		cql.Tuple(nil),
		cql.Tuple{"nan": math.NaN()},       // unserializable
		cql.Tuple{"ch": make(chan int)},    // unserializable
		map[string]any{"m": []int{1, 2}},   // not a tuple
		"plain", 42, 2.5, nil, point{1, 2}, // not a tuple
		func() {}, // unserializable
	}
	b := NewResultBuffer(1 << 20)
	frame := make(temporal.Batch, len(values))
	for i, v := range values {
		frame[i] = temporal.At(v, temporal.Time(i))
	}
	newResultSink(b).ProcessBatch(frame, 0)
	r := b.NewReader(0)
	defer r.Close()
	out, _, _ := r.TryNext(len(values))
	if len(out) != len(values) {
		t.Fatalf("delivered %d of %d results", len(out), len(values))
	}
	for i, e := range out {
		if want := marshalValue(values[i]); string(e.Data) != string(want) {
			t.Errorf("result %d (%T): sink rendered %s, marshalValue %s", i, values[i], e.Data, want)
		}
		if cap(e.Data) != len(e.Data) {
			t.Errorf("result %d: Data has spare capacity %d into its neighbour", i, cap(e.Data)-len(e.Data))
		}
	}
}
