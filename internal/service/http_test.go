package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pipes/internal/cql"
	"pipes/internal/temporal"
)

// resultItem is one delivered result on the wire.
type resultItem struct {
	Seq   uint64          `json:"seq"`
	Start int64           `json:"start"`
	End   int64           `json:"end"`
	Value json.RawMessage `json:"value"`
}

// resultPage is the long-poll response: results past the cursor, how
// many were shed out from under it, and the cursor for the next call.
// Encoded with json.Encoder and SetIndent("", "  "), it is the oracle of
// the appended page.
type resultPage struct {
	Results []resultItem `json:"results"`
	Dropped int64        `json:"dropped"`
	Next    uint64       `json:"next"`
	Done    bool         `json:"done"`
}

// httpFixture spins an httptest server over a fresh service.
type httpFixture struct {
	s   *Service
	eng *fakeEngine
	srv *httptest.Server
}

func newHTTPFixture(t *testing.T) *httpFixture {
	t.Helper()
	s, eng := newTestService()
	srv := httptest.NewUnstartedServer(s.Handler())
	srv.Start()
	t.Cleanup(srv.Close)
	return &httpFixture{s: s, eng: eng, srv: srv}
}

// do issues one authenticated request and decodes the JSON body.
func (f *httpFixture) do(t *testing.T, method, path, token string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, f.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, path, raw, err)
		}
	}
	return resp
}

type errEnvelope struct {
	Error Error `json:"error"`
}

func (f *httpFixture) fakeQueryOf(t *testing.T, id string) *fakeQuery {
	t.Helper()
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	q, ok := f.s.queries[id]
	if !ok {
		t.Fatalf("no query %q", id)
	}
	return q.eq.(*fakeQuery)
}

func TestHTTPUnauthorized(t *testing.T) {
	f := newHTTPFixture(t)
	var env errEnvelope
	resp := f.do(t, "GET", "/v1/queries", "", nil, &env)
	if resp.StatusCode != 401 || env.Error.Code != "unauthorized" {
		t.Fatalf("status %d, error %+v", resp.StatusCode, env.Error)
	}
	resp = f.do(t, "GET", "/v1/queries", "wrong-token", nil, &env)
	if resp.StatusCode != 401 {
		t.Fatalf("bad token status %d", resp.StatusCode)
	}
	// healthz is open.
	resp = f.do(t, "GET", "/healthz", "", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPSubmitListGetKill(t *testing.T) {
	f := newHTTPFixture(t)
	var info QueryInfo
	resp := f.do(t, "POST", "/v1/queries", "alice-secret",
		map[string]any{"cql": "SELECT new=3 shared=2"}, &info)
	if resp.StatusCode != 201 {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if info.ID == "" || info.NewOperators != 3 || info.SharedOperators != 2 || info.Tenant != "alice" {
		t.Fatalf("submit info %+v", info)
	}

	var list struct {
		Queries []QueryInfo `json:"queries"`
	}
	f.do(t, "GET", "/v1/queries", "alice-secret", nil, &list)
	if len(list.Queries) != 1 || list.Queries[0].ID != info.ID {
		t.Fatalf("list %+v", list)
	}

	var got QueryInfo
	f.do(t, "GET", "/v1/queries/"+info.ID, "alice-secret", nil, &got)
	if got.Plan != "plan(SELECT new=3 shared=2)" {
		t.Fatalf("get %+v", got)
	}

	// bob cannot see alice's query.
	var env errEnvelope
	resp = f.do(t, "GET", "/v1/queries/"+info.ID, "bob-secret", nil, &env)
	if resp.StatusCode != 404 || env.Error.Code != "unknown_query" {
		t.Fatalf("cross-tenant get: %d %+v", resp.StatusCode, env.Error)
	}

	var final QueryInfo
	resp = f.do(t, "DELETE", "/v1/queries/"+info.ID, "alice-secret", nil, &final)
	if resp.StatusCode != 200 || final.Status != "killed" {
		t.Fatalf("kill: %d %+v", resp.StatusCode, final)
	}
	if f.eng.liveCount() != 0 {
		t.Fatalf("engine still live after kill")
	}
}

func TestHTTPQuotaRejectIsStructured(t *testing.T) {
	f := newHTTPFixture(t)
	f.do(t, "POST", "/v1/queries", "bob-secret", map[string]any{"cql": "SELECT one"}, nil)
	var env errEnvelope
	resp := f.do(t, "POST", "/v1/queries", "bob-secret", map[string]any{"cql": "SELECT two"}, &env)
	if resp.StatusCode != 429 || env.Error.Code != "quota_queries" {
		t.Fatalf("quota reject: %d %+v", resp.StatusCode, env.Error)
	}
	if env.Error.Detail["limit"].(float64) != 1 {
		t.Fatalf("detail %+v", env.Error.Detail)
	}
	var tenant struct {
		AdmissionRejects int64 `json:"admission_rejects"`
		InUse            struct {
			Queries int `json:"queries"`
		} `json:"in_use"`
	}
	f.do(t, "GET", "/v1/tenant", "bob-secret", nil, &tenant)
	if tenant.AdmissionRejects != 1 || tenant.InUse.Queries != 1 {
		t.Fatalf("tenant doc %+v", tenant)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	f := newHTTPFixture(t)
	var env errEnvelope
	resp := f.do(t, "POST", "/v1/queries", "alice-secret", map[string]any{"cql": "  "}, &env)
	if resp.StatusCode != 400 {
		t.Fatalf("empty cql status %d", resp.StatusCode)
	}
	resp = f.do(t, "POST", "/v1/queries", "alice-secret", map[string]any{"cql": "SELECT bad"}, &env)
	if resp.StatusCode != 422 || env.Error.Code != "invalid_query" {
		t.Fatalf("invalid query: %d %+v", resp.StatusCode, env.Error)
	}
	req, _ := http.NewRequest("GET", f.srv.URL+"/v1/queries/q1/results?after=zap", nil)
	req.Header.Set("Authorization", "Bearer alice-secret")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Fatalf("bad after= status %d", r2.StatusCode)
	}
}

func TestHTTPLongPollResults(t *testing.T) {
	f := newHTTPFixture(t)
	var info QueryInfo
	f.do(t, "POST", "/v1/queries", "alice-secret", map[string]any{"cql": "SELECT r"}, &info)
	fq := f.fakeQueryOf(t, info.ID)
	for i := 0; i < 3; i++ {
		fq.emit(map[string]any{"i": i}, temporal.Time(i))
	}

	var page resultPage
	f.do(t, "GET", "/v1/queries/"+info.ID+"/results?wait=0", "alice-secret", nil, &page)
	if len(page.Results) != 3 || page.Next != 3 || page.Done {
		t.Fatalf("page %+v", page)
	}
	var v map[string]float64
	if err := json.Unmarshal(page.Results[2].Value, &v); err != nil || v["i"] != 2 {
		t.Fatalf("value %s: %v", page.Results[2].Value, err)
	}

	// Resume from the cursor: nothing new yet.
	var page2 resultPage
	f.do(t, "GET", fmt.Sprintf("/v1/queries/%s/results?wait=0&after=%d", info.ID, page.Next),
		"alice-secret", nil, &page2)
	if len(page2.Results) != 0 {
		t.Fatalf("resumed page %+v", page2)
	}

	// A waiting poll wakes on delivery.
	type res struct {
		page resultPage
	}
	ch := make(chan res, 1)
	go func() {
		var p resultPage
		f.do(t, "GET", fmt.Sprintf("/v1/queries/%s/results?wait=5s&after=%d", info.ID, page.Next),
			"alice-secret", nil, &p)
		ch <- res{p}
	}()
	time.Sleep(20 * time.Millisecond)
	fq.emit(map[string]any{"i": 3}, 3)
	select {
	case got := <-ch:
		if len(got.page.Results) != 1 || got.page.Results[0].Seq != 4 {
			t.Fatalf("long-poll page %+v", got.page)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned")
	}

	// End of stream flips done.
	fq.finish()
	var page3 resultPage
	f.do(t, "GET", fmt.Sprintf("/v1/queries/%s/results?wait=0&after=4", info.ID),
		"alice-secret", nil, &page3)
	if !page3.Done {
		t.Fatalf("final page %+v", page3)
	}
}

func TestHTTPSSEStream(t *testing.T) {
	f := newHTTPFixture(t)
	var info QueryInfo
	f.do(t, "POST", "/v1/queries", "alice-secret", map[string]any{"cql": "SELECT sse"}, &info)
	fq := f.fakeQueryOf(t, info.ID)
	fq.emit("first", 1)

	req, _ := http.NewRequest("GET", f.srv.URL+"/v1/queries/"+info.ID+"/results?stream=sse", nil)
	req.Header.Set("Authorization", "Bearer alice-secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
		close(events)
	}()
	expect := func(want string) {
		t.Helper()
		select {
		case got, ok := <-events:
			if !ok || got != want {
				t.Fatalf("event %q (ok=%v), want %q", got, ok, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}
	expect("result")
	fq.emit("second", 2)
	expect("result")
	fq.finish()
	expect("done")
}

// TestHTTPStalledConsumerSheds is the unit-level half of satellite 3: a
// stalled SSE client's buffer overflows, results are shed and counted,
// and the delivery path never blocks (all emits return immediately).
func TestHTTPStalledConsumerSheds(t *testing.T) {
	f := newHTTPFixture(t)
	var info QueryInfo
	// A tiny buffer: a handful of 1KB results overflow it.
	f.do(t, "POST", "/v1/queries", "alice-secret",
		map[string]any{"cql": "SELECT stall", "buffer_bytes": 4096}, &info)
	fq := f.fakeQueryOf(t, info.ID)

	// Attach an SSE consumer that never reads past the first response
	// bytes: the reader holds a cursor but drains nothing.
	req, _ := http.NewRequest("GET", f.srv.URL+"/v1/queries/"+info.ID+"/results?stream=sse", nil)
	req.Header.Set("Authorization", "Bearer alice-secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait until the reader is attached.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := f.s.Get("alice", info.ID)
		if got.Readers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE reader never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Flood: every emit returns immediately (the graph is never blocked)
	// and the overflow is shed.
	// 4000 × ~1KB ≫ anything loopback TCP buffering can absorb, so the
	// SSE writer is guaranteed to stall behind the unread client.
	pad := strings.Repeat("x", 1024)
	const n = 4000
	start := time.Now()
	for i := 0; i < n; i++ {
		fq.emit(map[string]any{"i": i, "pad": pad}, temporal.Time(i))
	}
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("emits blocked: %d results took %v", n, elapsed)
	}

	got, _ := f.s.Get("alice", info.ID)
	if got.Results != n {
		t.Fatalf("delivered %d of %d results", got.Results, n)
	}
	if got.Shed == 0 {
		t.Fatal("stalled consumer shed nothing")
	}
	st := tenantStatsFor(t, f.s, "alice")
	if st.ResultShed != got.Shed {
		t.Fatalf("tenant shed %d != query shed %d", st.ResultShed, got.Shed)
	}
}

// An EventSource that reconnects sends the last id it saw as
// Last-Event-ID; the stream resumes after it. ?after= wins when both are
// given, and a malformed header is a 400 like a malformed ?after=.
func TestHTTPSSEResumesFromLastEventID(t *testing.T) {
	f := newHTTPFixture(t)
	var info QueryInfo
	f.do(t, "POST", "/v1/queries", "alice-secret", map[string]any{"cql": "SELECT resume"}, &info)
	fq := f.fakeQueryOf(t, info.ID)
	for i := 1; i <= 4; i++ {
		fq.emit(i, temporal.Time(i))
	}
	firstID := func(query, lastEventID string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", f.srv.URL+"/v1/queries/"+info.ID+"/results?stream=sse"+query, nil)
		req.Header.Set("Authorization", "Bearer alice-secret")
		req.Header.Set("Last-Event-ID", lastEventID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return resp.StatusCode, ""
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
				return resp.StatusCode, id
			}
		}
		t.Fatalf("stream ended without an event: %v", sc.Err())
		return 0, ""
	}
	if status, id := firstID("", "2"); status != 200 || id != "3" {
		t.Fatalf("Last-Event-ID 2: status %d, first id %q; want 200, 3", status, id)
	}
	if status, id := firstID("&after=1", "3"); status != 200 || id != "2" {
		t.Fatalf("after=1 with Last-Event-ID 3: status %d, first id %q; want 200, 2", status, id)
	}
	if status, _ := firstID("", "zap"); status != 400 {
		t.Fatalf("malformed Last-Event-ID: status %d, want 400", status)
	}
}

// The exact bytes of an SSE stream and of a long-poll page: framing,
// shed and done events, and each value spliced in as rendered.
func TestHTTPResultWireGolden(t *testing.T) {
	const sse = "event: shed\ndata: {\"dropped\":2}\n\n" +
		"id: 3\nevent: result\ndata: {\"seq\":3,\"start\":20,\"end\":25,\"value\":\"x\\u003cy\"}\n\n" +
		"id: 4\nevent: result\ndata: {\"seq\":4,\"start\":30,\"end\":35,\"value\":{\"e\":1e+21,\"s\":\"bid 12\",\"t\":true,\"z\":null}}\n\n" +
		"id: 5\nevent: result\ndata: {\"seq\":5,\"start\":40,\"end\":45,\"value\":{\"k\":[1,2]}}\n\n" +
		"event: done\ndata: {}\n\n"
	const page = `{
  "results": [
    {
      "seq": 3,
      "start": 20,
      "end": 25,
      "value": "x\u003cy"
    },
    {
      "seq": 4,
      "start": 30,
      "end": 35,
      "value": {
        "e": 1e+21,
        "s": "bid 12",
        "t": true,
        "z": null
      }
    },
    {
      "seq": 5,
      "start": 40,
      "end": 45,
      "value": {
        "k": [
          1,
          2
        ]
      }
    }
  ],
  "dropped": 2,
  "next": 5,
  "done": true
}
`
	// A finished query whose two oldest results were evicted: a reader
	// from 0 sees a shed gap, three results of different renderings, then
	// end-of-stream.
	values := []any{
		cql.Tuple{"id": 1, "price": 9.5, "name": "a"},
		int64(-7),
		"x<y",
		cql.Tuple{"e": 1e21, "t": true, "z": nil, "s": "bid 12"},
		map[string]any{"k": []int{1, 2}},
	}
	capBytes := 0
	for _, v := range values[2:] {
		capBytes += len(marshalValue(v)) + entryOverhead
	}
	b := NewResultBuffer(capBytes)
	sink := newResultSink(b)
	for i, v := range values {
		sink.ProcessBatch(temporal.Batch{temporal.NewElement(v, temporal.Time(10*i), temporal.Time(10*i+5))}, 0)
	}
	sink.Done(0)

	s := &Service{}
	for _, tc := range []struct {
		name, query, want string
		// batch 2 splits the SSE stream over two reads: its bytes must
		// not depend on where batches end.
		batch int
		serve func(http.ResponseWriter, *http.Request, *Reader, int)
	}{
		{"sse", "?stream=sse", sse, 2, s.serveSSE},
		{"long-poll", "?wait=0", page, 10, s.serveLongPoll},
	} {
		r := b.NewReader(0)
		rec := httptest.NewRecorder()
		tc.serve(rec, httptest.NewRequest("GET", "/v1/queries/q1/results"+tc.query, nil), r, tc.batch)
		r.Close()
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%s bytes:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// randomValue returns a result value of one of the shapes results take:
// tuples, scalars, strings that need HTML escaping, nested maps and
// arrays, nulls.
func randomValue(rng *rand.Rand, depth int) any {
	switch k := rng.Intn(9); {
	case k == 0 && depth < 3:
		return cql.Tuple{"id": rng.Intn(1000), "price": rng.Float64() * 1e3, "name": "bid & <ask>"}
	case k == 1 && depth < 3:
		m := map[string]any{}
		for i := rng.Intn(4); i > 0; i-- {
			m[fmt.Sprint("k", i)] = randomValue(rng, depth+1)
		}
		return m
	case k == 2 && depth < 3:
		a := make([]any, rng.Intn(4))
		for i := range a {
			a[i] = randomValue(rng, depth+1)
		}
		return a
	case k == 3:
		return "x<y"
	case k == 4:
		return rng.Int63n(1<<40) - 1<<39
	case k == 5:
		return rng.NormFloat64() * 1e20
	case k == 6:
		return rng.Intn(2) == 0
	case k == 7:
		return nil
	}
	return fmt.Sprintf("s%d\t\"q\"", rng.Intn(100))
}

// TestLongPollPageMatchesEncoder checks the appended long-poll page
// against json.Encoder with SetIndent("", "  ") over resultPage, on
// random buffers: empty pages, pages after a shed gap, finished streams,
// cursors ahead of the stream, and values that need HTML escaping.
func TestLongPollPageMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := &Service{}
	var empty, shed, finished, ahead int
	for round := 0; round < 300; round++ {
		b := NewResultBuffer(entryOverhead + rng.Intn(4096))
		sink := newResultSink(b)
		n := rng.Intn(40)
		for i := 0; i < n; {
			frame := make(temporal.Batch, min(1+rng.Intn(5), n-i))
			for j := range frame {
				frame[j] = temporal.NewElement(randomValue(rng, 0), temporal.Time(i), temporal.Time(i+1+rng.Intn(9)))
				i++
			}
			sink.ProcessBatch(frame, 0)
		}
		if rng.Intn(3) == 0 {
			sink.Done(0)
		}
		after := uint64(rng.Intn(n + 5))
		if rng.Intn(3) == 0 {
			after = 0
		}
		batch := 1 + rng.Intn(50)

		oracle := b.NewReader(after)
		entries, dropped, done := oracle.TryNext(batch)
		page := resultPage{Results: []resultItem{}, Dropped: dropped, Next: oracle.Cursor(), Done: done}
		for _, e := range entries {
			page.Results = append(page.Results, resultItem{
				Seq: e.Seq, Start: int64(e.Start), End: int64(e.End), Value: json.RawMessage(e.Data),
			})
		}
		oracle.Close()
		empty += btoi(len(entries) == 0)
		shed += btoi(dropped > 0)
		finished += btoi(done)
		ahead += btoi(after > uint64(n))
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(page); err != nil {
			t.Fatal(err)
		}

		r := b.NewReader(after)
		rec := httptest.NewRecorder()
		s.serveLongPoll(rec, httptest.NewRequest("GET", "/v1/queries/q1/results?wait=0", nil), r, batch)
		r.Close()
		if got := rec.Body.String(); got != want.String() {
			t.Fatalf("round %d (after %d, max %d): page\n%s\nwant\n%s", round, after, batch, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d, content type %q", round, rec.Code, ct)
		}
	}
	if empty == 0 || shed == 0 || finished == 0 || ahead == 0 {
		t.Fatalf("cases not all covered: %d empty, %d shed, %d done, %d ahead", empty, shed, finished, ahead)
	}
	t.Logf("%d empty pages, %d after a shed gap, %d done, %d ahead of the stream", empty, shed, finished, ahead)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// discardResponse is a ResponseWriter that keeps nothing, so an
// allocation count sees only the page path.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}

// A 256-result ?wait=0 page, its Reader included, costs a handful of
// allocations: the Reader, its batch slice and the response header. The
// page buffers are pooled, and a pool miss costs one per buffer.
func TestLongPollPageAllocations(t *testing.T) {
	b := NewResultBuffer(DefaultBufferBytes)
	sink := newResultSink(b)
	frame := make(temporal.Batch, 64)
	for f := 0; f < 4; f++ {
		for i := range frame {
			frame[i] = temporal.At(cql.Tuple{"id": 64*f + i, "price": 100.5, "name": "bid"}, temporal.Time(64*f+i))
		}
		sink.ProcessBatch(frame, 0)
	}
	s := &Service{}
	req := httptest.NewRequest("GET", "/v1/queries/q1/results?wait=0&max=256", nil)
	w := discardResponse{h: http.Header{}}
	page := func() {
		r := b.NewReader(0)
		s.serveLongPoll(w, req, r, 256)
		if r.Cursor() != 256 {
			t.Fatalf("page ended at cursor %d, want 256", r.Cursor())
		}
		r.Close()
	}
	page()
	got := testing.AllocsPerRun(100, page)
	if got > 8 {
		t.Fatalf("%.1f allocations per 256-result page, want <= 8", got)
	}
	t.Logf("%.1f allocations per 256-result page", got)
}

// queryValue reads a parameter as url.ParseQuery(raw).Get does.
func TestQueryValueMatchesParseQuery(t *testing.T) {
	for _, raw := range []string{
		"", "after=5", "wait=1s&max=256&after=12", "after=&after=3", "after=3&after=4",
		"aft%65r=7", "after=1%2", "after=1%2&after=9", "after=1;x=2&after=8", "a+b=c+d&after=%31",
		"&&after=2&", "=5&after", "after", "stream=sse&stream=x", "max=%zz&max=4",
	} {
		want, _ := url.ParseQuery(raw)
		for _, name := range []string{"after", "max", "wait", "stream", "a b"} {
			if got := queryValue(raw, name); got != want.Get(name) {
				t.Errorf("queryValue(%q, %q) = %q, want %q", raw, name, got, want.Get(name))
			}
		}
	}
}
