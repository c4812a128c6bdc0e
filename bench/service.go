package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pipes"
	"pipes/internal/cql"
	"pipes/internal/temporal"
)

// service_live: a DSMS serving the multi-tenant control plane on
// 127.0.0.1:0. Two tenants hold six standing queries submitted over
// HTTP; one generator feeds a ChanSource open loop at a fixed rate, every
// element stamped with the time it was due; one SSE and one long-poll
// connection read results; meanwhile a driver runs submit → first result
// → kill cycles on a pass-all query and over-quota submits that must be
// refused with 429. It is the only workload where admission, the result
// buffer, JSON/SSE encoding and net/http are on the path, and the only
// open-loop one: queueing shows as latency, cost as CPU per element.

const (
	// svcRate is the offered load, elements per second: about 40% of what
	// this path sustains closed loop on the 2-core reference host.
	svcRate     = 8000
	svcInterval = time.Second / svcRate
	// svcWarmup elements go through the whole service path closed loop
	// during set-up.
	svcWarmup = 128_000
	// svcWindow elements go in at once in a closed-loop stretch, and two
	// windows are outstanding at most: a window follows when both readers
	// hold every result the one before the previous owed them, so the
	// engine does not idle while a window's last results travel, and the
	// result buffers (256 KB) never hold more than they can. A closed-loop
	// pass is svcPassWindows of them, svcPartWindows to a part: long enough
	// that every part meets the collector.
	svcWindow      = 1024
	svcPassWindows = 48
	svcPartWindows = 12
	// svcClosedRate is what this path sustains closed loop on the 2-core
	// reference host, rounded: it turns the closed-loop phase's share of
	// -seconds into a whole number of passes, the same on every host.
	svcClosedRate = 100_000
	svcCycles     = 400 // submit → first result → kill
	svcOverQuota  = 20  // submits that must return 429
	svcKeys       = 64
	// Shares of the run's budget: the closed-loop phase, then the paced one.
	svcClosedShare = 0.2
	svcPacedShare  = 0.7
)

const (
	tokenAlice = "alice-secret"
	tokenBob   = "bob-secret"
)

// svcStanding are the six standing queries. The first two are the ones
// the SSE and the long-poll connection read; the next two are checked by
// their result counters; the aggregates only have to deliver something.
var svcStanding = []struct {
	name, token, text string
}{
	{"sse", tokenAlice, `SELECT id AS id, due AS due, price AS price FROM s [NOW] WHERE price > 500`},
	{"poll", tokenBob, `SELECT id AS id, due AS due FROM s [NOW] WHERE price > 500`},
	{"rare", tokenAlice, `SELECT id AS id FROM s [NOW] WHERE price > 900`},
	{"cheap", tokenBob, `SELECT id AS id, price AS price FROM s [RANGE 100000] WHERE price < 50`},
	{"count", tokenBob, `SELECT k AS k, COUNT(*) AS n FROM s [RANGE 1000000] WHERE price > 900 GROUP BY k`},
	{"avg", tokenAlice, `SELECT k AS k, AVG(price) AS avgp FROM s [RANGE 250000] WHERE price > 800 GROUP BY k`},
}

const svcCycleQuery = `SELECT id AS id, due AS due FROM s [NOW]`

// svcInput is the pre-generated feed and what must come out of it: the
// warm-up elements first, then half of the closed-loop ones, the paced
// ones, and the other half of the closed-loop ones.
// The draws are kept compact; a stretch's tuples are built from them, off
// the clock, right before it is fed.
type svcInput struct {
	price     []uint16
	key       []uint8
	pacedFrom int   // index of the first paced element
	pacedTo   int   // and past the last
	wantRead  []int // ids the sse and poll queries deliver, in order
	wantRare  int64
	wantCheap int64
}

// newSvcInput draws n elements for seed; [pacedFrom, pacedTo) are paced.
func newSvcInput(seed int64, n, pacedFrom, pacedTo int) *svcInput {
	rng := rand.New(rand.NewSource(seed))
	in := &svcInput{price: make([]uint16, n), key: make([]uint8, n), pacedFrom: pacedFrom, pacedTo: pacedTo}
	for i := range in.price {
		price := rng.Intn(1000) + 1
		in.price[i], in.key[i] = uint16(price), uint8(rng.Intn(svcKeys))
		if price > 500 {
			in.wantRead = append(in.wantRead, i)
		}
		if price > 900 {
			in.wantRare++
		}
		if price < 50 {
			in.wantCheap++
		}
	}
	return in
}

// elems builds elements [lo, hi). Application time is the element's index
// times the send interval, in microseconds; due is the nanosecond offset
// from the start of the paced phase (-1 on an element that is not paced).
func (in *svcInput) elems(lo, hi int) []temporal.Element {
	out := make([]temporal.Element, 0, hi-lo)
	for i := lo; i < hi; i++ {
		due := int64(-1)
		if i >= in.pacedFrom && i < in.pacedTo {
			due = int64(i-in.pacedFrom) * int64(svcInterval)
		}
		out = append(out, temporal.At(
			cql.Tuple{"id": i, "due": due, "k": int(in.key[i]), "price": float64(in.price[i])},
			temporal.Time(int64(i)*svcInterval.Microseconds())))
	}
	return out
}

// svcEngine is one running engine with its control-plane clients.
type svcEngine struct {
	d      *pipes.DSMS
	feed   chan pipes.Element
	base   string
	client *http.Client
	ids    map[string]string // standing query name → id
	// spans is swapped between segments of a traced run (nil = spans off).
	spans atomic.Pointer[spanCtx]

	requests, badStatus atomic.Int64
	t0                  atomic.Int64 // paced phase start, UnixNano
	sse, poll           *stream
	readers             sync.WaitGroup
}

// spanCtx is where the engine's clients record their spans.
type spanCtx struct {
	tr     *tracer
	parent int
}

// span records a finished client-side span when spans are on.
func (e *svcEngine) span(name string, start time.Time, d time.Duration) {
	if c := e.spans.Load(); c != nil {
		c.tr.add(name, c.parent, start, d)
	}
}

// stream is what one reading connection saw.
type stream struct {
	want     []int
	got      atomic.Int64 // results received so far
	bad      int64        // ids out of sequence + results reported shed
	lat      []float64    // ms from due to read, paced elements only
	bytes    int64        // bytes read off the SSE connection
	pages    []float64    // ms per long-poll page (poll stream only)
	finished bool         // saw end-of-stream
}

func startSvcEngine(in *svcInput) (*svcEngine, error) {
	e := &svcEngine{
		feed:   make(chan pipes.Element, 4096), // two warm-up windows of slack
		ids:    map[string]string{},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	e.d = pipes.NewDSMS(pipes.Config{
		Workers:     1,
		ServiceAddr: "127.0.0.1:0",
		ServiceTenants: []pipes.TenantConfig{
			{Name: "alice", Token: tokenAlice, Quota: pipes.TenantQuota{MaxQueries: 4}},
			{Name: "bob", Token: tokenBob, Quota: pipes.TenantQuota{MaxQueries: 3}},
		},
	})
	e.d.RegisterStream("s", pipes.NewChanSource("s", e.feed), svcRate)
	e.d.Start()
	e.base = "http://" + e.d.ServiceAddr()
	for _, q := range svcStanding {
		var info struct {
			ID string `json:"id"`
		}
		if code := e.call("POST", "/v1/queries", q.token, map[string]any{"cql": q.text}, &info); code != 201 {
			e.stop()
			return nil, fmt.Errorf("service_live: submit %s: HTTP %d", q.name, code)
		}
		e.ids[q.name] = info.ID
	}
	e.sse = &stream{want: in.wantRead}
	e.poll = &stream{want: in.wantRead}
	e.readers.Add(2)
	go e.readSSE()
	go e.readPoll()
	return e, nil
}

func (e *svcEngine) stop() {
	e.d.Stop()
	e.client.CloseIdleConnections()
}

// call issues one authenticated request and decodes a JSON answer into
// out (when non-nil). It returns the status, 0 on a transport error.
func (e *svcEngine) call(method, path, token string, body, out any) int {
	e.requests.Add(1)
	var rd io.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := e.client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0
		}
	}
	return resp.StatusCode
}

// expect records an unexpected status as a failed request.
func (e *svcEngine) expect(got, want int) {
	if got != want {
		e.badStatus.Add(1)
	}
}

// intField extracts an integer field from a rendered result without
// building a map: the client is in this process, so what it spends
// parsing is charged to cpu_us_per_elem.
func intField(data []byte, key string) (int64, bool) {
	i := bytes.Index(data, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	i += len(key) + 3
	for i < len(data) && data[i] == ' ' {
		i++
	}
	j := i
	for j < len(data) && (data[j] == '-' || (data[j] >= '0' && data[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseInt(string(data[i:j]), 10, 64)
	return v, err == nil
}

// observe checks one received result against the expected sequence and
// records its delivery latency.
func (s *stream) observe(e *svcEngine, data []byte, now time.Time) {
	n := s.got.Load()
	id, ok := intField(data, "id")
	if !ok || n >= int64(len(s.want)) || int64(s.want[n]) != id {
		s.bad++
	}
	if due, ok := intField(data, "due"); ok && due >= 0 {
		s.lat = append(s.lat, ms(now.Sub(time.Unix(0, e.t0.Load()+due))))
	}
	s.got.Store(n + 1)
}

// readSSE streams the sse query's results until end-of-stream.
func (e *svcEngine) readSSE() {
	defer e.readers.Done()
	s := e.sse
	req, _ := http.NewRequest("GET", e.base+"/v1/queries/"+e.ids["sse"]+"/results?stream=sse", nil)
	req.Header.Set("Authorization", "Bearer "+tokenAlice)
	e.requests.Add(1)
	resp, err := e.client.Do(req)
	if err != nil || resp.StatusCode != 200 {
		e.badStatus.Add(1)
		return
	}
	defer resp.Body.Close()
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	var n int64
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return
		}
		s.bytes += int64(len(line))
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(bytes.TrimSpace(line[7:]))
		case bytes.HasPrefix(line, []byte("data: ")):
			switch event {
			case "result":
				now := time.Now()
				s.observe(e, line[6:], now)
				if n++; n%hotStride == 1 {
					e.span("sse:receipt", now, 0)
				}
			case "shed":
				if dropped, ok := intField(line[6:], "dropped"); ok {
					s.bad += dropped
				}
			case "done":
				s.finished = true
				return
			}
		}
	}
}

// readPoll pages through the poll query's results until end-of-stream.
func (e *svcEngine) readPoll() {
	defer e.readers.Done()
	s := e.poll
	var page struct {
		Results []struct {
			Value json.RawMessage `json:"value"`
		} `json:"results"`
		Dropped int64  `json:"dropped"`
		Next    uint64 `json:"next"`
		Done    bool   `json:"done"`
	}
	after := uint64(0)
	for {
		t0 := time.Now()
		path := fmt.Sprintf("/v1/queries/%s/results?wait=1s&max=256&after=%d", e.ids["poll"], after)
		code := e.call("GET", path, tokenBob, nil, &page)
		now := time.Now()
		if code != 200 {
			e.badStatus.Add(1)
			return
		}
		if len(page.Results) == 256 {
			s.pages = append(s.pages, ms(now.Sub(t0)))
			e.span("http:page", t0, now.Sub(t0))
		}
		for _, r := range page.Results {
			s.observe(e, r.Value, now)
		}
		s.bad += page.Dropped
		after = page.Next
		if page.Done {
			s.finished = true
			return
		}
	}
}

// push hands elems to the feed as fast as it takes them (warm-up).
func (e *svcEngine) push(elems []temporal.Element) {
	for _, el := range elems {
		e.feed <- el
	}
}

// pace sends elems open loop, starting now: element i leaves when it is
// due, never earlier, and the returned lags record how late. first is
// the index of elems[0] among the paced elements; e.t0 is set so that an
// element's due stamp is an offset from it.
func (e *svcEngine) pace(elems []temporal.Element, first int) []float64 {
	start := time.Now()
	e.t0.Store(start.Add(-time.Duration(first) * svcInterval).UnixNano())
	lag := make([]float64, 0, len(elems))
	for i, el := range elems {
		due := start.Add(time.Duration(i) * svcInterval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag = append(lag, ms(time.Since(due)))
		e.feed <- el
	}
	return lag
}

// cycles runs n submit → first result → kill cycles on the pass-all
// query, spread evenly over span, and over submits that must be refused
// because bob is at quota.
func (e *svcEngine) cycles(n, over int, span time.Duration) (submit, first []float64) {
	start := time.Now()
	for j := 0; j < n; j++ {
		if d := time.Until(start.Add(span * time.Duration(j) / time.Duration(n))); d > 0 {
			time.Sleep(d)
		}
		var info struct {
			ID string `json:"id"`
		}
		t0 := time.Now()
		code := e.call("POST", "/v1/queries", tokenAlice, map[string]any{"cql": svcCycleQuery}, &info)
		t1 := time.Now()
		e.expect(code, 201)
		if code != 201 {
			continue
		}
		submit = append(submit, ms(t1.Sub(t0)))
		e.span("http:submit", t0, t1.Sub(t0))
		var page struct {
			Results []json.RawMessage `json:"results"`
		}
		code = e.call("GET", "/v1/queries/"+info.ID+"/results?wait=5s&max=1", tokenAlice, nil, &page)
		t2 := time.Now()
		e.expect(code, 200)
		if len(page.Results) == 1 {
			first = append(first, ms(t2.Sub(t0)))
			e.span("http:first-result", t0, t2.Sub(t0))
		} else {
			e.badStatus.Add(1)
		}
		e.expect(e.call("DELETE", "/v1/queries/"+info.ID, tokenAlice, nil, nil), 200)
		if over > 0 && j%(n/over) == 0 {
			e.expect(e.call("POST", "/v1/queries", tokenBob, map[string]any{"cql": svcCycleQuery}, nil), 429)
		}
	}
	return submit, first
}

// closedLoop pushes elems, which start at index lo of the input, through
// the whole service path closed loop, two windows outstanding at most, and
// returns when everything they owe is delivered. lap, when non-nil, is
// called between two parts.
func (e *svcEngine) closedLoop(in *svcInput, lo int, elems []temporal.Element, lap func()) error {
	for w := 0; w < len(elems); w += svcWindow {
		if lap != nil && w > 0 && w%(svcPartWindows*svcWindow) == 0 {
			lap()
		}
		e.push(elems[w:min(w+svcWindow, len(elems))])
		if err := e.waitDelivered(in.owed(lo + w)); err != nil {
			return err
		}
	}
	return e.waitDelivered(in.owed(lo + len(elems)))
}

// closedPass is one timed closed-loop pass over elements [lo, hi).
func (e *svcEngine) closedPass(in *svcInput, lo, hi int) (s sample, err error) {
	elems := in.elems(lo, hi)
	s = measureLaps(int64(len(elems)), func(lap func()) { err = e.closedLoop(in, lo, elems, lap) })
	return s, err
}

// waitDelivered blocks until both readers have seen n results.
func (e *svcEngine) waitDelivered(n int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for e.sse.got.Load() < n || e.poll.got.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("service_live: %d/%d of %d results delivered after 30s", e.sse.got.Load(), e.poll.got.Load(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// discard ends an engine that only served a set-up repeat.
func (e *svcEngine) discard() {
	close(e.feed)
	e.readers.Wait()
	e.stop()
}

// finish closes the feed, waits for both readers to reach end-of-stream
// and counts what went wrong on the delivery side.
func (e *svcEngine) finish(in *svcInput) (attempted, failed int64) {
	close(e.feed)
	e.readers.Wait()
	for _, s := range []*stream{e.sse, e.poll} {
		attempted += int64(len(s.want))
		failed += s.bad + int64(len(s.want)) - s.got.Load()
		if !s.finished {
			failed++
		}
	}
	for _, c := range []struct {
		name, token string
		want        int64
	}{{"rare", tokenAlice, in.wantRare}, {"cheap", tokenBob, in.wantCheap}} {
		var info struct {
			Results int64 `json:"results"`
		}
		e.expect(e.call("GET", "/v1/queries/"+e.ids[c.name], c.token, nil, &info), 200)
		attempted += c.want
		failed += max(c.want-info.Results, info.Results-c.want)
	}
	return attempted + e.requests.Load(), failed + e.badStatus.Load()
}

// owed counts the results the readers are owed once the first n elements
// of the input have gone in.
func (in *svcInput) owed(n int) int64 { return int64(sort.SearchInts(in.wantRead, n)) }

// svcSegment is one stretch of the paced phase.
type svcSegment struct {
	s                  sample
	lag, submit, first []float64
}

// segment paces elements [lo, hi) of the input while the cycle driver
// runs, and ends when both readers hold every result owed.
func (e *svcEngine) segment(in *svcInput, lo, hi, nCycles, over int) (seg svcSegment, err error) {
	elems := in.elems(lo, hi)
	var wg sync.WaitGroup
	seg.s = measure(int64(len(elems)), func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := time.Duration(0.95 * float64(len(elems)) * float64(svcInterval))
			seg.submit, seg.first = e.cycles(nCycles, over, span)
		}()
		seg.lag = e.pace(elems, lo-in.pacedFrom)
		wg.Wait()
		err = e.waitDelivered(in.owed(hi))
	})
	return seg, err
}

func runServiceLive(cfg config, tr *tracer) (*result, error) {
	res := newResult(cfg)
	warm, nCycles, over := svcWarmup, svcCycles, svcOverQuota
	passElems := svcPassWindows * svcWindow
	// Both phases are a fixed amount of work for a given -seconds: a whole
	// number of closed-loop passes, and the paced phase's length × rate.
	passes := max(2, int(svcClosedShare*cfg.work().Seconds()*svcClosedRate/float64(passElems)+0.5))
	paced := int(svcPacedShare * cfg.work().Seconds() * svcRate)
	if cfg.smoke {
		warm, nCycles, over, passElems = 200, 4, 2, 2*svcWindow
	}
	// Half of the closed-loop passes run before the paced phase and half
	// after it, so a slow spell of the host does not meet all of them.
	pacedFrom := warm + passes/2*passElems
	total := warm + passes*passElems + paced
	var in *svcInput
	var eng *svcEngine
	var serr error
	res.setup(func() {
		if serr != nil {
			return
		}
		sp := tr.begin("setup:generate+reference", 0)
		in = newSvcInput(cfg.seed, total, pacedFrom, pacedFrom+paced)
		tr.end(sp)
		if eng, serr = startSvcEngine(in); serr == nil {
			serr = eng.closedLoop(in, 0, in.elems(0, warm), nil)
		}
	}, func() {
		if eng != nil {
			eng.discard()
		}
	})
	if serr != nil {
		return nil, serr
	}
	defer eng.stop()
	// Only the warm-up is the same whatever -seconds says.
	warmIDs := make([]any, in.owed(warm))
	for i := range warmIDs {
		warmIDs[i] = in.wantRead[i]
	}
	res.checksum("warmup_results", hashVals(warmIDs...))

	// Closed loop: what the whole path sustains when the client never
	// lets it idle.
	var closed []sample
	closedPasses := func(lo, n int) error {
		for ; n > 0; n, lo = n-1, lo+passElems {
			s, err := eng.closedPass(in, lo, lo+passElems)
			if err != nil {
				return err
			}
			if verbose {
				fmt.Printf("#   closed-loop pass %d: %.0f ms, %.4g elem/s, %.4g allocs/elem, %.5g B/elem\n",
					len(closed), ms(s.wall), s.eps(), s.allocsPerElem(), s.bytesPerElem())
			}
			closed = append(closed, s)
		}
		return nil
	}
	if err := closedPasses(warm, passes/2); err != nil {
		return nil, err
	}

	// Open loop. An untraced run paces everything in one segment. A traced
	// run paces the first half with spans off and the second with spans on:
	// the difference in CPU per element is what the spans cost.
	var seg svcSegment
	var err error
	if !cfg.trace {
		seg, err = eng.segment(in, pacedFrom, pacedFrom+paced, nCycles, over)
	} else {
		half := pacedFrom + paced/2
		if seg, err = eng.segment(in, pacedFrom, half, nCycles/2, over/2); err == nil {
			sp := tr.begin("phase:paced", 0)
			eng.spans.Store(&spanCtx{tr, sp})
			var traced svcSegment
			traced, err = eng.segment(in, half, pacedFrom+paced, nCycles/2, over/2)
			eng.spans.Store(nil)
			tr.end(sp)
			res.layer["trace.overhead_ratio"] = traced.s.cpuUsPerElem() / seg.s.cpuUsPerElem()
			seg.s.add(traced.s)
			seg.lag = append(seg.lag, traced.lag...)
			seg.submit = append(seg.submit, traced.submit...)
			seg.first = append(seg.first, traced.first...)
		}
	}
	if err == nil {
		err = closedPasses(pacedFrom+paced, passes-passes/2)
	}
	if err != nil {
		return nil, err
	}
	res.count(eng.finish(in))

	// The counts come from the closed loop as well: over the paced phase
	// they depend on when things happen (how results batch into pages,
	// wake-ups) and spread up to 8% on unchanged code.
	res.primary(closed)

	res.layer["service_live.cpu_us_per_elem"] = seg.s.cpuUsPerElem()
	res.layer["service_live.deliver_p50_ms"] = quantile(eng.sse.lat, 0.50)
	res.layer["service_live.deliver_p99_ms"] = quantile(eng.sse.lat, 0.99)
	res.layer["service_live.submit_p50_ms"] = median(seg.submit)
	res.layer["service_live.first_result_p50_ms"] = median(seg.first)
	res.layer["gen.lag_p99_ms"] = quantile(seg.lag, 0.99)
	res.layer["service.page_ms"] = median(eng.poll.pages)
	if n := eng.sse.got.Load(); n > 0 {
		res.layer["service.sse_bytes_per_result"] = float64(eng.sse.bytes) / float64(n)
	}
	for _, st := range eng.d.Service().TenantStats() {
		res.layer["service.results"] += float64(st.Results)
		res.layer["service.shed"] += float64(st.ResultShed)
		res.layer["service.rejects"] += float64(st.AdmissionRejects)
	}
	c := eng.d.Scheduler.Contention()
	res.layer["sched.steals"] = float64(c.Steals)
	res.layer["sched.contended"] = float64(c.LockConflicts)
	if len(seg.first) < nCycles/2 || len(eng.sse.lat) == 0 {
		return nil, fmt.Errorf("service_live: %d of %d cycles saw a first result, %d latency samples", len(seg.first), nCycles, len(eng.sse.lat))
	}
	return res, nil
}
