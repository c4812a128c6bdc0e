package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"pipes"
	"pipes/internal/cql"
	"pipes/internal/nexmark"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// cql_multiquery: pre-generated NEXMark (bids, auctions) and traffic
// tuple streams through pipes.NewDSMS defaults (flight recorder on),
// eight overlapping CQL queries registered through RegisterQuery. Tuple
// map handling, expression evaluation, group-by/join and the metadata
// layer dominate; the transfer lane is a small share. Phase A runs the
// engine bare, phase B with MonitorQueries + TraceEvery=128, which is
// what a TelemetryAddr implies.

const (
	cqlEvents   = 72_000 // NEXMark events per pass (≈ 92% bids, 6% auctions)
	cqlReadings = 66_000 // traffic readings per pass
	cqlParts    = 16     // parts a pass is cut into, by position in the bid stream
)

// cqlQuery is one of the eight standing queries: its text, the output
// columns the checksum covers, and the plain-Go reference.
type cqlQuery struct {
	name   string
	text   string
	fields []string
	ref    func(in *cqlInput) rowSum
}

// rowSum is the snapshot-invariant summary of a query's output: every
// output row contributes hash(row) × validity, so splitting or merging
// validity intervals — which the algebra is free to do — changes nothing.
type rowSum struct {
	sum    uint64 // Σ hash(row) × duration, wrapping
	rowDur int64  // Σ duration
}

func (s *rowSum) add(h uint64, dur temporal.Time) {
	s.sum += h * uint64(dur)
	s.rowDur += int64(dur)
}

// hashVals hashes one output row given as column values. Numbers hash
// by their float64 bits: every aggregated column is integer-valued, so
// sums are exact whatever the order of additions.
func hashVals(vals ...any) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		var x uint64
		switch t := v.(type) {
		case string:
			f := fnv.New64a()
			f.Write([]byte(t))
			x = f.Sum64()
		case int:
			x = math.Float64bits(float64(t))
		case int64:
			x = math.Float64bits(float64(t))
		case float64:
			x = math.Float64bits(t)
		default:
			x = 0x9e3779b97f4a7c15 // nil and anything unexpected
		}
		h = (h ^ x) * 1099511628211
		h ^= h >> 29
	}
	return h
}

// bid, auction and reading are the plain-Go side of the inputs.
type bid struct {
	t               temporal.Time
	auction, bidder int
	price           float64
}

type auctionRow struct {
	t            temporal.Time
	id, category int
}

type readingRow struct {
	t                       temporal.Time
	detector, section, lane int
	direction               string
	speed                   float64
}

type cqlInput struct {
	bids, auctions, traffic []temporal.Element // cql.Tuple elements
	bidRows                 []bid
	auctionRows             []auctionRow
	readingRows             []readingRow
	refs                    []rowSum // per query
}

func (in *cqlInput) elems() int64 {
	return int64(len(in.bids) + len(in.auctions) + len(in.traffic))
}

// newCQLInput pre-generates the three streams for seed. Prices and
// speeds are rounded to whole numbers so SUM and AVG are exact.
func newCQLInput(seed int64, events, readings int) *cqlInput {
	in := &cqlInput{}
	gen := nexmark.NewGenerator(nexmark.Config{Seed: seed, MaxEvents: events}, nil)
	for {
		ev, ok := gen.Next()
		if !ok {
			break
		}
		switch ev.Kind {
		case nexmark.EvBid:
			b := bid{ev.Time, ev.Bid.Auction, ev.Bid.Bidder, math.Round(ev.Bid.Price)}
			in.bidRows = append(in.bidRows, b)
			in.bids = append(in.bids, temporal.At(
				cql.Tuple{"auction": b.auction, "bidder": b.bidder, "price": b.price}, b.t))
		case nexmark.EvAuction:
			a := auctionRow{ev.Time, ev.Auction.ID, ev.Auction.Category}
			in.auctionRows = append(in.auctionRows, a)
			in.auctions = append(in.auctions, temporal.At(
				cql.Tuple{"id": a.id, "seller": ev.Auction.Seller, "category": a.category,
					"initial": math.Round(ev.Auction.InitialBid)}, a.t))
		}
	}
	for _, r := range genReadings(seed, readings) {
		row := readingRow{r.Timestamp, r.Detector, r.Section(100), r.Lane, r.Direction, math.Round(r.Speed)}
		in.readingRows = append(in.readingRows, row)
		in.traffic = append(in.traffic, temporal.At(cql.Tuple{
			"detector": row.detector, "section": row.section, "lane": row.lane,
			"direction": row.direction, "speed": row.speed, "length": math.Round(r.Length),
		}, row.t))
	}
	in.refs = make([]rowSum, len(cqlQueries))
	for i, q := range cqlQueries {
		in.refs[i] = q.ref(in)
	}
	return in
}

// sweep walks the boundaries (starts ts[i] and ends ts[i]+w) of a set of
// window-extended elements in time order and calls emit(d) for every
// stretch of length d between two consecutive boundaries during which at
// least one element is live; add and remove maintain the caller's
// aggregate, and emit sees it as it stood during the stretch.
func sweep(ts []temporal.Time, w temporal.Time, add, remove func(i int), emit func(d temporal.Time)) {
	var lb temporal.Time
	head, next := 0, 0
	for head < len(ts) {
		b := ts[head] + w
		if next < len(ts) && ts[next] < b {
			b = ts[next]
		}
		if next > head && lb < b {
			emit(b - lb)
		}
		for head < next && ts[head]+w == b {
			remove(head)
			head++
		}
		for next < len(ts) && ts[next] == b {
			add(next)
			next++
		}
		lb = b
	}
}

// groupIndex buckets row indexes 0..n-1 by key. Callers fold the groups
// into a wrapping sum, so map iteration order does not matter.
func groupIndex[K comparable](n int, key func(i int) K) map[K][]int {
	groups := map[K][]int{}
	for i := 0; i < n; i++ {
		k := key(i)
		groups[k] = append(groups[k], i)
	}
	return groups
}

// timesAt lists the timestamps of the rows idx selects.
func timesAt(idx []int, at func(i int) temporal.Time) []temporal.Time {
	ts := make([]temporal.Time, len(idx))
	for j, i := range idx {
		ts[j] = at(i)
	}
	return ts
}

var cqlQueries = []cqlQuery{
	{
		name:   "q1_bids_filter",
		text:   `SELECT auction AS auction, price AS price FROM bids [RANGE 60000] WHERE price > 500`,
		fields: []string{"auction", "price"},
		ref: func(in *cqlInput) (s rowSum) {
			for _, b := range in.bidRows {
				if b.price > 500 {
					s.add(hashVals(b.auction, b.price), 60000)
				}
			}
			return s
		},
	},
	{
		name:   "q2_bids_filter_shared",
		text:   `SELECT auction AS auction FROM bids [RANGE 60000] WHERE price > 500`,
		fields: []string{"auction"},
		ref: func(in *cqlInput) (s rowSum) {
			for _, b := range in.bidRows {
				if b.price > 500 {
					s.add(hashVals(b.auction), 60000)
				}
			}
			return s
		},
	},
	{
		name:   "q3_bids_count_max",
		text:   `SELECT auction AS auction, COUNT(*) AS n, MAX(price) AS top FROM bids [RANGE 60000] GROUP BY auction`,
		fields: []string{"auction", "n", "top"},
		ref: func(in *cqlInput) (s rowSum) {
			rows := in.bidRows
			for auction, idx := range groupIndex(len(rows), func(i int) int { return rows[i].auction }) {
				ts := timesAt(idx, func(i int) temporal.Time { return rows[i].t })
				var n int64
				var deque []int // indices into idx, prices decreasing: front is the max
				sweep(ts, 60000,
					func(j int) {
						n++
						for len(deque) > 0 && rows[idx[deque[len(deque)-1]]].price <= rows[idx[j]].price {
							deque = deque[:len(deque)-1]
						}
						deque = append(deque, j)
					},
					func(j int) {
						n--
						if len(deque) > 0 && deque[0] == j {
							deque = deque[1:]
						}
					},
					func(d temporal.Time) {
						s.add(hashVals(auction, n, rows[idx[deque[0]]].price), d)
					})
			}
			return s
		},
	},
	{
		name:   "q4_bids_sum_by_bidder",
		text:   `SELECT bidder AS bidder, SUM(price) AS spent FROM bids [RANGE 10000] GROUP BY bidder`,
		fields: []string{"bidder", "spent"},
		ref: func(in *cqlInput) (s rowSum) {
			rows := in.bidRows
			for bidder, idx := range groupIndex(len(rows), func(i int) int { return rows[i].bidder }) {
				ts := timesAt(idx, func(i int) temporal.Time { return rows[i].t })
				var sum float64
				sweep(ts, 10000,
					func(j int) { sum += rows[idx[j]].price },
					func(j int) { sum -= rows[idx[j]].price },
					func(d temporal.Time) { s.add(hashVals(bidder, sum), d) })
			}
			return s
		},
	},
	{
		name:   "q5_traffic_avg_hov",
		text:   `SELECT section AS section, AVG(speed) AS avgspeed FROM traffic [RANGE 60000] WHERE lane = 4 GROUP BY section`,
		fields: []string{"section", "avgspeed"},
		ref: func(in *cqlInput) (s rowSum) {
			var rows []readingRow
			for _, r := range in.readingRows {
				if r.lane == 4 {
					rows = append(rows, r)
				}
			}
			for section, idx := range groupIndex(len(rows), func(i int) int { return rows[i].section }) {
				ts := timesAt(idx, func(i int) temporal.Time { return rows[i].t })
				var sum float64
				var n int64
				sweep(ts, 60000,
					func(j int) { sum += rows[idx[j]].speed; n++ },
					func(j int) { sum -= rows[idx[j]].speed; n-- },
					func(d temporal.Time) { s.add(hashVals(section, sum/float64(n)), d) })
			}
			return s
		},
	},
	{
		name:   "q6_traffic_count_slow",
		text:   `SELECT COUNT(*) AS slow FROM traffic [RANGE 30000] WHERE speed < 55`,
		fields: []string{"slow"},
		ref: func(in *cqlInput) (s rowSum) {
			var ts []temporal.Time
			for _, r := range in.readingRows {
				if r.speed < 55 {
					ts = append(ts, r.t)
				}
			}
			var n int64
			sweep(ts, 30000,
				func(int) { n++ },
				func(int) { n-- },
				func(d temporal.Time) { s.add(hashVals(n), d) })
			return s
		},
	},
	{
		name:   "q7_traffic_fast_now",
		text:   `SELECT detector AS detector, speed AS speed FROM traffic [NOW] WHERE direction = 'oakland' AND speed > 70`,
		fields: []string{"detector", "speed"},
		ref: func(in *cqlInput) (s rowSum) {
			for _, r := range in.readingRows {
				if r.direction == "oakland" && r.speed > 70 {
					s.add(hashVals(r.detector, r.speed), 1)
				}
			}
			return s
		},
	},
	{
		name: "q8_bids_join_auctions",
		text: `SELECT b.price AS price, a.category AS category FROM bids [RANGE 10000] AS b, auctions [RANGE 600000] AS a ` +
			`WHERE b.auction = a.id AND b.price > 900`,
		fields: []string{"price", "category"},
		ref: func(in *cqlInput) (s rowSum) {
			byID := map[int]auctionRow{}
			for _, a := range in.auctionRows {
				byID[a.id] = a
			}
			for _, b := range in.bidRows {
				a, ok := byID[b.auction]
				if !ok || b.price <= 900 {
					continue
				}
				lo, hi := max(b.t, a.t), min(b.t+10000, a.t+600000)
				if lo < hi {
					s.add(hashVals(b.price, a.category), hi-lo)
				}
			}
			return s
		},
	},
}

// tupleSink is a query's terminal sink: it folds every result row into
// the query's rowSum as it arrives.
type tupleSink struct {
	name   string
	fields []string
	vals   []any
	got    rowSum
	rows   int64
	done   bool
}

func newTupleSink(q cqlQuery) *tupleSink {
	return &tupleSink{name: q.name, fields: q.fields, vals: make([]any, len(q.fields))}
}

func (s *tupleSink) Name() string { return s.name }
func (s *tupleSink) Process(e temporal.Element, _ int) {
	t := e.Value.(cql.Tuple)
	for i, f := range s.fields {
		s.vals[i] = t[f]
	}
	s.got.add(hashVals(s.vals...), e.End-e.Start)
	s.rows++
}
func (s *tupleSink) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		s.Process(e, 0)
	}
}
func (s *tupleSink) Done(int) { s.done = true }

// failures is 0 when the query's output equals the reference, otherwise
// every row it delivered (at least one): a summary cannot say which rows
// differ, so a mismatch condemns the query's whole output.
func (s *tupleSink) failures(ref rowSum) int64 {
	if s.done && s.got == ref {
		return 0
	}
	return max(s.rows, 1)
}

// lapSource ends a part of the pass being measured every `every` elements
// of the stream it wraps; the end of the pass ends the last part. The
// engine's worker calls it, so lap is set before the engine starts.
type lapSource struct {
	pubsub.BatchEmitter
	every, total int
	emitted      int
	lap          func()
}

func (l *lapSource) EmitNext() bool {
	_, more := l.EmitBatch(1)
	return more
}

func (l *lapSource) EmitBatch(max int) (int, bool) {
	n, more := l.BatchEmitter.EmitBatch(max)
	before := l.emitted
	l.emitted += n
	if l.emitted/l.every > before/l.every && l.emitted < l.total {
		l.lap()
	}
	return n, more
}

// cqlMode is the instrumentation level of one pass.
type cqlMode int

const (
	cqlBare      cqlMode = iota // NewDSMS defaults: flight recorder on
	cqlNoFlight                 // DisableFlight
	cqlMonitored                // MonitorQueries
	cqlTraced                   // MonitorQueries + TraceEvery=128
)

func (m cqlMode) config() pipes.Config {
	cfg := pipes.Config{Workers: 1}
	switch m {
	case cqlNoFlight:
		cfg.DisableFlight = true
	case cqlMonitored:
		cfg.MonitorQueries = true
	case cqlTraced:
		cfg.MonitorQueries = true
		cfg.TraceEvery = 128
	}
	return cfg
}

// cqlPass builds a fresh engine, registers streams and queries, runs the
// input through and checks every query against its reference. Attempted
// is the number of result rows delivered.
func cqlPass(in *cqlInput, mode cqlMode, tr *tracer, parent int) (s sample, attempted, failed int64, err error) {
	d := pipes.NewDSMS(mode.config())
	defer d.Stop()
	streams := []struct {
		name  string
		elems []temporal.Element
	}{{"bids", in.bids}, {"auctions", in.auctions}, {"traffic", in.traffic}}
	// The bid stream is the densest, so its position cuts the pass into
	// parts.
	cut := &lapSource{every: (len(in.bids) + cqlParts - 1) / cqlParts, total: len(in.bids)}
	for _, st := range streams {
		var src pubsub.BatchEmitter = pubsub.NewSliceSource(st.name, st.elems)
		if st.name == "bids" {
			cut.BatchEmitter = src
			src = cut
		}
		if tr != nil {
			src = newTracedSource(src, tr, parent)
		}
		d.RegisterStream(st.name, src, 100)
	}
	sinks := make([]*tupleSink, len(cqlQueries))
	for i, q := range cqlQueries {
		if tr != nil {
			sp := tr.begin("cql.Parse:"+q.name, parent)
			_, _ = pipes.ParseCQL(q.text)
			tr.end(sp)
		}
		sp := tr.begin("RegisterQuery:"+q.name, parent)
		reg, err := d.RegisterQuery(q.text)
		tr.end(sp)
		if err != nil {
			return s, 0, 0, fmt.Errorf("cql_multiquery: %s: %w", q.name, err)
		}
		sinks[i] = newTupleSink(q)
		var out pubsub.Sink = sinks[i]
		if tr != nil {
			p := newProbe("sink:"+q.name, tr, parent)
			must(p.Subscribe(sinks[i], 0))
			out = p
		}
		if err := reg.Subscribe(out); err != nil {
			return s, 0, 0, err
		}
	}
	s = measureLaps(in.elems(), func(lap func()) {
		cut.lap = lap
		d.Start()
		d.Wait()
	})
	for i, sink := range sinks {
		attempted += sink.rows
		failed += sink.failures(in.refs[i])
	}
	return s, attempted, failed, nil
}

func runCQLMultiquery(cfg config, tr *tracer) (*result, error) {
	res := newResult(cfg)
	var in *cqlInput
	var perr error
	pass := func(mode cqlMode) sample {
		s, attempted, failed, err := cqlPass(in, mode, nil, 0)
		if err != nil {
			perr = err
		}
		res.count(attempted, failed)
		return s
	}
	res.setup(func() {
		sp := tr.begin("setup:generate+reference", 0)
		in = newCQLInput(cfg.seed, cfg.scale(cqlEvents), cfg.scale(cqlReadings))
		tr.end(sp)
		pass(cqlBare) // warm-up, checked
	}, nil)
	if perr != nil {
		return nil, perr
	}
	for i, q := range cqlQueries {
		if in.refs[i].rowDur == 0 {
			return nil, fmt.Errorf("cql_multiquery: reference of %s is empty", q.name)
		}
		res.checksum(q.name, in.refs[i].sum)
	}

	phases := 2
	if cfg.trace {
		phases = 3
	}
	share := cfg.work() / time.Duration(phases)
	by := alternate(2*share, 3,
		func() sample { return pass(cqlBare) },
		func() sample { return pass(cqlTraced) })
	bare, monitored := by[0], by[1]
	res.primary(bare)
	res.layer["cql_multiquery.monitored_throughput_eps"] = undisturbed(monitored).eps()
	if cfg.trace {
		traceCQL(share, tr, in, res)
	}
	return res, perr
}

// traceCQL rotates through the four instrumentation levels plus a pass
// carrying the benchmark's own spans, so every ratio compares passes
// that ran side by side.
func traceCQL(budget time.Duration, tr *tracer, in *cqlInput, res *result) {
	by := map[cqlMode][]sample{}
	var spanned []sample
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < budget; i++ {
		for _, mode := range []cqlMode{cqlBare, cqlNoFlight, cqlMonitored, cqlTraced} {
			s, attempted, failed, _ := cqlPass(in, mode, nil, 0)
			res.count(attempted, failed)
			by[mode] = append(by[mode], s)
		}
		sp := tr.begin("pass:cql_multiquery", 0)
		s, attempted, failed, _ := cqlPass(in, cqlBare, tr, sp)
		tr.end(sp)
		res.count(attempted, failed)
		spanned = append(spanned, s)
	}
	ns := func(m cqlMode) float64 { return medianOf(by[m], sample.nsPerElem) }
	res.layer["telemetry.flight_ratio"] = ns(cqlBare) / ns(cqlNoFlight)
	res.layer["metadata.monitored_ratio"] = ns(cqlMonitored) / ns(cqlBare)
	res.layer["telemetry.trace_ratio"] = ns(cqlTraced) / ns(cqlMonitored)
	res.layer["trace.overhead_ratio"] = medianOf(spanned, sample.nsPerElem) / ns(cqlBare)
}
