package pipes

import (
	"runtime"
	"testing"
)

// countSink counts the rows it is handed. It is a terminal frame sink
// that declares nothing, so a query that lends its rows lends them to it.
type countSink struct{ n *int }

func (s countSink) Name() string                { return "count" }
func (s countSink) Done(int)                    {}
func (s countSink) ProcessBatch(b Batch, _ int) { *s.n += len(b) }

// allocsPerElement runs queries over the bid stream through the facade
// and returns heap allocations per input element between Start and the
// end of the run. Bids carry a fresh "seq" each. Each query delivers into a FuncSink, which declares
// that it keeps values, or with borrow set into a countSink.
func allocsPerElement(t *testing.T, n int, borrow bool, queries ...string) float64 {
	t.Helper()
	d := NewDSMS(Config{Workers: 1})
	defer d.Stop()
	bids := make([]Element, n)
	for i := range bids {
		bids[i] = NewElement(Tuple{"auction": 1000 + i%50, "bidder": 2000 + i%97, "price": float64(100 + i%900), "seq": i},
			Time(i), Time(i+1))
	}
	auctions := make([]Element, 50)
	for i := range auctions {
		auctions[i] = NewElement(Tuple{"id": 1000 + i, "category": i % 7}, Time(0), Time(1))
	}
	d.RegisterStream("bids", NewSliceSource("bids", bids), 100)
	d.RegisterStream("auctions", NewSliceSource("auctions", auctions), 10)
	delivered := 0
	for _, text := range queries {
		q, err := d.RegisterQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		var sink Sink = NewFuncSink("count", 1, func(Element, int) { delivered++ }, nil)
		if borrow {
			sink = countSink{&delivered}
		}
		if err := q.Subscribe(sink); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.Start()
	d.Wait()
	runtime.ReadMemStats(&after)
	if delivered == 0 {
		t.Fatal("the queries delivered nothing")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n+len(auctions))
}

// The allocation budget of a CQL plan, per input element. What a plan may
// still allocate is, for a sink that keeps values, the result tuple
// copied for it (SEMANTICS.md §5); a sink that declares nothing borrows
// the tuples π and γ lend and refill (§3.7), so a filter→project plan
// delivering into one allocates next to nothing (it read 1.0 allocations
// per element, and the group-by 6.1, while such a sink was handed copies
// too). γ's numeric results go into chunks of 64 its node owns
// (aggregate.Boxes): a box per result put the borrowing group-by at 2.16
// and the ungrouped COUNT past 255 with an AVG at 2.40, the group-by into
// a FuncSink at 5.98 and the churning one at 2.99. γ holds a pending
// span as cells and makes its row at release, from a free list of a
// frame's worth: a row per pending span put the borrowing group-by at
// 0.24. The join writes its Pairs into chunks of 16 it owns: a Pair per
// match put the equi-join at 3.00 and the churning self-join at 2.99. A
// new group's record and aggregates come from chunks its node owns: a
// record, a COUNT and a SUM per group put the fresh-key group-by at 3.06.
// Arithmetic in a comparison is computed unboxed: a box per `+ 800` put
// the theta join at 18.79. A rename map per
// element, a formatted key or a merged join tuple breaks these ceilings,
// as each did before names were resolved at plan time (5.9, 21.8 and 16.1
// allocations per element then, against 1.0, 10.0 and 4.1). So does a group row between γ and the
// projection: the group-by read 10.0 with one, 6.1 since γ delivers the
// projected tuple itself. And so does state rebuilt each time a key
// empties: the churning group-by read 9.9 and the churning self-join 8.9
// (the equi-join 4.1, with a closure per probe) before emptied groups and
// hash buckets were recycled.
func TestPlanAllocationBudget(t *testing.T) {
	const n = 4000
	for _, c := range []struct {
		name    string
		query   string
		borrow  bool
		ceiling float64
	}{
		{"filter→project", `SELECT auction AS auction, price AS price FROM bids [RANGE 100] WHERE price > 500`, false, 2},
		{"group-by", `SELECT bidder AS bidder, SUM(price) AS spent, COUNT(*) AS n FROM bids [RANGE 100] GROUP BY bidder`, false, 5},
		// A sink that declares nothing borrows the rows π and γ lend, so
		// they are refilled instead of copied.
		{"filter→project, borrowing sink", `SELECT auction AS auction, price AS price FROM bids [RANGE 100] WHERE price > 500`, true, 0.2},
		{"group-by, borrowing sink", `SELECT bidder AS bidder, SUM(price) AS spent, COUNT(*) AS n FROM bids [RANGE 100] GROUP BY bidder`, true, 0.3},
		// One span an element, each with a COUNT past 255 and an AVG.
		{"aggregate, borrowing sink", `SELECT COUNT(*) AS n, AVG(price) AS mean FROM bids [RANGE 1000]`, true, 0.25},
		{"equi-join", `SELECT b.price AS price, a.category AS category FROM bids [RANGE 100] AS b, auctions [UNBOUNDED] AS a WHERE b.auction = a.id`, false, 2.5},
		// Churning keys: a 10-tick window over 97 bidders empties a key's
		// group or hash bucket about as often as it fills one.
		{"group-by, churning", `SELECT bidder AS bidder, SUM(price) AS spent, COUNT(*) AS n FROM bids [RANGE 10] GROUP BY bidder`, false, 2.1},
		{"self equi-join, churning", `SELECT x.price AS price, y.auction AS auction FROM bids [RANGE 10] AS x, bids [RANGE 10] AS y WHERE x.bidder = y.bidder`, false, 2.5},
		// A residual predicate tests each candidate pair in place: the
		// self-join's candidates, and every pair in the theta join's
		// windows, allocate nothing, and the theta join computes `+ 800`
		// unboxed.
		{"self equi-join, residual, borrowing sink", `SELECT x.price AS price, y.auction AS auction FROM bids [RANGE 10] AS x, bids [RANGE 10] AS y WHERE x.bidder = y.bidder AND x.price >= y.price`, true, 0.3},
		{"theta join, borrowing sink", `SELECT x.price AS price, y.auction AS auction FROM bids [RANGE 10] AS x, bids [RANGE 10] AS y WHERE x.price > y.price + 800`, true, 0.2},
		// A group a bid: no group empties during the run, so each takes a
		// new record and new aggregates from its node's chunks.
		{"group-by, fresh keys, borrowing sink", groupsOver("seq", `COUNT(*) AS n, SUM(price) AS spent`), true, 0.2},
	} {
		got := allocsPerElement(t, n, c.borrow, c.query)
		t.Logf("%s: %.2f allocations per element (ceiling %.1f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s allocates %.2f times per element, over its ceiling of %.1f", c.name, got, c.ceiling)
		}
	}
}

// groupsOver is a group-by on key with the given calls, in a window
// longer than the run: no group empties while it runs.
func groupsOver(key, calls string) string {
	return `SELECT ` + key + ` AS k, ` + calls + ` FROM bids [RANGE 1000000] GROUP BY ` + key
}

// A planner γ takes a new group's record, its sub-aggregates and their
// slice from chunks its node owns, so a new key costs a fraction of an
// allocation where it cost three (a record, a COUNT, a SUM), and five
// with three calls (and the slice of them). Each query runs twice into a
// borrowing sink: grouped on "seq", every bid a new group, and on
// "bidder", 97 groups. Both close about a span a bid, so the difference
// per bid is what a new group costs.
func TestNewGroupsShareChunks(t *testing.T) {
	const n = 8000
	for _, c := range []struct{ name, calls string }{
		{"COUNT(*)+SUM", `COUNT(*) AS n, SUM(price) AS spent`},
		{"MAX+COUNT, not invertible", `MAX(price) AS top, COUNT(*) AS n`},
		{"three calls", `COUNT(*) AS n, SUM(price) AS spent, AVG(price) AS mean`},
	} {
		fresh := allocsPerElement(t, n, true, groupsOver("seq", c.calls))
		known := allocsPerElement(t, n, true, groupsOver("bidder", c.calls))
		t.Logf("%s: %.3f allocations per bid over new groups, %.3f over 97", c.name, fresh, known)
		if per := fresh - known; per > 0.1 {
			t.Errorf("%s allocates %.3f times per new group, want at most 0.1", c.name, per)
		}
	}
}
