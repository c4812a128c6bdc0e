package cql_test

// FuzzPlanExecute drives the full pipeline — parse, plan, optimise,
// instantiate, execute — on arbitrary query text, with two workers so
// the two stream emitters publish into shared query operators
// concurrently. Anything the parser accepts must plan and run to
// completion without panicking or wedging; run longer with
// `go test -fuzz=FuzzPlanExecute ./internal/cql`. The checked-in corpus
// under testdata/fuzz/FuzzPlanExecute keeps known-interesting queries as
// regressions under plain `go test`.

import (
	"testing"
	"time"

	"pipes"
	"pipes/internal/cql"
)

// fuzzStream builds a small tuple stream with the field names the seed
// queries reference (a, b, k, x, celsius).
func fuzzStream(offset int) []pipes.Element {
	out := make([]pipes.Element, 6)
	for i := range out {
		out[i] = pipes.NewElement(pipes.Tuple{
			"a":       i + offset,
			"b":       (i * 3) % 5,
			"k":       i % 2,
			"x":       float64(i) * 1.5,
			"celsius": 20.0 + float64((i+offset)%8),
		}, pipes.Time(i*10), pipes.Time(i*10+25))
	}
	return out
}

func FuzzPlanExecute(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM s",
		"SELECT a FROM s [RANGE 20] WHERE a > 1",
		"SELECT COUNT(*) AS n FROM s [ROWS 3]",
		"SELECT s.k, AVG(x) FROM s [RANGE 30] GROUP BY s.k",
		"SELECT * FROM s [NOW], r [UNBOUNDED] WHERE s.k = r.k",
		"ISTREAM(SELECT b FROM s [RANGE 15] WHERE b < 4)",
		"SELECT MAX(celsius) FROM r [PARTITION BY k ROWS 2]",
		// A group-by delivers its query's tuples: HAVING, SELECT * and
		// arithmetic over calls compile into the γ node, and DISTINCT
		// reads the tuples it delivers.
		"SELECT k, COUNT(*) AS n FROM s [RANGE 40] GROUP BY k HAVING COUNT(*) > 1",
		"SELECT * FROM s [RANGE 20] GROUP BY s.k",
		"SELECT SUM(x) / COUNT(*) AS mean FROM s [ROWS 4]",
		"SELECT DISTINCT b, COUNT(*) AS n FROM s [RANGE 30] GROUP BY b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if _, err := cql.Parse(input); err != nil {
			return // parser rejections are FuzzParse's territory
		}
		d := pipes.NewDSMS(pipes.Config{Workers: 2, BatchSize: 3})
		d.RegisterStream("s", pipes.NewSliceSource("s", fuzzStream(0)), 10)
		d.RegisterStream("r", pipes.NewSliceSource("r", fuzzStream(3)), 10)
		q, err := d.RegisterQuery(input)
		if err != nil {
			return // references unknown streams/fields the planner rejects
		}
		col := pipes.NewCollector("out", 1)
		if err := q.Subscribe(col); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		d.Start()
		finished := make(chan struct{})
		go func() { d.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			d.Stop()
			t.Fatalf("query wedged: %q", input)
		}
	})
}
