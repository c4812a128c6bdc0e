package cql_test

// The differential oracle of plan-time name resolution: an expression
// compiled against the shape of a plan edge (internal/optimizer) must
// give, on the value that edge carries, what Expr.Eval gives on the
// merged, qualified map the edge carried before shapes existed. The
// oracle therefore pins both halves of the contract in SEMANTICS.md §5:
// the kernels Compile shares with Eval, and the three shapes' resolution
// rules (own qualifier, other qualifier, missing field, a name both join
// sides have, a group's canonical column names, projected names). The
// group view a γ node's HAVING and select list read is unexported; its
// half of the oracle is FuzzGroupViewMatchesEval in internal/optimizer.

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pipes/internal/cql"
	"pipes/internal/ops"
	"pipes/internal/optimizer"
)

// edge is one plan edge under test: the plan whose output it is, the
// value an element carries on it, and the qualified map the same element
// was before.
type edge struct {
	name   string
	plan   optimizer.Plan
	value  any
	merged cql.Tuple
}

var oracleFields = []string{"a", "b", "c", "k"}

// randomValue draws from every type a source publishes or an operator
// produces, so comparisons and arithmetic meet mixed operands.
func randomValue(rng *rand.Rand) any {
	switch rng.Intn(8) {
	case 0:
		return rng.Intn(6)
	case 1:
		return int64(rng.Intn(6))
	case 2:
		return float64(rng.Intn(6))
	case 3:
		return float64(rng.Intn(60)) / 8
	case 4:
		return "s" + string(rune('a'+rng.Intn(3)))
	case 5:
		return rng.Intn(2) == 0
	case 6:
		return nil
	}
	return -rng.Intn(4)
}

// randomTuple leaves fields out, so missing names are exercised.
func randomTuple(rng *rand.Rand) cql.Tuple {
	t := cql.Tuple{}
	for _, f := range oracleFields {
		if rng.Intn(4) > 0 {
			t[f] = randomValue(rng)
		}
	}
	return t
}

func qualified(qual string, t cql.Tuple) cql.Tuple {
	out := cql.Tuple{}
	for k, v := range t {
		out[qual+"."+k] = v
	}
	return out
}

func merge(ts ...cql.Tuple) cql.Tuple {
	out := cql.Tuple{}
	for _, t := range ts {
		for k, v := range t {
			out[k] = v
		}
	}
	return out
}

func scan(q string) *optimizer.Scan { return &optimizer.Scan{Stream: q, Qualifier: q} }

// edges builds one element on every kind of edge from three source
// tuples drawn from rng.
func edges(rng *rand.Rand) []edge {
	tq, tr, ts := randomTuple(rng), randomTuple(rng), randomTuple(rng)
	mq, mr, ms := qualified("q", tq), qualified("r", tr), qualified("s", ts)

	// A group no projection closes delivers SELECT * under its columns'
	// canonical names.
	keys := []cql.Expr{cql.Field{Name: "q.k"}, cql.Field{Name: "b"}}
	calls := []cql.Call{{Fn: "COUNT", Star: true}, {Fn: "AVG", Arg: cql.Field{Name: "q.a"}}}
	grouped := cql.Tuple{"q.k": mq["q.k"], "b": tq["b"], "COUNT(*)": int64(rng.Intn(5)), "AVG(q.a)": randomValue(rng)}

	projected := cql.Tuple{"a": randomValue(rng), "q.b": randomValue(rng), "r.b": randomValue(rng), "n": randomValue(rng)}

	return []edge{
		{"scan", scan("q"), tq, mq},
		{"pair", &optimizer.Join{Left: scan("q"), Right: scan("r")},
			ops.Pair{Left: tq, Right: tr}, merge(mq, mr)},
		{"left-deep pair", &optimizer.Join{Left: &optimizer.Join{Left: scan("q"), Right: scan("r")}, Right: scan("s")},
			ops.Pair{Left: ops.Pair{Left: tq, Right: tr}, Right: ts}, merge(mq, mr, ms)},
		{"right-deep pair", &optimizer.Join{Left: scan("s"), Right: &optimizer.Join{Left: scan("q"), Right: scan("r")}},
			ops.Pair{Left: ts, Right: ops.Pair{Left: tq, Right: tr}}, merge(mq, mr, ms)},
		{"group tuple", &optimizer.Group{Input: scan("q"), Keys: keys, Calls: calls}, grouped, grouped},
		{"selected pair", &optimizer.Select{Pred: cql.Literal{V: true}, Input: &optimizer.Join{Left: scan("q"), Right: scan("r")}},
			ops.Pair{Left: tq, Right: tr}, merge(mq, mr)},
		{"projected tuple", &optimizer.Project{Input: scan("q"), Items: []cql.SelectItem{{Star: true}}},
			projected, projected},
	}
}

// same compares two evaluation results; NaN equals NaN.
func same(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	return a == b
}

func checkOnEveryEdge(t *testing.T, e cql.Expr, rng *rand.Rand) {
	t.Helper()
	for _, ed := range edges(rng) {
		shape, err := optimizer.ShapeOf(ed.plan)
		if err != nil {
			t.Fatalf("%s: %v", ed.name, err)
		}
		got, want := cql.Compile(e, shape.Resolve)(ed.value), e.Eval(ed.merged)
		if !same(got, want) {
			t.Fatalf("%s edge: %s\n compiled over %#v = %#v\n Eval over %#v = %#v",
				ed.name, e, ed.value, got, ed.merged, want)
		}
	}
}

// rename maps genExpr's 26 field letters onto the oracle's few fields and
// its single qualifier onto the streams under test plus one nobody scans,
// so that names hit, miss and collide.
func rename(e cql.Expr) cql.Expr {
	switch x := e.(type) {
	case cql.Field:
		letter := x.Name[len(x.Name)-1]
		name := oracleFields[int(letter)%len(oracleFields)]
		if strings.Contains(x.Name, ".") {
			name = []string{"q", "r", "s", "nobody"}[int(letter/4)%4] + "." + name
		}
		return cql.Field{Name: name}
	case cql.Binary:
		return cql.Binary{Op: x.Op, L: rename(x.L), R: rename(x.R)}
	case cql.Not:
		return cql.Not{E: rename(x.E)}
	case cql.Neg:
		return cql.Neg{E: rename(x.E)}
	case cql.Call:
		if x.Star {
			return x
		}
		return cql.Call{Fn: x.Fn, Arg: rename(x.Arg)}
	}
	return e
}

func TestCompileMatchesEvalOnEveryEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		checkOnEveryEdge(t, rename(cql.GenExpr(rng, 4)), rng)
	}
	// The cases the generator reaches only by luck.
	for _, text := range []string{
		"a", "q.a", "r.a", "s.a", "nobody.a", "missing", "q.missing", // own, other, unknown qualifier; absent field
		"k = q.k", "q.k = r.k", "a = a", // a name both join sides may have
		"COUNT(*) > 1", "AVG(q.a) / 2", "AVG(a)", "b", "q.b", "k", // group columns, by exact name and by suffix
		"n", "q.b + r.b", // projected names
		"a % 0.5", "a / 0", "-a", "NOT a", "a <> b", "a >= 'sa'", "'sa' < 'sb'", "a = NULL",
	} {
		e, err := cql.ParseExpr(text)
		if err != nil {
			continue // the dialect has no such literal; nothing to compare
		}
		for trial := 0; trial < 200; trial++ {
			checkOnEveryEdge(t, e, rng)
		}
	}
}

// FuzzCompileMatchesEval is the same oracle over expression text the
// fuzzer mutates and element values it seeds: run longer with
// `go test -run '^$' -fuzz=FuzzCompileMatchesEval ./internal/cql`. The
// checked-in corpus under testdata/fuzz/FuzzCompileMatchesEval replays
// under plain `go test`.
func FuzzCompileMatchesEval(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 16; i++ {
		f.Add(rename(cql.GenExpr(rng, 3)).String(), int64(i))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		e, err := cql.ParseExpr(text)
		if err != nil {
			return
		}
		checkOnEveryEdge(t, e, rand.New(rand.NewSource(seed)))
	})
}

// A compiled predicate over a scan tuple allocates nothing: the field is
// read where the source put it, the literal was boxed at plan time, and
// the comparison kernel works on what it is handed.
func TestCompiledScanPredicateDoesNotAllocate(t *testing.T) {
	shape, err := optimizer.ShapeOf(scan("bids"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := cql.ParseExpr(`bids.price > 500 AND auction < 1000000 OR bidder = 7`)
	if err != nil {
		t.Fatal(err)
	}
	pred := cql.Compile(e, shape.Resolve)
	var tuple any = cql.Tuple{"auction": 17, "bidder": 4, "price": 612.0}
	if pred(tuple) != true {
		t.Fatalf("predicate = %v, want true", pred(tuple))
	}
	if allocs := testing.AllocsPerRun(1000, func() { pred(tuple) }); allocs != 0 {
		t.Fatalf("compiled predicate allocates %.1f times per tuple", allocs)
	}
}
