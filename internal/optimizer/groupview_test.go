package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
)

// The group half of the plan-time resolution oracle (SEMANTICS.md §5; the
// edge half is FuzzCompileMatchesEval in internal/cql): an expression
// compiled against a group's view, run on the group itself, must give
// what Expr.Eval gives on the merged row — the group's columns as one
// tuple under their canonical names.

// fixed is a sub-aggregate holding one value, so a call column can carry
// any type an expression may meet.
type fixed struct{ v any }

func (f fixed) Insert(any) {}
func (f fixed) Value() any { return f.v }
func (f fixed) Reset()     {}

// oracleValue draws from every type a source publishes or an aggregate
// produces.
func oracleValue(rng *rand.Rand) any {
	switch rng.Intn(7) {
	case 0:
		return rng.Intn(6)
	case 1:
		return int64(rng.Intn(6))
	case 2:
		return float64(rng.Intn(60)) / 8
	case 3:
		return "s" + string(rune('a'+rng.Intn(3)))
	case 4:
		return rng.Intn(2) == 0
	case 5:
		return nil
	}
	return -rng.Intn(4)
}

var viewGroup = &Group{
	Input: &Scan{Stream: "q", Qualifier: "q"},
	Keys:  []cql.Expr{cql.Field{Name: "q.k"}, cql.Field{Name: "b"}, cql.Binary{Op: "*", L: cql.Field{Name: "q.a"}, R: cql.Literal{V: 2}}},
	Calls: []cql.Call{{Fn: "COUNT", Star: true}, {Fn: "AVG", Arg: cql.Field{Name: "q.a"}}},
}

// viewCase builds one group of viewGroup, its members drawn from rng,
// and the merged row Eval reads.
func viewCase(rng *rand.Rand) (*rowAgg, cql.Tuple) {
	member, qualified := cql.Tuple{}, cql.Tuple{}
	for _, f := range []string{"a", "b", "c", "k"} {
		if rng.Intn(4) > 0 {
			v := oracleValue(rng)
			member[f], qualified["q."+f] = v, v
		}
	}
	agg := &rowAgg{keys: compileAll(viewGroup.Keys, scanShape{qual: "q"}), boxes: new(aggregate.Boxes), rep: member}
	merged := cql.Tuple{}
	for _, k := range viewGroup.Keys {
		merged[k.String()] = k.Eval(qualified)
	}
	for _, c := range viewGroup.Calls {
		v := oracleValue(rng)
		agg.subs = append(agg.subs, aggregate.Aggregate(fixed{v}))
		merged[c.String()] = v
	}
	return agg, merged
}

func sameValue(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	return a == b
}

func checkGroupView(t *testing.T, e cql.Expr, rng *rand.Rand) {
	t.Helper()
	view := newGroupView(viewGroup)
	agg, merged := viewCase(rng)
	if got, want := cql.Compile(e, view.Resolve)(agg), e.Eval(merged); !sameValue(got, want) {
		t.Fatalf("%s\n compiled over the group = %#v\n Eval over %#v = %#v", e, got, merged, want)
	}
	star := groupRow(viewGroup, agg)
	if len(star) != len(merged) {
		t.Fatalf("SELECT * over the group = %v, want %v", star, merged)
	}
	for k, v := range merged {
		if !sameValue(star[k], v) {
			t.Fatalf("SELECT * over the group = %v, want %v", star, merged)
		}
	}
}

// viewSeeds are the names a group view resolves and the ones it must not.
var viewSeeds = []string{
	"COUNT(*) > 1", "AVG(q.a) / 2", "AVG(a)", "b", "q.b", "k", "q.k", // by exact name and by suffix
	"(q.a * 2) + 1", "a", "q.a", "missing", "nobody.k", // a computed key; columns no group has
	"COUNT(*) > 1 AND AVG(q.a) / 2 < b + q.k", "NOT b OR k = 'sa'", "-COUNT(*) % 0.5",
	"SUM(q.a)", "AVG(q.a) = AVG(q.a)", "k <> b",
}

func TestGroupViewMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, text := range viewSeeds {
		e, err := cql.ParseExpr(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		for trial := 0; trial < 200; trial++ {
			checkGroupView(t, e, rng)
		}
	}
}

// FuzzGroupViewMatchesEval is the same oracle over expression text the
// fuzzer mutates: run longer with
// `go test -run '^$' -fuzz=FuzzGroupViewMatchesEval ./internal/optimizer`.
func FuzzGroupViewMatchesEval(f *testing.F) {
	for i, text := range viewSeeds {
		f.Add(text, int64(i))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		e, err := cql.ParseExpr(text)
		if err != nil {
			return
		}
		checkGroupView(t, e, rand.New(rand.NewSource(seed)))
	})
}
