package optimizer

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

func parse(t *testing.T, q string) *cql.Query {
	t.Helper()
	out, err := cql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func plan(t *testing.T, q string) Plan {
	t.Helper()
	p, err := FromQuery(parse(t, q))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanPushesSingleStreamPredicates(t *testing.T) {
	p := plan(t, "SELECT * FROM s [RANGE 10] WHERE x > 3")
	proj, ok := p.(*Project)
	if !ok || len(proj.Items) != 1 || !proj.Items[0].Star {
		t.Fatalf("root = %T, want the star projection that closes every query", p)
	}
	sel, ok := proj.Input.(*Select)
	if !ok {
		t.Fatalf("below the projection = %T, want *Select", proj.Input)
	}
	if _, ok := sel.Input.(*Scan); !ok {
		t.Fatalf("selection not directly above scan: %T", sel.Input)
	}
}

func TestPlanJoinClassification(t *testing.T) {
	p := plan(t, `SELECT * FROM a [RANGE 10], b [RANGE 10]
		WHERE a.k = b.k AND a.x > 1 AND a.v < b.v`)
	j := findJoin(p)
	if j == nil {
		t.Fatal("no join in plan")
	}
	if len(j.EquiLeft) != 1 || j.EquiLeft[0].String() != "a.k" {
		t.Fatalf("equi keys = %v", j.EquiLeft)
	}
	if j.Residual == nil || !strings.Contains(j.Residual.String(), "a.v") {
		t.Fatalf("residual = %v", j.Residual)
	}
	// a.x > 1 must be pushed below the join, not kept on it.
	if j.Residual != nil && strings.Contains(j.Residual.String(), "a.x") {
		t.Fatal("single-stream predicate kept at join")
	}
}

func findJoin(p Plan) *Join {
	if j, ok := p.(*Join); ok {
		return j
	}
	for _, c := range p.Children() {
		if j := findJoin(c); j != nil {
			return j
		}
	}
	return nil
}

func TestPlanAliasRewriting(t *testing.T) {
	// Two queries over the same stream with different aliases must share
	// signatures.
	p1 := plan(t, "SELECT b.x FROM s [RANGE 10] AS b WHERE b.x > 1")
	p2 := plan(t, "SELECT q.x FROM s [RANGE 10] AS q WHERE q.x > 1")
	if p1.Signature() != p2.Signature() {
		t.Fatalf("alias-differing queries have different signatures:\n%s\n%s",
			p1.Signature(), p2.Signature())
	}
}

func TestPlanSelfJoinKeepsAliases(t *testing.T) {
	p := plan(t, "SELECT * FROM s [RANGE 10] AS a, s [RANGE 10] AS b WHERE a.k = b.k")
	quals := sortedQuals(p.Qualifiers())
	if len(quals) != 2 || quals[0] != "a" || quals[1] != "b" {
		t.Fatalf("self-join qualifiers = %v", quals)
	}
}

func TestPlanGroupCollectsCalls(t *testing.T) {
	p := plan(t, `SELECT k, AVG(x) AS a FROM s [RANGE 10] GROUP BY k HAVING COUNT(*) > 2`)
	var g *Group
	var walk func(Plan)
	walk = func(pl Plan) {
		if gg, ok := pl.(*Group); ok {
			g = gg
		}
		for _, c := range pl.Children() {
			walk(c)
		}
	}
	walk(p)
	if g == nil {
		t.Fatal("no group node")
	}
	if len(g.Calls) != 2 {
		t.Fatalf("calls = %v", g.Calls)
	}
	if len(g.Keys) != 1 || g.Keys[0].String() != "k" {
		t.Fatalf("keys = %v", g.Keys)
	}
	// Having must sit above the group.
	if _, ok := p.(*Project); !ok {
		t.Fatalf("root = %T, want projection", p)
	}
}

func TestExplainRendersTree(t *testing.T) {
	p := plan(t, "SELECT * FROM a [RANGE 5], b [RANGE 5] WHERE a.k = b.k")
	exp := Explain(p)
	if !strings.Contains(exp, "join") || !strings.Contains(exp, "scan") {
		t.Fatalf("explain output:\n%s", exp)
	}
}

func TestEnumerateJoinOrders(t *testing.T) {
	p := plan(t, "SELECT * FROM a [RANGE 5], b [RANGE 5], c [RANGE 5] WHERE a.k = b.k AND b.k = c.k")
	variants := Enumerate(p)
	if len(variants) != 6 {
		t.Fatalf("3-way join produced %d variants, want 6", len(variants))
	}
	sigs := map[string]bool{}
	for _, v := range variants {
		sigs[v.Signature()] = true
	}
	if len(sigs) != 6 {
		t.Fatalf("variants not distinct: %d unique", len(sigs))
	}
}

func TestEnumerateNoJoinReturnsOriginal(t *testing.T) {
	p := plan(t, "SELECT * FROM s [RANGE 5] WHERE x > 1")
	variants := Enumerate(p)
	if len(variants) != 1 || variants[0].Signature() != p.Signature() {
		t.Fatalf("variants = %d", len(variants))
	}
}

func TestCostPrefersSelectiveJoinOrder(t *testing.T) {
	cat := NewCatalog()
	cat.Register("fast", pubsub.NewSliceSource("fast", nil), 10000)
	cat.Register("slow", pubsub.NewSliceSource("slow", nil), 10)
	// Joining slow ⋈ fast should beat fast ⋈ slow only via enumeration —
	// both have the same cost here (symmetric model), so just verify Cost
	// is monotone in rates.
	p1 := plan(t, "SELECT * FROM fast [RANGE 5] WHERE x > 1")
	p2 := plan(t, "SELECT * FROM slow [RANGE 5] WHERE x > 1")
	if Cost(p1, cat, nil) <= Cost(p2, cat, nil) {
		t.Fatal("cost not monotone in stream rate")
	}
}

func TestCostSharingDiscount(t *testing.T) {
	p := plan(t, "SELECT * FROM s [RANGE 5] WHERE x > 1")
	full := Cost(p, nil, nil)
	discounted := Cost(p, nil, func(sig string) bool { return true })
	if discounted != 0 {
		t.Fatalf("fully shared plan costs %v, want 0", discounted)
	}
	if full <= 0 {
		t.Fatalf("full cost = %v", full)
	}
}

// tupleSource publishes tuples as chronons.
func tupleSource(name string, tuples []cql.Tuple) *pubsub.SliceSource {
	elems := make([]temporal.Element, len(tuples))
	for i, tp := range tuples {
		elems[i] = temporal.At(tp, temporal.Time(i))
	}
	return pubsub.NewSliceSource(name, elems)
}

func TestAddQueryEndToEnd(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", []cql.Tuple{
		{"x": 1, "k": "a"}, {"x": 5, "k": "b"}, {"x": 9, "k": "a"},
	})
	cat.Register("s", src, 100)
	o := New(cat)
	inst, err := o.AddQuery(parse(t, "SELECT x FROM s [RANGE 100] WHERE x > 2"))
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	if err := inst.Root.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	pubsub.Drive(src)
	col.Wait()
	vals := col.Values()
	if len(vals) != 2 {
		t.Fatalf("query results = %v", vals)
	}
	for _, v := range vals {
		x, _ := v.(cql.Tuple).Get("x")
		if xf, _ := x.(float64); xf <= 2 && x != 5 && x != 9 {
			t.Fatalf("bad result %v", v)
		}
	}
}

func TestAddQueryUnknownStream(t *testing.T) {
	o := New(NewCatalog())
	if _, err := o.AddQuery(parse(t, "SELECT * FROM nope [RANGE 1]")); err == nil {
		t.Fatal("unknown stream accepted")
	}
}

func TestMultiQuerySharing(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", nil)
	cat.Register("s", src, 100)
	o := New(cat)

	q1, err := o.AddQuery(parse(t, "SELECT x FROM s [RANGE 100] WHERE x > 2"))
	if err != nil {
		t.Fatal(err)
	}
	if q1.SharedNodes != 0 {
		t.Fatalf("first query shared %d nodes", q1.SharedNodes)
	}
	countAfterQ1 := o.OperatorCount()

	// Identical query: everything is reused, nothing new is created.
	q2, err := o.AddQuery(parse(t, "SELECT x FROM s [RANGE 100] WHERE x > 2"))
	if err != nil {
		t.Fatal(err)
	}
	if q2.NewNodes != 0 {
		t.Fatalf("identical query created %d new nodes", q2.NewNodes)
	}
	if o.OperatorCount() != countAfterQ1 {
		t.Fatal("registry grew for an identical query")
	}
	if q2.Root != q1.Root {
		t.Fatal("identical query got a different root")
	}

	// Overlapping query: shares scan+window+filter, adds projection.
	q3, err := o.AddQuery(parse(t, "SELECT x, x * 2 AS double FROM s [RANGE 100] WHERE x > 2"))
	if err != nil {
		t.Fatal(err)
	}
	if q3.SharedNodes == 0 {
		t.Fatal("overlapping query shared nothing")
	}
	if q3.NewNodes == 0 {
		t.Fatal("overlapping query created nothing (projection differs)")
	}
	// Sharing discount must make overlapping queries cheaper.
	if q3.Cost >= q1.Cost {
		t.Fatalf("shared query cost %v >= first cost %v", q3.Cost, q1.Cost)
	}
}

func TestSharedQueriesBothReceiveResults(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", []cql.Tuple{{"x": 3}, {"x": 1}, {"x": 7}})
	cat.Register("s", src, 100)
	o := New(cat)

	i1, err := o.AddQuery(parse(t, "SELECT x FROM s [RANGE 100] WHERE x > 2"))
	if err != nil {
		t.Fatal(err)
	}
	i2, err := o.AddQuery(parse(t, "SELECT x FROM s [RANGE 100] WHERE x > 2"))
	if err != nil {
		t.Fatal(err)
	}
	c1 := pubsub.NewCollector("c1", 1)
	c2 := pubsub.NewCollector("c2", 1)
	i1.Root.Subscribe(c1, 0)
	i2.Root.Subscribe(c2, 0)
	pubsub.Drive(src)
	c1.Wait()
	c2.Wait()
	if c1.Len() != 2 || c2.Len() != 2 {
		t.Fatalf("results: %d and %d, want 2 and 2", c1.Len(), c2.Len())
	}
}

func TestJoinQueryEndToEnd(t *testing.T) {
	cat := NewCatalog()
	bids := tupleSource("bids", []cql.Tuple{
		{"auction": 1, "price": 10},
		{"auction": 2, "price": 20},
		{"auction": 1, "price": 30},
	})
	auctions := tupleSource("auctions", []cql.Tuple{
		{"id": 1, "item": "vase"},
		{"id": 2, "item": "lamp"},
	})
	cat.Register("bids", bids, 100)
	cat.Register("auctions", auctions, 10)
	o := New(cat)
	inst, err := o.AddQuery(parse(t, `SELECT bids.price, auctions.item
		FROM bids [RANGE 1000], auctions [UNBOUNDED]
		WHERE bids.auction = auctions.id`))
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	inst.Root.Subscribe(col, 0)
	// Relation first, then the stream (both orders must work; this is the
	// common one).
	pubsub.Drive(auctions)
	pubsub.Drive(bids)
	col.Wait()
	if col.Len() != 3 {
		t.Fatalf("join results = %v", col.Values())
	}
	for _, v := range col.Values() {
		tp := v.(cql.Tuple)
		if _, ok := tp.Get("item"); !ok {
			t.Fatalf("missing item in %v", tp)
		}
	}
}

func TestGroupByQueryEndToEnd(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("traffic", []cql.Tuple{
		{"section": 1, "speed": 50},
		{"section": 1, "speed": 70},
		{"section": 2, "speed": 30},
	})
	cat.Register("traffic", src, 100)
	o := New(cat)
	inst, err := o.AddQuery(parse(t, `SELECT section, AVG(speed) AS avgspeed
		FROM traffic [RANGE 1000] GROUP BY section`))
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	inst.Root.Subscribe(col, 0)
	pubsub.Drive(src)
	col.Wait()
	// Section 1 evolves 50 → 60 (both alive) → 70 (first expired); the
	// span where both elements are alive must report the true average 60.
	// Section 2 is constantly 30.
	seen := map[string]map[float64]bool{"1": {}, "2": {}}
	for _, e := range col.Elements() {
		tp := e.Value.(cql.Tuple)
		sec, _ := tp.Get("section")
		avg, _ := tp.Get("avgspeed")
		if f, ok := avg.(float64); ok {
			seen[fmtKey(sec)][f] = true
		}
	}
	for _, want := range []float64{50, 60, 70} {
		if !seen["1"][want] {
			t.Fatalf("section 1 spans missing avg %v (got %v)", want, seen["1"])
		}
	}
	if !seen["2"][30] || len(seen["2"]) != 1 {
		t.Fatalf("section 2 spans = %v", seen["2"])
	}
}

// A group-by is one node with the HAVING and select list above it: a
// grouped query builds its window and γ, nothing else.
func TestGroupBuildsOneNode(t *testing.T) {
	for _, c := range []struct{ query, root string }{
		{`SELECT k, COUNT(*) AS n FROM s [RANGE 10] GROUP BY k`, "γ#2"},
		{`SELECT k, COUNT(*) AS n FROM s [RANGE 10] GROUP BY k HAVING COUNT(*) > 1`, "γ#2"},
		{`SELECT SUM(x) / COUNT(*) AS mean FROM s [RANGE 10]`, "γ#2"},
	} {
		cat := NewCatalog()
		cat.Register("s", tupleSource("s", nil), 100)
		inst, err := New(cat).AddQuery(parse(t, c.query))
		if err != nil {
			t.Fatal(err)
		}
		if inst.NewNodes != 2 || len(inst.Created) != 2 {
			t.Errorf("%s: built %d operators, want 2 (window, γ)", c.query, inst.NewNodes)
		}
		if name := inst.Root.(pubsub.Node).Name(); name != c.root {
			t.Errorf("%s: root is %s, want %s", c.query, name, c.root)
		}
	}
}

// HAVING compiled into γ drops the spans it is false on and leaves every
// other span as the group-by without it emitted it.
func TestHavingDropsSpansKeepsIntervals(t *testing.T) {
	tuples := []cql.Tuple{{"k": 1, "x": 1}, {"k": 1, "x": 2}, {"k": 2, "x": 3}, {"k": 1, "x": 4}, {"k": 2, "x": 5}}
	spans := func(query string) []temporal.Element {
		cat := NewCatalog()
		src := tupleSource("s", tuples)
		cat.Register("s", src, 100)
		inst, err := New(cat).AddQuery(parse(t, query))
		if err != nil {
			t.Fatal(err)
		}
		col := pubsub.NewCollector("col", 1)
		inst.Root.Subscribe(col, 0)
		pubsub.Drive(src)
		col.Wait()
		return col.Elements()
	}
	all := spans(`SELECT k, COUNT(*) AS n FROM s [RANGE 3] GROUP BY k`)
	got := spans(`SELECT k, COUNT(*) AS n FROM s [RANGE 3] GROUP BY k HAVING COUNT(*) > 1`)
	var want []string
	for _, e := range all {
		if e.Value.(cql.Tuple)["n"].(int64) > 1 {
			want = append(want, e.String())
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("the input should give spans on both sides of HAVING: %v", all)
	}
	var have []string
	for _, e := range got {
		have = append(have, e.String())
	}
	sort.Strings(want)
	sort.Strings(have)
	if strings.Join(have, "\n") != strings.Join(want, "\n") {
		t.Fatalf("HAVING spans:\n%s\nwant:\n%s", strings.Join(have, "\n"), strings.Join(want, "\n"))
	}
}

// γ is registered under what it delivers: identical grouped queries share
// it, and a different select list over the same GROUP BY builds its own.
func TestGroupSharedByWhatItDelivers(t *testing.T) {
	cat := NewCatalog()
	cat.Register("s", tupleSource("s", nil), 100)
	o := New(cat)
	add := func(query string) *Instance {
		inst, err := o.AddQuery(parse(t, query))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	first := add(`SELECT k, COUNT(*) AS n FROM s [RANGE 10] GROUP BY k`)
	same := add(`SELECT k, COUNT(*) AS n FROM s [RANGE 10] GROUP BY k`)
	if same.NewNodes != 0 || same.SharedNodes != 2 || same.Root != first.Root {
		t.Fatalf("identical query: new=%d shared=%d, same root %v; want 0, 2, true",
			same.NewNodes, same.SharedNodes, same.Root == first.Root)
	}
	other := add(`SELECT k, COUNT(*) AS m FROM s [RANGE 10] GROUP BY k`)
	if other.NewNodes != 1 || other.SharedNodes != 1 || other.Root == first.Root {
		t.Fatalf("other select list: new=%d shared=%d, same root %v; want 1, 1, false",
			other.NewNodes, other.SharedNodes, other.Root == first.Root)
	}
	if n := o.OperatorCount(); n != 3 {
		t.Fatalf("%d operators, want 3: one window, two γ", n)
	}
}

func fmtKey(v any) string {
	switch x := v.(type) {
	case int:
		if x == 1 {
			return "1"
		}
		return "2"
	}
	return "?"
}

func TestDistinctAndRelQueries(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", []cql.Tuple{{"x": 1}, {"x": 1}, {"x": 2}})
	cat.Register("s", src, 100)
	o := New(cat)
	inst, err := o.AddQuery(parse(t, "ISTREAM(SELECT DISTINCT x FROM s [RANGE 1000])"))
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	inst.Root.Subscribe(col, 0)
	pubsub.Drive(src)
	col.Wait()
	if col.Len() != 2 { // x=1 inserted once (coalesced), x=2 once
		t.Fatalf("ISTREAM(DISTINCT) results = %v", col.Values())
	}
}

func TestPartitionedWindowQuery(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", []cql.Tuple{
		{"k": "a", "x": 1}, {"k": "a", "x": 2}, {"k": "b", "x": 3}, {"k": "a", "x": 4},
	})
	cat.Register("s", src, 100)
	o := New(cat)
	inst, err := o.AddQuery(parse(t, "SELECT * FROM s [PARTITION BY k ROWS 1]"))
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	inst.Root.Subscribe(col, 0)
	pubsub.Drive(src)
	col.Wait()
	if col.Len() != 4 {
		t.Fatalf("partitioned window results = %d", col.Len())
	}
}

// groupRow reads every column of a group through g's view, the way a γ
// node's SELECT * does.
func groupRow(g *Group, agg any) cql.Tuple {
	cols, fill := projectCells([]cql.SelectItem{{Star: true}}, newGroupView(g))
	vals := make([]any, len(cols))
	fill(agg, vals)
	row := cql.Tuple{}
	for i, c := range cols {
		row[c] = vals[i]
	}
	return row
}

func TestInvertibleRowAgg(t *testing.T) {
	g := &Group{Calls: []cql.Call{
		{Fn: "COUNT", Star: true},
		{Fn: "SUM", Arg: cql.Field{Name: "x"}},
	}}
	factory, err := newRowAggFactory(g.Keys, g.Calls, scanShape{qual: "s"})
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := factory().(interface {
		Insert(any)
		Remove(any)
		Value() any
	})
	if !ok {
		t.Fatal("COUNT+SUM should be invertible")
	}
	agg.Insert(cql.Tuple{"x": 5})
	agg.Insert(cql.Tuple{"x": 3})
	agg.Remove(cql.Tuple{"x": 5})
	row := groupRow(g, agg.Value())
	if len(row) != 2 || row["COUNT(*)"] != int64(1) || row["SUM(x)"] != 3.0 {
		t.Fatalf("agg row = %v", row)
	}
}

func TestNonInvertibleRowAgg(t *testing.T) {
	g := &Group{Keys: []cql.Expr{cql.Field{Name: "s.k"}}, Calls: []cql.Call{
		{Fn: "MIN", Arg: cql.Field{Name: "x"}},
	}}
	factory, err := newRowAggFactory(g.Keys, g.Calls, scanShape{qual: "s"})
	if err != nil {
		t.Fatal(err)
	}
	agg := factory()
	if _, ok := agg.(interface{ Remove(any) }); ok {
		t.Fatal("MIN must not be invertible")
	}
	agg.Insert(cql.Tuple{"x": 5, "k": "a"})
	agg.Insert(cql.Tuple{"x": 3, "k": "a"})
	row := groupRow(g, agg.Value())
	if len(row) != 2 || row["s.k"] != "a" || row["MIN(x)"] != 3.0 {
		t.Fatalf("agg row = %v, want key then MIN", row)
	}
}

func TestRowAggUnknownFunction(t *testing.T) {
	if _, err := newRowAggFactory(nil, []cql.Call{{Fn: "FROB"}}, scanShape{}); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
}

func TestDistinctKeyIsTheTupleFrame(t *testing.T) {
	a := cql.Tuple{"x": 1, "y": "b"}
	b := cql.Tuple{"y": "b", "x": 1}
	if frameKey(a) != frameKey(b) {
		t.Fatal("DISTINCT key depends on map order")
	}
	if frameKey(a) == frameKey(cql.Tuple{"x": 2, "y": "b"}) {
		t.Fatal("different tuples share a DISTINCT key")
	}
	// A value the frame cannot render keeps its tuple apart from every
	// other instead of failing the operator.
	odd := cql.Tuple{"x": struct{ c chan int }{}}
	if frameKey(odd) == frameKey(odd) {
		t.Fatal("unrenderable tuples were called duplicates")
	}
}

// run registers one query over the catalog's sources, drives them in the
// order given and returns the delivered tuples.
func run(t *testing.T, cat *Catalog, query string, drive ...*pubsub.SliceSource) []cql.Tuple {
	t.Helper()
	inst, err := New(cat).AddQuery(parse(t, query))
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	if err := inst.Root.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	for _, src := range drive {
		pubsub.Drive(src)
	}
	col.Wait()
	out := make([]cql.Tuple, 0, col.Len())
	for _, v := range col.Values() {
		out = append(out, v.(cql.Tuple))
	}
	return out
}

// Numbers group by value, not by Go type: 5, int64(5) and 5.0 are one
// group (as the comparison kernel says they are equal), "5" is another.
func TestGroupKeysMeetAcrossNumericTypes(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", []cql.Tuple{{"k": 5}, {"k": int64(5)}, {"k": 5.0}, {"k": "5"}})
	cat.Register("s", src, 100)
	final := map[any]any{} // group key as delivered → last count seen
	for _, tp := range run(t, cat, "SELECT k, COUNT(*) AS n FROM s [UNBOUNDED] GROUP BY k", src) {
		key := tp["k"]
		if s, ok := key.(string); !ok || s != "5" {
			key = "number"
		}
		final[key] = tp["n"]
	}
	if len(final) != 2 || final["number"] != int64(3) || final["5"] != int64(1) {
		t.Fatalf("groups = %v, want the three numeric 5s together and the string apart", final)
	}

	// Composite keys draw the same classes.
	cat = NewCatalog()
	src = tupleSource("s", []cql.Tuple{{"k": 5, "j": "x"}, {"k": 5.0, "j": "x"}, {"k": "5", "j": "x"}, {"k": 5, "j": "y"}})
	cat.Register("s", src, 100)
	groups := map[string]bool{}
	for _, tp := range run(t, cat, "SELECT k, j, COUNT(*) AS n FROM s [UNBOUNDED] GROUP BY k, j", src) {
		class := "number"
		if _, ok := tp["k"].(string); ok {
			class = "string"
		}
		groups[class+"/"+tp["j"].(string)] = true
	}
	if len(groups) != 3 {
		t.Fatalf("composite groups = %v, want number/x, string/x, number/y", groups)
	}
}

// An equi-join matches an int id against the float64 id a CSV adapter
// produces, and the partitioned window keeps them in one partition.
func TestJoinAndPartitionKeysMeetAcrossNumericTypes(t *testing.T) {
	cat := NewCatalog()
	bids := tupleSource("bids", []cql.Tuple{{"auction": 1, "price": 10}, {"auction": 2, "price": 20}})
	auctions := tupleSource("auctions", []cql.Tuple{{"id": 1.0, "item": "vase"}, {"id": "2", "item": "lamp"}})
	cat.Register("bids", bids, 100)
	cat.Register("auctions", auctions, 10)
	got := run(t, cat, `SELECT bids.price, auctions.item FROM bids [RANGE 1000], auctions [UNBOUNDED]
		WHERE bids.auction = auctions.id`, auctions, bids)
	if len(got) != 1 || got[0]["auctions.item"] != "vase" || got[0]["bids.price"] != 10 {
		t.Fatalf("join results = %v, want the int 1 to meet the float 1.0 and nothing to meet the string", got)
	}

	cat = NewCatalog()
	src := tupleSource("s", []cql.Tuple{{"k": 7, "x": 1}, {"k": 7.0, "x": 2}, {"k": int64(7), "x": 3}})
	cat.Register("s", src, 100)
	open := 0
	inst, err := New(cat).AddQuery(parse(t, "SELECT x FROM s [PARTITION BY k ROWS 1]"))
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	inst.Root.Subscribe(col, 0)
	pubsub.Drive(src)
	col.Wait()
	for _, e := range col.Elements() {
		if e.End == temporal.MaxTime {
			open++
		}
	}
	if col.Len() != 3 || open != 1 {
		t.Fatalf("%d rows, %d still open: want one partition whose two older rows were displaced", col.Len(), open)
	}
}

// SELECT * delivers every field under stream.field, bare and over a join,
// though nothing below the projection carries such a name any more.
func TestSelectStarDeliversQualifiedNames(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", []cql.Tuple{{"x": 1, "k": "a"}})
	cat.Register("s", src, 100)
	got := run(t, cat, "SELECT * FROM s", src)
	if len(got) != 1 || len(got[0]) != 2 || got[0]["s.x"] != 1 || got[0]["s.k"] != "a" {
		t.Fatalf("SELECT * FROM s = %v", got)
	}

	cat = NewCatalog()
	l := tupleSource("l", []cql.Tuple{{"k": 1, "v": "left"}})
	r := tupleSource("r", []cql.Tuple{{"k": 1, "v": "right"}})
	cat.Register("l", l, 100)
	cat.Register("r", r, 100)
	got = run(t, cat, "SELECT *, a.v AS mine FROM l [UNBOUNDED] AS a, r [UNBOUNDED] AS b WHERE a.k = b.k", l, r)
	want := cql.Tuple{"l.k": 1, "l.v": "left", "r.k": 1, "r.v": "right", "mine": "left"}
	if len(got) != 1 || len(got[0]) != len(want) {
		t.Fatalf("SELECT * over a join = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[0][k] != v {
			t.Fatalf("SELECT * over a join = %v, want %v", got[0], want)
		}
	}
}

// A name two join sides both have answers nil; qualified, it is a path
// into one side.
func TestUnqualifiedNameOnBothJoinSidesIsAmbiguous(t *testing.T) {
	cat := NewCatalog()
	l := tupleSource("l", []cql.Tuple{{"k": 1, "only": "l"}})
	r := tupleSource("r", []cql.Tuple{{"k": 1}})
	cat.Register("l", l, 100)
	cat.Register("r", r, 100)
	got := run(t, cat, "SELECT k AS both, l.k AS mine, only AS one FROM l [UNBOUNDED], r [UNBOUNDED] WHERE l.k = r.k", l, r)
	if len(got) != 1 || got[0]["both"] != nil || got[0]["mine"] != 1 || got[0]["one"] != "l" {
		t.Fatalf("results = %v, want both=nil mine=1 one=l", got)
	}
}

// One qualifier on both sides of a join leaves qualified names without a
// side to point into: refused before anything is built.
func TestJoinRefusesOneQualifierOnBothSides(t *testing.T) {
	cat := NewCatalog()
	cat.Register("s", tupleSource("s", nil), 100)
	o := New(cat)
	if _, err := o.AddQuery(parse(t, "SELECT * FROM s [RANGE 5], s [RANGE 9]")); err == nil {
		t.Fatal("a self-join without aliases was accepted")
	}
	if n := o.OperatorCount(); n != 0 {
		t.Fatalf("the refused query left %d operators behind", n)
	}
}

// AddPlan closes a hand-built plan the way FromQuery closes a query: the
// root delivers projected tuples under qualified names.
func TestAddPlanClosesUnprojectedPlans(t *testing.T) {
	cat := NewCatalog()
	src := tupleSource("s", []cql.Tuple{{"x": 1}, {"x": 1}})
	cat.Register("s", src, 100)
	inst, err := New(cat).AddPlan(&Distinct{Input: &Scan{Stream: "s", Qualifier: "s",
		Window: cql.Window{Kind: cql.WindowUnbounded}}})
	if err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("col", 1)
	inst.Root.Subscribe(col, 0)
	pubsub.Drive(src)
	col.Wait()
	if col.Len() != 1 || col.Values()[0].(cql.Tuple)["s.x"] != 1 {
		t.Fatalf("results = %v, want one tuple {s.x: 1}", col.Values())
	}
	if _, ok := inst.Plan.(*Distinct).Input.(*Project); !ok {
		t.Fatalf("plan = %s, want the projection under DISTINCT", inst.Plan.Signature())
	}
}

// firstJoin returns the streams the innermost join of p reads, in order.
func firstJoin(p Plan) (streams []string) {
	var walk func(Plan)
	walk = func(p Plan) {
		if s, ok := p.(*Scan); ok {
			streams = append(streams, s.Stream)
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	for {
		j, ok := p.(*Join)
		if ok {
			if _, deeper := j.Left.(*Join); !deeper {
				walk(j)
				return streams
			}
		}
		kids := p.Children()
		if len(kids) == 0 {
			return nil
		}
		p = kids[0]
	}
}

// The cost model prices a stream at its measured rate: three streams
// declared at equal rates and measured at 1 000 : 10 : 10 elements per
// second (under a fake block clock) get a three-way join that joins the
// two slow streams first. Registered before anything was counted, the same
// query keeps the canonical order.
func TestCostJoinsMeasuredSlowStreamsFirst(t *testing.T) {
	clock := telemetry.NewFakeClock(time.Unix(0, 0))
	cat := NewCatalog()
	srcs := map[string]*pubsub.SliceSource{}
	for _, name := range []string{"a", "b", "c"} {
		src := pubsub.NewSliceSource(name, nil)
		ref := flight.NewRef(name)
		ref.SetClock(clock)
		src.SetFlightRef(ref)
		cat.Register(name, src, 100)
		srcs[name] = src
	}
	o := New(cat)
	q := parse(t, "SELECT * FROM a [RANGE 5], b [RANGE 5], c [RANGE 5] WHERE a.k = b.k AND b.k = c.k")
	before, err := o.AddQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := firstJoin(before.Plan); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("before any count the first join reads %v, want the canonical [a b]", got)
	}
	if err := o.RemoveQuery(before); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"a": 1000, "b": 10, "c": 10} {
		srcs[name].TransferBatch(chronons(n))
	}
	clock.Advance(time.Second)
	after, err := o.AddQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := firstJoin(after.Plan); !slices.Equal(got, []string{"b", "c"}) && !slices.Equal(got, []string{"c", "b"}) {
		t.Fatalf("measured at 1000:10:10 the first join reads %v, want the slow streams b and c", got)
	}
}

func chronons(n int) temporal.Batch {
	b := make(temporal.Batch, n)
	for i := range b {
		b[i] = temporal.At(i, temporal.Time(i))
	}
	return b
}

// sortedQuals renders a qualifier set deterministically.
func sortedQuals(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}
