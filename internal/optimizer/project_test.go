package optimizer

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"pipes/internal/cql"
	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// renderSink renders each row it is lent and keeps only the bytes, the
// way the service's result sink does.
type renderSink struct{ out [][]byte }

func (s *renderSink) Name() string { return "render" }
func (s *renderSink) Done(int)     {}

func (s *renderSink) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		s.out = append(s.out, renderRow(e.Value.(cql.Tuple)))
	}
}

func renderRow(t cql.Tuple) []byte {
	js, ok := t.AppendJSON(nil)
	if !ok {
		return []byte(fmt.Sprintf("unrendered %v", t))
	}
	return js
}

// projectFields are the fields a source row may carry: more than the
// eight a map keeps in one group, so a star over a full row is wide.
var projectFields = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// sourceRow draws a row holding a random subset of projectFields, all
// of them or none.
func sourceRow(rng *rand.Rand) cql.Tuple {
	row := cql.Tuple{}
	keep := rng.Intn(4) // 0: a few fields, 3: every field
	for _, f := range projectFields {
		if keep == 3 || rng.Intn(3) < keep {
			row[f] = oracleValue(rng)
		}
	}
	return row
}

// selectList draws a select list over qualifiers: stars, qualified and
// bare field names (some no row carries), aliased or not.
func selectList(rng *rand.Rand, quals []string) []cql.SelectItem {
	items := make([]cql.SelectItem, 1+rng.Intn(10))
	for i := range items {
		if rng.Intn(5) == 0 {
			items[i] = cql.SelectItem{Star: true}
			continue
		}
		name := projectFields[rng.Intn(len(projectFields))]
		if rng.Intn(6) == 0 {
			name = "missing"
		}
		if rng.Intn(2) == 0 {
			name = quals[rng.Intn(len(quals))] + "." + name
		}
		it := cql.SelectItem{Expr: cql.Field{Name: name}}
		if rng.Intn(2) == 0 {
			it.Alias = fmt.Sprintf("c%d", i)
		}
		items[i] = it
	}
	return items
}

// π's rows are reused across frames: cleared and refilled by
// projectInto, they must render byte for byte what the same select list
// writes into a fresh tuple, over a scan edge and over a join edge,
// whatever the select list and the rows before — and a user sink beside
// the borrowing one must keep rows that still render so after the run.
func TestReusedRowsRenderLikeFreshTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var in Shape = scanShape{qual: "s"}
		quals := []string{"s"}
		value := func() any { return sourceRow(rng) }
		if rng.Intn(2) == 0 {
			in = pairShape{l: scanShape{qual: "l"}, r: scanShape{qual: "r"}}
			quals = []string{"l", "r"}
			value = func() any { return ops.Pair{Left: sourceRow(rng), Right: sourceRow(rng)} }
		}
		items := selectList(rng, quals)
		fill := projectInto(items, in)
		fresh := func(v any) cql.Tuple {
			row := cql.Tuple{}
			fill(v, row)
			return row
		}
		pi := ops.NewProject("π", fill)
		sink, kept := &renderSink{}, pubsub.NewCollector("user", 1)
		if err := pi.Subscribe(sink, 0); err != nil {
			t.Fatal(err)
		}
		if err := pi.Subscribe(kept, 0); err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for frames := 0; frames < 6; frames++ {
			frame := make(temporal.Batch, 1+rng.Intn(100)) // past one pool's worth of rows
			for i := range frame {
				v := value()
				frame[i] = temporal.At(v, temporal.Time(frames))
				want = append(want, renderRow(fresh(v)))
			}
			pi.ProcessBatch(frame, 0)
		}
		if len(sink.out) != len(want) || kept.Len() != len(want) {
			t.Fatalf("trial %d: %d rows rendered and %d kept, want %d", trial, len(sink.out), kept.Len(), len(want))
		}
		for i, v := range kept.Values() {
			if !bytes.Equal(sink.out[i], want[i]) {
				t.Fatalf("trial %d, row %d, select %v: reused row renders %s, fresh tuple %s",
					trial, i, items, sink.out[i], want[i])
			}
			// The owner's rows outlive the frames: they must be copies.
			if got := renderRow(v.(cql.Tuple)); !bytes.Equal(got, want[i]) {
				t.Fatalf("trial %d, row %d, select %v: the owner kept %s, want %s", trial, i, items, got, want[i])
			}
		}
	}
}

// γ holds a pending span's tuple as one cell a column: projectCells'
// columns, in byte order, and cells must make the tuple the select list
// means over the group — SELECT * the group's columns under their
// canonical names, every other item Expr.Eval over them under its
// output name, and of items that share a name the last — whatever the
// list and whatever the group.
func TestGroupCellsHoldTheProjectedTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	view := newGroupView(viewGroup)
	for trial := 0; trial < 300; trial++ {
		items := make([]cql.SelectItem, 1+rng.Intn(6))
		for i := range items {
			if rng.Intn(5) == 0 {
				items[i] = cql.SelectItem{Star: true}
				continue
			}
			e, err := cql.ParseExpr(viewSeeds[rng.Intn(len(viewSeeds))])
			if err != nil {
				t.Fatal(err)
			}
			items[i] = cql.SelectItem{Expr: e}
			if rng.Intn(2) == 0 {
				items[i].Alias = fmt.Sprintf("c%d", rng.Intn(3))
			}
		}
		agg, merged := viewCase(rng)
		want := cql.Tuple{}
		for _, it := range items {
			if it.Star {
				maps.Copy(want, merged)
			} else {
				want[it.OutName()] = it.Expr.Eval(merged)
			}
		}
		cols, fill := projectCells(items, view)
		vals := make([]any, len(cols))
		fill(agg, vals)
		if len(cols) != len(want) {
			t.Fatalf("select %v: columns %q, want the fields of %v", items, cols, want)
		}
		for i, c := range cols {
			if v, ok := want[c]; !ok || !sameValue(vals[i], v) || (i > 0 && cols[i-1] >= c) {
				t.Fatalf("select %v: columns %q hold %v, want %v", items, cols, vals, want)
			}
		}
	}
}
