package ops

import (
	"bytes"
	"encoding/hex"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
	"pipes/internal/temporal"
	"pipes/internal/wire"
)

// statefulOp is what the state codec tests drive: an operator that holds
// checkpointable state.
type statefulOp interface {
	ProcessBatch(b temporal.Batch, input int)
	SnapshotState() (func(dst []byte) ([]byte, error), error)
	LoadState(state []byte) error
}

type feedStep struct {
	e     temporal.Element
	input int
}

// stateCase builds one stateful operator and the input that leaves it
// holding state of every part its encoding has.
type stateCase struct {
	name string
	make func() statefulOp
	feed []feedStep
}

func (c stateCase) snapshot(t testing.TB) []byte {
	t.Helper()
	op := c.make()
	for _, s := range c.feed {
		op.ProcessBatch(temporal.Batch{s.e}, s.input)
	}
	return snapshotBytes(t, op)
}

func tup(k int, v any) cql.Tuple { return cql.Tuple{"k": k, "v": v} }

func tupKey(v any) any { return v.(cql.Tuple)["k"] }

// stateCases is one case per stateful operator. Values mix the codec's
// kinds — tuples with int, float, string, bool and nil fields, plain
// ints and strings — and the outputs the order buffers hold carry pairs,
// group results and row slices.
func stateCases() []stateCase {
	identity := func(v any) any { return v }
	return []stateCase{
		{"join", func() statefulOp { return NewEquiJoin("op", tupKey, tupKey, nil) }, []feedStep{
			{el(tup(1, 2.5), 1, 10), 0}, {el(tup(1, "b"), 2, 10), 1}, {el(tup(2, nil), 3, 8), 1}, {el(tup(1, true), 4, 9), 0},
		}},
		{"mjoin", func() statefulOp { return NewMJoin("op", 3, identity) }, []feedStep{
			{el(1, 1, 10), 0}, {el(1, 2, 10), 1}, {el(1, 3, 10), 2}, {el(2, 4, 9), 0},
		}},
		{"groupby", func() statefulOp { return NewGroupBy("op", tupKey, aggregate.NewCount, nil) }, []feedStep{
			{el(tup(1, 2.5), 1, 5), 0}, {el(tup(2, -3), 2, 6), 0}, {el(tup(1, 4), 3, 7), 0}, {el(tup(3, int64(1<<40)), 6, 9), 0},
		}},
		{"difference", func() statefulOp { return NewDifference("op", nil) }, []feedStep{
			{el("a", 1, 9), 0}, {el("a", 2, 6), 1}, {el("b", 3, 7), 0}, {el("c", 4, 8), 1},
		}},
		{"intersect", func() statefulOp { return NewIntersect("op", nil) }, []feedStep{
			{el(1, 1, 9), 0}, {el(1, 2, 6), 1}, {el(2, 3, 7), 0}, {el(3, 4, 8), 1},
		}},
		{"union", func() statefulOp { return NewUnion("op", 2) }, []feedStep{
			{el(tup(1, "x"), 1, 5), 0}, {el(2, 3, 6), 1}, {el([]any{1, "y"}, 4, 7), 0},
		}},
		{"countwindow", func() statefulOp { return NewCountWindow("op", 3) }, []feedStep{
			{el(tup(1, 0.5), 1, 1), 0}, {el(uint64(7), 2, 2), 0}, {el("z", 3, 3), 0}, {el(false, 4, 4), 0},
		}},
		{"partitionedwindow", func() statefulOp { return NewPartitionedWindow("op", tupKey, 2) }, []feedStep{
			{el(tup(1, 1), 1, 1), 0}, {el(tup(2, 2), 2, 2), 0}, {el(tup(1, 3), 3, 3), 0}, {el(tup(1, 4), 4, 4), 0},
		}},
		{"coalesce", func() statefulOp { return NewCoalesce("op", tupKey) }, []feedStep{
			{el(tup(1, 2.5), 1, 10), 0}, {el(tup(2, "b"), 2, 3), 0}, {el(tup(2, nil), 5, 7), 0}, {el(tup(1, true), 6, 12), 0},
		}},
		{"distinct", func() statefulOp { return NewDistinct("op") }, []feedStep{
			{el(1, 1, 10), 0}, {el("x", 2, 3), 0}, {el("x", 5, 7), 0}, {el(2.5, 6, 8), 0},
		}},
		{"dstream", func() statefulOp { return NewDStream("op") }, []feedStep{
			{el(tup(1, "a"), 1, 20), 0}, {el("b", 2, 5), 0}, {el(int64(-4), 3, temporal.MaxTime), 0}, {el(false, 3, 9), 0},
		}},
		{"sample", func() statefulOp { return NewSample("op", 3) }, []feedStep{
			{el(tup(1, 0.5), 1, 10), 0}, {el("s", 2, 4), 0}, {el(uint64(7), 5, 9), 0},
		}},
		{"split", func() statefulOp { return NewSplit("op", 4) }, []feedStep{
			{el(tup(1, "y"), 1, 10), 0}, {el(3, 2, 3), 0}, {el(nil, 2, 6), 0},
		}},
		{"sequencer", func() statefulOp { return NewSequencer("op", 3) }, []feedStep{
			{el(tup(1, "q"), 5, 8), 0}, {el(-1.5, 9, 12), 0}, {el("late", 4, 6), 0}, {el(int64(2), 7, 9), 0},
		}},
		// The tie cases repeat Start and End values over more elements, so
		// their heaps hold equal keys whose array order is not sorted order:
		// the bytes pin the heaps' tie order, which checkpoints write.
		{"difference_ties", func() statefulOp { return NewDifference("op", nil) }, append(
			[]feedStep{{el("held", 0, 90), 0}}, tieFeed(2, func(i int) any { return i % 5 })...)},
		{"sample_ties", func() statefulOp { return NewSample("op", 4) }, tieFeed(1, func(i int) any { return i })},
		{"union_ties", func() statefulOp { return NewUnion("op", 2) }, append(tieFeed(1, func(i int) any { return tup(i%3, i) }),
			feedStep{el(tup(3, "late"), 1, 21), 1}, feedStep{el(tup(4, nil), 1, 23), 1})},
		{"groupby_ties", func() statefulOp { return NewGroupBy("op", tupKey, aggregate.NewCount, nil) }, append(
			[]feedStep{{el(tup(0, "held"), 0, 90), 0}}, tieFeed(1, func(i int) any { return tup(1+(i*i)%5, i) })...)},
		// Three values, each span extended by four or five later arrivals,
		// two spans ending at 27: the arrival at 40 finalises all three,
		// equal-Start spans the open "held" span keeps in the order buffer.
		{"distinct_ties", func() statefulOp { return NewDistinct("op") }, append(append(
			[]feedStep{{el("held", 0, 90), 0}}, tieFeed(1, func(i int) any { return i % 3 })...),
			feedStep{el("x", 40, 50), 0}, feedStep{el(0, 41, 45), 0}, feedStep{el(1, 41, 45), 0})},
		// The "held" partition's one element holds back every displaced
		// element; those of one run of Starts tie in the order buffer.
		{"partitionedwindow_ties", func() statefulOp { return NewPartitionedWindow("op", tupKey, 2) }, append(
			[]feedStep{{el(tup(9, "held"), 0, 0), 0}}, tieFeed(1, func(i int) any { return tup(i%3, i) })...)},
	}
}

// tieFeed is 16 elements over the given inputs, their Starts in
// non-decreasing runs of three and their Ends out of order among four
// values, each valued by v(i).
func tieFeed(inputs int, v func(i int) any) []feedStep {
	feed := make([]feedStep, 16)
	for i := range feed {
		start := temporal.Time(1 + i/3)
		feed[i] = feedStep{el(v(i), start, start+temporal.Time(20+(i*7)%4)), i % inputs}
	}
	return feed
}

// FuzzLoadState feeds each stateful operator's LoadState with mutations of
// a real snapshot of it. Recovery reads state from disk behind checksums,
// but the codec's contract is stronger: a corrupt state loads or returns
// an error, never panics, and a state that loads encodes again.
func FuzzLoadState(f *testing.F) {
	cases := stateCases()
	for i, c := range cases {
		f.Add(uint8(i), c.snapshot(f))
	}
	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		op := cases[int(which)%len(cases)].make()
		if err := op.LoadState(state); err != nil {
			return
		}
		snapshotBytes(t, op)
	})
}

// Every operator's snapshot loads into a fresh operator that encodes the
// same bytes, and every truncation of it, and the snapshot with a byte
// left over, is an error.
func TestStateLoadRejectsTruncation(t *testing.T) {
	for _, c := range stateCases() {
		state := c.snapshot(t)
		op := c.make()
		if err := op.LoadState(state); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again := snapshotBytes(t, op); !bytes.Equal(again, state) {
			t.Fatalf("%s: a loaded state encodes differently", c.name)
		}
		for cut := 0; cut < len(state); cut++ {
			if err := c.make().LoadState(state[:cut]); err == nil {
				t.Fatalf("%s: state cut at %d of %d bytes loaded", c.name, cut, len(state))
			}
		}
		if err := c.make().LoadState(append(state, 0)); err == nil {
			t.Fatalf("%s: state with a byte left over loaded", c.name)
		}
	}
}

// TestStateEncodingGolden pins the bytes of small states. Recovery
// loads a checkpoint into whatever operator now bears its name, so a
// change to these bytes is a change to what older checkpoints mean.
func TestStateEncodingGolden(t *testing.T) {
	golden := map[string]string{
		"groupby":           "0202020a011002016b020201760208060e02060c011002016b02060176038080808080400c1200010c",
		"join":              "011002016b020201760500000000000004400214021002016b0202017606016204141002016b02040176000610011002016b020201760101081200000106",
		"countwindow":       "030407040406017a060601000808",
		"coalesce":          "021002016b0202017605000000000000044002181002016b02040176000a0e011002016b020401760601620406010c",
		"distinct":          "03020202140500000000000004400c100601780a0e010601780406010c",
		"dstream":           "030601620a0c1002016b02020176060161282a010012140106",
		"sample":            "010c0306017304081002016b0202017605000000000000e03f021404070a12",
		"split":             "0300080c1002016b0202017606017910141002016b0202017606017908100104",
		"mjoin":             "0301020202140102020414000102040812000102020614000104",
		"difference":        "02060161060161020204060162060162020006030c0601610112060161000e0601620000010601630810000106",
		"intersect":         "020202020202020402040204020006030c020201120202000e020400000102060810000106",
		"union":             "0107020202060179080e00000106",
		"partitionedwindow": "020202021002016b02020176020606061002016b02020176020808080204011002016b0204017602040404000108",
		"sequencer":         "010a0203040e1205000000000000f8bf12180112",
		"difference_ties":   "0602000200040208020202020204080204020404020a020602060202060208020804020a060468656c64060468656c640200000f2a0200002c0208002e0204002e020600300202012e02060132020001b401060468656c640032020200300204013402000036020801320202013202040036020800000202060a3802000c3603020002040204020602080408010a",
		"sample_ties":       "0110100200022a0208042c0204022e0210062e0206042e020a0432020c0632020e06300202023002120836021408340216083202180a32021a0a38021c0a36021e0c36",
		"union_ties":        "0d1002016b020001760206042e1002016b020201760208042c1002016b02040176020a04321002016b02000176020c06321002016b02020176020e06301002016b020401760210062e1002016b02000176021208361002016b02020176021408341002016b02040176021608321002016b0200017602180a321002016b02020176021a0a381002016b02040176021c0a361002016b02000176021e0c3600000102",
		"groupby_ties":      "04020000011002016b02000176060468656c6400b40102020c041002016b020201760200022a1002016b02020176020a04321002016b02020176021408341002016b02020176021e0c3602040a061002016b02040176020202301002016b020401760208042c1002016b02040176020c06321002016b02040176021608321002016b02040176021208361002016b02040176021c0a36020a0a061002016b020a01760204022e1002016b020a01760206042e1002016b020a01760210062e1002016b020a0176020e06301002016b020a017602180a321002016b020a0176021a0a380a12020a0302020412020403020204120202030202041202040304040612020a03040406120204030606081202020304040812020a0308060a120204030a080a1202020306080c010c",

		// The tie cases of the keyed tables: the order buffer holds
		// equal-Start results that the tables' flushes and end heaps add.
		"distinct_ties":          "040200525a0202525a060468656c6400b4010601785064030204023602000236020202380152",
		"partitionedwindow_ties": "040200021002016b0200017602180a321002016b02000176021e0c360202021002016b02020176021408341002016b02020176021a0a380204021002016b02040176021608321002016b02040176021c0a360212011002016b02120176060468656c6400000a1002016b02000176020002061002016b02020176020202061002016b02040176020402061002016b02000176020604081002016b02020176020804081002016b02040176020a04081002016b02000176020c060a1002016b02020176020e060a1002016b020401760210060a1002016b020001760212080c010c",
	}
	for _, c := range stateCases() {
		want, ok := golden[c.name]
		if !ok {
			continue
		}
		if got := hex.EncodeToString(c.snapshot(t)); got != want {
			t.Errorf("%s state encodes as\n\t%s\nwant\n\t%s\nThe state format changed: bump ft.StateVersion (internal/ft/store.go), so stores written in the old format are refused, then update these bytes.", c.name, got, want)
		}
	}
}

// A key no map can hold — here a slice, which a flipped tag byte turns an
// int key into — is an error, not a panic.
func TestStateLoadRejectsUnhashableKey(t *testing.T) {
	state := []byte{1}                           // one group
	state, _ = wire.AppendValue(state, []any{1}) // its key
	state = append(state, 0, 0)                  // left boundary, no live elements
	state = append(state, 0, 1, 0)               // no pending output, one watermark
	g := NewGroupBy("g", tupKey, aggregate.NewCount, nil)
	if err := g.LoadState(state); err == nil {
		t.Fatal("a group keyed by a slice loaded")
	}
}
