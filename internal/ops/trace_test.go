package ops

import (
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

// These are regression tests for the trace-slot drops pipesvet:traceslot
// uncovered: every operator that constructs fresh elements must propagate
// the telemetry trace of (one of) its inputs so a sampled span survives
// the rewrite. Each test feeds one traced element through the operator
// and asserts the trace pointer reappears on a derived output.

// traced tags e with a fresh trace and returns both.
func traced(e temporal.Element) (temporal.Element, *telemetry.Trace) {
	tr := &telemetry.Trace{ID: 1}
	return telemetry.Attach(e, tr), tr
}

// findTrace returns the elements among out carrying tr.
func findTrace(out []temporal.Element, tr *telemetry.Trace) []temporal.Element {
	var hits []temporal.Element
	for _, e := range out {
		if telemetry.FromElement(e) == tr {
			hits = append(hits, e)
		}
	}
	return hits
}

func TestMapPropagatesTrace(t *testing.T) {
	in, tr := traced(el(3, 0, 10))
	out := runSingle(NewMap("m", func(v any) any { return v.(int) * 2 }), []temporal.Element{in})
	if hits := findTrace(out, tr); len(hits) != 1 || hits[0].Value != 6 {
		t.Fatalf("map dropped trace: out=%v", out)
	}
}

func TestWindowsPropagateTrace(t *testing.T) {
	cases := []struct {
		name string
		mk   func() frameOp
	}{
		{"time", func() frameOp { return NewTimeWindow("w", 100) }},
		{"unbounded", func() frameOp { return NewUnboundedWindow("w") }},
		{"now", func() frameOp { return NewNowWindow("w") }},
		{"tumbling", func() frameOp { return NewTumblingWindow("w", 100) }},
		{"partitioned", func() frameOp {
			return NewPartitionedWindow("w", func(v any) any { return v }, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, tr := traced(el("x", 5, 6))
			out := runSingle(tc.mk(), []temporal.Element{in, el("y", 9, 10)})
			if len(findTrace(out, tr)) == 0 {
				t.Fatalf("%s window dropped trace: out=%v", tc.name, out)
			}
		})
	}
}

func TestCountWindowPropagatesTrace(t *testing.T) {
	in, tr := traced(el("a", 0, 1))
	out := runSingle(NewCountWindow("w", 1), []temporal.Element{in, el("b", 5, 6)})
	if len(findTrace(out, tr)) == 0 {
		t.Fatalf("count window dropped trace: out=%v", out)
	}
}

func TestSplitPropagatesTrace(t *testing.T) {
	in, tr := traced(el("a", 0, 20))
	out := runSingle(NewSplit("s", 10), []temporal.Element{in})
	if hits := findTrace(out, tr); len(hits) != 2 {
		t.Fatalf("split dropped trace on granules: out=%v", out)
	}
}

func TestStreamOpsPropagateTrace(t *testing.T) {
	in, tr := traced(el("a", 3, 8))
	out := runSingle(NewIStream("is"), []temporal.Element{in})
	if len(findTrace(out, tr)) != 1 {
		t.Fatalf("istream dropped trace: out=%v", out)
	}
	in, tr = traced(el("a", 3, 8))
	out = runSingle(NewDStream("ds"), []temporal.Element{in})
	if len(findTrace(out, tr)) != 1 {
		t.Fatalf("dstream dropped trace: out=%v", out)
	}
}

func TestJoinPropagatesTrace(t *testing.T) {
	key := func(v any) any { return v }
	j := NewEquiJoin("j", key, key, func(l, r any) any { return [2]any{l, r} })
	left, tr := traced(el(1, 0, 10))
	out := runMerged(j, []temporal.Element{left}, []temporal.Element{el(1, 2, 8)})
	if len(findTrace(out, tr)) != 1 {
		t.Fatalf("join dropped trace: out=%v", out)
	}
}

func TestMJoinPropagatesTrace(t *testing.T) {
	m := NewMJoin("mj", 2, func(v any) any { return v })
	// Untraced build side first, then the traced probe: the output tuple
	// must carry the probe's trace.
	probe, tr := traced(el(1, 2, 8))
	out := runMerged(m, []temporal.Element{el(1, 0, 10)}, []temporal.Element{probe})
	if len(findTrace(out, tr)) != 1 {
		t.Fatalf("mjoin dropped trace: out=%v", out)
	}
}

func TestGroupByPropagatesTrace(t *testing.T) {
	g := NewAggregate("agg", aggregate.NewSum)
	in, tr := traced(el(2.0, 0, 10))
	out := runSingle(g, []temporal.Element{in})
	if len(findTrace(out, tr)) == 0 {
		t.Fatalf("groupby dropped trace: out=%v", out)
	}
}

func TestDifferencePropagatesTrace(t *testing.T) {
	d := NewDifference("diff", nil)
	in, tr := traced(el("k", 0, 10))
	out := runSequential(d, []temporal.Element{in}, nil)
	if len(findTrace(out, tr)) == 0 {
		t.Fatalf("difference dropped trace: out=%v", out)
	}
}

func TestIntersectPropagatesTrace(t *testing.T) {
	in := NewIntersect("isect", nil)
	l, tr := traced(el("k", 0, 10))
	out := runMerged(in, []temporal.Element{l}, []temporal.Element{el("k", 2, 8)})
	if len(findTrace(out, tr)) == 0 {
		t.Fatalf("intersect dropped trace: out=%v", out)
	}
}
