package pipes

import (
	"slices"
	"strings"
	"testing"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/sched"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
	"pipes/internal/traffic"
)

// TestMonitorQueriesAddsNoNodes pins the one-substrate contract at the
// facade: monitoring is a view over blocks the nodes already carry, so the
// graph of a monitored engine is node for node the graph of a bare one —
// same names, same EXPLAIN — while only the monitored one has monitors.
func TestMonitorQueriesAddsNoNodes(t *testing.T) {
	build := func(monitor bool) (names []string, explain string, monitors int) {
		d := NewDSMS(Config{MonitorQueries: monitor})
		t.Cleanup(d.Stop)
		gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: 10})
		d.RegisterStream("traffic", gen.Source("traffic"), 1000)
		for _, text := range []string{traffic.QueryAvgHOVSpeed, traffic.QueryAvgSectionSpeed} {
			if _, err := d.RegisterQuery(text); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range d.Graph.Nodes() {
			names = append(names, n.Name())
		}
		return names, d.Explain(), len(d.Monitors())
	}
	bareNames, bareExplain, bareMonitors := build(false)
	monNames, monExplain, monMonitors := build(true)
	if !slices.Equal(bareNames, monNames) {
		t.Errorf("MonitorQueries changed the graph:\n bare      %v\n monitored %v", bareNames, monNames)
	}
	if bareExplain != monExplain {
		t.Errorf("MonitorQueries changed EXPLAIN:\n--- bare\n%s\n--- monitored\n%s", bareExplain, monExplain)
	}
	if strings.Contains(monExplain, "~") {
		t.Errorf("EXPLAIN names an alias node:\n%s", monExplain)
	}
	if bareMonitors != 0 || monMonitors == 0 {
		t.Errorf("monitors: bare %d (want 0), monitored %d (want every query operator)", bareMonitors, monMonitors)
	}
}

// costlyOp forwards its input unchanged and charges perElem of the
// engine's (fake) clock for every element: an operator whose service time
// is known exactly.
type costlyOp struct {
	pubsub.PipeBase
	clock   *telemetry.FakeClock
	perElem time.Duration
}

func (o *costlyOp) ProcessBatch(b temporal.Batch, _ int) {
	o.ProcMu.Lock()
	defer o.ProcMu.Unlock()
	o.clock.Advance(time.Duration(len(b)) * o.perElem)
	for _, e := range b {
		o.Emit(e)
	}
	o.Flush()
}

// diagnoseCostlyOp runs a fixed arrival process — one 64-element frame
// every 100µs of fake time — through a scheduler boundary into a costlyOp
// feeding a CQL query, and returns the engine's bottleneck report taken
// when the input ends. No wall time is involved: the clock only moves when
// the operator charges it or the driver waits for the next arrival.
func diagnoseCostlyOp(t *testing.T, perElem time.Duration) flight.Report {
	t.Helper()
	const frame, frames, gap = 64, 400, 100 * time.Microsecond
	clock := telemetry.NewFakeClock(time.Unix(1000, 0))
	d := NewDSMS(Config{MonitorQueries: true})
	t.Cleanup(d.Stop)
	d.Flight.SetClock(clock)

	elems := make([]Element, frame*frames)
	for i := range elems {
		elems[i] = At(Tuple{"v": i}, Time(i))
	}
	raw := NewSliceSource("raw", elems)
	d.RegisterStream("raw", raw, 1000)
	costly := &costlyOp{PipeBase: pubsub.NewPipeBase("costly", 1), clock: clock, perElem: perElem}
	boundary, err := sched.Boundary("b.costly", raw, costly, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.RegisterStream("slowed", costly, 1000) // also hands the new nodes their blocks
	Monitor(costly)
	q, err := d.RegisterQuery(`SELECT v FROM slowed WHERE v >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	out := NewCounter("out", 1)
	if err := q.Subscribe(out); err != nil {
		t.Fatal(err)
	}

	next := clock.Now()
	for more := true; more; {
		for more && !clock.Now().Before(next) {
			_, more = raw.EmitBatch(frame)
			next = next.Add(gap)
		}
		if n, _ := boundary.RunBatch(frame); n == 0 {
			clock.Advance(next.Sub(clock.Now())) // idle until the next arrival
		}
	}
	rep := d.Bottleneck()
	for done := false; !done; {
		_, done = boundary.RunBatch(frame)
	}
	out.Wait()
	if got := out.Count(); got != int64(len(elems)) {
		t.Fatalf("query delivered %d of %d elements", got, len(elems))
	}
	return rep
}

// TestBottleneckBlamesInjectedSlowOperator is the injected-ground-truth
// diagnosis: under one arrival process, an operator charging 10µs per
// element (6.4× the arrival budget) must be blamed as backpressured — by
// name, per operator and per query, with its service time read back from
// the views — and the same operator at 1µs per element must not.
func TestBottleneckBlamesInjectedSlowOperator(t *testing.T) {
	diagnosis := func(rep flight.Report) flight.Diagnosis {
		for _, d := range rep.Ops {
			if d.Op == "costly" {
				return d
			}
		}
		t.Fatalf("report does not cover the injected operator: %+v", rep.Ops)
		return flight.Diagnosis{}
	}

	const slowCost = 10 * time.Microsecond
	rep := diagnoseCostlyOp(t, slowCost)
	d := diagnosis(rep)
	if d.Verdict != flight.VerdictBackpressured {
		t.Fatalf("slow operator diagnosed %q (%s), want backpressured", d.Verdict, d.Reason)
	}
	if d.SvcP99NS < slowCost.Nanoseconds()/2 || d.SvcP99NS > 2*slowCost.Nanoseconds() {
		t.Errorf("service p99 = %dns, want the injected %v (to the histogram's 2× resolution)", d.SvcP99NS, slowCost)
	}
	if d.DepthLast <= d.DepthFirst || d.OccMean != 64 {
		t.Errorf("evidence: depth %d→%d, occupancy %.1f; want a rising queue of full frames", d.DepthFirst, d.DepthLast, d.OccMean)
	}
	for _, other := range rep.Ops {
		if other.Op != "costly" && other.Verdict != flight.VerdictOK {
			t.Errorf("innocent operator %q diagnosed %q (%s)", other.Op, other.Verdict, other.Reason)
		}
	}
	if len(rep.Queries) != 1 || rep.Queries[0].Op != "costly" || rep.Queries[0].Verdict != flight.VerdictBackpressured {
		t.Errorf("query blame = %+v, want the injected operator, backpressured", rep.Queries)
	}

	if d := diagnosis(diagnoseCostlyOp(t, time.Microsecond)); d.Verdict != flight.VerdictOK {
		t.Errorf("operator inside its budget diagnosed %q (%s), want ok", d.Verdict, d.Reason)
	}
}
