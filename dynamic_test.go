package pipes

import (
	"slices"
	"testing"

	"pipes/internal/nexmark"
	"pipes/internal/planio"
)

func TestDeregisterQueryReleasesOperators(t *testing.T) {
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 8, MaxEvents: 100}, nil)
	dsms := NewDSMS(Config{MemoryBudget: 1 << 20})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)

	q1, err := dsms.RegisterQuery(`SELECT bids.price FROM bids [RANGE 60000], asks [RANGE 60000]
		WHERE bids.auction = asks.auction`)
	if err == nil {
		t.Fatal("expected unknown-stream error") // asks not registered
	}
	_ = q1

	qa, err := dsms.RegisterQuery(`SELECT auction, price FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := dsms.RegisterQuery(`SELECT auction FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	full := dsms.Optimizer.OperatorCount()
	if err := dsms.DeregisterQuery(qa); err != nil {
		t.Fatal(err)
	}
	if got := dsms.Optimizer.OperatorCount(); got >= full {
		t.Fatalf("operator count did not shrink: %d of %d", got, full)
	}
	if len(dsms.Queries()) != 1 {
		t.Fatalf("query registry holds %d queries", len(dsms.Queries()))
	}
	// The surviving query still works.
	col := NewCollector("col", 1)
	qb.Subscribe(col)
	dsms.Start()
	dsms.Wait()
	col.Wait()

	if err := dsms.DeregisterQuery(qa); err == nil {
		t.Fatal("double deregistration accepted")
	}
}

func TestDeregisterForeignQueryRejected(t *testing.T) {
	d1 := NewDSMS(Config{})
	d2 := NewDSMS(Config{})
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 9, MaxEvents: 10}, nil)
	d1.RegisterStream("bids", gen.BidSource("bids"), 10)
	q, err := d1.RegisterQuery("SELECT auction FROM bids [NOW]")
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.DeregisterQuery(q); err == nil {
		t.Fatal("foreign query accepted")
	}
	if err := d2.DeregisterQuery(nil); err == nil {
		t.Fatal("nil query accepted")
	}
}

func TestRegisterPlanFromXMLRoundTrip(t *testing.T) {
	// Fig. 2 workflow: author a query, save the plan as XML, load it into
	// a fresh engine and run it.
	parsed, err := ParseCQL(`SELECT auction FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromQuery(parsed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := planio.Encode(plan)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := planio.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	gen := nexmark.NewGenerator(nexmark.Config{Seed: 10, MaxEvents: 3000}, nil)
	dsms := NewDSMS(Config{})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)
	q, err := dsms.RegisterPlan(loaded)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("col", 1)
	q.Subscribe(col)
	dsms.Start()
	dsms.Wait()
	col.Wait()
	if col.Len() == 0 {
		t.Fatal("loaded plan produced nothing")
	}
	for _, v := range col.Values() {
		if _, ok := v.(Tuple).Get("auction"); !ok {
			t.Fatalf("bad result %v", v)
		}
	}
}

// TestRegisterPlanSubscribesMemory pins that both registration paths give
// a stateful operator the same memory-manager wiring: the join built
// through PlanFromQuery + RegisterPlan holds one subscription, as through
// RegisterQuery, so a loaded plan can be shed and its deregistration
// releases the state.
func TestRegisterPlanSubscribesMemory(t *testing.T) {
	const text = `SELECT * FROM a [RANGE 10], b [RANGE 10] WHERE a.k = b.k`
	register := map[string]func(*DSMS) (*Query, error){
		"RegisterQuery": func(d *DSMS) (*Query, error) { return d.RegisterQuery(text) },
		"RegisterPlan": func(d *DSMS) (*Query, error) {
			parsed, err := ParseCQL(text)
			if err != nil {
				return nil, err
			}
			plan, err := PlanFromQuery(parsed)
			if err != nil {
				return nil, err
			}
			return d.RegisterPlan(plan)
		},
	}
	for name, reg := range register {
		t.Run(name, func(t *testing.T) {
			dsms := NewDSMS(Config{MemoryBudget: 1 << 20})
			dsms.RegisterStream("a", NewSliceSource("a", nil), 10)
			dsms.RegisterStream("b", NewSliceSource("b", nil), 10)
			q, err := reg(dsms)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(dsms.Memory.Stats().Subs); got != 1 {
				t.Fatalf("join holds %d memory subscriptions, want 1", got)
			}
			if err := dsms.DeregisterQuery(q); err != nil {
				t.Fatal(err)
			}
			if got := len(dsms.Memory.Stats().Subs); got != 0 {
				t.Fatalf("%d memory subscriptions left after DeregisterQuery, want 0", got)
			}
		})
	}
}

// TestFailedRegistrationLeavesGraphUntouched registers a join whose left
// window is built before the right stream turns out to be unknown: the
// failed registration leaves no operator registered and nothing
// subscribed to the live stream, and hands back the operator names it
// drew, so the next query is named as on an engine that never saw it.
func TestFailedRegistrationLeavesGraphUntouched(t *testing.T) {
	const next = `SELECT * FROM a [RANGE 10]`
	names := func(d *DSMS) []string {
		q, err := d.RegisterQuery(next)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range q.Instance.Created {
			out = append(out, p.Name())
		}
		return out
	}
	dsms := NewDSMS(Config{})
	a := NewSliceSource("a", nil)
	dsms.RegisterStream("a", a, 10)
	ops, subs := dsms.Optimizer.OperatorCount(), len(a.Subscriptions())
	if _, err := dsms.RegisterQuery(`SELECT * FROM a [RANGE 10] AS x, nosuch [RANGE 10] AS y WHERE x.k = y.k`); err == nil {
		t.Fatal("a query over an unknown stream registered")
	}
	if got := dsms.Optimizer.OperatorCount(); got != ops {
		t.Fatalf("failed registration left operators: %d -> %d", ops, got)
	}
	if got := len(a.Subscriptions()); got != subs {
		t.Fatalf("failed registration left subscriptions on a: %d -> %d", subs, got)
	}

	fresh := NewDSMS(Config{})
	fresh.RegisterStream("a", NewSliceSource("a", nil), 10)
	if got, want := names(dsms), names(fresh); !slices.Equal(got, want) {
		t.Fatalf("operators after a failed registration are named %v, want %v", got, want)
	}
}

// TestSharedJoinStaysBudgeted registers one join twice: the second
// query shares the first one's operators, so the join stays under the
// memory manager until the last query using it leaves.
func TestSharedJoinStaysBudgeted(t *testing.T) {
	const text = `SELECT * FROM a [RANGE 10], b [RANGE 10] WHERE a.k = b.k`
	dsms := NewDSMS(Config{MemoryBudget: 1 << 20})
	dsms.RegisterStream("a", NewSliceSource("a", nil), 10)
	dsms.RegisterStream("b", NewSliceSource("b", nil), 10)
	q1, err := dsms.RegisterQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := dsms.RegisterQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsms.DeregisterQuery(q1); err != nil {
		t.Fatal(err)
	}
	if got := len(dsms.Memory.Stats().Subs); got != 1 {
		t.Fatalf("%d memory subscriptions while %d operators still run, want 1",
			got, dsms.Optimizer.OperatorCount())
	}
	if err := dsms.DeregisterQuery(q2); err != nil {
		t.Fatal(err)
	}
	if got := len(dsms.Memory.Stats().Subs); got != 0 {
		t.Fatalf("%d memory subscriptions after the last query left, want 0", got)
	}
}
