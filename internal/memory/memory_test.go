package memory

import (
	"testing"
	"time"

	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// fakeUser is a controllable memory user.
type fakeUser struct {
	name  string
	usage int
}

func (f *fakeUser) Name() string     { return f.name }
func (f *fakeUser) MemoryUsage() int { return f.usage }

func (f *fakeUser) ShedBytes(n int) int {
	if n > f.usage {
		n = f.usage
	}
	f.usage -= n
	return n
}

func TestEnforceShedsExcess(t *testing.T) {
	m := NewManager(1000)
	u := &fakeUser{name: "join", usage: 1500}
	m.Subscribe(u, DropState(), 1)
	m.Redistribute()
	freed := m.Enforce()
	if freed == 0 {
		t.Fatal("nothing shed despite over-budget usage")
	}
	if u.usage > 1000 {
		t.Fatalf("usage %d still above global budget", u.usage)
	}
}

// blockUser is a fakeUser carrying a flight block, as every operator of a
// recorded graph does.
type blockUser struct {
	fakeUser
	ref *flight.OpRef
}

func (b *blockUser) FlightRef() *flight.OpRef { return b.ref }

// A shed is recorded on the block the operator carries, so one that lands
// after the recorder forgot the operator does not put its name back into
// Refs (and the scrape).
func TestShedAfterForgetStaysForgotten(t *testing.T) {
	rec := flight.New(0)
	u := &blockUser{fakeUser: fakeUser{name: "join", usage: 1500}, ref: rec.Ref("join")}
	m := NewManager(1000)
	m.Subscribe(u, DropState(), 1)
	rec.Forget("join")
	if m.Step() == 0 {
		t.Fatal("nothing shed despite over-budget usage")
	}
	if refs := rec.Refs(); len(refs) != 0 {
		t.Fatalf("the shed put %d block(s) back into Refs, first %q", len(refs), refs[0].Name())
	}
	sheds := 0
	for _, ev := range rec.Events() {
		if ev.Kind == flight.KindShed && ev.Op == "join" {
			sheds++
		}
	}
	if sheds != 1 {
		t.Fatalf("%d shed events on the join's block, want 1", sheds)
	}
}

func TestWeightedShares(t *testing.T) {
	m := NewManager(3000)
	heavy := &fakeUser{name: "heavy", usage: 5000}
	light := &fakeUser{name: "light", usage: 5000}
	sh := m.Subscribe(heavy, DropState(), 2)
	sl := m.Subscribe(light, DropState(), 1)
	m.Redistribute()
	if sh.Limit() <= sl.Limit() {
		t.Fatalf("weighted limits: heavy %d <= light %d", sh.Limit(), sl.Limit())
	}
}

func TestAdaptiveRedistributionFollowsDemand(t *testing.T) {
	m := NewManager(1000)
	idle := &fakeUser{name: "idle", usage: 10}
	busy := &fakeUser{name: "busy", usage: 2000}
	si := m.Subscribe(idle, DropState(), 1)
	sb := m.Subscribe(busy, DropState(), 1)
	m.Redistribute()
	// The idle user's unused share must flow to the busy one.
	if sb.Limit() <= 500 {
		t.Fatalf("busy limit %d did not absorb idle surplus", sb.Limit())
	}
	if si.Limit() >= 500 {
		t.Fatalf("idle limit %d kept its full share despite no demand", si.Limit())
	}
}

func TestUnlimitedBudget(t *testing.T) {
	m := NewManager(0)
	u := &fakeUser{name: "u", usage: 1 << 30}
	m.Subscribe(u, DropState(), 1)
	m.Redistribute()
	if freed := m.Enforce(); freed != 0 {
		t.Fatalf("unlimited manager shed %d bytes", freed)
	}
}

func TestUnsubscribeRestoresBudget(t *testing.T) {
	m := NewManager(1000)
	a := &fakeUser{name: "a", usage: 2000}
	b := &fakeUser{name: "b", usage: 2000}
	sa := m.Subscribe(a, DropState(), 1)
	m.Subscribe(b, DropState(), 1)
	m.Redistribute()
	half := sa.Limit()
	m.Unsubscribe(b)
	m.Redistribute()
	if sa.Limit() <= half {
		t.Fatalf("limit %d did not grow after peer unsubscribed", sa.Limit())
	}
}

func TestSetBudget(t *testing.T) {
	m := NewManager(100)
	u := &fakeUser{name: "u", usage: 1000}
	s := m.Subscribe(u, DropState(), 1)
	m.SetBudget(5000)
	if m.Budget() != 5000 {
		t.Fatal("budget not updated")
	}
	if s.Limit() < 1000 {
		t.Fatalf("limit %d after budget raise", s.Limit())
	}
}

func TestManagerBoundsRealJoin(t *testing.T) {
	// A join over long windows grows without bound; under management its
	// state must stay near the budget (experiment E7's invariant).
	key := func(v any) any { return 0 }
	j := ops.NewEquiJoin("j", key, key, nil)
	col := pubsub.NewCollector("col", 1)
	j.Subscribe(col, 0)

	const budget = 64 * 100 // ~100 entries
	m := NewManager(budget)
	m.Subscribe(j, DropState(), 1)

	for i := 0; i < 3000; i++ {
		ts := temporal.Time(i)
		j.ProcessBatch(temporal.Batch{temporal.NewElement(i, ts, ts+100000)}, i%2)
		if i%50 == 0 {
			m.Step()
		}
	}
	m.Step()
	if use := j.MemoryUsage(); use > budget*2 {
		t.Fatalf("managed join uses %d bytes, budget %d", use, budget)
	}
	report := m.Report()
	if report == "" {
		t.Fatal("empty report")
	}
}

func TestRunLoop(t *testing.T) {
	m := NewManager(100)
	u := &fakeUser{name: "u", usage: 1000}
	m.Subscribe(u, DropState(), 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { m.Run(stop, time.Millisecond); close(done) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	if u.usage > 100 {
		t.Fatalf("run loop did not enforce: usage %d", u.usage)
	}
}

func TestSubscribeValidation(t *testing.T) {
	m := NewManager(10)
	defer func() {
		if recover() == nil {
			t.Fatal("nil user accepted")
		}
	}()
	m.Subscribe(nil, nil, 1)
}

// growingUser outgrows its 2× headroom between any two reads of its
// footprint, as an empty join does when its first frame lands.
type growingUser struct{ fakeUser }

func (g *growingUser) MemoryUsage() int {
	g.usage = 3*g.usage + 64
	return g.usage
}

// A step judges each operator by one reading: an operator that grows
// between redistribution and enforcement is not shed under a budget it is
// nowhere near.
func TestStepReadsUsageOnce(t *testing.T) {
	m := NewManager(1 << 20)
	g := &growingUser{fakeUser{name: "join"}}
	sub := m.Subscribe(g, DropState(), 1)
	for i := 0; i < 5; i++ { // usage stays below 32 KiB

		if freed := m.Step(); freed != 0 {
			t.Fatalf("step %d shed %d bytes at usage %d, budget %d", i, freed, g.usage, m.Budget())
		}
	}
	if sub.ShedEvents() != 0 {
		t.Fatalf("%d shed events under a 1 MiB budget", sub.ShedEvents())
	}
}

func TestTotalUsage(t *testing.T) {
	m := NewManager(1000)
	m.Subscribe(&fakeUser{name: "a", usage: 100}, nil, 1)
	m.Subscribe(&fakeUser{name: "b", usage: 250}, nil, 1)
	if got := m.TotalUsage(); got != 350 {
		t.Fatalf("TotalUsage = %d, want 350", got)
	}
}
