package pipes

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"pipes/internal/nexmark"
	"pipes/internal/traffic"
)

func TestEndToEndTrafficDSMS(t *testing.T) {
	// Experiment E1: the full prototype engine on the traffic scenario —
	// scheduler-driven source, optimizer-instantiated query, memory
	// manager attached, metadata monitoring on.
	gen := traffic.NewGenerator(traffic.Config{Seed: 1, MaxReadings: 20000})
	dsms := NewDSMS(Config{Workers: 2, MonitorQueries: true, MemoryBudget: 64 << 20})
	dsms.RegisterStream("traffic", gen.Source("traffic"), 1000)

	q, err := dsms.RegisterQuery(traffic.QueryAvgHOVSpeed)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("out", 1)
	if err := q.Subscribe(col); err != nil {
		t.Fatal(err)
	}
	dsms.Start()
	dsms.Wait()
	col.Wait()

	if col.Len() == 0 {
		t.Fatal("no results from HOV query")
	}
	for _, v := range col.Values() {
		avg, ok := v.(Tuple).Get("avghov")
		if !ok {
			t.Fatalf("missing avghov in %v", v)
		}
		if f := avg.(float64); f < 3 || f > 120 {
			t.Fatalf("implausible average %v", f)
		}
	}
	if len(dsms.Monitors()) == 0 {
		t.Fatal("MonitorQueries produced no monitors")
	}
	if exp := dsms.Explain(); !strings.Contains(exp, "traffic") {
		t.Fatalf("Explain missing stream:\n%s", exp)
	}
}

func TestEndToEndAuctionDSMS(t *testing.T) {
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 2, MaxEvents: 20000}, nil)
	dsms := NewDSMS(Config{Workers: 1})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)

	q, err := dsms.RegisterQuery(nexmark.QueryHighestBid)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("out", 1)
	q.Subscribe(col)
	dsms.Start()
	dsms.Wait()
	col.Wait()
	if col.Len() == 0 {
		t.Fatal("no tumbling-window maxima")
	}
}

func TestEndToEndMultiQuerySharing(t *testing.T) {
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 3, MaxEvents: 5000}, nil)
	dsms := NewDSMS(Config{})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)

	q1, err := dsms.RegisterQuery(`SELECT auction, price FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := dsms.RegisterQuery(`SELECT auction, price FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Instance.NewNodes != 0 {
		t.Fatalf("identical second query created %d nodes", q2.Instance.NewNodes)
	}
	c1, c2 := NewCollector("c1", 1), NewCollector("c2", 1)
	q1.Subscribe(c1)
	q2.Subscribe(c2)
	dsms.Start()
	dsms.Wait()
	c1.Wait()
	c2.Wait()
	if c1.Len() != c2.Len() {
		t.Fatalf("shared queries disagree: %d vs %d", c1.Len(), c2.Len())
	}
	if len(dsms.Queries()) != 2 {
		t.Fatal("query registry wrong")
	}
}

func TestQueryUnsubscribe(t *testing.T) {
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 4, MaxEvents: 100}, nil)
	dsms := NewDSMS(Config{})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)
	q, err := dsms.RegisterQuery(`SELECT auction FROM bids [NOW]`)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("c", 1)
	if err := q.Subscribe(col); err != nil {
		t.Fatal(err)
	}
	if err := q.Unsubscribe(col); err != nil {
		t.Fatal(err)
	}
	dsms.Start()
	dsms.Wait()
	if col.Len() != 0 {
		t.Fatalf("unsubscribed sink received %d elements", col.Len())
	}
}

func TestRegisterQueryParseError(t *testing.T) {
	dsms := NewDSMS(Config{})
	if _, err := dsms.RegisterQuery("SELEKT broken"); err == nil {
		t.Fatal("bad CQL accepted")
	}
}

func TestRegisterQueryUnknownStream(t *testing.T) {
	dsms := NewDSMS(Config{})
	if _, err := dsms.RegisterQuery("SELECT * FROM ghosts [RANGE 1]"); err == nil {
		t.Fatal("unknown stream accepted")
	}
}

func TestNativeOperatorAPI(t *testing.T) {
	// The algebra is usable without CQL: build a plan by hand through the
	// facade.
	src := NewSliceSource("src", []Element{
		At(10, 0), At(25, 1), At(7, 2), At(31, 3),
	})
	f := NewFilter("big", func(v any) bool { return v.(int) > 8 })
	w := NewTimeWindow("w", 100)
	agg := NewAggregate("cnt", NewCount)
	col := NewCollector("out", 1)
	Connect(src, f, w, agg).Subscribe(col, 0)
	Drive(src)
	col.Wait()
	vals := col.Values()
	if len(vals) == 0 {
		t.Fatal("no aggregate spans")
	}
	// All three passing elements are alive together inside the window, so
	// some span must count 3; the tail spans drop back to 1.
	peak := int64(0)
	for _, v := range vals {
		if c := v.(int64); c > peak {
			peak = c
		}
	}
	if peak != 3 {
		t.Fatalf("peak count = %v, want 3 (spans %v)", peak, vals)
	}
}

func TestStopAbortsEngine(t *testing.T) {
	i := 0
	inf := NewFuncSource("inf", func() (Element, bool) {
		i++
		return At(i, Time(i)), true
	})
	dsms := NewDSMS(Config{})
	dsms.RegisterStream("s", inf, 1000)
	ctr := NewCounter("ctr", 1)
	inf.Subscribe(ctr, 0)
	dsms.Start()
	dsms.Stop() // must not hang
	if ctr.Count() < 0 {
		t.Fatal("impossible")
	}
}

func TestMemoryManagedJoinQuery(t *testing.T) {
	// A join query under a tight budget must stay bounded (load shedding
	// active) and still produce results.
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 5, MaxEvents: 20000}, nil)
	dsms := NewDSMS(Config{MemoryBudget: 64 * 200})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)
	gen2 := nexmark.NewGenerator(nexmark.Config{Seed: 6, MaxEvents: 20000}, nil)
	dsms.RegisterStream("asks", gen2.BidSource("asks"), 1000)

	q, err := dsms.RegisterQuery(`SELECT bids.price FROM bids [RANGE 600000], asks [RANGE 600000]
		WHERE bids.auction = asks.auction`)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCounter("out", 1)
	q.Subscribe(col)
	dsms.Start()
	dsms.Wait()
	if use := dsms.Memory.TotalUsage(); use > 64*200*4 {
		t.Fatalf("memory after final step: %d", use)
	}
}

// A memory budget is enforced while the engine runs, not only when Wait
// returns: a join over two channel streams that are still open sheds state,
// and Stop ends the manager's cycle along with everything else.
func TestMemoryBudgetEnforcedWhileRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 200
	dsms := NewDSMS(Config{MemoryBudget: 64 * 20})
	a, b := make(chan Element, n), make(chan Element, n)
	dsms.RegisterStream("a", NewChanSource("a", a), 1000)
	dsms.RegisterStream("b", NewChanSource("b", b), 1000)
	q, err := dsms.RegisterQuery(`SELECT a.k FROM a [RANGE 1000000], b [RANGE 1000000] WHERE a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Subscribe(NewCounter("out", 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a <- At(Tuple{"k": i % 7}, Time(i))
		b <- At(Tuple{"k": i % 7}, Time(i))
	}
	dsms.Start()
	shed := func() (events int64) {
		for _, s := range dsms.Memory.Stats().Subs {
			events += s.ShedEvents
		}
		return events
	}
	for deadline := time.Now().Add(5 * time.Second); shed() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no shed in 5 s with both streams open: %+v", dsms.Memory.Stats())
		}
	}
	dsms.Stop()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the engine", runtime.NumGoroutine(), base)
		}
	}
}

// The running memory cycle sheds nothing under a budget the state never
// nears: a join over two live channel streams, fed while the cycle runs,
// keeps every pair it should emit.
func TestGenerousBudgetShedsNothingWhileRunning(t *testing.T) {
	const n, keys = 400, 7
	dsms := NewDSMS(Config{MemoryBudget: 64 << 20})
	a, b := make(chan Element), make(chan Element)
	dsms.RegisterStream("a", NewChanSource("a", a), 1000)
	dsms.RegisterStream("b", NewChanSource("b", b), 1000)
	q, err := dsms.RegisterQuery(`SELECT a.k FROM a [RANGE 1000000], b [RANGE 1000000] WHERE a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	out := NewCounter("out", 1)
	if err := q.Subscribe(out); err != nil {
		t.Fatal(err)
	}
	dsms.Start()
	for i := 0; i < n; i++ {
		a <- At(Tuple{"k": i % keys}, Time(i))
		b <- At(Tuple{"k": i % keys}, Time(i))
		if i%40 == 0 {
			time.Sleep(2 * memoryPeriod) // let the cycle see the join grow
		}
	}
	close(a)
	close(b)
	dsms.Wait()
	out.Wait()
	for _, s := range dsms.Memory.Stats().Subs {
		if s.ShedEvents != 0 {
			t.Fatalf("%s shed %d times (%d B) under a 64 MiB budget", s.Name, s.ShedEvents, s.ShedBytes)
		}
	}
	// Every a/b pair with equal keys: the windows outlast the input.
	want := int64(0)
	for k := 0; k < keys; k++ {
		c := int64((n - k + keys - 1) / keys)
		want += c * c
	}
	if got := out.Count(); got != want {
		t.Fatalf("join emitted %d results, want %d", got, want)
	}
}

// An idle channel stream costs the scheduler nothing: its source runs on a
// thread of its own, so no worker polls it, and Stop leaves no goroutine
// behind.
func TestIdleChanStreamCostsNoBatches(t *testing.T) {
	base := runtime.NumGoroutine()
	dsms := NewDSMS(Config{Workers: 2})
	dsms.RegisterStream("s", NewChanSource("s", make(chan Element)), 1000)
	q, err := dsms.RegisterQuery(`SELECT a FROM s [NOW]`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Subscribe(NewCounter("out", 1)); err != nil {
		t.Fatal(err)
	}
	dsms.Start()
	time.Sleep(100 * time.Millisecond)
	if got := dsms.Scheduler.Contention().Batches; got != 0 {
		t.Fatalf("%d scheduler batches over 100 ms of an idle channel stream, want 0", got)
	}
	dsms.Stop()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the engine", runtime.NumGoroutine(), base)
		}
	}
}
