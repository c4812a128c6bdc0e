package optimizer

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// overlappingQueries is a pool of CQL texts over one stream whose plans
// share scans, windows and filters in various combinations — the shapes
// the multi-tenant service submits concurrently.
var overlappingQueries = []string{
	`SELECT a, price FROM s [RANGE 100] WHERE price > 500`,
	`SELECT a FROM s [RANGE 100] WHERE price > 500`,
	`SELECT a, COUNT(*) AS n FROM s [RANGE 100] GROUP BY a`,
	`SELECT price FROM s [ROWS 50]`,
	`SELECT MAX(price) AS m FROM s [RANGE 200]`,
	`SELECT a, price FROM s [RANGE 100]`,
}

// newStreamingCatalog registers an endless single-producer source that
// keeps publishing until stop is set, and returns it with the catalog.
func newStreamingCatalog(stop *atomic.Bool) (*Catalog, *pubsub.FuncSource) {
	var n atomic.Int64
	src := pubsub.NewFuncSource("s", func() (temporal.Element, bool) {
		if stop.Load() {
			return temporal.Element{}, false
		}
		i := n.Add(1)
		t := cql.Tuple{"a": i % 7, "price": float64(i % 1000)}
		return temporal.At(t, temporal.Time(i)), true
	})
	cat := NewCatalog()
	cat.Register("s", src, 1000)
	return cat, src
}

// TestConcurrentAddRemoveWhileStreaming interleaves AddQuery/RemoveQuery
// over shared subplans from several goroutines while a producer pumps
// elements through the live graph — the access pattern of the HTTP
// control plane. Run under -race this is the mutation-safety regression
// for the addMu serialisation (a lost registry entry or a double build
// shows up as a race or as a non-empty registry at the end).
func TestConcurrentAddRemoveWhileStreaming(t *testing.T) {
	var stop atomic.Bool
	cat, src := newStreamingCatalog(&stop)
	o := New(cat)

	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		pubsub.Drive(src)
	}()

	type held struct {
		inst *Instance
		sink *pubsub.Counter
	}
	const workers = 6
	const iters = 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []held
			release := func(i int) {
				h := mine[i]
				mine = append(mine[:i], mine[i+1:]...)
				_ = h.inst.Root.Unsubscribe(h.sink, 0)
				if err := o.RemoveQuery(h.inst); err != nil {
					t.Errorf("RemoveQuery: %v", err)
				}
			}
			for k := 0; k < iters; k++ {
				if len(mine) == 0 || rng.Intn(2) == 0 {
					q, err := cql.Parse(overlappingQueries[rng.Intn(len(overlappingQueries))])
					if err != nil {
						t.Errorf("parse: %v", err)
						return
					}
					inst, err := o.AddQuery(q)
					if err != nil {
						t.Errorf("AddQuery: %v", err)
						return
					}
					sink := pubsub.NewCounter("c", 1)
					if err := inst.Root.Subscribe(sink, 0); err != nil {
						t.Errorf("Subscribe: %v", err)
						return
					}
					mine = append(mine, held{inst, sink})
				} else {
					release(rng.Intn(len(mine)))
				}
			}
			for len(mine) > 0 {
				release(len(mine) - 1)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	stop.Store(true)
	<-pumpDone

	if got := o.OperatorCount(); got != 0 {
		t.Fatalf("registry not drained after all queries removed: %d operators remain", got)
	}
}

// TestAdmissionCountsMatchInstantiation holds the admission contract to
// the truth: the node counts handed to the admission callback must equal
// the NewNodes/SharedNodes the returned instance reports, across a
// sequence of overlapping adds and interleaved removals.
func TestAdmissionCountsMatchInstantiation(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true) // no pumping needed
	cat, _ := newStreamingCatalog(&stop)
	o := New(cat)

	var insts []*Instance
	for round := 0; round < 2; round++ {
		for _, text := range overlappingQueries {
			q, err := cql.Parse(text)
			if err != nil {
				t.Fatalf("parse %q: %v", text, err)
			}
			var predictedNew, predictedShared int
			inst, err := o.AddQueryAdmitted(q, func(newN, sharedN int) error {
				predictedNew, predictedShared = newN, sharedN
				return nil
			})
			if err != nil {
				t.Fatalf("AddQueryAdmitted %q: %v", text, err)
			}
			if inst.NewNodes != predictedNew || inst.SharedNodes != predictedShared {
				t.Errorf("%q: admission saw new=%d shared=%d, build made new=%d shared=%d",
					text, predictedNew, predictedShared, inst.NewNodes, inst.SharedNodes)
			}
			insts = append(insts, inst)
		}
		// Remove half before the second round so admission runs against a
		// registry with dropped entries too.
		for i := 0; i < len(insts)/2; i++ {
			if err := o.RemoveQuery(insts[i]); err != nil {
				t.Fatalf("RemoveQuery: %v", err)
			}
		}
		insts = insts[len(insts)/2:]
	}
}

// TestAdmissionRejectLeavesGraphUntouched verifies the admission
// contract the service's quota enforcement relies on: a rejecting
// callback aborts the add with the callback's error returned verbatim,
// and the nodes built before admission are released — the registry and
// the source's subscriptions are as they were.
func TestAdmissionRejectLeavesGraphUntouched(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	cat, src := newStreamingCatalog(&stop)
	o := New(cat)

	q1, err := cql.Parse(overlappingQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	inst, err := o.AddQuery(q1)
	if err != nil {
		t.Fatal(err)
	}
	before := o.OperatorCount()
	subsBefore := len(src.Subscriptions())

	sentinel := &rejectionError{}
	q2, err := cql.Parse(overlappingQueries[2])
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.AddQueryAdmitted(q2, func(newN, sharedN int) error {
		if newN == 0 {
			t.Errorf("expected new nodes for a fresh group-by plan")
		}
		if sharedN == 0 {
			t.Errorf("expected shared nodes against the registered scan")
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("admission error not returned verbatim: %v", err)
	}
	if got := o.OperatorCount(); got != before {
		t.Fatalf("rejected add changed the registry: %d -> %d operators", before, got)
	}
	if got := len(src.Subscriptions()); got != subsBefore {
		t.Fatalf("rejected add changed the source's subscriptions: %d -> %d", subsBefore, got)
	}
	if err := o.RemoveQuery(inst); err != nil {
		t.Fatal(err)
	}
	if got := o.OperatorCount(); got != 0 {
		t.Fatalf("%d registry entries remain after the admitted query left", got)
	}
}

// rejectionError is a sentinel admission error type.
type rejectionError struct{}

func (*rejectionError) Error() string { return "rejected" }
