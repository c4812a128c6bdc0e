package sweeparea

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pipes/internal/temporal"
	"pipes/internal/xds"
)

func elem(v int, start, end temporal.Time) temporal.Element {
	return temporal.NewElement(v, start, end)
}

func collectProbe(a SweepArea, probe temporal.Element) []int {
	var got []int
	a.Probe(probe, func(s temporal.Element) { got = append(got, s.Value.(int)) })
	sort.Ints(got)
	return got
}

func intKey(v any) any     { return v.(int) % 10 }
func numKey(v any) float64 { return float64(v.(int)) }
func eqPred(p, s any) bool { return p.(int)%10 == s.(int)%10 }
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// areas returns one of each implementation configured for the same
// equi-join semantics (key = v mod 10), so contract tests run across all.
func areas() map[string]SweepArea {
	return map[string]SweepArea{
		"list": NewList(eqPred),
		"hash": NewHash(intKey, intKey),
		"tree": NewTree(func(v any) float64 { return float64(v.(int) % 10) },
			func(v any) float64 { return float64(v.(int) % 10) }, 0),
	}
}

func TestProbeFindsMatchingEntries(t *testing.T) {
	for name, a := range areas() {
		a.Insert(elem(3, 0, 100))
		a.Insert(elem(13, 1, 100))
		a.Insert(elem(4, 2, 100))
		got := collectProbe(a, elem(23, 5, 6))
		if !equalInts(got, []int{3, 13}) {
			t.Errorf("%s: probe(23) = %v, want [3 13]", name, got)
		}
		if a.Len() != 3 {
			t.Errorf("%s: Len = %d, want 3", name, a.Len())
		}
	}
}

func TestProbeNoMatch(t *testing.T) {
	for name, a := range areas() {
		a.Insert(elem(1, 0, 10))
		if got := collectProbe(a, elem(2, 0, 1)); len(got) != 0 {
			t.Errorf("%s: probe(2) = %v, want empty", name, got)
		}
	}
}

func TestReorganizePurgesExpired(t *testing.T) {
	for name, a := range areas() {
		a.Insert(elem(3, 0, 5))
		a.Insert(elem(13, 0, 10))
		a.Insert(elem(23, 0, 15))
		if removed := a.Reorganize(10); removed != 2 {
			t.Errorf("%s: Reorganize(10) removed %d, want 2 (ends 5 and 10)", name, removed)
		}
		if got := collectProbe(a, elem(3, 10, 11)); !equalInts(got, []int{23}) {
			t.Errorf("%s: after reorganize probe = %v, want [23]", name, got)
		}
		if a.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, a.Len())
		}
	}
}

func TestReorganizeIdempotent(t *testing.T) {
	for name, a := range areas() {
		a.Insert(elem(3, 0, 5))
		a.Reorganize(5)
		if removed := a.Reorganize(5); removed != 0 {
			t.Errorf("%s: second Reorganize removed %d, want 0", name, removed)
		}
	}
}

func TestShedRemovesSoonestExpiring(t *testing.T) {
	for name, a := range areas() {
		a.Insert(elem(3, 0, 5))
		a.Insert(elem(13, 0, 50))
		a.Insert(elem(23, 0, 20))
		if n := a.Shed(2); n != 2 {
			t.Errorf("%s: Shed(2) = %d, want 2", name, n)
		}
		// The survivor must be the latest-expiring entry (end 50).
		if got := collectProbe(a, elem(3, 0, 1)); !equalInts(got, []int{13}) {
			t.Errorf("%s: survivor = %v, want [13]", name, got)
		}
	}
}

func TestShedMoreThanLen(t *testing.T) {
	for name, a := range areas() {
		a.Insert(elem(1, 0, 5))
		if n := a.Shed(10); n != 1 {
			t.Errorf("%s: Shed(10) with 1 entry = %d, want 1", name, n)
		}
		if a.Len() != 0 {
			t.Errorf("%s: Len after full shed = %d", name, a.Len())
		}
		if n := a.Shed(1); n != 0 {
			t.Errorf("%s: Shed on empty = %d, want 0", name, n)
		}
	}
}

func TestMemoryUsageTracksLen(t *testing.T) {
	for name, a := range areas() {
		before := a.MemoryUsage()
		for i := 0; i < 100; i++ {
			a.Insert(elem(i, 0, 1000))
		}
		grown := a.MemoryUsage()
		if grown <= before {
			t.Errorf("%s: memory did not grow on insert", name)
		}
		a.Reorganize(1000)
		if a.MemoryUsage() >= grown {
			t.Errorf("%s: memory did not shrink on purge", name)
		}
	}
}

func TestHashTombstonesAfterShed(t *testing.T) {
	// Shed then Reorganize must not double-count tombstoned entries.
	h := NewHash(intKey, intKey)
	h.Insert(elem(1, 0, 5))
	h.Insert(elem(2, 0, 6))
	h.Insert(elem(3, 0, 7))
	if n := h.Shed(1); n != 1 {
		t.Fatalf("Shed = %d", n)
	}
	if n := h.Reorganize(7); n != 2 {
		t.Fatalf("Reorganize after shed removed %d, want 2", n)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}

// TestHashReusesEmptiedBuckets: keys that empty and refill cost the hash
// area nothing per insert/expire cycle once their buckets are recycled.
func TestHashReusesEmptiedBuckets(t *testing.T) {
	h := NewHash(intKey, intKey)
	ts := temporal.Time(0)
	cycle := func() {
		// Each key holds one element for 10 ticks: at every tick one
		// bucket empties and the next insert refills a key.
		h.Reorganize(ts)
		h.Insert(elem(int(ts%200), ts, ts+10))
		ts++
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Errorf("hash area allocates %.2f per insert/expire cycle, want 0", got)
	}
	if h.Len() != 10 {
		t.Errorf("Len = %d, want 10", h.Len())
	}
	// Shedding releases the spares, the dead slots and the slab's free
	// slots along with the entries: what is left is a slab and slot
	// arrays just the live entries' size, and the expiry entries.
	h.Reorganize(ts + 5)
	if len(h.spare) == 0 {
		t.Fatal("no bucket was kept for reuse")
	}
	h.Shed(1)
	var packed xds.Slab[temporal.Element]
	for range h.Len() {
		packed.Put(temporal.Element{})
	}
	if want := packed.Bytes() + h.Len()*16 + h.expiry.Len()*24; len(h.spare) != 0 || h.MemoryUsage() != want {
		t.Errorf("after Shed: %d spare buckets, memory %d for %d entries, want %d", len(h.spare), h.MemoryUsage(), h.Len(), want)
	}
}

// TestHashReusedBucketProbesLiveEntries: a probe into a recycled bucket
// returns exactly its live entries, in insertion order — the order a list
// area, which never recycles, returns them in — and nothing stale.
func TestHashReusedBucketProbesLiveEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, l := NewHash(intKey, intKey), NewList(eqPred)
	inOrder := func(a SweepArea, key int) []int {
		var got []int
		a.Probe(elem(key, 0, 1), func(s temporal.Element) { got = append(got, s.Value.(int)) })
		return got
	}
	for ts := temporal.Time(0); ts < 3000; ts++ {
		h.Reorganize(ts)
		l.Reorganize(ts)
		for n := rng.Intn(3); n > 0; n-- {
			e := elem(rng.Intn(1000), ts, ts+1+temporal.Time(rng.Intn(20)))
			h.Insert(e)
			l.Insert(e)
		}
		for key := 0; key < 10; key++ {
			if got, want := inOrder(h, key), inOrder(l, key); !equalInts(got, want) {
				t.Fatalf("t=%d: hash probe(%d) = %v, want %v", ts, key, got, want)
			}
		}
	}
	if len(h.spare) == 0 {
		t.Error("no bucket was kept for reuse")
	}
}

func TestTreeBandJoin(t *testing.T) {
	tr := NewTree(numKey, numKey, 2.5)
	for _, v := range []int{1, 3, 5, 8, 10} {
		tr.Insert(elem(v, 0, 100))
	}
	got := collectProbe(tr, elem(4, 0, 1)) // matches |k-4| <= 2.5 => {3,5} plus 1? |1-4|=3 no; 8? 4 no
	if !equalInts(got, []int{3, 5}) {
		t.Errorf("band probe(4) = %v, want [3 5]", got)
	}
	got = collectProbe(tr, elem(9, 0, 1)) // 8,10
	if !equalInts(got, []int{8, 10}) {
		t.Errorf("band probe(9) = %v, want [8 10]", got)
	}
}

func TestTreeInsertKeepsSorted(t *testing.T) {
	tr := NewTree(numKey, numKey, 0.5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		tr.Insert(elem(rng.Intn(50), 0, 100))
	}
	for i := 1; i < len(tr.entries); i++ {
		if tr.entries[i-1].key > tr.entries[i].key {
			t.Fatal("tree entries not sorted after random inserts")
		}
	}
}

// TestTreeNaNKeyIsNotStored: a NaN key compares false with everything,
// so stored in the sorted slice it would misdirect every later binary
// search. It matches no probe under |k − k'| ≤ band, so Insert drops it.
func TestTreeNaNKeyIsNotStored(t *testing.T) {
	nan := math.NaN()
	key := func(v any) float64 { return v.(float64) }
	tr := NewTree(key, key, 0)
	for _, k := range []float64{1, 5, nan, 7, 9, nan, 3, 4, 6, 8, 2} {
		tr.Insert(temporal.NewElement(k, 0, 100))
	}
	if tr.Len() != 9 {
		t.Errorf("Len = %d, want 9", tr.Len())
	}
	for i := 1; i < len(tr.entries); i++ {
		if !(tr.entries[i-1].key <= tr.entries[i].key) {
			t.Fatalf("entries out of order at %d: %v then %v", i, tr.entries[i-1].key, tr.entries[i].key)
		}
	}
	for k := 1.0; k <= 9; k++ {
		n := 0
		tr.Probe(temporal.NewElement(k, 0, 1), func(temporal.Element) { n++ })
		if n != 1 {
			t.Errorf("probe %v found %d matches, want 1", k, n)
		}
	}
	tr.Probe(temporal.NewElement(nan, 0, 1), func(s temporal.Element) {
		t.Errorf("NaN probe matched %v", s.Value)
	})
}

// TestImplementationsAgree is the cross-implementation property: for random
// inputs and probes, all three areas must return identical match sets for
// the shared equi-join semantics — the exchangeability the paper claims.
func TestImplementationsAgree(t *testing.T) {
	f := func(inserts []uint8, probes []uint8) bool {
		impls := areas()
		for i, v := range inserts {
			e := elem(int(v), temporal.Time(i), temporal.Time(i+50))
			for _, a := range impls {
				a.Insert(e)
			}
		}
		for i, p := range probes {
			probe := elem(int(p), temporal.Time(i), temporal.Time(i+1))
			ref := collectProbe(impls["list"], probe)
			for name, a := range impls {
				if name == "list" {
					continue
				}
				if got := collectProbe(a, probe); !equalInts(got, ref) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestImplementationsAgreeAfterReorganize(t *testing.T) {
	f := func(inserts []uint8, cut uint8) bool {
		impls := areas()
		for i, v := range inserts {
			e := elem(int(v), temporal.Time(i), temporal.Time(int(v)+1))
			for _, a := range impls {
				a.Insert(e)
			}
		}
		for _, a := range impls {
			a.Reorganize(temporal.Time(cut))
		}
		ref := impls["list"].Len()
		for name, a := range impls {
			if a.Len() != ref {
				t.Logf("%s len %d, list len %d", name, a.Len(), ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestListNilPredicateIsCrossProduct(t *testing.T) {
	l := NewList(nil)
	l.Insert(elem(1, 0, 10))
	l.Insert(elem(2, 0, 10))
	if got := collectProbe(l, elem(99, 0, 1)); !equalInts(got, []int{1, 2}) {
		t.Errorf("cross probe = %v, want [1 2]", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHash(nil, intKey) },
		func() { NewHash(intKey, nil) },
		func() { NewTree(nil, numKey, 1) },
		func() { NewTree(numKey, numKey, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}

func TestRippleJoinExactOnCompletion(t *testing.T) {
	mk := func(vals []int) []temporal.Element {
		out := make([]temporal.Element, len(vals))
		for i, v := range vals {
			out[i] = elem(v, temporal.Time(i), temporal.MaxTime)
		}
		return out
	}
	left := mk([]int{1, 2, 3, 4})
	right := mk([]int{2, 3, 3, 5})
	pred := func(l, r any) bool { return l.(int) == r.(int) }
	rj := NewRippleJoin(left, right, pred, nil, nil, nil)
	got := rj.Run()
	if got != 3 { // pairs: (2,2),(3,3),(3,3)
		t.Fatalf("ripple COUNT = %v, want 3", got)
	}
	_, hw := rj.Estimate()
	if hw != 0 {
		t.Fatalf("half-width after completion = %v, want 0", hw)
	}
	l, r := rj.Consumed()
	if l != 4 || r != 4 {
		t.Fatalf("Consumed = (%d,%d), want (4,4)", l, r)
	}
}

func TestRippleJoinEstimateConverges(t *testing.T) {
	// Large uniform self-join: the running estimate must approach the
	// exact count well before completion.
	const n = 2000
	rng := rand.New(rand.NewSource(9))
	mk := func() []temporal.Element {
		out := make([]temporal.Element, n)
		for i := range out {
			out[i] = elem(rng.Intn(100), temporal.Time(i), temporal.MaxTime)
		}
		return out
	}
	left, right := mk(), mk()
	pred := func(l, r any) bool { return l.(int) == r.(int) }

	exact := NewRippleJoin(left, right, pred, nil, nil, nil).Run()

	rj := NewRippleJoin(left, right, pred, nil, nil, nil)
	for i := 0; i < n; i++ { // half the steps => quarter of the pairs
		rj.Step()
	}
	est, _ := rj.Estimate()
	if est < exact*0.7 || est > exact*1.3 {
		t.Fatalf("half-way estimate %v not within 30%% of exact %v", est, exact)
	}
}

func TestRippleJoinSumContribution(t *testing.T) {
	mk := func(vals []int) []temporal.Element {
		out := make([]temporal.Element, len(vals))
		for i, v := range vals {
			out[i] = elem(v, temporal.Time(i), temporal.MaxTime)
		}
		return out
	}
	left := mk([]int{1, 2})
	right := mk([]int{1, 2})
	pred := func(l, r any) bool { return l.(int) == r.(int) }
	sum := NewRippleJoin(left, right, pred, func(l, r any) float64 {
		return float64(l.(int) * r.(int))
	}, nil, nil).Run()
	if sum != 5 { // 1*1 + 2*2
		t.Fatalf("ripple SUM = %v, want 5", sum)
	}
}

func TestRippleJoinUnevenInputs(t *testing.T) {
	mk := func(nvals int) []temporal.Element {
		out := make([]temporal.Element, nvals)
		for i := range out {
			out[i] = elem(1, temporal.Time(i), temporal.MaxTime)
		}
		return out
	}
	rj := NewRippleJoin(mk(3), mk(7), func(l, r any) bool { return true }, nil, nil, nil)
	if got := rj.Run(); got != 21 {
		t.Fatalf("cross count = %v, want 21", got)
	}
}
