package sweeparea

// Paper claims as deterministic counts (EXPERIMENTS.md): the work a
// SweepArea does per match, and the state it keeps, counted rather than
// timed.

import (
	"testing"

	"pipes/internal/temporal"
)

// e5Run drives a symmetric join over two areas of one kind: element i
// arrives at tick 10·i on input i%2 with key i/2, valid for window ticks,
// so each element matches exactly its pair. It returns the candidates the
// areas examined — list predicate calls, hash/tree emits — and the
// matches.
func e5Run(kind string, window temporal.Time, n int) (examined, matches int) {
	pred := func(p, s any) bool {
		examined++
		return p.(int)/2 == s.(int)/2
	}
	key := func(v any) any { return v.(int) / 2 }
	num := func(v any) float64 { return float64(v.(int) / 2) }
	var areas [2]SweepArea
	for i := range areas {
		switch kind {
		case "list":
			areas[i] = NewList(pred)
		case "hash":
			areas[i] = NewHash(key, key)
		case "tree":
			areas[i] = NewTree(num, num, 0)
		}
	}
	for i := 0; i < n; i++ {
		ts := temporal.Time(10 * i)
		e := temporal.NewElement(i, ts, ts+window)
		in, opp := i%2, 1-i%2
		areas[opp].Reorganize(e.Start)
		areas[opp].Probe(e, func(s temporal.Element) {
			if kind != "list" {
				examined++
			}
			if _, ok := e.Intersect(s.Interval); ok && e.Value.(int)/2 == s.Value.(int)/2 {
				matches++
			}
		})
		areas[in].Insert(e)
	}
	return examined, matches
}

// TestClaimE5IndexedAreasExamineOnlyMatches: the hash and tree areas hand
// the join exactly its matches; the list scans the whole window for each.
func TestClaimE5IndexedAreasExamineOnlyMatches(t *testing.T) {
	const n = 4000 // past the widest window's 1000 arrivals
	var prevList float64
	for _, w := range []temporal.Time{100, 1000, 10000} {
		perMatch := map[string]float64{}
		for _, kind := range []string{"list", "hash", "tree"} {
			examined, matches := e5Run(kind, w, n)
			if matches != n/2 {
				t.Fatalf("window %d, %s: %d matches, want %d", w, kind, matches, n/2)
			}
			perMatch[kind] = float64(examined) / float64(matches)
		}
		for _, kind := range []string{"hash", "tree"} {
			if perMatch[kind] != 1 {
				t.Errorf("window %d, %s: %.2f candidates per match, want 1", w, kind, perMatch[kind])
			}
		}
		if perMatch["list"] <= prevList {
			t.Errorf("window %d, list: %.2f candidates per match, not above %.2f at the smaller window", w, perMatch["list"], prevList)
		}
		prevList = perMatch["list"]
		t.Logf("window %d: candidates per match list %.1f, hash %.1f, tree %.1f", w, perMatch["list"], perMatch["hash"], perMatch["tree"])
	}
}

// a2Len runs n arrivals alternating between two hash areas, probing the
// opposite area on each arrival as a join does, and returns the areas'
// total Len at the end. purge calls Reorganize before every probe.
func a2Len(window temporal.Time, n int, purge bool) int {
	key := func(v any) any { return (v.(int) / 2) % 100 }
	areas := [2]SweepArea{NewHash(key, key), NewHash(key, key)}
	for i := 0; i < n; i++ {
		ts := temporal.Time(i)
		e := temporal.NewElement(i, ts, ts+window)
		in, opp := i%2, 1-i%2
		if purge {
			areas[opp].Reorganize(e.Start)
		}
		areas[opp].Probe(e, func(temporal.Element) {})
		areas[in].Insert(e)
	}
	return areas[0].Len() + areas[1].Len()
}

// TestClaimA2PurgingBoundsState: Reorganize keeps a join's state to the
// elements still inside the window; without it every arrival stays.
func TestClaimA2PurgingBoundsState(t *testing.T) {
	const window, n = 500, 20000
	purged := a2Len(window, n, true)
	kept := a2Len(window, n, false)
	if purged > window+1 {
		t.Errorf("with purge: %d entries stored, want <= %d", purged, window+1)
	}
	if kept != n {
		t.Errorf("without purge: %d entries stored, want %d", kept, n)
	}
	t.Logf("entries after %d arrivals: purge %d, no purge %d", n, purged, kept)
}

// runRipple steps a 4000×4000 ripple equi-join to exhaustion and returns
// the step from which the online COUNT estimate stayed within 5% of the
// exact answer, and the total number of steps.
func runRipple() (firstStable, steps int) {
	const n = 4000
	mk := func(seed int) []temporal.Element {
		out := make([]temporal.Element, n)
		for i := range out {
			out[i] = temporal.NewElement((i*7+seed)%100, temporal.Time(i), temporal.MaxTime)
		}
		return out
	}
	left, right := mk(1), mk(13)
	pred := func(l, r any) bool { return l.(int) == r.(int) }
	exact := NewRippleJoin(left, right, pred, nil, nil, nil).Run()

	rj := NewRippleJoin(left, right, pred, nil, nil, nil)
	for rj.Step() {
		steps++
		est, _ := rj.Estimate()
		if est > exact*0.95 && est < exact*1.05 {
			if firstStable == 0 {
				firstStable = steps
			}
		} else {
			firstStable = 0
		}
	}
	return firstStable, steps
}

// TestClaimE15RippleEstimateSettlesEarly: the ripple join's online COUNT
// estimate settles within 5% before the inputs are exhausted.
func TestClaimE15RippleEstimateSettlesEarly(t *testing.T) {
	firstStable, steps := runRipple()
	if firstStable == 0 || firstStable >= steps {
		t.Fatalf("estimate settled at step %d of %d: want inside the run, before the inputs are exhausted", firstStable, steps)
	}
}
