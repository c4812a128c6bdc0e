package ops

import (
	"fmt"

	"pipes/internal/aggregate"
	"pipes/internal/sweeparea"
	"pipes/internal/temporal"
)

// Pair is the default combined value of a binary join.
type Pair struct {
	Left  any
	Right any
}

// Combiner builds the output value of a join from the matched inputs.
type Combiner func(left, right any) any

// Predicate2 is a binary join predicate over the two input values.
type Predicate2 func(left, right any) bool

// Join is the binary stream join of the PIPES join framework: symmetric
// evaluation parameterised by two exchangeable SweepAreas [11,12,19]. An
// arriving element purges the opposite area of entries that can no longer
// overlap (Reorganize), probes it for value matches, emits one result per
// match whose validity intervals intersect (the result carries the
// intersection), and is inserted into its own area. The ordered core
// applies both inputs merged in Start order, so every result starts at
// its probe's Start and leaves at once.
//
// The SweepArea choice fixes the join type: hash areas give an equi-join,
// tree areas a band join, list areas an arbitrary theta join.
type Join struct {
	ordered
	areas   [2]sweeparea.SweepArea
	pred    Predicate2
	combine Combiner
	// The element being probed and its input, read by match: one callback
	// bound at construction instead of a closure per element. ProcMu.
	probe   temporal.Element
	probeIn int
	match   func(stored temporal.Element)
	pairs   aggregate.Boxed[Pair] // the default combiner's results
}

// NewJoin returns a join over the given areas. pred may be nil when the
// areas already enforce the predicate (hash/tree); combine may be nil to
// produce Pair values, which the node writes into chunks it owns
// (aggregate.Boxed), under its processing lock.
func NewJoin(name string, left, right sweeparea.SweepArea, pred Predicate2, combine Combiner) *Join {
	if left == nil || right == nil {
		panic("ops: join requires two sweep areas")
	}
	j := &Join{areas: [2]sweeparea.SweepArea{left, right}, pred: pred, combine: combine}
	if combine == nil {
		j.combine = func(l, r any) any { return j.pairs.Box(Pair{Left: l, Right: r}) }
	}
	j.match = j.matchProbe
	j.init(name, 2, j.processOne, nil, area{left}, area{right})
	return j
}

// NewThetaJoin is a convenience constructor: list areas holding every
// entry, with pred evaluated per candidate pair (left, right).
func NewThetaJoin(name string, pred Predicate2, combine Combiner) *Join {
	return NewJoin(name, sweeparea.NewList(nil), sweeparea.NewList(nil), pred, combine)
}

// NewBandJoin is a convenience constructor: tree areas matching pairs with
// |leftKey(l) − rightKey(r)| <= band.
func NewBandJoin(name string, leftKey, rightKey sweeparea.NumKeyFunc, band float64, combine Combiner) *Join {
	left := sweeparea.NewTree(rightKey, leftKey, band)  // probed by right values
	right := sweeparea.NewTree(leftKey, rightKey, band) // probed by left values
	return NewJoin(name, left, right, nil, combine)
}

// NewEquiJoin is a convenience constructor: a hash-area join on the given
// key extractors.
func NewEquiJoin(name string, leftKey, rightKey sweeparea.KeyFunc, combine Combiner) *Join {
	left := sweeparea.NewHash(rightKey, leftKey)  // probed by right values
	right := sweeparea.NewHash(leftKey, rightKey) // probed by left values
	return NewJoin(name, left, right, nil, combine)
}

// processOne is the per-element body, under ProcMu.
func (j *Join) processOne(input int, e temporal.Element) {
	opp := 1 - input
	j.areas[opp].Reorganize(e.Start)
	j.probe, j.probeIn = e, input
	j.areas[opp].Probe(e, j.match)
	j.probe.Value, j.probe.Trace = nil, nil // release what it references
	if !j.InputDone(opp) || j.areas[opp].Len() > 0 || j.in[opp].Len() > 0 {
		// Insert only while results remain possible: once the opposite
		// input is done and its area and queue drained, stored entries
		// are garbage.
		j.areas[input].Insert(e)
	}
}

// matchProbe emits the result of j.probe and one stored match from the
// opposite area, if their values and intervals join.
func (j *Join) matchProbe(s temporal.Element) {
	l, r := j.probe, s
	if j.probeIn == 1 {
		l, r = s, j.probe
	}
	if j.pred != nil && !j.pred(l.Value, r.Value) {
		return
	}
	iv, ok := l.Intersect(r.Interval)
	if !ok {
		return
	}
	j.Emit(temporal.Derive(j.combine(l.Value, r.Value), iv, l, r))
}

// Shed releases memory by dropping the soonest-expiring entries, starting
// with the larger area, then the oldest queued arrivals — the
// load-shedding hook the memory manager calls. A held input sheds its
// pre-barrier arrivals first, as they are the oldest; the barrier's
// position in its queue moves with them. It returns how many entries
// were dropped.
func (j *Join) Shed(n int) int {
	j.ProcMu.Lock()
	defer j.ProcMu.Unlock()
	big, small := j.areas[0], j.areas[1]
	if small.Len() > big.Len() {
		big, small = small, big
	}
	dropped := big.Shed(n)
	if dropped < n {
		dropped += small.Shed(n - dropped)
	}
	for i := range j.in {
		for ; dropped < n && j.in[i].Len() > 0; dropped++ {
			j.in[i].dequeue()
		}
	}
	return dropped
}

// ShedBytes implements the memory manager's shedder capability in byte
// terms. The kept capture buffers go first, being no answer's state; if
// they do not cover n, entry-wise Shed releases the rest.
func (j *Join) ShedBytes(n int) int {
	freed := j.snaps.drop()
	if freed >= n {
		return freed
	}
	entries := (n - freed) / 64
	if entries < 1 {
		entries = 1
	}
	return freed + j.Shed(entries)*64
}

// StateSize returns the number of stored entries across both areas and
// queues.
func (j *Join) StateSize() int {
	j.ProcMu.Lock()
	defer j.ProcMu.Unlock()
	return j.areas[0].Len() + j.areas[1].Len() + j.in[0].Len() + j.in[1].Len()
}

func (j *Join) String() string { return fmt.Sprintf("%s[join]", j.Name()) }
