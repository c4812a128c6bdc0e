package sweeparea

import (
	"math"
	"sort"

	"pipes/internal/temporal"
)

// NumKeyFunc extracts a numeric ordering key from a value.
type NumKeyFunc func(v any) float64

// Tree is the ordered SweepArea for band joins (|k(probe) − k(stored)| ≤
// band) and, with band 0, numeric equi-joins. Entries are kept sorted by
// key in a slice (the in-memory stand-in for XXL's tree-indexed areas);
// probes binary-search the matching key range.
type Tree struct {
	probeKey  NumKeyFunc
	storedKey NumKeyFunc
	band      float64
	entries   []treeEntry // sorted by key
}

type treeEntry struct {
	key  float64
	elem temporal.Element
}

// NewTree returns a tree area matching stored entries whose key lies
// within ±band of the probe key. band must be non-negative.
func NewTree(probeKey, storedKey NumKeyFunc, band float64) *Tree {
	if probeKey == nil || storedKey == nil {
		panic("sweeparea: tree area requires key functions")
	}
	if band < 0 {
		panic("sweeparea: band must be non-negative")
	}
	return &Tree{probeKey: probeKey, storedKey: storedKey, band: band}
}

// Insert implements SweepArea. An element whose key is NaN is not
// stored: it matches no probe under |k − k'| ≤ band, and a NaN in the
// slice would break the key order every later binary search relies on.
func (t *Tree) Insert(e temporal.Element) {
	k := t.storedKey(e.Value)
	if math.IsNaN(k) {
		return
	}
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].key >= k })
	t.entries = append(t.entries, treeEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = treeEntry{key: k, elem: e}
}

// Probe implements SweepArea.
func (t *Tree) Probe(probe temporal.Element, emit func(temporal.Element)) {
	k := t.probeKey(probe.Value)
	lo, hi := k-t.band, k+t.band
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].key >= lo })
	for ; i < len(t.entries) && t.entries[i].key <= hi; i++ {
		emit(t.entries[i].elem)
	}
}

// Reorganize implements SweepArea.
func (t *Tree) Reorganize(ts temporal.Time) int {
	kept := t.entries[:0]
	removed := 0
	for _, s := range t.entries {
		if s.elem.End <= ts {
			removed++
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = treeEntry{}
	}
	t.entries = kept
	return removed
}

// Shed implements SweepArea: removes the n entries expiring soonest while
// preserving key order.
func (t *Tree) Shed(n int) int {
	if n <= 0 || len(t.entries) == 0 {
		return 0
	}
	if n >= len(t.entries) {
		removed := len(t.entries)
		t.entries = t.entries[:0]
		return removed
	}
	// Find the n-th smallest End as a threshold, then filter.
	ends := make([]temporal.Time, len(t.entries))
	for i, s := range t.entries {
		ends[i] = s.elem.End
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	threshold := ends[n-1]
	kept := t.entries[:0]
	removed := 0
	for _, s := range t.entries {
		if removed < n && s.elem.End <= threshold {
			removed++
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = treeEntry{}
	}
	t.entries = kept
	return removed
}

// AppendItems implements SweepArea.
func (t *Tree) AppendItems(dst []temporal.Element) []temporal.Element {
	for _, te := range t.entries {
		dst = append(dst, te.elem)
	}
	return dst
}

// Len implements SweepArea.
func (t *Tree) Len() int { return len(t.entries) }

// MemoryUsage implements SweepArea.
func (t *Tree) MemoryUsage() int { return len(t.entries) * (bytesPerEntry + 8) }
