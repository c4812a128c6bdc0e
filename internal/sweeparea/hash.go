package sweeparea

import (
	"slices"

	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// KeyFunc extracts the (comparable) join key from a value.
type KeyFunc func(v any) any

// Hash is the equi-join SweepArea: entries are bucketed by join key, so a
// probe touches only its own bucket. A bucket is a list over the area's
// one node slab (xds.Lists), which stores each element once: probes walk
// it and — crucially — emit matches in deterministic insertion order,
// which makes join output reproducible run-to-run and lets the
// frame-size invariance harness compare output sequences and state bytes
// exactly. Expiration uses a min-heap of node slots on interval end, one
// entry per live element, keeping Reorganize O(removed · log n); an
// expired node leaves its list in O(1). A bucket's key is its list's
// record. A key whose last element goes gives its list id back, and the
// next new key takes it: a key costs its map entry and a table slot,
// never a container of its own.
type Hash struct {
	probeKey  KeyFunc                          // key of the probing (opposite-input) value
	storedKey KeyFunc                          // key of stored values
	buckets   map[any]int32                    // key → its list in items
	items     xds.Lists[temporal.Element, any] // the stored elements, by bucket; a list's record is its key
	expiry    xds.Heap[temporal.Time, int32]   // every node, by End
}

// NewHash returns a hash area. storedKey extracts the key under which
// inserted elements are indexed; probeKey extracts the lookup key from the
// probing value. For a symmetric self-describing key use the same function
// for both.
func NewHash(probeKey, storedKey KeyFunc) *Hash {
	if probeKey == nil || storedKey == nil {
		panic("sweeparea: hash area requires key functions")
	}
	return &Hash{
		probeKey:  probeKey,
		storedKey: storedKey,
		buckets:   map[any]int32{},
	}
}

// Insert implements SweepArea.
func (h *Hash) Insert(e temporal.Element) {
	k := h.storedKey(e.Value)
	id, ok := h.buckets[k]
	if !ok {
		id = h.items.New(k)
		h.buckets[k] = id
	}
	h.expiry.Push(e.End, h.items.Append(id, e))
}

// Probe implements SweepArea. Matches are emitted in insertion order.
func (h *Hash) Probe(probe temporal.Element, emit func(temporal.Element)) {
	id, ok := h.buckets[h.probeKey(probe.Value)]
	if !ok {
		return
	}
	for s := h.items.Head(id); s >= 0; s = h.items.Next(s) {
		emit(h.items.At(s))
	}
}

// Reorganize implements SweepArea.
func (h *Hash) Reorganize(t temporal.Time) int {
	removed := 0
	for {
		end, slot, ok := h.expiry.Peek()
		if !ok || end > t {
			break
		}
		h.expiry.Pop()
		h.remove(slot)
		removed++
	}
	if removed > 0 && h.items.Len() == 0 {
		// An area the purge emptied gives its arrays back, so what it
		// reports holding falls with its state.
		h.items, h.expiry = xds.Lists[temporal.Element, any]{}, xds.Heap[temporal.Time, int32]{}
	}
	return removed
}

// Shed implements SweepArea: pops the soonest-expiring entries. The
// slab's free slots and the dropped list ids go too: they are memory the
// area holds but does not use. The live elements move into a slab, their
// buckets into a list table and their expiry entries into a heap array,
// each just their size, so a shed frees what it reports.
func (h *Hash) Shed(n int) int {
	removed := 0
	for ; removed < n; removed++ {
		_, slot, ok := h.expiry.Pop()
		if !ok {
			break
		}
		h.remove(slot)
	}
	slots, lists := h.items.Repack()
	h.expiry.Remap(func(slot int32) int32 { return slots[slot] })
	for k, id := range h.buckets {
		h.buckets[k] = lists[id]
	}
	return removed
}

// remove takes the node at slot out of its bucket, and drops the bucket
// when that was its last.
func (h *Hash) remove(slot int32) {
	id := h.items.ListOf(slot)
	h.items.Remove(slot)
	if h.items.Count(id) == 0 {
		delete(h.buckets, *h.items.Rec(id))
		h.items.Drop(id)
	}
}

// AppendItems implements SweepArea.
func (h *Hash) AppendItems(dst []temporal.Element) []temporal.Element {
	dst = slices.Grow(dst, h.items.Len())
	for _, id := range h.buckets {
		dst = h.items.AppendTo(dst, id)
	}
	return dst
}

// Len implements SweepArea.
func (h *Hash) Len() int { return h.items.Len() }

// MemoryUsage implements SweepArea: the node slab, the list table and
// the expiry heap's array, free slots included.
func (h *Hash) MemoryUsage() int { return h.items.Bytes() + h.expiry.Bytes() }
