package sweeparea

import (
	"slices"
	"unsafe"

	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// KeyFunc extracts the (comparable) join key from a value.
type KeyFunc func(v any) any

// Hash is the equi-join SweepArea: entries are bucketed by join key, so a
// probe touches only its own bucket. Each element is stored once, in the
// area's slab; a bucket is an insertion-ordered slice of 16-byte,
// pointer-free slots that refer to it (not a map): probes scan
// contiguously and — crucially — emit matches in deterministic insertion
// order, which makes join output reproducible run-to-run and lets the
// frame-size invariance harness compare output sequences and state bytes
// exactly. Expiration uses a min-heap on interval end with lazy
// tombstones, keeping Reorganize amortised O(removed · log n); dead slots
// are compacted once they outnumber the live ones. A bucket whose last
// live slot goes is truncated and kept on a spare list (at most as many
// as there are live buckets), and the next new key reuses it with its
// slot capacity.
type Hash struct {
	probeKey  KeyFunc // key of the probing (opposite-input) value
	storedKey KeyFunc // key of stored values
	buckets   map[any]*hashBucket
	spare     []*hashBucket                      // emptied buckets, slots truncated
	slotCap   int                                // slot capacity of every bucket, spares included
	elems     xds.Slab[temporal.Element]         // the stored elements
	expiry    xds.Heap[temporal.Time, hashEntry] // by End
	seq       int64
	size      int
}

// hashBucket is one key's entries in insertion order. Slot seqs are
// strictly increasing (assigned from the area-global counter), so removal
// by seq is a binary search.
type hashBucket struct {
	slots []hashSlot
	live  int
}

// hashSlot is one inserted element: its seq and its slot in the area's
// slab, which a dead slot has given back.
type hashSlot struct {
	seq  int64
	ref  int32
	dead bool
}

// hashEntry is an inserted element's expiry entry: the slot seq of
// key's bucket.
type hashEntry struct {
	seq int64
	key any
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
		buckets:   map[any]*hashBucket{},
	}
}

// Insert implements SweepArea.
func (h *Hash) Insert(e temporal.Element) {
	k := h.storedKey(e.Value)
	b := h.buckets[k]
	if b == nil {
		b = h.newBucket()
		h.buckets[k] = b
	}
	h.seq++
	c := cap(b.slots)
	b.slots = append(b.slots, hashSlot{seq: h.seq, ref: h.elems.Put(e)})
	h.slotCap += cap(b.slots) - c
	b.live++
	h.expiry.Push(e.End, hashEntry{seq: h.seq, key: k})
	h.size++
}

// Probe implements SweepArea. Matches are emitted in insertion order.
func (h *Hash) Probe(probe temporal.Element, emit func(temporal.Element)) {
	b := h.buckets[h.probeKey(probe.Value)]
	if b == nil {
		return
	}
	for i := range b.slots {
		if !b.slots[i].dead {
			emit(h.elems.At(b.slots[i].ref))
		}
	}
}

// Reorganize implements SweepArea.
func (h *Hash) Reorganize(t temporal.Time) int {
	removed := 0
	for {
		end, top, ok := h.expiry.Peek()
		if !ok || end > t {
			return removed
		}
		h.expiry.Pop()
		if h.remove(top) {
			removed++
		}
	}
}

// Shed implements SweepArea: pops the soonest-expiring entries. The
// spare buckets, dead slots and the slab's free slots go too: they are
// memory the area holds but does not use. The live elements move into a
// slab and slot arrays just their size, so a shed frees what it reports.
func (h *Hash) Shed(n int) int {
	removed := 0
	for removed < n {
		_, top, ok := h.expiry.Pop()
		if !ok {
			break
		}
		if h.remove(top) {
			removed++
		}
	}
	h.spare = nil
	var elems xds.Slab[temporal.Element]
	for _, b := range h.buckets {
		live := make([]hashSlot, 0, b.live)
		for _, s := range b.slots {
			if !s.dead {
				live = append(live, hashSlot{seq: s.seq, ref: elems.Put(h.elems.At(s.ref))})
			}
		}
		b.slots = live
	}
	h.elems, h.slotCap = elems, h.size
	return removed
}

func (h *Hash) remove(he hashEntry) bool {
	b := h.buckets[he.key]
	if b == nil {
		return false
	}
	// Binary search: slot seqs are strictly increasing in append order.
	lo, hi := 0, len(b.slots)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.slots[mid].seq < he.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(b.slots) || b.slots[lo].seq != he.seq || b.slots[lo].dead {
		return false // tombstone: already shed/purged
	}
	b.slots[lo].dead = true
	h.elems.Take(b.slots[lo].ref)
	b.live--
	h.size--
	if b.live == 0 {
		h.retire(he.key, b)
		return true
	}
	// Compact once tombstones dominate; in-place filtering preserves
	// insertion order (and therefore probe determinism).
	if len(b.slots) >= 8 && b.live*2 < len(b.slots) {
		kept := b.slots[:0]
		for _, s := range b.slots {
			if !s.dead {
				kept = append(kept, s)
			}
		}
		b.slots = kept
	}
	return true
}

// newBucket takes a spare bucket, or makes one.
func (h *Hash) newBucket() *hashBucket {
	n := len(h.spare)
	if n == 0 {
		return &hashBucket{}
	}
	b := h.spare[n-1]
	h.spare[n-1] = nil
	h.spare = h.spare[:n-1]
	return b
}

// retire drops the emptied bucket of key k and keeps it as a spare while
// spares are fewer than live buckets.
func (h *Hash) retire(k any, b *hashBucket) {
	if len(h.spare) < len(h.buckets) {
		b.slots = b.slots[:0]
		h.spare = append(h.spare, b)
	} else {
		h.slotCap -= cap(b.slots)
	}
	delete(h.buckets, k)
}

// AppendItems implements SweepArea.
func (h *Hash) AppendItems(dst []temporal.Element) []temporal.Element {
	dst = slices.Grow(dst, h.size)
	for _, b := range h.buckets {
		for i := range b.slots {
			if !b.slots[i].dead {
				dst = append(dst, h.elems.At(b.slots[i].ref))
			}
		}
	}
	return dst
}

// Len implements SweepArea.
func (h *Hash) Len() int { return h.size }

// MemoryUsage implements SweepArea.
func (h *Hash) MemoryUsage() int {
	// The slab, free slots included; every bucket's slot array, spares
	// and slots dead until compaction included; and the expiry heap's
	// entries, tombstoned ones included.
	return h.elems.Bytes() + h.slotCap*int(unsafe.Sizeof(hashSlot{})) + h.expiry.Len()*24
}
