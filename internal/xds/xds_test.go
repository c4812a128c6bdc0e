package xds

import (
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestQueueFIFOOrder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue on empty queue returned ok")
	}
}

func TestQueueInterleaved(t *testing.T) {
	// Interleaving enqueues and dequeues exercises the ring wrap-around.
	var q Queue[int]
	next, expect := 0, 0
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 10000; step++ {
		if rng.Intn(2) == 0 || q.Len() == 0 {
			q.Enqueue(next)
			next++
		} else {
			v, ok := q.Dequeue()
			if !ok || v != expect {
				t.Fatalf("step %d: Dequeue = (%d,%v), want (%d,true)", step, v, ok, expect)
			}
			expect++
		}
		// AppendTo copies the live window across the wrap, after dst.
		got := q.AppendTo([]int{-1})
		if len(got) != q.Len()+1 || got[0] != -1 {
			t.Fatalf("step %d: AppendTo = %v, want -1 then %d..%d", step, got, expect, next-1)
		}
		for i, v := range got[1:] {
			if v != expect+i {
				t.Fatalf("step %d: AppendTo = %v, want -1 then %d..%d", step, got, expect, next-1)
			}
		}
	}
	for q.Len() > 0 {
		v, _ := q.Dequeue()
		if v != expect {
			t.Fatalf("drain: got %d want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d elements, enqueued %d", expect, next)
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue[string]
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue returned ok")
	}
	q.Enqueue("a")
	q.Enqueue("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = (%q,%v), want (a,true)", v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("Peek consumed an element")
	}
}

func TestQueueFIFOProperty(t *testing.T) {
	// Property: a queue drained after n enqueues yields the inputs in order.
	f := func(vals []int32) bool {
		var q Queue[int32]
		for _, v := range vals {
			q.Enqueue(v)
		}
		for _, want := range vals {
			got, ok := q.Dequeue()
			if !ok || got != want {
				return false
			}
		}
		_, ok := q.Dequeue()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeapSortsRandomInput(t *testing.T) {
	var h Heap[int, int]
	rng := rand.New(rand.NewSource(42))
	in := make([]int, 500)
	for i := range in {
		in[i] = rng.Intn(1000)
		h.Push(in[i], -in[i])
	}
	sort.Ints(in)
	for i, want := range in {
		k, v, ok := h.Pop()
		if !ok || k != want || v != -want {
			t.Fatalf("Pop #%d = (%d,%d,%v), want (%d,%d,true)", i, k, v, ok, want, -want)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
}

func TestHeapPeek(t *testing.T) {
	var h Heap[int, string]
	if _, _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned ok")
	}
	h.Push(5, "e")
	h.Push(1, "a")
	h.Push(3, "c")
	if k, v, ok := h.Peek(); !ok || k != 1 || v != "a" {
		t.Fatalf("Peek = (%d,%q,%v), want (1,a,true)", k, v, ok)
	}
	if h.Len() != 3 {
		t.Fatal("Peek consumed an element")
	}
}

func TestHeapProperty(t *testing.T) {
	// Property: popping everything yields a sorted permutation of the input.
	f := func(vals []int16) bool {
		var h Heap[int16, struct{}]
		for _, v := range vals {
			h.Push(v, struct{}{})
		}
		prev := int16(-1 << 15)
		count := 0
		for {
			k, _, ok := h.Pop()
			if !ok {
				break
			}
			if k < prev {
				return false
			}
			prev = k
			count++
		}
		return count == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The visit reads the entries in array order without allocating: the
// operators walk their heaps on the hot path.
func TestHeapAllVisitsArrayOrder(t *testing.T) {
	var h Heap[int, int]
	oracle := oracleHeap[keyed]{less: func(a, b keyed) bool { return a.k < b.k }}
	for i := 0; i < 20; i++ {
		h.Push(i%4, i)
		oracle.push(keyed{i % 4, i})
	}
	h.Pop()
	oracle.pop()
	var want []int
	for _, e := range oracle.data {
		want = append(want, e.seq)
	}
	var got []int
	for k, v := range h.All() {
		if k != v%4 {
			t.Fatalf("entry (%d,%d) lost its key", k, v)
		}
		got = append(got, v)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("All visited %v, the array is %v", got, want)
	}
	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range h.All() {
			sum += v
		}
	}); n != 0 {
		t.Fatalf("a visit allocates %v times", n)
	}
}

// oracleHeap is the comparator heap the engine's heaps were before they
// carried their keys, kept as the order they must reproduce: checkpoints
// write heap arrays verbatim, so the keyed heap must make every sift
// decision the comparator heap made.
type oracleHeap[T any] struct {
	less func(a, b T) bool
	data []T
}

func (h *oracleHeap[T]) push(v T) {
	h.data = append(h.data, v)
	for i := len(h.data) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(h.data[i], h.data[parent]) {
			return
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

func (h *oracleHeap[T]) pop() (T, bool) {
	var zero T
	n := len(h.data)
	if n == 0 {
		return zero, false
	}
	v := h.data[0]
	h.data[0] = h.data[n-1]
	h.data[n-1] = zero
	h.data = h.data[:n-1]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.data) && h.less(h.data[l], h.data[smallest]) {
			smallest = l
		}
		if r < len(h.data) && h.less(h.data[r], h.data[smallest]) {
			smallest = r
		}
		if smallest == i {
			return v, true
		}
		h.data[i], h.data[smallest] = h.data[smallest], h.data[i]
		i = smallest
	}
}

// keyed is an oracle entry: the key the oracle compares and the push
// sequence number that tells equal keys apart.
type keyed struct{ k, seq int }

// checkHeapOrder runs ops on a keyed heap and the oracle side by side.
// Each op byte pushes (its low bit clear) a key in 0..keys-1, so ties
// are frequent, or pops. After every op the pops must agree and so must
// the backing arrays, entry for entry.
func checkHeapOrder(t *testing.T, ops []byte, keys int) {
	t.Helper()
	var h Heap[int, int]
	oracle := oracleHeap[keyed]{less: func(a, b keyed) bool { return a.k < b.k }}
	var arr []int
	for i, op := range ops {
		if op&1 == 0 {
			k := int(op>>1) % keys
			h.Push(k, i)
			oracle.push(keyed{k, i})
		} else {
			k, seq, ok := h.Pop()
			want, wantOK := oracle.pop()
			if ok != wantOK || ok && (k != want.k || seq != want.seq) {
				t.Fatalf("op %d: Pop = (%d,%d,%v), the oracle (%d,%d,%v)", i, k, seq, ok, want.k, want.seq, wantOK)
			}
		}
		arr = arr[:0]
		for _, seq := range h.All() {
			arr = append(arr, seq)
		}
		if len(arr) != len(oracle.data) {
			t.Fatalf("op %d: heap holds %d, the oracle %d", i, len(arr), len(oracle.data))
		}
		for j, seq := range arr {
			if seq != oracle.data[j].seq {
				t.Fatalf("op %d: array %v, the oracle's %v", i, arr, oracle.data)
			}
		}
	}
}

func TestHeapMatchesComparatorOracle(t *testing.T) {
	f := func(ops []byte, keys uint8) bool {
		checkHeapOrder(t, ops, 1+int(keys%8))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzHeapOrder drives random push/pop sequences over a small key range
// through the keyed heap and the comparator oracle.
func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{0, 2, 4, 0, 1, 2, 2, 1, 0, 6, 1, 1, 1}, uint8(3))
	f.Add([]byte{8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, keys uint8) {
		checkHeapOrder(t, ops, 1+int(keys%8))
	})
}

// checkSlab runs ops on a slab and on a map from slot to value. Each op
// byte puts (its low bit clear) the next value or takes the live slot
// that op>>1 picks. After every op each live slot must read its value
// (past 256 live slots, after every 256th op and the last), and a put
// must reuse the slot taken last while one is free.
func checkSlab(t *testing.T, ops []byte) {
	t.Helper()
	var s Slab[int]
	model := map[int32]int{}
	var live, freed []int32 // live slots in put order; taken slots, last last
	fresh := int32(0)
	for i, op := range ops {
		if op&1 == 0 || len(live) == 0 {
			slot := s.Put(i)
			want := fresh
			if n := len(freed); n > 0 {
				want, freed = freed[n-1], freed[:n-1]
			} else {
				fresh++
			}
			if slot != want {
				t.Fatalf("op %d: Put returned slot %d, want %d", i, slot, want)
			}
			if _, ok := model[slot]; ok {
				t.Fatalf("op %d: Put returned live slot %d", i, slot)
			}
			model[slot] = i
			live = append(live, slot)
		} else {
			j := int(op>>1) % len(live)
			slot := live[j]
			live = append(live[:j], live[j+1:]...)
			if v := s.Take(slot); v != model[slot] {
				t.Fatalf("op %d: Take(%d) = %d, the model %d", i, slot, v, model[slot])
			}
			delete(model, slot)
			freed = append(freed, slot)
		}
		if len(model) > 256 && i%256 != 255 && i != len(ops)-1 {
			continue // a large slab is read in full every 256 ops and at the end
		}
		for slot, v := range model {
			if got := s.At(slot); got != v {
				t.Fatalf("op %d: At(%d) = %d, the model %d", i, slot, got, v)
			}
		}
	}
}

func TestSlabMatchesMapModel(t *testing.T) {
	f := func(ops []byte) bool {
		checkSlab(t, ops)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Past the first chunk: fill three chunks, empty them in a scattered
	// order, refill.
	chunk := 1 << chunkShift(8)
	ops := make([]byte, 0, 3*chunk*3)
	for i := 0; i < 3*chunk; i++ {
		ops = append(ops, 0)
	}
	for i := 0; i < 3*chunk; i++ {
		ops = append(ops, byte(2*i+1))
	}
	for i := 0; i < 3*chunk; i++ {
		ops = append(ops, 0)
	}
	checkSlab(t, ops)
}

// A slab's chunks are never copied once the first is full, a taken slot
// pins nothing, and a drained slab refills without allocating.
func TestSlabChunksStayPut(t *testing.T) {
	var s Slab[*int]
	chunk := 1 << chunkShift(8)
	slots := make([]int32, 3*chunk)
	for i := range slots {
		slots[i] = s.Put(new(int))
	}
	second := &s.chunks[1][0]
	for range 2 * chunk {
		s.Put(nil)
	}
	if &s.chunks[1][0] != second {
		t.Fatal("a later chunk moved while the slab grew")
	}
	for _, slot := range slots {
		s.Take(slot)
	}
	for i := range slots {
		if p := *s.ptr(slots[i]); p != nil {
			t.Fatalf("taken slot %d still holds %p", slots[i], p)
		}
	}
	bytes := s.Bytes()
	if n := testing.AllocsPerRun(10, func() {
		for i := range slots {
			slots[i] = s.Put(nil)
		}
		for _, slot := range slots {
			s.Take(slot)
		}
	}); n != 0 {
		t.Fatalf("refilling freed slots allocates %v times", n)
	}
	if want := 5*chunk*8 + cap(s.free)*4; bytes != want || s.Bytes() != want {
		t.Fatalf("Bytes = %d then %d, want %d: five chunks of pointers and the free list", bytes, s.Bytes(), want)
	}
}

// element48 is the shape of a temporal.Element: two interface words
// and an interval.
type element48 struct {
	a, b any
	s, e int64
}

// node64 is the size of a list node of elements: 48 bytes of value with
// two interface words, and three int32 links.
type node64 struct {
	a, b    any
	s, e    int64
	l, p, n int32
}

// A full chunk allocates exactly its slots' bytes, for values with and
// without pointers: the allocator rounds nothing up.
func TestSlabChunkAllocatesItsSlotBytes(t *testing.T) {
	t.Run("node64", func(t *testing.T) { checkChunkBytes[node64](t) })
	t.Run("element48", func(t *testing.T) {
		checkChunkBytes[struct {
			a, b any
			s, e int64
		}](t)
	})
	t.Run("pointer", func(t *testing.T) { checkChunkBytes[*int](t) })
	t.Run("int32", func(t *testing.T) { checkChunkBytes[int32](t) })
	t.Run("twelve", func(t *testing.T) { checkChunkBytes[[3]int32](t) })
}

func checkChunkBytes[T any](t *testing.T) {
	var zero T
	size := uint64(unsafe.Sizeof(zero))
	// The fourth chunk: the chunk list has room for it, so the Put that
	// opens it allocates the chunk alone. Another goroutine of the test
	// binary may allocate meanwhile, so the fewest bytes of three tries
	// count.
	got, chunk := uint64(math.MaxUint64), 0
	for range 3 {
		var s Slab[T]
		s.Put(zero)
		chunk = 1 << s.shift
		for range 3*chunk - 1 {
			s.Put(zero)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Put(zero)
		runtime.ReadMemStats(&after)
		if len(s.chunks) != 4 || cap(s.chunks) != 4 {
			t.Fatalf("%d chunks (room for %d), want the fourth opened in place", len(s.chunks), cap(s.chunks))
		}
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if chunk < 1024 || uint64(chunk)*size%pageBytes != 0 {
		t.Fatalf("a chunk of %d %d-byte slots fills no whole pages", chunk, size)
	}
	if want := uint64(chunk) * size; got != want {
		t.Fatalf("opening a chunk of %d slots allocated %d bytes, want its %d slot bytes", chunk, got, want)
	}
}

// FuzzSlab drives random put/take sequences through the slab and the
// map model.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 0, 0, 5, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkSlab(t, ops)
	})
}

// checkLists runs ops on a set of lists and on a model of slices of
// (slot, value) pairs, one per list id, and of records. Each op byte
// picks, by its low two bits, a new list, an append to the list op>>2
// picks, a removal of the live node op>>2 picks, or, once every eighth
// op, a repack; an emptied list is dropped. After every op each model
// list must walk in order and carry its record, every node must name its
// list, and a new list must reuse the id dropped last.
func checkLists(t *testing.T, ops []byte) {
	t.Helper()
	type item struct {
		slot int32
		v    int
	}
	var l Lists[int, int]
	model := map[int32][]item{}
	recs := map[int32]int{}
	var ids, dropped []int32 // live list ids; dropped ids, last last
	for i, op := range ops {
		switch {
		case i%8 == 7:
			slots, lists := l.Repack()
			repacked, moved := map[int32][]item{}, map[int32]int{}
			for id, items := range model {
				if len(items) == 0 {
					if lists[id] != -1 {
						t.Fatalf("op %d: repack kept empty list %d as %d", i, id, lists[id])
					}
					continue
				}
				for j := range items {
					items[j].slot = slots[items[j].slot]
				}
				repacked[lists[id]], moved[lists[id]] = items, recs[id]
			}
			model, recs, dropped = repacked, moved, nil
			ids = ids[:0]
			for id := range model {
				ids = append(ids, id)
			}
			slices.Sort(ids)
		case op&3 == 0 || len(ids) == 0:
			id := l.New(-i)
			if n := len(dropped); n > 0 {
				if want := dropped[n-1]; id != want {
					t.Fatalf("op %d: New returned list %d, want dropped %d", i, id, want)
				}
				dropped = dropped[:n-1]
			}
			if _, ok := model[id]; ok {
				t.Fatalf("op %d: New returned live list %d", i, id)
			}
			model[id], recs[id] = nil, -i
			ids = append(ids, id)
		case op&3 == 1 || l.Len() == 0:
			id := ids[int(op>>2)%len(ids)]
			model[id] = append(model[id], item{l.Append(id, i), i})
		default:
			var all []int32
			for _, id := range ids {
				for _, it := range model[id] {
					all = append(all, it.slot)
				}
			}
			slot := all[int(op>>2)%len(all)]
			id := l.ListOf(slot)
			j := slices.IndexFunc(model[id], func(it item) bool { return it.slot == slot })
			if j < 0 {
				t.Fatalf("op %d: node %d names list %d, which does not hold it", i, slot, id)
			}
			if v := l.Remove(slot); v != model[id][j].v {
				t.Fatalf("op %d: Remove(%d) = %d, the model %d", i, slot, v, model[id][j].v)
			}
			model[id] = slices.Delete(model[id], j, j+1)
			if len(model[id]) == 0 {
				l.Drop(id)
				delete(model, id)
				delete(recs, id)
				ids = slices.DeleteFunc(ids, func(x int32) bool { return x == id })
				dropped = append(dropped, id)
			}
		}
		n := 0
		for id, items := range model {
			n += len(items)
			if l.Count(id) != len(items) || *l.Rec(id) != recs[id] {
				t.Fatalf("op %d: list %d counts %d and carries %d, the model %d and %d", i, id, l.Count(id), *l.Rec(id), len(items), recs[id])
			}
			s := l.Head(id)
			for _, it := range items {
				if s != it.slot || l.At(s) != it.v || l.ListOf(s) != id {
					t.Fatalf("op %d: list %d walks to slot %d, the model (%d, %d)", i, id, s, it.slot, it.v)
				}
				s = l.Next(s)
			}
			if s != -1 {
				t.Fatalf("op %d: list %d runs on past its %d values", i, id, len(items))
			}
			got := l.AppendTo(nil, id)
			for j, it := range items {
				if got[j] != it.v {
					t.Fatalf("op %d: AppendTo(%d) = %v, the model %v", i, id, got, items)
				}
			}
		}
		if l.Len() != n {
			t.Fatalf("op %d: Len = %d, the model %d", i, l.Len(), n)
		}
	}
}

func TestListsMatchModel(t *testing.T) {
	f := func(ops []byte) bool {
		checkLists(t, ops)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A repack leaves a slab just the live nodes' size and a table just the
// nonempty lists' number, and lists keep appending after it.
func TestListsRepackIsExact(t *testing.T) {
	var l Lists[element48, string]
	if n := unsafe.Sizeof(listNode[element48]{}); n != 64 {
		t.Fatalf("a list node of elements is %d bytes, want 64", n)
	}
	a, _, b := l.New("a"), l.New("empty"), l.New("b")
	var slots []int32
	for i := range 3000 {
		slots = append(slots, l.Append([]int32{a, b}[i%2], element48{s: int64(i)}))
	}
	for _, s := range slots[:2000] {
		l.Remove(s)
	}
	_, lists := l.Repack()
	if got, want := l.Bytes(), 1000*64+2*32; got != want {
		t.Fatalf("repacked lists of 1000 nodes in two lists hold %d bytes, want %d", got, want)
	}
	if lists[a] != 0 || lists[1] != -1 || lists[b] != 1 || *l.Rec(0) != "a" || *l.Rec(1) != "b" {
		t.Fatalf("repack renumbered lists 0, 1, 2 as %v carrying %q, %q; want 0, -1, 1 carrying a, b", lists, *l.Rec(0), *l.Rec(1))
	}
	a = lists[a]
	l.Append(a, element48{s: 3000})
	var starts []int64
	for _, v := range l.AppendTo(nil, a) {
		starts = append(starts, v.s)
	}
	if len(starts) != 501 || starts[0] != 2000 || starts[499] != 2998 || starts[500] != 3000 {
		t.Fatalf("list after repack and append holds starts %v…, want 2000, 2002, … 2998, 3000", starts[:3])
	}
}

// FuzzLists drives random list operations through the lists and the
// model.
func FuzzLists(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 5, 2, 6, 9, 2, 2, 0, 1})
	f.Add([]byte{0, 0, 0, 1, 5, 9, 13, 2, 6, 10, 14, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkLists(t, ops)
	})
}

// checkIndexedHeap runs ops on an indexed heap and on a map from owner
// to key, over keys 0..keys-1 so that ties are frequent and owners
// 0..15 so that ids are reused. Each op byte picks, by its low two bits,
// a push for the owner op>>2 picks (the lowest free one if it has an
// entry), a move of the entry op>>2 picks to a new key, its removal, or
// a removal of the top's owner. After every op the array must be a heap
// whose index finds every entry and no other owner, and Peek must name
// an owner of the model's smallest key.
func checkIndexedHeap(t *testing.T, ops []byte, keys int) {
	t.Helper()
	var h IndexedHeap[int]
	model := map[int32]int{}
	var live []int32
	for i, op := range ops {
		k := int(op>>2) % keys
		switch {
		case op&3 == 0 && len(live) < 16 || len(live) == 0:
			id := int32(op>>2) % 16
			for slices.Contains(live, id) {
				id = (id + 1) % 16
			}
			h.Push(id, k)
			model[id] = k
			live = append(live, id)
		case op&3 == 1:
			id := live[int(op>>2)%len(live)]
			h.Set(id, (k*7+i)%keys)
			model[id] = (k*7 + i) % keys
		default:
			j := int(op>>2) % len(live)
			if op&3 == 3 { // the top's owner
				_, top, _ := h.Peek()
				j = slices.Index(live, top)
			}
			id := live[j]
			h.Remove(id)
			delete(model, id)
			live = slices.Delete(live, j, j+1)
		}
		if h.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, the model %d", i, h.Len(), len(model))
		}
		for j, e := range h.data {
			if j > 0 && e.k < h.data[(j-1)/2].k {
				t.Fatalf("op %d: entry %d (%d) sorts before its parent (%d)", i, j, e.k, h.data[(j-1)/2].k)
			}
			if int(h.at[e.id]) != j || model[e.id] != e.k {
				t.Fatalf("op %d: entry %d holds owner %d key %d; the index says %d, the model %d", i, j, e.id, e.k, h.at[e.id], model[e.id])
			}
		}
		for id, at := range h.at {
			if _, ok := model[int32(id)]; !ok && at != -1 {
				t.Fatalf("op %d: owner %d has no entry, but the index says %d", i, id, at)
			}
		}
		top, id, ok := h.Peek()
		if ok != (len(model) > 0) || ok && (top != slices.Min(slices.Collect(maps.Values(model))) || model[id] != top) {
			t.Fatalf("op %d: Peek = (%d, owner %d, %v), the model's smallest of %v", i, top, id, ok, model)
		}
	}
}

func TestIndexedHeapMatchesModel(t *testing.T) {
	f := func(ops []byte, keys uint8) bool {
		checkIndexedHeap(t, ops, 1+int(keys%8))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzIndexedHeap drives random push/set/remove sequences through the
// indexed heap and the model, Peek's owner included.
func FuzzIndexedHeap(f *testing.F) {
	f.Add([]byte{0, 4, 8, 1, 5, 2, 3, 0, 12, 7, 3, 3}, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3}, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, keys uint8) {
		checkIndexedHeap(t, ops, 1+int(keys%8))
	})
}
