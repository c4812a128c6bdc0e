package xds

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
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
// that op>>1 picks. After every op each live slot must read its value,
// and a put must reuse the slot taken last while one is free.
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
	ops := make([]byte, 0, 4*slabChunk*3)
	for i := 0; i < 3*slabChunk; i++ {
		ops = append(ops, 0)
	}
	for i := 0; i < 3*slabChunk; i++ {
		ops = append(ops, byte(2*i+1))
	}
	for i := 0; i < 3*slabChunk; i++ {
		ops = append(ops, 0)
	}
	checkSlab(t, ops)
}

// A slab's chunks are never copied once the first is full, a taken slot
// pins nothing, and a drained slab refills without allocating.
func TestSlabChunksStayPut(t *testing.T) {
	var s Slab[*int]
	slots := make([]int32, 3*slabChunk)
	for i := range slots {
		slots[i] = s.Put(new(int))
	}
	second := &s.chunks[1][0]
	for range 2 * slabChunk {
		s.Put(nil)
	}
	if &s.chunks[1][0] != second {
		t.Fatal("a later chunk moved while the slab grew")
	}
	for _, slot := range slots {
		s.Take(slot)
	}
	for i := range slots {
		if p := s.chunks[slots[i]>>slabShift][slots[i]&slabMask]; p != nil {
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
	if want := 5*slabChunk*8 + cap(s.free)*4; bytes != want || s.Bytes() != want {
		t.Fatalf("Bytes = %d then %d, want %d: five chunks of pointers and the free list", bytes, s.Bytes(), want)
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
