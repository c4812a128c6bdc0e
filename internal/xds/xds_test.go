package xds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 100; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
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
	q := NewQueue[int]()
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
	q := NewQueue[string]()
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

func TestBoundedQueueRejectsOverflow(t *testing.T) {
	q := NewBoundedQueue[int](3)
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	if err := q.Enqueue(3); err != ErrFull {
		t.Fatalf("Enqueue beyond capacity: err = %v, want ErrFull", err)
	}
	q.Dequeue()
	if err := q.Enqueue(3); err != nil {
		t.Fatalf("Enqueue after Dequeue: %v", err)
	}
	got := []int{}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestBoundedQueuePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewBoundedQueue[int](0)
}

func TestQueueFIFOProperty(t *testing.T) {
	// Property: a queue drained after n enqueues yields the inputs in order.
	f := func(vals []int32) bool {
		q := NewQueue[int32]()
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
	h := NewHeap[int](func(a, b int) bool { return a < b })
	rng := rand.New(rand.NewSource(42))
	in := make([]int, 500)
	for i := range in {
		in[i] = rng.Intn(1000)
		h.Push(in[i])
	}
	sort.Ints(in)
	for i, want := range in {
		got, ok := h.Pop()
		if !ok || got != want {
			t.Fatalf("Pop #%d = (%d,%v), want (%d,true)", i, got, ok, want)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
}

func TestHeapPeek(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned ok")
	}
	h.Push(5)
	h.Push(1)
	h.Push(3)
	if v, ok := h.Peek(); !ok || v != 1 {
		t.Fatalf("Peek = (%d,%v), want (1,true)", v, ok)
	}
	if h.Len() != 3 {
		t.Fatal("Peek consumed an element")
	}
}

func TestHeapMaxComparator(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a > b })
	for _, v := range []int{3, 9, 1, 7} {
		h.Push(v)
	}
	want := []int{9, 7, 3, 1}
	for _, w := range want {
		got, _ := h.Pop()
		if got != w {
			t.Fatalf("max-heap Pop = %d, want %d", got, w)
		}
	}
}

func TestHeapProperty(t *testing.T) {
	// Property: popping everything yields a sorted permutation of the input.
	f := func(vals []int16) bool {
		h := NewHeap[int16](func(a, b int16) bool { return a < b })
		for _, v := range vals {
			h.Push(v)
		}
		prev := int16(-1 << 15)
		count := 0
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			if v < prev {
				return false
			}
			prev = v
			count++
		}
		return count == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
