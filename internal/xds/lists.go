package xds

// Lists is a set of doubly linked lists whose nodes share one slab: a
// keyed structure holds one list id per key where it would hold a small
// growing container, and each value once, in a node that also records
// its list and its neighbours. Each list carries a record of type R, the
// key's own fields, in the list table, which is a slab too: neither
// nodes nor records are ever copied once their first chunk is full. A new
// key costs a table slot, reused once dropped; a value costs a node slot,
// and a value leaves its list in O(1) by its slot, wherever it sits.
// Lists keep insertion order. The zero value holds no list.
type Lists[T, R any] struct {
	nodes Slab[listNode[T]]
	lists Slab[listHead[R]] // by list id
	n     int               // live nodes
}

// listNode is one value in its list: the list's id and the slots of its
// neighbours, -1 past either end.
type listNode[T any] struct {
	v                T
	list, prev, next int32
}

// listHead is one list: the slots of its first and last nodes, -1 when
// it is empty, its length and its record.
type listHead[R any] struct {
	head, tail, n int32
	rec           R
}

// New returns the id of a new empty list carrying rec: the id dropped
// last, if any is.
func (l *Lists[T, R]) New(rec R) int32 {
	return l.lists.Put(listHead[R]{head: -1, tail: -1, rec: rec})
}

// Drop gives back the id of list, which must be empty, and clears its
// record.
func (l *Lists[T, R]) Drop(list int32) {
	if l.lists.ptr(list).n != 0 {
		panic("xds: dropping a list that holds values")
	}
	l.lists.Take(list)
}

// Rec returns list's record, which stays where it is until the next New.
func (l *Lists[T, R]) Rec(list int32) *R { return &l.lists.ptr(list).rec }

// Append adds v at the end of list and returns its node's slot.
func (l *Lists[T, R]) Append(list int32, v T) int32 {
	h := l.lists.ptr(list)
	slot := l.nodes.Put(listNode[T]{v: v, list: list, prev: h.tail, next: -1})
	if h.tail < 0 {
		h.head = slot
	} else {
		l.nodes.ptr(h.tail).next = slot
	}
	h.tail = slot
	h.n++
	l.n++
	return slot
}

// Remove unlinks the node at slot, which must be live, frees the slot
// and returns the node's value.
func (l *Lists[T, R]) Remove(slot int32) T {
	nd := l.nodes.Take(slot)
	h := l.lists.ptr(nd.list)
	if nd.prev < 0 {
		h.head = nd.next
	} else {
		l.nodes.ptr(nd.prev).next = nd.next
	}
	if nd.next < 0 {
		h.tail = nd.prev
	} else {
		l.nodes.ptr(nd.next).prev = nd.prev
	}
	h.n--
	l.n--
	return nd.v
}

// At returns the value of the node at slot, which must be live.
func (l *Lists[T, R]) At(slot int32) T { return l.nodes.ptr(slot).v }

// ListOf returns the id of the list the node at slot belongs to.
func (l *Lists[T, R]) ListOf(slot int32) int32 { return l.nodes.ptr(slot).list }

// Head returns the slot of list's first node, -1 when it is empty.
func (l *Lists[T, R]) Head(list int32) int32 { return l.lists.ptr(list).head }

// Next returns the slot of the node after the one at slot, -1 at the end
// of its list.
func (l *Lists[T, R]) Next(slot int32) int32 { return l.nodes.ptr(slot).next }

// Count returns the length of list.
func (l *Lists[T, R]) Count(list int32) int { return int(l.lists.ptr(list).n) }

// Len returns the number of values in all lists.
func (l *Lists[T, R]) Len() int { return l.n }

// AppendTo appends list's values to dst in list order.
func (l *Lists[T, R]) AppendTo(dst []T, list int32) []T {
	for s := l.lists.ptr(list).head; s >= 0; {
		nd := l.nodes.ptr(s)
		dst = append(dst, nd.v)
		s = nd.next
	}
	return dst
}

// Repack moves every value into a new slab just their size, and every
// list that holds one, with its record, into a new table just their
// number, list by list in id order, each in its list order; empty lists
// go. It returns the new slot of every old one and the new id of every
// old list, -1 for an old slot or list that held no value.
func (l *Lists[T, R]) Repack() (slots, lists []int32) {
	slots, lists = make([]int32, l.nodes.top), make([]int32, l.lists.top)
	for i := range slots {
		slots[i] = -1
	}
	live := 0
	for id := range lists {
		lists[id] = -1
		if l.lists.ptr(int32(id)).n > 0 {
			live++
		}
	}
	var nodes Slab[listNode[T]]
	var table Slab[listHead[R]]
	if live > 0 {
		nodes.reserve(l.n)
		table.reserve(live)
	}
	for old := range lists {
		h := l.lists.ptr(int32(old))
		if h.n == 0 {
			continue
		}
		id := table.Put(listHead[R]{head: -1, tail: -1, n: h.n, rec: h.rec})
		nh := table.ptr(id)
		lists[old] = id
		for s := h.head; s >= 0; s = l.nodes.ptr(s).next {
			slot := nodes.Put(listNode[T]{v: l.nodes.ptr(s).v, list: id, prev: nh.tail, next: -1})
			if nh.tail < 0 {
				nh.head = slot
			} else {
				nodes.ptr(nh.tail).next = slot
			}
			slots[s], nh.tail = slot, slot
		}
	}
	l.nodes, l.lists = nodes, table
	return slots, lists
}

// Bytes returns what the lists have allocated: the node slab and the
// list table, free slots included.
func (l *Lists[T, R]) Bytes() int { return l.nodes.Bytes() + l.lists.Bytes() }
