// Bounded per-query result delivery. A ResultBuffer sits between a
// query's root operator and its remote consumers: the graph-facing side
// (resultSink.ProcessBatch, which renders a frame and appends it in one
// lock acquisition, or Append with an already-rendered result) NEVER
// blocks — it appends to a byte-bounded ring and, when over budget, sheds
// the oldest entries and counts what an attached reader loses. The ring
// is a circular array of entries that grows by doubling only when full
// and zeroes a slot as it evicts it, so in steady state an append costs
// no allocation and an evicted frame's arena is unreachable from the
// buffer at once. Consumers (SSE streams, long-polls) read through
// cursor-positioned Readers that copy entry headers into a slice of
// their own and wait on the buffer without ever backpressuring the
// shared graph: a stalled consumer costs shed results, not graph
// throughput.
package service

import (
	"context"
	"sync"

	"pipes/internal/temporal"
)

// entryOverhead is the bookkeeping an entry costs beyond its payload:
// one ring slot, unsafe.Sizeof(Entry{}). Charging it per entry keeps
// capacity accounting honest for tiny results and bounds the ring array
// itself by capBytes.
const entryOverhead = 48

// Entry is one delivered result: a rendered JSON value plus the
// element's validity interval and its position in the query's result
// sequence (seqs start at 1 and never repeat).
type Entry struct {
	Seq        uint64
	Start, End temporal.Time
	// Data is the compact JSON rendering of the result value, written to
	// the wire verbatim. It is immutable once appended: readers copy the
	// Entry but share Data's bytes. Entries appended by one resultSink
	// frame are capped views of one shared arena, which stays alive until
	// the last of them is evicted and every reader that copied one has
	// moved past it.
	Data []byte
}

// BufferStats is a point-in-time snapshot of a buffer's counters.
type BufferStats struct {
	// Results and ResultBytes count everything ever appended.
	Results     int64
	ResultBytes int64
	// Shed counts entries evicted before an attached reader consumed
	// them — the slow-consumer loss figure behind
	// pipes_tenant_result_shed.
	Shed int64
	// Buffered/BufferedBytes describe current ring occupancy; CapBytes
	// is the configured bound.
	Buffered      int
	BufferedBytes int
	CapBytes      int
	// Readers is the number of attached readers.
	Readers int
	// Done reports end-of-stream (the query's inputs finished or the
	// query was killed).
	Done bool
}

// ResultBuffer is the bounded result ring of one standing query. All
// methods are safe for concurrent use; none of them blocks beyond the
// internal mutex (waiting happens in Reader.Next, outside the lock).
type ResultBuffer struct {
	capBytes int

	// mu is a leaf lock: nothing is acquired and no dynamic call is made
	// while holding it, so the graph-facing Append path cannot deadlock
	// against consumer-side waits.
	//pipesvet:lockclass stats
	mu sync.Mutex
	// ring holds the n retained entries, oldest at ring[head], wrapping
	// at len(ring); their seqs are contiguous. Slots outside them are
	// zero, so the ring keeps no evicted arena alive.
	ring    []Entry
	head, n int
	nextSeq uint64 // last assigned seq (0 = none yet)
	bytes   int    // current ring occupancy incl. overhead

	total      int64
	totalBytes int64
	shed       int64
	done       bool

	// notify is closed and replaced when new data or done arrives and
	// armed says a reader parked on it; readers arm it and snapshot it
	// under mu, so an append after the snapshot always sees armed.
	notify  chan struct{}
	armed   bool
	readers map[*Reader]struct{}
}

// NewResultBuffer returns a buffer bounded to capBytes of rendered
// results (minimum one entry is always retained regardless of size).
func NewResultBuffer(capBytes int) *ResultBuffer {
	if capBytes <= 0 {
		capBytes = 1 << 20
	}
	return &ResultBuffer{
		capBytes: capBytes,
		notify:   make(chan struct{}),
		readers:  map[*Reader]struct{}{},
	}
}

// firstRetainedLocked returns the seq of the oldest retained entry, or
// nextSeq+1 when the ring is empty.
func (b *ResultBuffer) firstRetainedLocked() uint64 {
	return b.nextSeq + 1 - uint64(b.n)
}

// slot returns the ring index of the i-th retained entry (0 = oldest).
func (b *ResultBuffer) slot(i int) int {
	if i += b.head; i >= len(b.ring) {
		i -= len(b.ring)
	}
	return i
}

// growLocked doubles the full ring, unwrapping it so the oldest entry
// lands at index 0. The new length never exceeds what capBytes can hold
// at entryOverhead per entry (at least one), so the ring array stays
// within the buffer's byte bound.
func (b *ResultBuffer) growLocked() {
	size := min(max(2*len(b.ring), 8), max(b.capBytes/entryOverhead, 1))
	ring := make([]Entry, size)
	k := copy(ring, b.ring[b.head:])
	copy(ring[k:], b.ring[:b.head])
	b.ring, b.head = ring, 0
}

// minCursorLocked returns the smallest attached-reader cursor, and
// whether any reader is attached.
func (b *ResultBuffer) minCursorLocked() (uint64, bool) {
	min, any := uint64(0), false
	for r := range b.readers {
		if !any || r.cursor < min {
			min, any = r.cursor, true
		}
	}
	return min, any
}

// Append renders nothing itself — data must already be an immutable,
// compact JSON rendering, HTML-escaped as encoding/json renders it —
// and never blocks. Appending after Done is ignored.
func (b *ResultBuffer) Append(data []byte, start, end temporal.Time) {
	b.mu.Lock()
	if !b.done {
		b.appendLocked(data, start, end)
		b.signalLocked()
	}
	b.mu.Unlock()
}

// appendFrame appends one frame's results under one lock acquisition and
// one wake-up: result i of frame is arena[ends[i-1]:ends[i]], capped so
// no entry can grow into its neighbour.
func (b *ResultBuffer) appendFrame(frame temporal.Batch, arena []byte, ends []int) {
	b.mu.Lock()
	if !b.done {
		lo := 0
		for i, e := range frame {
			hi := ends[i]
			b.appendLocked(arena[lo:hi:hi], e.Start, e.End)
			lo = hi
		}
		b.signalLocked()
	}
	b.mu.Unlock()
}

// appendLocked pushes one entry. Over budget it evicts oldest-first,
// counting as shed every evicted entry at least one attached reader had
// not consumed.
func (b *ResultBuffer) appendLocked(data []byte, start, end temporal.Time) {
	size := len(data) + entryOverhead
	if b.bytes+size > b.capBytes && b.n > 0 {
		minCursor, haveReader := b.minCursorLocked()
		for b.bytes+size > b.capBytes && b.n > 0 {
			evicted := &b.ring[b.head]
			b.bytes -= len(evicted.Data) + entryOverhead
			if haveReader && evicted.Seq > minCursor {
				b.shed++
			}
			*evicted = Entry{}
			b.head, b.n = b.slot(1), b.n-1
		}
	}
	if b.n == len(b.ring) {
		b.growLocked()
	}
	b.nextSeq++
	b.ring[b.slot(b.n)] = Entry{Seq: b.nextSeq, Start: start, End: end, Data: data}
	b.n++
	b.bytes += size
	b.total++
	b.totalBytes += int64(len(data))
}

// signalLocked wakes every parked reader, if any armed notify. close()
// is not a channel communication: it never blocks the graph-facing
// caller.
func (b *ResultBuffer) signalLocked() {
	if b.armed {
		close(b.notify)
		b.notify = make(chan struct{})
		b.armed = false
	}
}

// MarkDone records end-of-stream and wakes waiting readers. Idempotent.
func (b *ResultBuffer) MarkDone() {
	b.mu.Lock()
	if !b.done {
		b.done = true
		b.signalLocked()
	}
	b.mu.Unlock()
}

// Done reports whether MarkDone has been called.
func (b *ResultBuffer) Done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done
}

// Stats returns a snapshot of the buffer's counters.
func (b *ResultBuffer) Stats() BufferStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BufferStats{
		Results:       b.total,
		ResultBytes:   b.totalBytes,
		Shed:          b.shed,
		Buffered:      b.n,
		BufferedBytes: b.bytes,
		CapBytes:      b.capBytes,
		Readers:       len(b.readers),
		Done:          b.done,
	}
}

// Reader is one attached consumer cursor. While attached, entries
// evicted past its cursor count as shed; Close detaches it. A Reader is
// used by one goroutine at a time.
type Reader struct {
	b      *ResultBuffer
	cursor uint64 // last consumed seq
	closed bool
	out    []Entry // the last batch handed out, reused by the next read
}

// NewReader attaches a reader positioned after seq `after` (0 = from the
// oldest retained entry).
func (b *ResultBuffer) NewReader(after uint64) *Reader {
	r := &Reader{b: b, cursor: after}
	b.mu.Lock()
	b.readers[r] = struct{}{}
	b.mu.Unlock()
	return r
}

// Cursor returns the last consumed seq — the ?after= value that resumes
// this reader's position.
func (r *Reader) Cursor() uint64 {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.cursor
}

// Close detaches the reader. Idempotent.
func (r *Reader) Close() {
	r.b.mu.Lock()
	if !r.closed {
		r.closed = true
		delete(r.b.readers, r)
	}
	r.b.mu.Unlock()
}

// collectLocked returns up to max available entries past the cursor and
// advances it, reporting how many were lost to eviction since the last
// read and whether the stream is complete (done and fully consumed).
// The entries are copied into r.out, which the next read clears first,
// so a reader keeps no arena alive past the batch it was last handed.
func (r *Reader) collectLocked(max int) (out []Entry, dropped int64, done bool) {
	b := r.b
	clear(r.out)
	first := b.firstRetainedLocked()
	if r.cursor+1 < first {
		dropped = int64(first - 1 - r.cursor)
		r.cursor = first - 1
	}
	// Retained seqs are contiguous from first, so the entry after the
	// cursor sits at a known index. A cursor ahead of the stream (a
	// client-supplied ?after=) has nothing to read yet.
	if skip := r.cursor + 1 - first; skip < uint64(b.n) {
		n := min(max, b.n-int(skip))
		// A copy of the headers, not a view: eviction zeroes ring slots
		// and appends reuse them, so a view would change under a reader
		// that released the lock. Data's bytes are immutable and shared.
		// The capped capacity keeps a caller's append out of r.out.
		lo := b.slot(int(skip))
		hi := lo + n
		r.out = append(r.out[:0], b.ring[lo:min(hi, len(b.ring))]...)
		if hi > len(b.ring) {
			r.out = append(r.out, b.ring[:hi-len(b.ring)]...)
		}
		out = r.out[:n:n]
		r.cursor += uint64(n)
	}
	// >=, not ==: a cursor ahead of a finished stream (a stale ?after=)
	// will never be reached and must see done rather than wait forever.
	done = b.done && r.cursor >= b.nextSeq
	return out, dropped, done
}

// TryNext returns whatever is immediately available (possibly nothing)
// without waiting. The returned slice is the reader's own and is valid
// until its next TryNext or Next.
func (r *Reader) TryNext(max int) (out []Entry, dropped int64, done bool) {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.collectLocked(max)
}

// Next returns the next batch of entries, waiting until at least one
// entry, a shed gap or end-of-stream is observable, or ctx ends. It
// waits on the buffer's notify channel outside the lock: a waiting
// reader costs the graph nothing. The returned slice is the reader's own
// and is valid until its next Next or TryNext.
func (r *Reader) Next(ctx context.Context, max int) (out []Entry, dropped int64, done bool, err error) {
	for {
		r.b.mu.Lock()
		out, dropped, done = r.collectLocked(max)
		if len(out) > 0 || dropped > 0 || done {
			r.b.mu.Unlock()
			return out, dropped, done, nil
		}
		r.b.armed = true
		ch := r.b.notify
		r.b.mu.Unlock()
		//pipesvet:allow nogoroutine consumer-side wait: Readers run on HTTP handler goroutines, the sanctioned boundary between the graph and remote consumers; the graph-facing Append path never touches a channel
		select {
		case <-ch: //pipesvet:allow nogoroutine wake-up receive on the consumer goroutine, outside the operator graph
		case <-ctx.Done(): //pipesvet:allow nogoroutine cancellation receive on the consumer goroutine, outside the operator graph
			return nil, 0, false, ctx.Err()
		}
	}
}
