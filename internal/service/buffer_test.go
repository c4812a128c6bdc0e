package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pipes/internal/cql"
	"pipes/internal/temporal"
)

func appendN(b *ResultBuffer, n int, size int) {
	for i := 0; i < n; i++ {
		data := make([]byte, size)
		copy(data, fmt.Sprintf("%d", i))
		b.Append(data, temporal.Time(i), temporal.Time(i+1))
	}
}

func TestBufferAppendAndRead(t *testing.T) {
	b := NewResultBuffer(1 << 20)
	appendN(b, 3, 10)
	r := b.NewReader(0)
	defer r.Close()

	out, dropped, done := r.TryNext(10)
	if len(out) != 3 || dropped != 0 || done {
		t.Fatalf("TryNext = %d entries, dropped %d, done %v; want 3, 0, false", len(out), dropped, done)
	}
	if out[0].Seq != 1 || out[2].Seq != 3 {
		t.Fatalf("seqs = %d..%d, want 1..3", out[0].Seq, out[2].Seq)
	}
	b.MarkDone()
	out, _, done = r.TryNext(10)
	if len(out) != 0 || !done {
		t.Fatalf("after done: %d entries, done %v; want 0, true", len(out), done)
	}
	st := b.Stats()
	if st.Results != 3 || st.Shed != 0 || !st.Done {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBufferShedOnlyBehindAttachedReader(t *testing.T) {
	// Each 100-byte entry costs 100+entryOverhead; cap fits ~4.
	cap := 4 * (100 + entryOverhead)
	b := NewResultBuffer(cap)

	// No reader attached: eviction is not shed.
	appendN(b, 20, 100)
	if st := b.Stats(); st.Shed != 0 {
		t.Fatalf("shed with no reader = %d, want 0", st.Shed)
	}

	// A reader at cursor 0 is behind everything: further evictions shed.
	r := b.NewReader(0)
	defer r.Close()
	appendN(b, 20, 100)
	st := b.Stats()
	if st.Shed == 0 {
		t.Fatalf("no shed counted with a lagging reader attached; stats %+v", st)
	}

	// The reader observes the gap as dropped and resumes at the oldest
	// retained entry.
	out, dropped, _ := r.TryNext(100)
	if dropped == 0 {
		t.Fatalf("reader saw no dropped gap")
	}
	if len(out) == 0 || out[0].Seq != uint64(40)-uint64(st.Buffered)+1 {
		t.Fatalf("reader resumed at %v, buffered %d", out[0].Seq, st.Buffered)
	}

	// A caught-up reader sheds nothing more.
	before := b.Stats().Shed
	appendN(b, 2, 100)
	r.TryNext(100)
	appendN(b, 2, 100)
	if after := b.Stats().Shed; after != before {
		t.Fatalf("caught-up reader shed %d more", after-before)
	}
}

// Paging across an eviction: the reader reports the gap once, resumes at
// the oldest retained entry, and every page after it is gap-free — also
// when a page was handed out before the eviction and the ring has moved
// under it since.
func TestBufferPagesAcrossEviction(t *testing.T) {
	b := NewResultBuffer(8 * (100 + entryOverhead))
	appendN(b, 8, 100) // ring holds seqs 1..8
	r := b.NewReader(0)
	defer r.Close()

	held, dropped, _ := r.TryNext(3)
	if len(held) != 3 || dropped != 0 || held[0].Seq != 1 || held[2].Seq != 3 {
		t.Fatalf("first page = %d entries from %v, dropped %d; want seqs 1..3, 0", len(held), held, dropped)
	}
	appendN(b, 10, 100) // evicts 1..10, ring holds 11..18; cursor is 3
	for i, e := range held {
		if e.Seq != uint64(i+1) || string(e.Data[:1]) != fmt.Sprint(i) {
			t.Fatalf("page handed out before the eviction changed under the reader: entry %d = seq %d %q", i, e.Seq, e.Data[:1])
		}
	}

	want, gap := uint64(11), int64(7) // seqs 4..10 were never read
	for want <= 18 {
		out, dropped, _ := r.TryNext(3)
		if dropped != gap {
			t.Fatalf("page at seq %d reported %d dropped, want %d", want, dropped, gap)
		}
		gap = 0
		if len(out) == 0 || len(out) > 3 {
			t.Fatalf("page at seq %d has %d entries, want 1..3", want, len(out))
		}
		for _, e := range out {
			if e.Seq != want {
				t.Fatalf("seq %d where %d was due", e.Seq, want)
			}
			want++
		}
	}
	if out, dropped, _ := r.TryNext(3); len(out) != 0 || dropped != 0 || r.Cursor() != 18 {
		t.Fatalf("caught-up read = %d entries, dropped %d, cursor %d; want 0, 0, 18", len(out), dropped, r.Cursor())
	}

	// A cursor ahead of the stream reads nothing until the stream gets there.
	ahead := b.NewReader(25)
	defer ahead.Close()
	if out, dropped, _ := ahead.TryNext(3); len(out) != 0 || dropped != 0 {
		t.Fatalf("reader ahead of the stream got %d entries, dropped %d", len(out), dropped)
	}
}

func TestBufferNextWakesOnAppendAndDone(t *testing.T) {
	b := NewResultBuffer(1 << 20)
	r := b.NewReader(0)
	defer r.Close()

	go func() {
		time.Sleep(10 * time.Millisecond)
		b.Append([]byte(`1`), 0, 1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, _, done, err := r.Next(ctx, 10)
	if err != nil || len(out) != 1 || done {
		t.Fatalf("Next = %d entries, done %v, err %v", len(out), done, err)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		b.MarkDone()
	}()
	out, _, done, err = r.Next(ctx, 10)
	if err != nil || len(out) != 0 || !done {
		t.Fatalf("Next after done = %d entries, done %v, err %v", len(out), done, err)
	}
}

func TestBufferNextHonoursContext(t *testing.T) {
	b := NewResultBuffer(1 << 20)
	r := b.NewReader(0)
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, _, err := r.Next(ctx, 10)
	if err == nil {
		t.Fatal("Next returned without data or context error")
	}
}

func TestBufferAppendAfterDoneIgnored(t *testing.T) {
	b := NewResultBuffer(1 << 20)
	b.MarkDone()
	b.Append([]byte(`1`), 0, 1)
	if st := b.Stats(); st.Results != 0 || st.Buffered != 0 {
		t.Fatalf("append after done recorded: %+v", st)
	}
}

// A cursor ahead of a finished stream (a ?after= saved before a restart)
// will never be reached: it must see done, not wait for its context.
func TestBufferCursorAheadOfFinishedStreamIsDone(t *testing.T) {
	b := NewResultBuffer(1 << 20)
	b.Append([]byte(`1`), 0, 1)
	b.MarkDone()
	r := b.NewReader(5)
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	out, dropped, done, err := r.Next(ctx, 10)
	if err != nil || len(out) != 0 || dropped != 0 || !done {
		t.Fatalf("Next = %d entries, dropped %d, done %v, err %v; want 0, 0, true, nil", len(out), dropped, done, err)
	}
}

// The oracle for the armed wake-up: readers park and re-park while frames
// and single appends land from another goroutine, then MarkDone. A lost
// wake-up shows as a reader stuck until its deadline; every reader must
// see every seq exactly once, in order, then done. Run it with -race
// -count=10.
func TestBufferParkedReadersSeeEverySeqOnce(t *testing.T) {
	const readers, frames, perFrame = 4, 200, 7
	const total = frames * (perFrame + 1)
	b := NewResultBuffer(1 << 30)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		r := b.NewReader(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.Close()
			want := uint64(1)
			for {
				out, dropped, done, err := r.Next(ctx, 5)
				if err != nil {
					t.Errorf("reader stuck at seq %d of %d: %v", want, total, err)
					return
				}
				if dropped != 0 {
					t.Errorf("reader dropped %d with no eviction", dropped)
				}
				for _, e := range out {
					if e.Seq != want {
						t.Errorf("seq %d where %d was due", e.Seq, want)
						return
					}
					want++
				}
				if done {
					if want != total+1 {
						t.Errorf("done after seq %d of %d", want-1, total)
					}
					return
				}
			}
		}()
	}

	sink := newResultSink(b)
	frame := make(temporal.Batch, perFrame)
	for f := 0; f < frames; f++ {
		for i := range frame {
			frame[i] = temporal.At(cql.Tuple{"f": f, "i": i}, temporal.Time(f))
		}
		sink.ProcessBatch(frame, 0)
		b.Append([]byte(`{}`), temporal.Time(f), temporal.Time(f+1))
		if f%16 == 0 {
			time.Sleep(50 * time.Microsecond) // let readers park
		}
	}
	sink.Done(0)
	wg.Wait()
}

// One 64-result frame of 3-field tuples, delivered and read by one
// reader, costs its arena and nothing per result (576 allocations per
// frame when every result was marshalled and signalled on its own).
func TestResultSinkFrameAllocations(t *testing.T) {
	b := NewResultBuffer(DefaultBufferBytes)
	sink := newResultSink(b)
	r := b.NewReader(0)
	defer r.Close()
	frame := make(temporal.Batch, 64)
	for i := range frame {
		frame[i] = temporal.At(cql.Tuple{"id": i, "price": 100.5 + float64(i), "name": "bid"}, temporal.Time(i))
	}
	deliver := func() {
		sink.ProcessBatch(frame, 0)
		if out, _, _ := r.TryNext(len(frame)); len(out) != len(frame) {
			t.Fatalf("read %d of %d results", len(out), len(frame))
		}
	}
	for i := 0; i < 200; i++ { // fill the ring: steady state evicts
		deliver()
	}
	if got := testing.AllocsPerRun(200, deliver); got > 1 {
		t.Fatalf("%.1f allocations per 64-result frame, want <= 1", got)
	}
}

// One ring slot is what an entry is charged beyond its payload, so the
// ring array is bounded by the buffer's byte budget.
func TestEntryOverheadCoversRingSlot(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); entryOverhead < size {
		t.Fatalf("entryOverhead = %d, below the %d bytes of one ring slot", entryOverhead, size)
	}
}

// checkRing asserts the ring's shape: no slot outside [head, head+n)
// keeps Data (so no evicted arena stays reachable), the retained seqs are
// contiguous and end at nextSeq, and the array stays within capBytes.
func checkRing(t *testing.T, b *ResultBuffer) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.ring) > max(b.capBytes/entryOverhead, 1) {
		t.Fatalf("ring of %d slots exceeds %d bytes at %d per slot", len(b.ring), b.capBytes, entryOverhead)
	}
	live := make([]bool, len(b.ring))
	for i := 0; i < b.n; i++ {
		j := b.slot(i)
		live[j] = true
		if want := b.nextSeq - uint64(b.n-1-i); b.ring[j].Seq != want {
			t.Fatalf("retained entry %d has seq %d, want %d", i, b.ring[j].Seq, want)
		}
	}
	for j, e := range b.ring {
		if !live[j] && (e.Data != nil || e.Seq != 0) {
			t.Fatalf("slot %d outside [head=%d, +%d) of %d still holds seq %d", j, b.head, b.n, len(b.ring), e.Seq)
		}
	}
}

// Results of mixed sizes make one append evict several entries, leaving
// free slots behind the head that must hold nothing.
func TestBufferEvictionZeroesSlots(t *testing.T) {
	b := NewResultBuffer(16 * (10 + entryOverhead))
	for i := 0; i < 100; i++ {
		appendN(b, 1+i%7, 10+i%5*60)
		checkRing(t, b)
	}
	appendN(b, 16, 10)
	if st := b.Stats(); st.Buffered != 16 {
		t.Fatalf("buffered %d, want 16", st.Buffered)
	}
}

// A batch handed out by Next is the reader's own: the ring wrapping over
// the slots it was read from, many times, leaves it as it was.
func TestBufferEntriesSurviveRingWrap(t *testing.T) {
	b := NewResultBuffer(8 * (4 + entryOverhead))
	for i := 0; i < 8; i++ {
		b.Append([]byte(fmt.Sprintf(`"%02d"`, i)), temporal.Time(i), temporal.Time(i+1))
	}
	r := b.NewReader(0)
	defer r.Close()
	out, _, _, err := r.Next(context.Background(), 8)
	if err != nil || len(out) != 8 {
		t.Fatalf("Next = %d entries, err %v", len(out), err)
	}
	for i := 8; i < 8*10; i++ {
		b.Append([]byte(fmt.Sprintf(`"%02d"`, i)), temporal.Time(i), temporal.Time(i+1))
	}
	for i, e := range out {
		want := Entry{Seq: uint64(i + 1), Start: temporal.Time(i), End: temporal.Time(i + 1), Data: []byte(fmt.Sprintf(`"%02d"`, i))}
		if e.Seq != want.Seq || e.Start != want.Start || e.End != want.End || !bytes.Equal(e.Data, want.Data) {
			t.Fatalf("entry %d = %+v after the ring wrapped, want %+v", i, e, want)
		}
	}
}

// modelReader is a reader of the plain-slice model, with the last batch
// its Reader handed out and a copy of it as it was handed out.
type modelReader struct {
	r            *Reader
	cursor       uint64
	held, copied []Entry
}

// TestBufferRingMatchesModel drives buffers of many sizes with random
// appends, frames, readers, reads, closes and MarkDone, across many
// wraps and regrowths, against a plain slice that re-slices on eviction:
// every read's seqs, values and dropped count, and the buffer's Shed,
// Buffered, BufferedBytes and Done must agree. A batch a reader was
// handed must be unchanged until that reader reads again. Run it with
// -race -count=10.
func TestBufferRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		capBytes := entryOverhead + rng.Intn(40*(entryOverhead+16))
		b := NewResultBuffer(capBytes)
		var (
			model      []Entry
			bytes, seq int
			shed       int64
			done       bool
			readers    []*modelReader
			nextStart  temporal.Time
		)
		payload := func() []byte { return []byte(fmt.Sprintf(`"%d"`, rng.Intn(1<<rng.Intn(40)))) }
		modelAppend := func(data []byte, start temporal.Time) {
			size := len(data) + entryOverhead
			minCursor, haveReader := uint64(0), false
			for _, m := range readers {
				if !haveReader || m.cursor < minCursor {
					minCursor, haveReader = m.cursor, true
				}
			}
			for bytes+size > capBytes && len(model) > 0 {
				if haveReader && model[0].Seq > minCursor {
					shed++
				}
				bytes -= len(model[0].Data) + entryOverhead
				model = model[1:]
			}
			seq++
			model = append(model, Entry{Seq: uint64(seq), Start: start, End: start + 1, Data: data})
			bytes += size
		}
		checkHeld := func(m *modelReader) {
			for i, e := range m.held {
				c := m.copied[i]
				if e.Seq != c.Seq || e.Start != c.Start || e.End != c.End || string(e.Data) != string(c.Data) {
					t.Fatalf("round %d: held entry %d changed to %+v, was %+v", round, i, e, c)
				}
			}
		}
		read := func(m *modelReader, max int) {
			checkHeld(m)
			first := uint64(seq + 1 - len(model))
			var wantDropped int64
			if m.cursor+1 < first {
				wantDropped = int64(first - 1 - m.cursor)
				m.cursor = first - 1
			}
			var want []Entry
			if skip := m.cursor + 1 - first; skip < uint64(len(model)) {
				want = model[skip:][:min(max, len(model)-int(skip))]
			}
			wantDone := done && m.cursor+uint64(len(want)) >= uint64(seq)
			var (
				out     []Entry
				dropped int64
				gotDone bool
			)
			// Next waits when nothing is due: only TryNext reads then.
			if due := len(want) > 0 || wantDropped > 0 || wantDone; !due || rng.Intn(2) == 0 {
				out, dropped, gotDone = m.r.TryNext(max)
			} else {
				var err error
				if out, dropped, gotDone, err = m.r.Next(context.Background(), max); err != nil {
					t.Fatalf("round %d: Next: %v", round, err)
				}
			}
			if dropped != wantDropped || gotDone != wantDone || len(out) != len(want) {
				t.Fatalf("round %d: read(%d) at cursor %d = %d entries, dropped %d, done %v; want %d, %d, %v",
					round, max, m.cursor, len(out), dropped, gotDone, len(want), wantDropped, wantDone)
			}
			for i, e := range out {
				if w := want[i]; e.Seq != w.Seq || e.Start != w.Start || string(e.Data) != string(w.Data) {
					t.Fatalf("round %d: entry %d = %+v, want %+v", round, i, e, w)
				}
			}
			m.cursor += uint64(len(want))
			if r := m.r.Cursor(); r != m.cursor {
				t.Fatalf("round %d: Cursor = %d, want %d", round, r, m.cursor)
			}
			for _, e := range m.r.out[:cap(m.r.out)][len(out):] {
				if e.Data != nil {
					t.Fatalf("round %d: the reader's slice keeps seq %d past the batch it handed out", round, e.Seq)
				}
			}
			m.held, m.copied = out, append([]Entry(nil), out...)
		}

		for op := 0; op < 600; op++ {
			switch k := rng.Intn(20); {
			case k < 6:
				data := payload()
				b.Append(data, nextStart, nextStart+1)
				if !done {
					modelAppend(data, nextStart)
				}
				nextStart++
			case k < 10:
				n := 1 + rng.Intn(12)
				frame := make(temporal.Batch, n)
				var arena []byte
				ends := make([]int, n)
				for i := range frame {
					frame[i] = temporal.NewElement(nil, nextStart, nextStart+1)
					arena = append(arena, payload()...)
					ends[i] = len(arena)
					nextStart++
				}
				b.appendFrame(frame, arena, ends)
				if !done {
					lo := 0
					for i, e := range frame {
						modelAppend(arena[lo:ends[i]], e.Start)
						lo = ends[i]
					}
				}
			case k < 12 && len(readers) < 4:
				after := uint64(0)
				if seq > 0 && rng.Intn(3) > 0 {
					after = uint64(rng.Intn(seq + 8))
				}
				readers = append(readers, &modelReader{r: b.NewReader(after), cursor: after})
			case k < 17 && len(readers) > 0:
				read(readers[rng.Intn(len(readers))], 1+rng.Intn(20))
			case k < 19 && len(readers) > 0:
				i := rng.Intn(len(readers))
				readers[i].r.Close()
				readers[i].r.Close() // idempotent
				readers = append(readers[:i], readers[i+1:]...)
			case k == 19 && op > 400:
				b.MarkDone()
				done = true
			}
			checkRing(t, b)
			st := b.Stats()
			if st.Shed != shed || st.Buffered != len(model) || st.BufferedBytes != bytes || st.Done != done || st.Readers != len(readers) {
				t.Fatalf("round %d op %d: stats %+v; model shed %d buffered %d bytes %d done %v readers %d",
					round, op, st, shed, len(model), bytes, done, len(readers))
			}
		}
		for _, m := range readers {
			checkHeld(m)
			m.r.Close()
		}
	}
}
