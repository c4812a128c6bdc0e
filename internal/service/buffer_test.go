package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

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
	if got := testing.AllocsPerRun(200, deliver); got > 2 {
		t.Fatalf("%.1f allocations per 64-result frame, want <= 2", got)
	}
}
