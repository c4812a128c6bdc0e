package remote

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

func elems(n int) []temporal.Element {
	out := make([]temporal.Element, n)
	for i := range out {
		out[i] = temporal.NewElement(cql.Tuple{"i": i}, temporal.Time(i), temporal.Time(i+10))
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	src := pubsub.NewSliceSource("src", elems(100))
	w := NewWriter("file", &buf)
	src.Subscribe(w, 0)
	pubsub.Drive(src)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}

	r := NewReader("replay", &buf)
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	got := col.Elements()
	if len(got) != 100 {
		t.Fatalf("replayed %d elements, want 100", len(got))
	}
	for i, e := range got {
		if e.Start != temporal.Time(i) || e.End != temporal.Time(i+10) {
			t.Fatalf("interval lost at %d: %v", i, e)
		}
		v, _ := e.Value.(cql.Tuple).Get("i")
		if v != i {
			t.Fatalf("value lost at %d: %v", i, e.Value)
		}
	}
}

// A frame goes out in one Write, and a record longer than one length
// byte can say round-trips.
func TestWriterOneWritePerFrame(t *testing.T) {
	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	w := NewWriter("file", cw)
	long := strings.Repeat("x", 1000)
	frame := append(elems(3), temporal.NewElement(cql.Tuple{"s": long}, 3, 13))
	w.ProcessBatch(frame, 0)
	w.Done(0)
	if w.Err() != nil || cw.writes != 2 {
		t.Fatalf("a frame and the end of stream took %d writes (err %v), want 2", cw.writes, w.Err())
	}
	r := NewReader("replay", &buf)
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()
	got := col.Elements()
	if r.Err() != nil || len(got) != 4 {
		t.Fatalf("replayed %d elements (err %v), want 4", len(got), r.Err())
	}
	if s, _ := got[3].Value.(cql.Tuple).Get("s"); s != long || got[3].End != 13 {
		t.Fatalf("long record lost: %v", got[3])
	}
}

type countingWriter struct {
	w      io.Writer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

func TestReaderCleanEOFWithoutMarker(t *testing.T) {
	var buf bytes.Buffer
	src := pubsub.NewSliceSource("src", elems(3))
	w := NewWriter("file", &buf)
	src.Subscribe(w, 0)
	for src.EmitNext() {
	} // Drive emits done too; emulate a truncated stream instead:
	// re-encode without the end-of-stream record
	buf.Reset()
	w2 := NewWriter("f2", &buf)
	for _, e := range elems(3) {
		w2.ProcessBatch(temporal.Batch{e}, 0)
	}
	// no Done -> no end-of-stream record
	r := NewReader("replay", &buf)
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()
	if r.Err() != nil {
		t.Fatalf("clean EOF reported as error: %v", r.Err())
	}
	if col.Len() != 3 {
		t.Fatalf("replayed %d", col.Len())
	}
}

func TestReaderCorruptInput(t *testing.T) {
	r := NewReader("bad", bytes.NewReader([]byte("this is not a record stream")))
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()
	if r.Err() == nil {
		t.Fatal("corrupt input not reported")
	}
}

func TestTCPServeAndDial(t *testing.T) {
	src := pubsub.NewSliceSource("src", elems(50))
	srv, err := Serve("feed", src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reader, closer, err := Dial("client", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// Wait until the server registered the client before publishing
	// (live fan-out semantics: clients only see elements after joining).
	deadline := time.Now().Add(2 * time.Second)
	for srv.ClientCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(time.Millisecond)
	}

	col := pubsub.NewCollector("col", 1)
	reader.Subscribe(col, 0)
	go pubsub.Drive(src)
	pubsub.Drive(reader)
	col.Wait()
	if reader.Err() != nil {
		t.Fatal(reader.Err())
	}
	if col.Len() != 50 {
		t.Fatalf("received %d elements over TCP, want 50", col.Len())
	}
}

func TestTCPMultipleClients(t *testing.T) {
	src := pubsub.NewSliceSource("src", elems(20))
	srv, err := Serve("feed", src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 3
	cols := make([]*pubsub.Collector, clients)
	readers := make([]*Reader, clients)
	for i := 0; i < clients; i++ {
		r, closer, err := Dial("client", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		readers[i] = r
		cols[i] = pubsub.NewCollector("col", 1)
		r.Subscribe(cols[i], 0)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.ClientCount() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d clients registered", srv.ClientCount())
		}
		time.Sleep(time.Millisecond)
	}
	go pubsub.Drive(src)
	done := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			pubsub.Drive(readers[i])
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-done
	}
	for i, c := range cols {
		c.Wait()
		if c.Len() != 20 {
			t.Fatalf("client %d received %d, want 20", i, c.Len())
		}
	}
}

func TestRemoteIntoQueryGraph(t *testing.T) {
	// Remote source feeding a local operator pipeline end to end.
	src := pubsub.NewSliceSource("src", elems(30))
	srv, err := Serve("feed", src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reader, closer, err := Dial("remote", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	for srv.ClientCount() == 0 {
		time.Sleep(time.Millisecond)
	}

	count := pubsub.NewCounter("c", 1)
	reader.Subscribe(count, 0)
	go pubsub.Drive(src)
	pubsub.Drive(reader)
	count.Wait()
	if count.Count() != 30 {
		t.Fatalf("pipeline over remote source got %d elements", count.Count())
	}
}

func TestDialRefused(t *testing.T) {
	if _, _, err := Dial("x", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	src := pubsub.NewSliceSource("src", elems(1))
	srv, err := Serve("feed", src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, _, err := Dial("x", srv.Addr()); err == nil {
		t.Fatal("dial succeeded after Close")
	}
	if srv.ClientCount() != 0 {
		t.Fatal("clients remain after Close")
	}
}

func TestWriterAfterErrorIsNoop(t *testing.T) {
	w := NewWriter("w", failingWriter{})
	w.ProcessBatch(temporal.Batch{elems(1)[0]}, 0)
	if w.Err() == nil {
		t.Fatal("write error not recorded")
	}
	w.ProcessBatch(temporal.Batch{elems(1)[0]}, 0) // must not panic
	w.Done(0)
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errFail
}

var errFail = fmt.Errorf("write failed")
