// Error-path coverage for the connectivity layer: truncated streams,
// unregistered value types, and connections that die mid-element. The
// contracts under test: a Reader never panics or loops on bad input —
// it signals Done and surfaces the cause via Err; a Writer latches its
// first error and drops subsequent elements; the Server evicts a client
// whose connection fails instead of stalling the graph.
package remote

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/wire"
)

// TestReaderTruncatedStream cuts a serialised stream mid-element: the
// reader must deliver the intact prefix, then stop with a non-nil,
// non-EOF error (truncation is not clean termination).
func TestReaderTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter("file", &buf)
	for _, e := range elems(20) {
		w.ProcessBatch(temporal.Batch{e}, 0)
	}
	// No Done: the stream ends with element 20 and no end-of-stream
	// record. Chopping two bytes is then guaranteed to land mid-record
	// (a cut on a record boundary would read as clean EOF instead).
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	full := buf.Bytes()
	cut := full[:len(full)-2]

	r := NewReader("replay", bytes.NewReader(cut))
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()

	if r.Err() == nil {
		t.Fatal("truncated stream decoded without error")
	}
	got := col.Elements()
	if len(got) != 19 {
		t.Fatalf("want the 19 intact elements, got %d", len(got))
	}
	for i, e := range got {
		if e.Start != temporal.Time(i) {
			t.Fatalf("prefix corrupted at %d: %+v", i, e)
		}
	}
}

// TestReaderGarbageStream feeds bytes that were never a record stream: the
// reader must fail fast, deliver nothing, and still signal Done so
// downstream operators terminate.
func TestReaderGarbageStream(t *testing.T) {
	r := NewReader("replay", strings.NewReader("this was never gob data"))
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait() // Done must still propagate

	if r.Err() == nil {
		t.Fatal("garbage stream decoded without error")
	}
	if n := len(col.Elements()); n != 0 {
		t.Fatalf("garbage stream produced %d elements", n)
	}
}

// neverRegistered is deliberately never passed to wire.RegisterType (and,
// unlike unregisteredType, no other test registers it either — the gob
// fallback's registration is process-global, so the two tests need
// distinct types).
type neverRegistered struct{ X int }

// unregisteredType starts unregistered; TestReaderUnregisteredTypeName
// registers it to build a valid stream, then corrupts the wire name.
type unregisteredType struct{ X int }

// TestWriterUnregisteredType checks that the writer latches the encode
// error for a value type the codec has never seen, and that later (valid)
// elements are dropped rather than written after the failure — a
// half-written stream must not silently continue.
func TestWriterUnregisteredType(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter("file", &buf)
	w.ProcessBatch(temporal.Batch{temporal.NewElement(neverRegistered{X: 1}, 0, 10)}, 0)
	if w.Err() == nil {
		t.Fatal("encoding an unregistered type succeeded")
	}
	before := buf.Len()
	w.ProcessBatch(temporal.Batch{temporal.NewElement(1, 1, 11)}, 0)
	w.Done(0)
	if buf.Len() != before {
		t.Fatal("writer kept writing after a latched error")
	}
}

// TestReaderUnregisteredTypeName covers the receiving side: the wire
// carries a type name the reader's process never registered. The codec's
// gob fallback fails the decode; the reader must surface it and terminate.
func TestReaderUnregisteredTypeName(t *testing.T) {
	// Build a stream whose concrete type is registered here (sender side
	// in a real deployment) but unknown to a fresh decoder — simulate by
	// corrupting the registered name lookup: encode with a type that IS
	// registered, then flip its wire name so the decoder cannot resolve it.
	wire.RegisterType(unregisteredType{})
	var buf bytes.Buffer
	w := NewWriter("file", &buf)
	w.ProcessBatch(temporal.Batch{temporal.NewElement(unregisteredType{X: 7}, 0, 10)}, 0)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	raw := bytes.Replace(buf.Bytes(), []byte("unregisteredType"), []byte("neverRegistered!"), 1)

	r := NewReader("replay", bytes.NewReader(raw))
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()

	if r.Err() == nil {
		t.Fatal("unknown wire type decoded without error")
	}
	if !strings.Contains(r.Err().Error(), "neverRegistered!") {
		t.Fatalf("error does not name the unknown type: %v", r.Err())
	}
}

// TestServerEvictsClientClosedMidStream closes a client connection while
// the server is still publishing: the server must detect the write
// failure, evict the client, and keep serving the remaining one.
func TestServerEvictsClientClosedMidStream(t *testing.T) {
	src := pubsub.NewSourceBase("src")
	srv, err := Serve("srv", &src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dying, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	healthy, closer, err := Dial("client", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	waitFor(t, func() bool { return srv.ClientCount() == 2 })

	src.Transfer(temporal.NewElement(1, 0, 10))
	dying.Close()

	// Keep publishing until the server notices the dead socket. TCP write
	// failure after a local close can take a write or two to surface.
	waitFor(t, func() bool {
		src.Transfer(temporal.NewElement(2, 1, 11))
		return srv.ClientCount() == 1
	})

	// The healthy client still receives the stream.
	src.Transfer(temporal.NewElement(3, 2, 12))
	src.SignalDone()
	col := pubsub.NewCollector("col", 1)
	healthy.Subscribe(col, 0)
	pubsub.Drive(healthy)
	col.Wait()
	if healthy.Err() != nil {
		t.Fatal(healthy.Err())
	}
	if n := len(col.Elements()); n < 3 {
		t.Fatalf("healthy client saw only %d elements", n)
	}
}

// TestReaderConnClosedMidElement kills the sending side of a socket
// without an end-of-stream marker: the reader sees an abrupt EOF or
// reset and must terminate; a mid-element cut additionally surfaces an
// error.
func TestReaderConnClosedMidElement(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Send two whole elements followed by a torn fragment, then slam
		// the connection shut.
		var buf bytes.Buffer
		w := NewWriter("srv", &buf)
		for _, e := range elems(3) {
			w.ProcessBatch(temporal.Batch{e}, 0)
		}
		raw := buf.Bytes()
		conn.Write(raw[:len(raw)-5])
		conn.Close()
	}()

	r, closer, err := Dial("client", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()

	if r.Err() == nil {
		t.Fatal("torn connection decoded without error")
	}
	if n := len(col.Elements()); n >= 3 {
		t.Fatalf("reader produced %d elements from a stream torn inside the third", n)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReaderHugeRecordLength declares a record far longer than the bytes
// that follow: the reader must fail on the truncation having grown its
// scratch only with the bytes that arrived.
func TestReaderHugeRecordLength(t *testing.T) {
	raw := binary.AppendUvarint(nil, 1<<40)
	raw = append(raw, bytes.Repeat([]byte{7}, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader("replay", bytes.NewReader(raw))
	col := pubsub.NewCollector("col", 1)
	r.Subscribe(col, 0)
	pubsub.Drive(r)
	col.Wait()
	runtime.ReadMemStats(&after)

	if r.Err() == nil || len(col.Elements()) != 0 {
		t.Fatalf("a truncated record decoded: err %v, %d elements", r.Err(), len(col.Elements()))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("reading 100 bytes of a record declared 1 TiB long allocated %d bytes", grew)
	}
}
