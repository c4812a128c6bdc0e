// Package remote implements PIPES' connectivity building blocks: stream
// elements serialised to any io.Writer/io.Reader (files, pipes) and
// served/consumed over TCP, so autonomous remote data sources plug into a
// local query graph and query results feed remote consumers.
//
// The stream format is a sequence of records, each a uvarint length and
// that many bytes: one element — its value, start and end in the
// engine's value codec (internal/wire) — per record, and an empty record
// for end of stream. cql.Tuple and the codec's basic kinds travel as they
// are; applications register any other concrete value type once with
// wire.RegisterType (the facade's RegisterWireType).
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"pipes/internal/pubsub"
	"pipes/internal/temporal"
	"pipes/internal/wire"
)

// Writer is a sink that serialises every received element to an
// io.Writer and emits an end-of-stream record on Done — persisting a
// stream to a file or socket. A frame's records are appended into one
// buffer the writer reuses, and written with one Write.
type Writer struct {
	name string
	mu   sync.Mutex
	out  io.Writer
	buf  []byte // the frame's records
	rec  []byte // one element's encoding
	err  error
}

// NewWriter returns a serialising sink.
func NewWriter(name string, w io.Writer) *Writer {
	return &Writer{name: name, out: w}
}

// Name implements pubsub.Node.
func (w *Writer) Name() string { return w.name }

// ProcessBatch implements pubsub.BatchSink. An element whose value cannot
// be encoded latches the error: the records before it are written, the
// element and everything after it are not. Values are encoded within the
// call and only their bytes are written, so the writer borrows lent
// values (SEMANTICS.md §3.7) and declares no KeepsValues.
func (w *Writer) ProcessBatch(b temporal.Batch, _ int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	buf := w.buf[:0]
	for _, e := range b {
		rec, err := wire.AppendElement(w.rec[:0], e)
		w.rec = rec
		if err != nil {
			w.err = err
			break
		}
		buf = append(binary.AppendUvarint(buf, uint64(len(rec))), rec...)
	}
	w.buf = buf
	w.write(buf)
}

// write hands buf to the underlying writer, latching its error.
func (w *Writer) write(buf []byte) {
	if len(buf) == 0 {
		return
	}
	if _, err := w.out.Write(buf); err != nil && w.err == nil {
		w.err = err
	}
}

// Done implements pubsub.Sink: writes the end-of-stream record.
func (w *Writer) Done(_ int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.write([]byte{0})
	}
}

// Err returns the first serialisation error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Reader is an emitter that deserialises elements from an io.Reader and
// publishes them — replaying a persisted stream or consuming a remote
// one.
type Reader struct {
	pubsub.SourceBase
	in    *bufio.Reader
	rec   []byte       // scratch the current record is read into
	dec   wire.Decoder // reads rec
	err   error
	frame temporal.Batch // reusable scratch EmitBatch publishes
}

// NewReader returns a deserialising source.
func NewReader(name string, r io.Reader) *Reader {
	return &Reader{SourceBase: pubsub.NewSourceBase(name), in: bufio.NewReader(r)}
}

// EmitNext implements pubsub.Emitter.
func (r *Reader) EmitNext() bool { _, more := r.EmitBatch(1); return more }

// EmitBatch implements pubsub.BatchEmitter: it blocks for one element,
// then keeps decoding while input has already arrived, up to max — it
// never waits on the stream to fill a frame.
func (r *Reader) EmitBatch(max int) (int, bool) {
	frame := r.frame[:0]
	more := true
	for {
		e, ok, err := r.next()
		if err != nil || !ok {
			r.err = err
			more = false
			break
		}
		frame = append(frame, e)
		if len(frame) >= max || r.in.Buffered() == 0 {
			break
		}
	}
	r.frame = frame
	r.TransferBatch(frame)
	if !more {
		r.SignalDone()
	}
	return len(frame), more
}

// next reads one record: an element, or ok false at the end of the
// stream — its end-of-stream record, or EOF on a record boundary.
func (r *Reader) next() (e temporal.Element, ok bool, err error) {
	n, err := binary.ReadUvarint(r.in)
	switch {
	case errors.Is(err, io.EOF):
		return e, false, nil
	case err != nil:
		return e, false, fmt.Errorf("remote: record length: %w", err)
	case n == 0:
		return e, false, nil
	}
	// The scratch grows with the bytes that arrive, never to a length the
	// stream merely declares.
	rec := r.rec[:0]
	for uint64(len(rec)) < n {
		if len(rec) == cap(rec) {
			rec = slices.Grow(rec, int(min(n-uint64(len(rec)), uint64(max(len(rec), 512)))))
		}
		m, err := r.in.Read(rec[len(rec):min(uint64(cap(rec)), n)])
		rec = rec[:len(rec)+m]
		if err != nil && uint64(len(rec)) < n {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return e, false, fmt.Errorf("remote: record of %d bytes: %w", n, err)
		}
	}
	r.rec = rec
	r.dec.Reset(rec)
	e = r.dec.Element()
	if err := r.dec.Finish(); err != nil {
		return e, false, fmt.Errorf("remote: %w", err)
	}
	return e, true, nil
}

// Err returns the first deserialisation error, if any (EOF without an
// end-of-stream record is treated as clean termination).
func (r *Reader) Err() error { return r.err }

// Server publishes a source's elements to every connected TCP client. It
// buffers nothing: clients receive elements transferred after they
// connect (live fan-out, like any other subscriber).
type Server struct {
	name string
	ln   net.Listener

	mu      sync.Mutex
	writers map[net.Conn]*Writer
	src     pubsub.Source
	closed  bool
}

// Serve starts publishing src on addr (e.g. "127.0.0.1:0") and returns
// the server; query its Addr for the bound address.
func Serve(name string, src pubsub.Source, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{name: name, ln: ln, writers: map[net.Conn]*Writer{}, src: src}
	if err := src.Subscribe((*serverSink)(s), 0); err != nil {
		ln.Close()
		return nil, err
	}
	go s.accept()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) accept() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.writers[conn] = NewWriter(fmt.Sprintf("%s→%s", s.name, conn.RemoteAddr()), conn)
		s.mu.Unlock()
	}
}

// serverSink adapts the server as the source's subscriber.
type serverSink Server

// Name implements pubsub.Node.
func (s *serverSink) Name() string { return (*Server)(s).name }

// ProcessBatch implements pubsub.BatchSink: fan out to every live client.
// Every client's Writer encodes the frame within the call, so the sink
// borrows lent values.
func (s *serverSink) ProcessBatch(b temporal.Batch, _ int) {
	srv := (*Server)(s)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for conn, w := range srv.writers {
		w.ProcessBatch(b, 0)
		if w.Err() != nil {
			conn.Close()
			delete(srv.writers, conn)
		}
	}
}

// Done implements pubsub.Sink: send end-of-stream and close clients.
func (s *serverSink) Done(_ int) {
	srv := (*Server)(s)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for conn, w := range srv.writers {
		w.Done(0)
		conn.Close()
		delete(srv.writers, conn)
	}
	srv.closed = true
	srv.ln.Close()
}

// Close shuts the server down without waiting for the source.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.ln.Close()
	for conn := range s.writers {
		conn.Close()
		delete(s.writers, conn)
	}
}

// ClientCount returns the number of connected consumers.
func (s *Server) ClientCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.writers)
}

// Dial connects to a remote stream server and returns an emitter
// publishing its elements into the local graph.
func Dial(name, addr string) (*Reader, io.Closer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return NewReader(name, conn), conn, nil
}
