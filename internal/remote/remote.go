// Package remote implements PIPES' connectivity building blocks: stream
// elements serialised to any io.Writer/io.Reader (files, pipes) and
// served/consumed over TCP, so autonomous remote data sources plug into a
// local query graph and query results feed remote consumers. Values are
// gob-encoded; applications register their concrete value types once via
// RegisterType (cql.Tuple and the basic types work out of the box).
package remote

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

func init() {
	gob.Register(cql.Tuple{})
	gob.Register(map[string]any{})
	gob.Register([]any{})
}

// RegisterType makes a concrete value type transportable (a thin wrapper
// over gob.Register).
func RegisterType(v any) { gob.Register(v) }

// wireElement is the on-the-wire representation.
type wireElement struct {
	Value any
	Start temporal.Time
	End   temporal.Time
}

// Writer is a sink that serialises every received element to an
// io.Writer and emits an end-of-stream marker on Done — persisting a
// stream to a file or socket.
type Writer struct {
	name string
	mu   sync.Mutex
	enc  *gob.Encoder
	err  error
}

// NewWriter returns a serialising sink.
func NewWriter(name string, w io.Writer) *Writer {
	return &Writer{name: name, enc: gob.NewEncoder(w)}
}

// Name implements pubsub.Node.
func (w *Writer) Name() string { return w.name }

// ProcessBatch implements pubsub.BatchSink.
func (w *Writer) ProcessBatch(b temporal.Batch, _ int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range b {
		if w.err != nil {
			return
		}
		w.err = w.enc.Encode(wireElement{Value: e.Value, Start: e.Start, End: e.End})
	}
}

// Done implements pubsub.Sink: writes the end-of-stream marker (an
// element with an invalid interval).
func (w *Writer) Done(_ int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(wireElement{Start: temporal.MaxTime, End: temporal.MinTime})
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
	in    *bufio.Reader // the decoder's input, kept to see what has already arrived
	dec   *gob.Decoder
	err   error
	frame temporal.Batch // reusable scratch EmitBatch publishes
}

// NewReader returns a deserialising source.
func NewReader(name string, r io.Reader) *Reader {
	in := bufio.NewReader(r)
	return &Reader{SourceBase: pubsub.NewSourceBase(name), in: in, dec: gob.NewDecoder(in)}
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
		var we wireElement
		if err := r.dec.Decode(&we); err != nil {
			if !errors.Is(err, io.EOF) {
				r.err = err
			}
			more = false
			break
		}
		if we.Start == temporal.MaxTime && we.End == temporal.MinTime {
			more = false // end-of-stream marker
			break
		}
		frame = append(frame, temporal.NewElement(we.Value, we.Start, we.End))
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

// Err returns the first deserialisation error, if any (EOF without a
// marker is treated as clean termination).
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
