package ft

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/telemetry/flight"
)

// BarrierHooked is the operator-side attachment point: every operator
// embedding pubsub.PipeBase satisfies it.
type BarrierHooked interface {
	pubsub.Node
	SetBarrierHooks(save, ack func(pubsub.Barrier))
}

// Event is one observable step of a checkpoint round, exposed for the
// fault-injection harness and for logging. Stage values: "save" (operator
// snapshot staged), "ack" (operator acked), "offset" (source offset
// recorded), "complete" (round complete, queued for writing), "sealed"
// (durably sealed), "failed" (store write failed).
type Event struct {
	Stage string
	Node  string
	ID    uint64
}

// Manager coordinates checkpoint rounds over one query graph: it injects
// barriers at the registered sources, collects operator snapshots and
// acks, and hands complete rounds to a background writer that persists
// them to the store — the only place state touches I/O, off the
// processing hot path.
//
// Operators publish a copy-on-write snapshot handle at the barrier (cheap
// collection copies, no serialisation — the StateSaver contract); the
// background writer encodes each handle after the gates release and
// writes the full encoding, so every sealed round is self-contained.
//
// Configure (RegisterSource/RegisterOperator/RegisterSink/OnEvent) before
// Start; Trigger and the periodic ticker drive rounds afterwards.
// Operators and sinks may also register, and Unregister, while rounds
// run.
type Manager struct {
	store CheckpointStore

	sources []*CheckpointSource
	mu      sync.Mutex
	savers  map[string]StateSaver
	ackers  map[string]bool // every participant that must ack (operators + sinks)
	nextID  uint64
	cur     *pending
	onEvent func(Event)
	started bool

	// Writer-goroutine state (plus Stop's post-Wait drain — never
	// concurrent): one encode buffer per operator, reused round after
	// round. Reuse is safe because the store copies or writes out every
	// payload before PutState returns.
	enc          map[string][]byte
	prevSealedID uint64 // last round this manager sealed (0 when none)

	writeCh chan *pending
	stopCh  chan struct{}
	wg      sync.WaitGroup

	// Flight recording (nil = detached): per-operator snapshot-capture
	// (barrier side) and state-encode (writer side) durations plus the
	// per-round store-write/round-done phases land in the system event
	// ring next to the alignment holds pubsub records. The recorder is
	// also the Manager's clock (see now).
	flightRec *flight.Recorder
	storeRef  *flight.OpRef

	// Metrics, wired into telemetry via RegisterMetrics.
	durHist       *telemetry.Histogram
	stallHist     *telemetry.Histogram // per-round barrier-side stall (capture/encode under ProcMu)
	lastID        atomic.Uint64
	lastBytes     atomic.Int64 // size of the last sealed checkpoint's state entries
	lastUnixNanos atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	skipped       atomic.Int64 // Trigger calls skipped: round in flight
	fullBytesTot  atomic.Int64
	stallNanosTot atomic.Int64 // cumulative barrier-side stall
	encNanosTot   atomic.Int64 // cumulative off-barrier encode time
}

// handle is one operator's state captured at a barrier: its encoder, and
// the operator's flight block, where the encode is recorded.
type handle struct {
	encode func(dst []byte) ([]byte, error)
	block  *flight.OpRef
}

// pending is one in-flight checkpoint round.
type pending struct {
	id    uint64
	begun int64 // now() at Trigger

	mu          sync.Mutex
	offsets     map[string]int
	handles     map[string]handle
	failed      map[string]error // operators whose SnapshotState failed: the round cannot seal
	stallNS     int64            // summed barrier-side capture time
	needOffsets map[string]bool
	needAcks    map[string]bool
	injecting   bool // Trigger is still injecting: the round may yet be retired
	completed   bool
}

// NewManager returns a Manager persisting to store. Its rounds are
// numbered above every checkpoint the store already holds: a restarted
// process extends the store, it never overwrites what an earlier one
// sealed.
func NewManager(store CheckpointStore) *Manager {
	return &Manager{
		store:     store,
		nextID:    store.LastID(),
		savers:    map[string]StateSaver{},
		ackers:    map[string]bool{},
		durHist:   telemetry.NewHistogram(),
		stallHist: telemetry.NewHistogram(),
		writeCh:   make(chan *pending, 1),
		stopCh:    make(chan struct{}),
		enc:       map[string][]byte{},
	}
}

// RegisterSource adds a source to the rounds: every Trigger injects the
// barrier there and records its replay offset.
func (m *Manager) RegisterSource(cs *CheckpointSource) {
	cs.setOnRequest(m.offsetRecorded)
	m.sources = append(m.sources, cs)
}

// RegisterOperator adds a stateful operator: its state is captured each
// round (via the StateSaver contract) and encoded off the barrier, and
// the round completes only after its ack. The operator must also
// satisfy BarrierHooked (every ops operator does, via pubsub.PipeBase).
func (m *Manager) RegisterOperator(op BarrierHooked, saver StateSaver) {
	name := op.Name()
	m.mu.Lock()
	m.savers[name] = saver
	m.ackers[name] = true
	m.mu.Unlock()
	op.SetBarrierHooks(
		func(b pubsub.Barrier) { m.saveState(b, op, saver) },
		func(b pubsub.Barrier) { m.acked(b, name) },
	)
}

// RegisterSink adds a checkpoint sink as an ack participant, so a round
// is complete only after its barrier reached every output and the cut
// indexes are recorded.
func (m *Manager) RegisterSink(s *CheckpointSink) {
	m.mu.Lock()
	m.ackers[s.Name()] = true
	m.mu.Unlock()
	s.setAck(func(b pubsub.Barrier) { m.acked(b, s.Name()) })
}

// Unregister removes the operator or sink registered under name — a node
// spliced out of the graph, which no barrier reaches any more. No round
// waits for its ack from now on, the round in flight included, and its
// state leaves the checkpoints; the writer frees its buffer.
func (m *Manager) Unregister(name string) {
	m.mu.Lock()
	delete(m.savers, name)
	delete(m.ackers, name)
	p := m.cur
	m.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.completed { // a complete round is the writer's
		delete(p.needAcks, name)
		delete(p.handles, name)
		delete(p.failed, name)
	}
	p.mu.Unlock()
	m.maybeComplete(p)
}

// OnEvent installs an observer of round progress (fault-injection
// harness, logging). Must be set before Start.
func (m *Manager) OnEvent(fn func(Event)) { m.onEvent = fn }

// SetFlightRecorder attaches the flight recorder (nil detaches). Must be
// set before Start; the barrier-phase events (snapshot capture and state
// encode per operator, store write and round completion per round) are
// recorded through it.
func (m *Manager) SetFlightRecorder(r *flight.Recorder) {
	m.flightRec, m.storeRef = r, nil
	if r != nil {
		m.storeRef = r.Ref("checkpoint.store")
	}
}

// now is the Manager's one clock, in Unix nanoseconds: the flight
// recorder's when one is attached, so a fake clock governs the round
// metrics and the flight slices alike, and the system clock otherwise.
func (m *Manager) now() int64 { return m.flightRec.NowNS() }

// blockOf returns the flight block op carries (nil when it carries none).
// Its barrier phases are recorded there, not under a block looked up by
// name: an operator spliced out and forgotten by the recorder keeps its
// block, and looking it up again would intern the name anew.
func blockOf(op pubsub.Node) *flight.OpRef {
	if b, ok := op.(interface{ FlightRef() *flight.OpRef }); ok {
		return b.FlightRef()
	}
	return nil
}

func (m *Manager) emit(ev Event) {
	if m.onEvent != nil {
		m.onEvent(ev)
	}
}

// Start launches the background writer and, if interval > 0, a periodic
// trigger.
func (m *Manager) Start(interval time.Duration) {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.wg.Add(1)
	//pipesvet:allow nogoroutine Manager's background writer is the sanctioned boundary adapter between the synchronous graph and durable storage
	go m.writeLoop()
	if interval > 0 {
		m.wg.Add(1)
		//pipesvet:allow nogoroutine periodic checkpoint trigger runs outside the element hot path
		go m.tickLoop(interval)
	}
}

// Stop terminates the background goroutines, draining a queued round
// first so a completed checkpoint is not lost on clean shutdown.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	m.mu.Unlock()
	close(m.stopCh)
	m.wg.Wait()
	// A round can complete on the tick goroutine concurrently with
	// shutdown (barriers inject at once, so a round can collect inline in
	// Trigger): its writeCh send may land after the writer's own
	// drain already looked. After wg.Wait the trigger and writer
	// goroutines are gone, so whatever sits in the buffer now is the final
	// word — write it here rather than losing a sealed-complete round.
	//pipesvet:allow nogoroutine shutdown drain runs after all manager goroutines exited
	select {
	case p := <-m.writeCh: //pipesvet:allow nogoroutine receive after wg.Wait: the writer is gone, Stop is the only remaining reader
		m.write(p)
	default:
	}
}

func (m *Manager) writeLoop() {
	defer m.wg.Done()
	for {
		//pipesvet:allow nogoroutine writer boundary adapter: receives completed rounds from the graph side
		select {
		case p := <-m.writeCh: //pipesvet:allow nogoroutine round hand-off receive on the writer's own goroutine, off the operator graph
			m.write(p)
		case <-m.stopCh: //pipesvet:allow nogoroutine stop-signal receive on the writer's own goroutine, off the operator graph
			// Drain at most the single queued round, then exit.
			//pipesvet:allow nogoroutine final non-blocking drain on the writer's own goroutine before it exits
			select {
			case p := <-m.writeCh: //pipesvet:allow nogoroutine final non-blocking drain on the writer's own goroutine before it exits
				m.write(p)
			default:
			}
			return
		}
	}
}

func (m *Manager) tickLoop(interval time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		//pipesvet:allow nogoroutine periodic trigger runs outside the element hot path
		select {
		case <-t.C: //pipesvet:allow nogoroutine ticker receive on the trigger goroutine, off the element hot path
			m.Trigger()
		case <-m.stopCh: //pipesvet:allow nogoroutine stop-signal receive on the trigger goroutine, off the element hot path
			return
		}
	}
}

// ErrRoundInFlight is returned by Trigger while a previous round has not
// completed — at most one checkpoint is outstanding at a time (the
// alignment protocol's contract).
var ErrRoundInFlight = errors.New("ft: checkpoint round in flight")

// ErrStreamEnded is returned by Trigger when every registered source had
// ended when its barrier went in. Operators flush on end-of-stream
// (windows emit their still-open aggregates), so a barrier that follows
// done through the graph would snapshot post-flush state at the final
// offset — a checkpoint that double-counts the flushed windows when
// recovery replays further input into it. Each source decides under its
// publish lock, at the injection itself, whether it has ended, so a
// round that finds some source live reaches it ahead of its done, and a
// round that finds none live is retired unsealed.
var ErrStreamEnded = errors.New("ft: all sources ended; no further checkpoint rounds")

// Trigger starts one checkpoint round: it allocates the next barrier ID
// and injects the barrier at every registered source. It returns the
// round's ID, ErrRoundInFlight when the previous round is still
// collecting, or ErrStreamEnded when no source was live at the injection.
func (m *Manager) Trigger() (uint64, error) {
	m.mu.Lock()
	if m.cur != nil {
		m.mu.Unlock()
		m.skipped.Add(1)
		return 0, ErrRoundInFlight
	}
	m.nextID++
	id := m.nextID
	p := &pending{
		id:          id,
		begun:       m.now(),
		offsets:     map[string]int{},
		failed:      map[string]error{},
		handles:     map[string]handle{},
		needOffsets: map[string]bool{},
		needAcks:    map[string]bool{},
		injecting:   true,
	}
	for _, cs := range m.sources {
		p.needOffsets[cs.Name()] = true
	}
	for name := range m.ackers {
		p.needAcks[name] = true
	}
	m.cur = p
	m.mu.Unlock()

	b := pubsub.Barrier{ID: id}
	live := len(m.sources) == 0 // a graph without sources has nothing to end
	for _, cs := range m.sources {
		if cs.RequestBarrier(b) {
			live = true
		}
	}
	p.mu.Lock()
	p.injecting = false
	p.completed = !live // retired: never handed to the writer
	p.mu.Unlock()
	if !live {
		m.mu.Lock()
		if m.cur == p {
			m.cur = nil
		}
		m.mu.Unlock()
		return 0, ErrStreamEnded
	}
	m.maybeComplete(p) // every offset and ack may have arrived during the injection
	return id, nil
}

// current returns the pending round for barrier b (nil for stale hooks
// of an abandoned round).
func (m *Manager) current(b pubsub.Barrier) *pending {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur != nil && m.cur.id == b.ID {
		return m.cur
	}
	return nil
}

// saveState is the operator save hook: it runs under the operator's
// ProcMu at barrier alignment, so whatever it does is barrier stall —
// only the copy-on-write capture; the encode moves to the writer
// goroutine.
func (m *Manager) saveState(b pubsub.Barrier, op pubsub.Node, saver StateSaver) {
	p := m.current(b)
	if p == nil {
		return
	}
	name, block := op.Name(), blockOf(op)
	start := m.now()
	fn, err := saver.SnapshotState()
	stall := m.now() - start
	block.Phase(flight.KindSnapshot, int64(b.ID), stall, 0)
	p.mu.Lock()
	if !p.needAcks[name] {
		// Unregistered, or registered after the round began: the round
		// does not wait for it, so it holds no state of it either.
		p.mu.Unlock()
		return
	}
	if err != nil {
		// A state that cannot snapshot poisons the round: let it fail at
		// write time.
		p.failed[name] = err
	} else {
		p.handles[name] = handle{encode: fn, block: block}
	}
	p.stallNS += stall
	p.mu.Unlock()
	m.emit(Event{Stage: "save", Node: name, ID: b.ID})
}

// acked marks one participant's barrier receipt.
func (m *Manager) acked(b pubsub.Barrier, name string) {
	p := m.current(b)
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.needAcks, name)
	p.mu.Unlock()
	m.emit(Event{Stage: "ack", Node: name, ID: b.ID})
	m.maybeComplete(p)
}

// offsetRecorded is the source injection callback.
func (m *Manager) offsetRecorded(b pubsub.Barrier, source string, offset int) {
	p := m.current(b)
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.needOffsets, source)
	p.offsets[source] = offset
	p.mu.Unlock()
	m.emit(Event{Stage: "offset", Node: source, ID: b.ID})
	m.maybeComplete(p)
}

// maybeComplete queues the round for writing once Trigger has finished
// injecting and every offset and ack arrived. The hand-off to the writer
// channel is the boundary between the synchronous graph side and the I/O
// side.
func (m *Manager) maybeComplete(p *pending) {
	p.mu.Lock()
	if p.completed || p.injecting || len(p.needOffsets) > 0 || len(p.needAcks) > 0 {
		p.mu.Unlock()
		return
	}
	p.completed = true
	p.mu.Unlock()
	m.emit(Event{Stage: "complete", ID: p.id})
	//pipesvet:allow nogoroutine hand-off of a completed round to the writer boundary adapter
	m.writeCh <- p
}

// write persists one completed round and retires it.
func (m *Manager) write(p *pending) {
	writeStart := m.now()
	size, encNS, err := m.writeStore(p)
	m.mu.Lock()
	if m.cur == p {
		m.cur = nil // round retired: the next Trigger may proceed
	}
	for name := range m.enc {
		if _, ok := m.savers[name]; !ok {
			delete(m.enc, name) // unregistered
		}
	}
	m.mu.Unlock()
	if err != nil {
		m.failed.Add(1)
		m.emit(Event{Stage: "failed", ID: p.id})
		return
	}
	// Retention: the last two sealed checkpoints stay (recovery falls
	// back at most one on a torn write). Best-effort: a failed drop never
	// fails the round.
	if m.prevSealedID > 1 {
		_ = m.store.Drop(m.prevSealedID - 1)
	}
	m.prevSealedID = p.id

	end := m.now()
	roundNS := end - p.begun
	m.durHist.Observe(roundNS)
	p.mu.Lock()
	stallNS := p.stallNS
	p.mu.Unlock()
	m.stallHist.Observe(stallNS)
	m.stallNanosTot.Add(stallNS)
	m.encNanosTot.Add(encNS)
	m.fullBytesTot.Add(size)
	if m.storeRef != nil {
		m.storeRef.Phase(flight.KindStoreWrite, int64(p.id), end-writeStart, size)
		m.storeRef.Phase(flight.KindRoundDone, int64(p.id), roundNS, size)
	}
	m.lastID.Store(p.id)
	m.lastBytes.Store(size)
	m.lastUnixNanos.Store(end)
	m.completed.Add(1)
	m.emit(Event{Stage: "sealed", ID: p.id})
}

// writeStore encodes the round's handles (off-barrier, on this writer
// goroutine) and stages each state whole into one store writer, sealing
// at the end. It returns the bytes of state written and the encode time.
func (m *Manager) writeStore(p *pending) (size, encNS int64, err error) {
	w, err := m.store.Begin(p.id)
	if err != nil {
		return 0, 0, err
	}
	p.mu.Lock()
	for name, err := range p.failed {
		p.mu.Unlock()
		return 0, 0, fmt.Errorf("ft: round %d: state of %s failed to snapshot: %w", p.id, name, err)
	}
	names := make([]string, 0, len(p.handles))
	for name := range p.handles {
		names = append(names, name)
	}
	offsets := make(map[string]int, len(p.offsets))
	for name, off := range p.offsets {
		offsets[name] = off
	}
	p.mu.Unlock()
	sort.Strings(names) // deterministic store layout

	for _, name := range names {
		state, ns, err := m.encodeState(p, name)
		if err != nil {
			return size, encNS, err
		}
		encNS += ns
		size += int64(len(state))
		if err := w.PutState(name, state); err != nil {
			return size, encNS, err
		}
	}
	for name, off := range offsets {
		if err := w.PutOffset(name, off); err != nil {
			return size, encNS, err
		}
	}
	return size, encNS, w.Seal()
}

// encodeState produces one operator's full encoding for this round into
// its reused buffer (the off-barrier encode).
func (m *Manager) encodeState(p *pending, name string) ([]byte, int64, error) {
	p.mu.Lock()
	h := p.handles[name]
	p.mu.Unlock()
	start := m.now()
	buf, err := h.encode(m.enc[name][:0])
	if err != nil {
		return nil, 0, fmt.Errorf("ft: round %d: state of %s failed to serialise: %w", p.id, name, err)
	}
	m.enc[name] = buf
	encNS := m.now() - start
	h.block.Phase(flight.KindEncode, int64(p.id), encNS, int64(len(buf)))
	return buf, encNS, nil
}

// LastCheckpointID returns the ID of the last sealed round (0 when none).
func (m *Manager) LastCheckpointID() uint64 { return m.lastID.Load() }

// Completed returns the number of sealed rounds.
func (m *Manager) Completed() int64 { return m.completed.Load() }

// LastBytes returns the serialised size of the last sealed checkpoint's
// state entries.
func (m *Manager) LastBytes() int64 { return m.lastBytes.Load() }

// WrittenBytesTotal returns FullBytesTotal: every round writes each state
// whole.
//
// Deprecated: use FullBytesTotal.
func (m *Manager) WrittenBytesTotal() int64 { return m.fullBytesTot.Load() }

// FullBytesTotal returns the cumulative bytes of state entries written
// across all sealed rounds.
func (m *Manager) FullBytesTotal() int64 { return m.fullBytesTot.Load() }

// StallNanosTotal returns the cumulative barrier-side stall spent in
// save hooks (snapshot captures) across all sealed rounds.
func (m *Manager) StallNanosTotal() int64 { return m.stallNanosTot.Load() }

// EncodeNanosTotal returns the cumulative off-barrier encode time spent
// on the writer goroutine across all sealed rounds.
func (m *Manager) EncodeNanosTotal() int64 { return m.encNanosTot.Load() }

// RegisterMetrics exposes checkpoint health on the telemetry registry:
// round duration and barrier-stall histograms, last sealed ID, last
// checkpoint size, last success wall time, completed/failed/skipped
// counters and the byte and encode-time totals.
func (m *Manager) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(c *telemetry.Collect) {
		c.Histogram("pipes_checkpoint_duration_nanos", nil, m.durHist)
		c.Histogram("pipes_checkpoint_barrier_stall_nanos", nil, m.stallHist)
		c.Gauge("pipes_checkpoint_last_id", nil, float64(m.lastID.Load()))
		c.Gauge("pipes_checkpoint_last_bytes", nil, float64(m.lastBytes.Load()))
		c.Gauge("pipes_checkpoint_last_success_unix_nanos", nil, float64(m.lastUnixNanos.Load()))
		c.Counter("pipes_checkpoint_completed_total", nil, m.completed.Load())
		c.Counter("pipes_checkpoint_failed_total", nil, m.failed.Load())
		c.Counter("pipes_checkpoint_skipped_total", nil, m.skipped.Load())
		c.Counter("pipes_checkpoint_full_bytes_total", nil, m.fullBytesTot.Load())
		c.Counter("pipes_checkpoint_encode_nanos_total", nil, m.encNanosTot.Load())
	})
}
