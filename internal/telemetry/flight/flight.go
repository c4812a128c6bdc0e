// Package flight is the engine's one instrumentation substrate
// (OBSERVABILITY.md states the contract). It has two halves:
//
//   - the block (OpRef, block.go): one per node, hung off its
//     pubsub.SourceBase. It counts every frame the node publishes and every
//     frame delivered to it, exactly, and samples everything that needs a
//     clock — rates, service time, frame occupancy, buffer depth — one
//     occurrence in strideEvery. The secondary-metadata kinds
//     (internal/metadata) are views computed over it at read time.
//   - the ring (this file): a fixed-size, lock-free record of *system*
//     events — strided frame transfers with occupancy, buffer enqueue/drain
//     depth waterlines, checkpoint barrier phases (alignment hold, state
//     encode, store write), releases of held arrivals, memory sheds and
//     scheduler steals. Where the element tracer
//     (internal/telemetry.Tracer) follows sampled *data* through the
//     graph, the ring watches the machinery move underneath it.
//
// A node without a block pays one atomic pointer load per frame on each
// side.
//
// The ring is written with a seqlock-per-slot scheme over all-atomic
// fields, so writers never block each other or the readers, and the race
// detector sees only atomic operations. Readers (the /flight.json export)
// take a best-effort snapshot: a slot overwritten mid-read is skipped,
// which on a ring of thousands of slots loses at most the events racing
// the scrape.
package flight

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/telemetry"
)

// Kind classifies one recorded system event.
type Kind uint8

// Event kinds. The A/B/C payload fields are kind-specific; see the
// comments and OBSERVABILITY.md's inventory table.
const (
	// KindFrame: one frame published (TransferBatch).
	// A = frame occupancy (elements). Strided 1-in-16 per op.
	KindFrame Kind = iota + 1
	// KindEnqueue: work accepted by a pubsub.Buffer.
	// A = units enqueued, B = buffered depth after. Strided 1-in-16.
	KindEnqueue
	// KindDrain: one scheduler drain of a pubsub.Buffer.
	// A = units drained, B = buffered depth after.
	KindDrain
	// KindAlignHold: a multi-input operator finished aligning a barrier.
	// A = round ID, B = hold duration ns (first blocked input to release).
	KindAlignHold
	// KindEncode: one operator's state serialised for a checkpoint round,
	// on the Manager's background writer — off the barrier stall (see
	// KindSnapshot for the on-barrier capture).
	// A = round ID, B = encode duration ns, C = encoded bytes.
	KindEncode
	// KindStoreWrite: a checkpoint round written to the store.
	// A = round ID, B = write duration ns, C = total snapshot bytes.
	KindStoreWrite
	// KindRoundDone: a checkpoint round fully acked and durable.
	// A = round ID, B = end-to-end round duration ns.
	KindRoundDone
	// KindGateReplay: the arrivals a multi-input operator held in its
	// input queues during alignment were applied on release.
	// A = round ID, B = released element count.
	KindGateReplay
	// KindShed: the memory manager shed state from an operator.
	// A = bytes freed, B = usage before shedding, C = assigned limit.
	KindShed
	// KindSteal: a scheduler worker stole a task activation.
	// A = thief worker, B = victim worker.
	KindSteal
	// KindSnapshot: one operator's state captured at barrier alignment —
	// the copy-on-write handle grab. This is the per-operator barrier
	// stall; KindEncode is the off-barrier serialisation of the captured
	// handle.
	// A = round ID, B = capture duration ns.
	KindSnapshot
)

// String renders the kind for exports and logs.
func (k Kind) String() string {
	switch k {
	case KindFrame:
		return "frame"
	case KindEnqueue:
		return "enqueue"
	case KindDrain:
		return "drain"
	case KindAlignHold:
		return "align_hold"
	case KindEncode:
		return "encode"
	case KindStoreWrite:
		return "store_write"
	case KindRoundDone:
		return "round_done"
	case KindGateReplay:
		return "gate_replay"
	case KindShed:
		return "shed"
	case KindSteal:
		return "steal"
	case KindSnapshot:
		return "snapshot"
	}
	return "unknown"
}

// Event is one decoded ring entry.
type Event struct {
	Seq    uint64 // global record order (1-based, monotone)
	WallNS int64  // wall-clock stamp at record time
	Kind   Kind
	Op     string // interned operator / component name
	A      int64  // kind-specific payloads — see the Kind constants
	B      int64
	C      int64

	idx uint32 // Op's intern index: its /flight.json track
}

// slot is one ring entry. Every field is atomic so concurrent writers and
// readers stay race-free without a lock: a writer invalidates seq, stores
// the payload, then publishes seq; a reader re-checks seq around its
// field copies and discards torn slots.
type slot struct {
	seq  atomic.Uint64 // 0 = empty/being written, else the event's Seq
	wall atomic.Int64
	meta atomic.Uint64 // kind<<32 | op index
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
}

// DefaultRingSize is the event capacity of the facade's recorder, and of
// New given a size <= 0.
const DefaultRingSize = 4096

// minRingSize keeps degenerate configs usable.
const minRingSize = 256

// Recorder is the flight ring plus the operator intern table and the
// always-on aggregate surfaces (per-edge counters/histograms, checkpoint
// phase histograms) the scrape endpoint exports. The table holds a block
// from Ref until Forget; the name stays behind under its intern index, so
// ring events recorded for a forgotten operator still decode.
type Recorder struct {
	cursor atomic.Uint64
	mask   uint64
	slots  []slot

	clock atomic.Pointer[telemetry.Clock]

	mu    sync.Mutex
	refs  map[string]*OpRef // the live blocks, by name
	names []string          // every name ever interned, by intern index

	// Checkpoint round phase histograms (ns), fed by Record so the ft
	// instrumentation sites stay one-liners. Exported as
	// pipes_checkpoint_round_phase_ns{phase=...}.
	alignHist  *telemetry.Histogram
	snapHist   *telemetry.Histogram
	encodeHist *telemetry.Histogram
	writeHist  *telemetry.Histogram
}

// New returns a recorder whose ring holds at least size events (rounded
// up to a power of two; size <= 0 selects DefaultRingSize).
func New(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	if size < minRingSize {
		size = minRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Recorder{
		mask:       uint64(n - 1),
		slots:      make([]slot, n),
		refs:       make(map[string]*OpRef),
		alignHist:  telemetry.NewHistogram(),
		snapHist:   telemetry.NewHistogram(),
		encodeHist: telemetry.NewHistogram(),
		writeHist:  telemetry.NewHistogram(),
	}
}

// SetClock injects the time source (nil restores the system clock).
func (r *Recorder) SetClock(c telemetry.Clock) {
	if c == nil {
		r.clock.Store(nil)
		return
	}
	r.clock.Store(&c)
}

// NowNS reads the recorder's clock. Instrumentation sites that need a
// start stamp (barrier hold timing) use this so fake clocks govern every
// flight timestamp. A nil recorder reads the system clock.
func (r *Recorder) NowNS() int64 { return r.now().UnixNano() }

// now reads the injected clock, the system clock without one. A nil
// recorder (a block no recorder rings for, see NewRef) reads the system
// clock.
func (r *Recorder) now() time.Time {
	if r != nil {
		if c := r.clock.Load(); c != nil {
			return (*c).Now()
		}
	}
	return telemetry.SystemClock{}.Now()
}

// PhaseHistograms returns the checkpoint round phase histograms
// (alignment hold, on-barrier snapshot capture, off-barrier state encode,
// store write), for registry export.
func (r *Recorder) PhaseHistograms() (align, snapshot, encode, write *telemetry.Histogram) {
	return r.alignHist, r.snapHist, r.encodeHist, r.writeHist
}

// Ref interns name and returns the block this recorder rings for under
// it. Idempotent until Forget(name); a block keeps recording after it is
// forgotten. Call at wiring time, not on the hot path.
func (r *Recorder) Ref(name string) *OpRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ref, ok := r.refs[name]; ok {
		return ref
	}
	ref := NewRef(name)
	ref.rec, ref.idx = r, uint32(len(r.names))
	r.refs[name] = ref
	r.names = append(r.names, name)
	return ref
}

// Forget drops name's block from Refs, and so from the scrape, when its
// operator leaves the graph. The intern index keeps the name: events the
// block recorded, or still records, decode under it. A later Ref(name)
// interns a fresh block.
func (r *Recorder) Forget(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.refs, name)
}

// Refs snapshots the blocks not forgotten, in intern order.
func (r *Recorder) Refs() []*OpRef {
	r.mu.Lock()
	out := make([]*OpRef, 0, len(r.refs))
	for _, ref := range r.refs {
		out = append(out, ref)
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b *OpRef) int { return cmp.Compare(a.idx, b.idx) })
	return out
}

// opName resolves an intern index (empty string when unknown — a torn
// slot decoded against a stale table).
func (r *Recorder) opName(idx uint32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(idx) < len(r.names) {
		return r.names[idx]
	}
	return ""
}

// Record appends one event to the ring, stamping it with the recorder's
// clock, and feeds the checkpoint phase histograms for barrier-phase
// kinds. Blocks record behind their strides; rare events (sheds, steals)
// are recorded directly.
func (r *Recorder) Record(op *OpRef, k Kind, a, b, c int64) {
	r.record(op, k, r.NowNS(), a, b, c)
}

func (r *Recorder) record(op *OpRef, k Kind, wall, a, b, c int64) {
	switch k {
	case KindAlignHold:
		r.alignHist.Observe(b)
	case KindSnapshot:
		r.snapHist.Observe(b)
	case KindEncode:
		r.encodeHist.Observe(b)
	case KindStoreWrite:
		r.writeHist.Observe(b)
	}
	var idx uint32
	if op != nil {
		idx = op.idx
	}
	seq := r.cursor.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	s.seq.Store(0) // invalidate: readers racing this write discard the slot
	s.wall.Store(wall)
	s.meta.Store(uint64(k)<<32 | uint64(idx))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.seq.Store(seq) // publish
}

// Events decodes the ring into record order. Best-effort under load:
// slots being overwritten during the scan are skipped.
func (r *Recorder) Events() []Event {
	events := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 2; attempt++ {
			seq := s.seq.Load()
			if seq == 0 {
				break
			}
			ev := Event{
				Seq:    seq,
				WallNS: s.wall.Load(),
				A:      s.a.Load(),
				B:      s.b.Load(),
				C:      s.c.Load(),
			}
			meta := s.meta.Load()
			if s.seq.Load() != seq {
				continue // torn: a writer landed mid-copy, retry once
			}
			ev.Kind = Kind(meta >> 32)
			ev.idx = uint32(meta)
			ev.Op = r.opName(ev.idx)
			events = append(events, ev)
			break
		}
	}
	sortEvents(events)
	return events
}

// sortEvents orders by Seq (insertion sort is fine: the slice arrives
// nearly sorted — ring order is seq order modulo one wrap point).
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j-1].Seq > evs[j].Seq; j-- {
			evs[j-1], evs[j] = evs[j], evs[j-1]
		}
	}
}
