// Fault injection for the checkpoint/recovery subsystem. A "crash" in
// these tests is cooperative: the Crash controller fires, the test stops
// the scheduler and abandons the graph objects, and only what a real
// crash would preserve — the durable CheckpointStore, the archived
// source streams, and the downstream consumer's already-received output —
// is carried into recovery. In-process simulation cannot kill threads
// mid-instruction, so the crash points target the checkpoint protocol's
// windows instead: a round whose durability is lost even though the
// graph kept running for a few more microseconds is exactly the state a
// machine failure leaves behind.
package harness

import (
	"sync"
	"sync/atomic"

	"pipes/internal/ft"
)

// FaultPoint selects the protocol window the simulated crash strikes.
type FaultPoint int

const (
	// FaultNone runs to completion without a crash.
	FaultNone FaultPoint = iota
	// FaultBetweenSaveAndAck crashes after an operator snapshot was
	// staged but before the round can become durable: the in-flight
	// round's seal is suppressed, so recovery falls back to the previous
	// checkpoint.
	FaultBetweenSaveAndAck
	// FaultBeforeSeal crashes after the round completed (all offsets and
	// acks collected) but before the store sealed it — the classic torn
	// write. Recovery must skip the torn round.
	FaultBeforeSeal
	// FaultAfterSeal crashes immediately after a seal: recovery resumes
	// from the just-written checkpoint.
	FaultAfterSeal
	// FaultMidDrain crashes while the barrier is still travelling —
	// right after a source recorded its offset — so buffers and gates
	// hold in-flight elements at crash time.
	FaultMidDrain
)

func (p FaultPoint) String() string {
	switch p {
	case FaultNone:
		return "none"
	case FaultBetweenSaveAndAck:
		return "between-save-and-ack"
	case FaultBeforeSeal:
		return "before-seal"
	case FaultAfterSeal:
		return "after-seal"
	case FaultMidDrain:
		return "mid-drain"
	}
	return "unknown"
}

// Crash is the one-shot crash signal shared between the fault hooks and
// the test's scheduler watcher.
type Crash struct {
	once sync.Once
	ch   chan struct{}
}

// NewCrash returns an unfired crash signal.
func NewCrash() *Crash { return &Crash{ch: make(chan struct{})} }

// Fire triggers the crash (idempotent).
func (c *Crash) Fire() { c.once.Do(func() { close(c.ch) }) }

// C is closed once the crash has fired.
func (c *Crash) C() <-chan struct{} { return c.ch }

// Fired reports whether the crash has been triggered.
func (c *Crash) Fired() bool {
	select {
	case <-c.ch:
		return true
	default:
		return false
	}
}

// TornStore wraps a CheckpointStore so seals can be suppressed: while
// armed, Seal writes nothing durable and reports failure — the stored
// image is exactly that of a crash between the round's completion and its
// commit point: the round's payloads are there, its manifest is not, so
// recovery also exercises the manifest-missing path.
type TornStore struct {
	ft.CheckpointStore
	failSeal atomic.Bool
}

// NewTornStore wraps inner.
func NewTornStore(inner ft.CheckpointStore) *TornStore { return &TornStore{CheckpointStore: inner} }

// ArmSealFailure makes every subsequent Seal fail, for the rest of the
// store's life.
func (s *TornStore) ArmSealFailure() { s.failSeal.Store(true) }

// Begin implements ft.CheckpointStore.
func (s *TornStore) Begin(id uint64) (ft.CheckpointWriter, error) {
	w, err := s.CheckpointStore.Begin(id)
	if err != nil {
		return nil, err
	}
	return &tornWriter{CheckpointWriter: w, store: s}, nil
}

type tornWriter struct {
	ft.CheckpointWriter
	store *TornStore
}

func (w *tornWriter) Seal() error {
	if w.store.failSeal.Load() {
		return errTornSeal
	}
	return w.CheckpointWriter.Seal()
}

var errTornSeal = tornSealError{}

type tornSealError struct{}

func (tornSealError) Error() string { return "harness: seal suppressed by fault injection" }

// FaultPlan arms one crash at one protocol point, the first time that
// point is reached during or after round AfterRound.
type FaultPlan struct {
	Point      FaultPoint
	AfterRound uint64
}

// Arm installs the plan on the manager's event stream. The returned
// Crash fires when the fault strikes; store seal suppression is armed
// where the point requires it.
func (fp FaultPlan) Arm(mgr *ft.Manager, store *TornStore, crash *Crash) {
	if fp.Point == FaultNone {
		return
	}
	mgr.OnEvent(func(ev ft.Event) {
		if crash.Fired() || ev.ID < fp.AfterRound {
			return
		}
		switch {
		case fp.Point == FaultBetweenSaveAndAck && ev.Stage == "save":
			// The snapshot is staged in memory; the crash makes the whole
			// round non-durable before any ack can matter.
			store.ArmSealFailure()
			crash.Fire()
		case fp.Point == FaultBeforeSeal && ev.Stage == "complete":
			store.ArmSealFailure()
			crash.Fire()
		case fp.Point == FaultAfterSeal && ev.Stage == "sealed":
			crash.Fire()
		case fp.Point == FaultMidDrain && ev.Stage == "offset":
			store.ArmSealFailure()
			crash.Fire()
		}
	})
}
