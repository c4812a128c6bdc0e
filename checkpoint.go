// Fault-tolerance glue for the DSMS facade: Config-driven wiring of the
// checkpoint subsystem (internal/ft, FAULT_TOLERANCE.md) into registered
// streams and queries, and the facade-level recovery path.
package pipes

import (
	"fmt"

	"pipes/internal/ft"
	"pipes/internal/pubsub"
	"pipes/internal/wire"
)

// Checkpoint re-exports for facade users driving recovery by hand.
type (
	// Checkpoint is one durable, complete checkpoint (see internal/ft).
	Checkpoint = ft.Checkpoint
	// CheckpointStore persists checkpoints (see internal/ft: one store
	// over a directory or, without CheckpointDir, over a map).
	CheckpointStore = ft.CheckpointStore
	// CheckpointSink is an output sink recording per-checkpoint cut
	// indexes, for exactly-once output stitching after recovery.
	CheckpointSink = ft.CheckpointSink
)

// ErrNoCheckpoint is returned by RecoverLatest when the store holds no
// complete checkpoint.
var ErrNoCheckpoint = ft.ErrNoCheckpoint

// NewCheckpointSink returns a sink recording output cut indexes per
// checkpoint (see internal/ft).
var NewCheckpointSink = ft.NewCheckpointSink

// RegisterCheckpointType makes a concrete stream value type serialisable
// in checkpoints: the basic kinds and cql.Tuple are built in, any other
// type travels through the state codec's gob fallback once registered.
// Call once per custom type before Start.
var RegisterCheckpointType = wire.RegisterType

// initCheckpoints builds the checkpoint store and manager when the
// configuration enables them. Called from NewDSMS.
func (d *DSMS) initCheckpoints() error {
	if d.cfg.CheckpointInterval <= 0 && d.cfg.CheckpointDir == "" {
		return nil
	}
	if d.cfg.CheckpointDir != "" {
		fs, err := ft.NewFileStore(d.cfg.CheckpointDir)
		if err != nil {
			return fmt.Errorf("pipes: checkpoint store: %w", err)
		}
		d.ckptStore = fs
	} else {
		d.ckptStore = ft.NewMemStore()
	}
	d.Checkpoints = ft.NewManager(d.ckptStore)
	d.Checkpoints.RegisterMetrics(d.Registry)
	return nil
}

// checkpointSource wraps a stream in a CheckpointSource so barrier rounds
// record its replay offset, whether an emitter or a push source drives
// it.
func (d *DSMS) checkpointSource(src pubsub.Source) pubsub.Source {
	if d.Checkpoints == nil {
		return src
	}
	cs := ft.NewCheckpointSource(src)
	d.Checkpoints.RegisterSource(cs)
	return cs
}

// registerCheckpointed registers a query operator with the checkpoint
// manager if it holds serialisable state. The snapshot name is the
// optimizer's deterministic operator name — the property that lets a
// rebuilt graph find its state.
func (d *DSMS) registerCheckpointed(p pubsub.Pipe) {
	if d.Checkpoints == nil {
		return
	}
	hooked, okH := p.(ft.BarrierHooked)
	saver, okS := p.(ft.StateSaver)
	if okH && okS {
		d.Checkpoints.RegisterOperator(hooked, saver)
	}
}

// LatestCheckpoint returns the latest complete checkpoint in the
// configured store without restoring anything (nil when the store is
// empty). Recovery needs it before the graph exists: the per-source
// replay offsets decide what to feed the rebuilt engine, so the order is
// LatestCheckpoint → RegisterStream(replay sources) → RegisterQuery/
// RegisterPlan → Recover(cp) → Start, which reads the store once.
func (d *DSMS) LatestCheckpoint() (*Checkpoint, error) {
	if d.ckptStore == nil {
		return nil, fmt.Errorf("pipes: checkpointing not configured")
	}
	return d.ckptStore.LatestComplete()
}

// Recover restores cp's operator snapshots into the operators registered
// so far. Call it after rebuilding the graph (RegisterStream +
// RegisterQuery/RegisterPlan, in the original order, so the optimizer
// reproduces the original operator names) and before Start. The caller
// then replays each source from cp.Offset(name) — internal/archive's
// ReplayFrom is the standard replay source. A nil cp is ErrNoCheckpoint
// (recover from scratch: replay everything).
func (d *DSMS) Recover(cp *Checkpoint) error {
	if d.Checkpoints == nil {
		return fmt.Errorf("pipes: checkpointing not configured")
	}
	return d.Checkpoints.Restore(cp)
}

// RecoverLatest is LatestCheckpoint followed by Recover, for callers that
// do not need the checkpoint's offsets before they build the graph.
func (d *DSMS) RecoverLatest() (*Checkpoint, error) {
	cp, err := d.LatestCheckpoint()
	if err != nil {
		return nil, err
	}
	if err := d.Recover(cp); err != nil {
		return nil, err
	}
	return cp, nil
}
