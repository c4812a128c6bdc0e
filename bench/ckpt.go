package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pipes"
	"pipes/internal/archive"
	"pipes/internal/cql"
	"pipes/internal/ft"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// checkpoint_recover: the facade with a file-backed checkpoint store,
// a full base every 8 rounds and binary deltas in between, over a
// stateful graph — a group-by over ~50 k keys and a windowed equi-join —
// fed from archives. Rounds are triggered by element count, so every
// run snapshots the same states at the same positions. Phase A is the
// full run with checkpoints; phase B abandons an engine seven deltas deep
// into a chain, recovers five times from that chain and replays from the
// recorded offsets. The barrier protocol, snapshot handles, the delta
// codec, FileStore chain resolution and archive replay do work no other
// workload touches.

const (
	ckptElems     = 125_000 // elements per stream and pass
	ckptKeys      = 50_000
	ckptStep      = 10 // application time between two elements of a stream
	ckptEvery     = 5_000
	ckptRounds    = ckptElems/ckptEvery - 1 // 24: the last stretch ends the stream
	ckptBaseEvery = 8
	// ckptAbandon is the round phase B recovers from: with a base every 8
	// rounds, rounds 1 and 9 are full and round 16 sits seven deltas deep.
	ckptAbandon      = 16
	ckptRecoveries   = 5
	ckptPassesPer20s = 3
	ckptGroupRange   = 300_000 // 30 000 elements live in the group-by
	ckptJoinRange    = 120_000 // 12 000 per side in the join
)

var ckptQueries = []cqlQuery{
	{
		name:   "group",
		text:   fmt.Sprintf(`SELECT k AS k, COUNT(*) AS n, SUM(v) AS total FROM a [RANGE %d] GROUP BY k`, ckptGroupRange),
		fields: []string{"k", "n", "total"},
	},
	{
		name: "join",
		text: fmt.Sprintf(`SELECT x.k AS k, x.v AS xv, y.v AS yv FROM a [RANGE %d] AS x, b [RANGE %d] AS y WHERE x.k = y.k`,
			ckptJoinRange, ckptJoinRange),
		fields: []string{"k", "xv", "yv"},
	},
}

type ckptRow struct {
	t temporal.Time
	k int
	v float64
}

type ckptInput struct {
	a, b         []ckptRow
	archA, archB *archive.Archive
	refs         []rowSum // per query, what an uninterrupted run delivers
}

func (in *ckptInput) elems() int64 { return int64(len(in.a) + len(in.b)) }

// newCkptInput draws both streams for seed, stores them in archives (the
// durable ingest log recovery replays from) and computes the reference.
func newCkptInput(seed int64, n, keys int) *ckptInput {
	rng := rand.New(rand.NewSource(seed))
	in := &ckptInput{archA: archive.New("a", 1<<16), archB: archive.New("b", 1<<16)}
	draw := func(arch *archive.Archive, phase temporal.Time) []ckptRow {
		rows := make([]ckptRow, n)
		for i := range rows {
			rows[i] = ckptRow{temporal.Time(i*ckptStep) + phase, rng.Intn(keys), float64(rng.Intn(1000))}
			arch.Process(temporal.At(cql.Tuple{"k": rows[i].k, "v": rows[i].v}, rows[i].t), 0)
		}
		arch.Done(0)
		return rows
	}
	in.a = draw(in.archA, 0)
	in.b = draw(in.archB, ckptStep/2)
	in.refs = []rowSum{ckptGroupRef(in.a), ckptJoinRef(in.a, in.b)}
	return in
}

// ckptGroupRef is the group query in plain Go: per key, count and sum
// over a sliding range.
func ckptGroupRef(rows []ckptRow) (s rowSum) {
	for k, idx := range groupIndex(len(rows), func(i int) int { return rows[i].k }) {
		ts := timesAt(idx, func(i int) temporal.Time { return rows[i].t })
		var n int64
		var sum float64
		sweep(ts, ckptGroupRange,
			func(j int) { n++; sum += rows[idx[j]].v },
			func(j int) { n--; sum -= rows[idx[j]].v },
			func(d temporal.Time) { s.add(hashVals(k, n, sum), d) })
	}
	return s
}

// ckptJoinRef is the join in plain Go: two elements with the same key
// join for as long as both of their ranges cover the instant.
func ckptJoinRef(a, b []ckptRow) (s rowSum) {
	byKey := groupIndex(len(b), func(i int) int { return b[i].k })
	for _, x := range a {
		for _, i := range byKey[x.k] {
			y := b[i]
			lo, hi := max(x.t, y.t), min(x.t, y.t)+ckptJoinRange
			if lo < hi {
				s.add(hashVals(x.k, x.v, y.v), hi-lo)
			}
		}
	}
	return s
}

// cutSink is a tupleSink that also sees checkpoint barriers and records
// the summary of everything delivered before each one: the pre-crash
// output truncated at a checkpoint plus the recovered engine's output
// must add up to the uninterrupted run's.
type cutSink struct {
	tupleSink
	cuts  map[uint64]rowSum // written by the engine's worker, read once it has stopped
	first chan struct{}     // closed at the first result
}

func newCutSink(q cqlQuery) *cutSink {
	return &cutSink{tupleSink: *newTupleSink(q), cuts: map[uint64]rowSum{}, first: make(chan struct{})}
}

func (s *cutSink) Process(e temporal.Element, i int) {
	if s.rows == 0 {
		close(s.first)
	}
	s.tupleSink.Process(e, i)
}

func (s *cutSink) ProcessBatch(b temporal.Batch, _ int) {
	for _, e := range b {
		s.Process(e, 0)
	}
}

func (s *cutSink) HandleControl(c pubsub.Control, _ int) {
	if b, ok := c.(pubsub.Barrier); ok {
		s.cuts[b.ID] = s.got
	}
}

// pacer drives checkpoint rounds by element count. It wraps the replay
// emitter of stream a: every `every` elements it waits until the previous
// round is sealed — so no round is ever skipped — and triggers the next.
// With abandon set it runs on for half a stretch after the last round is
// sealed, so there is lost work to replay, and then both streams stop
// emitting: the engine is left for dead.
type pacer struct {
	pubsub.BatchEmitter
	mgr     *ft.Manager
	every   int
	rounds  int // rounds to trigger
	abandon bool
	// lap, when set, ends a part of the pass being measured at every
	// trigger, once the previous round is sealed: a part is one round and
	// the stretch of input it overlaps.
	lap func()

	emitted, next int
	triggered     int
	inFlight      bool
	lastStretch   bool
	failed        atomic.Int64
	sealed        chan uint64
	stopped       atomic.Bool
	dead          chan struct{} // closed when the engine is abandoned
	times         roundTimes
}

// roundTimes accumulates the phases of every round as Manager.OnEvent
// reports them.
type roundTimes struct {
	mu              sync.Mutex
	begun, complete time.Time
	toComplete      time.Duration // trigger → round complete: the barrier's way through the graph
	completeToSeal  time.Duration // encode, delta and store write, off the barrier
}

func newPacer(inner pubsub.Emitter, mgr *ft.Manager, every, rounds int, abandon bool, tr *tracer, parent int) *pacer {
	p := &pacer{
		BatchEmitter: inner.(pubsub.BatchEmitter), mgr: mgr,
		every: every, rounds: rounds, abandon: abandon, next: every,
		sealed: make(chan uint64, 1), // one round is in flight at a time
		dead:   make(chan struct{}),
	}
	mgr.OnEvent(func(ev ft.Event) {
		t := &p.times
		switch ev.Stage {
		case "complete":
			t.mu.Lock()
			t.complete = time.Now()
			t.toComplete += t.complete.Sub(t.begun)
			t.mu.Unlock()
		case "sealed":
			t.mu.Lock()
			t.completeToSeal += time.Since(t.complete)
			tr.add("round:trigger-to-sealed", parent, t.begun, time.Since(t.begun))
			t.mu.Unlock()
			p.sealed <- ev.ID
		case "failed":
			p.failed.Add(1)
			p.sealed <- ev.ID
		}
	})
	return p
}

func (p *pacer) EmitNext() bool {
	_, more := p.EmitBatch(1)
	return more
}

func (p *pacer) awaitSeal() {
	if p.inFlight {
		<-p.sealed
		p.inFlight = false
	}
}

func (p *pacer) EmitBatch(max int) (int, bool) {
	if p.stopped.Load() {
		return 0, true
	}
	if p.emitted >= p.next {
		switch {
		case p.triggered < p.rounds:
			p.awaitSeal()
			if p.lap != nil {
				p.lap()
			}
			p.times.mu.Lock()
			p.times.begun = time.Now()
			p.times.mu.Unlock()
			if _, err := p.mgr.Trigger(); err != nil {
				p.failed.Add(1)
			} else {
				p.inFlight = true
			}
			p.triggered++
			p.next += p.every
		case p.abandon && !p.lastStretch:
			p.awaitSeal()
			p.lastStretch = true
			p.next += p.every / 2
		case p.abandon:
			p.stopped.Store(true)
			close(p.dead)
			return 0, true
		}
	}
	n, more := p.BatchEmitter.EmitBatch(max)
	p.emitted += n
	return n, more
}

// follower stops stream b when the pacer abandons the engine.
type follower struct {
	pubsub.BatchEmitter
	p *pacer
}

func (f *follower) EmitNext() bool {
	_, more := f.EmitBatch(1)
	return more
}

func (f *follower) EmitBatch(max int) (int, bool) {
	if f.p != nil && f.p.stopped.Load() {
		return 0, true
	}
	return f.BatchEmitter.EmitBatch(max)
}

// ckptEngine is one engine over the two archived streams with both
// queries registered and cut-recording sinks attached.
type ckptEngine struct {
	d     *pipes.DSMS
	sinks []*cutSink
	pacer *pacer
}

// openCkptEngine creates the engine; dir empty means no checkpointing.
func openCkptEngine(dir string) *ckptEngine {
	return &ckptEngine{d: pipes.NewDSMS(pipes.Config{Workers: 1, CheckpointDir: dir, CheckpointBaseEvery: ckptBaseEvery})}
}

// build registers replay sources positioned at the given offsets, both
// queries and their sinks. rounds 0 means no triggers (no checkpointing,
// or a recovering engine).
func (e *ckptEngine) build(in *ckptInput, offA, offB, every, rounds int, abandon bool, tr *tracer, parent int) error {
	sp := tr.begin("archive.ReplayFrom", parent)
	srcA, srcB := in.archA.ReplayFrom("a", offA), in.archB.ReplayFrom("b", offB)
	tr.end(sp)
	if rounds > 0 {
		e.pacer = newPacer(srcA, e.d.Checkpoints, every, rounds, abandon, tr, parent)
		srcA = e.pacer
	}
	srcB = &follower{BatchEmitter: srcB.(pubsub.BatchEmitter), p: e.pacer}
	e.d.RegisterStream("a", srcA, 100)
	e.d.RegisterStream("b", srcB, 100)
	for _, q := range ckptQueries {
		sp := tr.begin("RegisterQuery:"+q.name, parent)
		reg, err := e.d.RegisterQuery(q.text)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("checkpoint_recover: %s: %w", q.name, err)
		}
		sink := newCutSink(q)
		if err := reg.Subscribe(sink); err != nil {
			return err
		}
		e.sinks = append(e.sinks, sink)
	}
	return nil
}

// run drives the engine to the end of its streams.
func (e *ckptEngine) run() {
	e.d.Start()
	e.d.Wait()
}

// check compares the sinks of a complete run with the reference.
func (e *ckptEngine) check(in *ckptInput) (attempted, failed int64) {
	for i, s := range e.sinks {
		attempted += s.rows
		failed += s.failures(in.refs[i])
	}
	return attempted, failed
}

// ckptPass is one full run; with dir set it checkpoints every `every`
// elements. Failed counts rounds that did not seal and result rows that
// differ from the reference.
func ckptPass(in *ckptInput, dir string, every, rounds int, tr *tracer, parent int) (s sample, e *ckptEngine, attempted, failed int64, err error) {
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return s, nil, 0, 0, err
		}
	} else {
		rounds = 0
	}
	e = openCkptEngine(dir)
	if err = e.build(in, 0, 0, every, rounds, false, tr, parent); err != nil {
		return s, nil, 0, 0, err
	}
	defer e.d.Stop()
	s = measureLaps(in.elems(), func(lap func()) {
		if e.pacer != nil {
			e.pacer.lap = lap
		}
		e.run()
	})
	attempted, failed = e.check(in)
	if dir != "" {
		sealed := e.d.Checkpoints.Completed()
		attempted += int64(rounds)
		failed += int64(rounds) - sealed + e.pacer.failed.Load()
	}
	return s, e, attempted, failed, nil
}

// recovery is one timed recovery from the chain in dir.
type recovery struct {
	total, resolve, restore time.Duration
	replayed                int64
	engine                  *ckptEngine
	cp                      *pipes.Checkpoint
}

// recoverOnce is the facade's recovery path, timed from the moment a new
// engine opens the checkpoint directory: resolve the latest checkpoint,
// rebuild the graph over replay sources positioned at the recorded
// offsets, restore the operator states, start, and wait for the first
// post-recovery result. With finish the engine runs on to the end of the
// streams. The checkpoint is resolved once (LatestCheckpoint, for the
// offsets) and restored from (Manager.Restore), which is RecoverLatest in
// its two halves.
func recoverOnce(in *ckptInput, dir string, finish bool, tr *tracer, parent int) (*recovery, error) {
	sp := tr.begin("recover", parent)
	defer tr.end(sp)
	r := &recovery{}
	t0 := time.Now()
	e := openCkptEngine(dir)
	defer e.d.Stop()
	s1 := tr.begin("LatestComplete", sp)
	cp, err := e.d.LatestCheckpoint()
	tr.end(s1)
	r.resolve = time.Since(t0)
	if err != nil || cp == nil {
		return nil, fmt.Errorf("checkpoint_recover: no checkpoint to recover from: %v", err)
	}
	r.cp, r.engine = cp, e
	offA, offB := cp.Offset("a"), cp.Offset("b")
	r.replayed = in.elems() - int64(offA+offB)
	if err := e.build(in, offA, offB, 0, 0, false, tr, sp); err != nil {
		return nil, err
	}
	t1 := time.Now()
	s2 := tr.begin("RestoreStates", sp)
	err = e.d.Checkpoints.Restore(cp)
	tr.end(s2)
	r.restore = time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("checkpoint_recover: restore: %w", err)
	}
	e.d.Start()
	select {
	case <-e.sinks[0].first:
	case <-e.sinks[1].first:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("checkpoint_recover: no result within 30s of recovery")
	}
	r.total = time.Since(t0)
	if finish {
		e.d.Wait()
	}
	return r, nil
}

func runCheckpointRecover(cfg config, tr *tracer) (*result, error) {
	res := newResult(cfg)
	n, keys, every := ckptElems, ckptKeys, ckptEvery
	if cfg.smoke {
		// A stretch must stay longer than a frame, or rounds run out of
		// stream before all of them are triggered.
		n, keys, every = 2000, 500, 2000/(ckptRounds+1)
	}
	root, err := os.MkdirTemp(cfg.ckptRoot, "pipes-bench-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var in *ckptInput
	var perr error
	res.setup(func() {
		sp := tr.begin("setup:generate+reference", 0)
		in = newCkptInput(cfg.seed, n, keys)
		tr.end(sp)
		// The uninterrupted run: no checkpointing, checked against the
		// plain-Go reference. It doubles as the warm-up.
		_, _, attempted, failed, err := ckptPass(in, "", 0, 0, nil, 0)
		if err != nil {
			perr = err
		}
		res.count(attempted, failed)
	}, nil)
	if perr != nil {
		return nil, perr
	}
	for i, q := range ckptQueries {
		if in.refs[i].rowDur == 0 {
			return nil, fmt.Errorf("checkpoint_recover: reference of %s is empty", q.name)
		}
		res.checksum(q.name, in.refs[i].sum)
	}
	if err := ckptPhaseA(cfg, tr, in, root+"/a", every, res); err != nil {
		return nil, err
	}
	return res, ckptPhaseB(tr, in, root+"/b", every, res)
}

// ckptPhaseA is the full run with checkpoints, ckptPassesPer20s times for
// every 20 s of budget: a pass is too long for the budget to count passes
// in, so their number is fixed and the host's speed decides how long they
// take. A traced run follows every pass with two neighbours to compare it
// with: one without checkpoints, one without spans.
func ckptPhaseA(cfg config, tr *tracer, in *ckptInput, dir string, every int, res *result) error {
	var on, off, bare []sample
	var last *ckptEngine
	var rt roundTimes
	for passes := max(1, int(cfg.work().Seconds()*ckptPassesPer20s/20)); len(on) < passes; {
		sp := tr.begin("pass:checkpoint_recover", 0)
		s, e, attempted, failed, err := ckptPass(in, dir, every, ckptRounds, tr, sp)
		tr.end(sp)
		if err != nil {
			return err
		}
		res.count(attempted, failed)
		on = append(on, s)
		last = e
		rt.toComplete += e.pacer.times.toComplete
		rt.completeToSeal += e.pacer.times.completeToSeal
		if verbose {
			fmt.Printf("#   pass %d: %.0f ms, %.4g elem/s, %d rounds sealed\n", len(on)-1, ms(s.wall), s.eps(), e.d.Checkpoints.Completed())
		}
		if !cfg.trace {
			continue
		}
		for _, d := range []string{"", dir} {
			s, _, attempted, failed, err := ckptPass(in, d, every, ckptRounds, nil, 0)
			if err != nil {
				return err
			}
			res.count(attempted, failed)
			if d == "" {
				off = append(off, s)
			} else {
				bare = append(bare, s)
			}
		}
	}
	if cfg.trace {
		res.primary(bare) // the passes without spans
	} else {
		res.primary(on)
	}
	mgr := last.d.Checkpoints
	rounds := float64(mgr.Completed())
	if rounds == 0 {
		return fmt.Errorf("checkpoint_recover: no round sealed")
	}
	written := float64(mgr.WrittenBytesTotal()) / rounds
	res.layer["checkpoint_recover.ckpt_written_bytes_per_round"] = written
	res.layer["ft.rounds"] = rounds
	res.layer["ft.stall_ms_per_round"] = float64(mgr.StallNanosTotal()) / 1e6 / rounds
	res.layer["ft.encode_ms_per_round"] = float64(mgr.EncodeNanosTotal()) / 1e6 / rounds
	allRounds := rounds * float64(len(on))
	res.layer["ft.barrier_ms_per_round"] = ms(rt.toComplete) / allRounds
	res.layer["ft.write_ms_per_round"] = ms(rt.completeToSeal)/allRounds - res.layer["ft.encode_ms_per_round"]
	res.layer["ft.full_bytes_per_round"] = float64(mgr.FullBytesTotal()) / rounds
	res.layer["ft.delta_ratio"] = float64(mgr.WrittenBytesTotal()) / float64(mgr.FullBytesTotal())
	res.layer["ft.state_bytes"] = float64(mgr.LastBytes())
	if cfg.trace {
		res.layer["ft.overhead_ratio"] = medianOf(bare, sample.nsPerElem) / medianOf(off, sample.nsPerElem)
		res.layer["trace.overhead_ratio"] = medianOf(on, sample.nsPerElem) / medianOf(bare, sample.nsPerElem)
	}
	return nil
}

// ckptPhaseB runs an engine ckptAbandon rounds into a chain and abandons
// it, then recovers ckptRecoveries times from what it left behind. The
// last recovery replays to the end: the pre-crash output cut at the
// checkpoint plus the recovered output must equal the uninterrupted
// run's.
func ckptPhaseB(tr *tracer, in *ckptInput, dir string, every int, res *result) error {
	dead := openCkptEngine(dir)
	if err := dead.build(in, 0, 0, every, ckptAbandon, true, tr, 0); err != nil {
		return err
	}
	dead.d.Start()
	<-dead.pacer.dead
	dead.d.Stop()
	res.count(ckptAbandon, ckptAbandon-dead.d.Checkpoints.Completed())

	var total, resolve, restore []float64
	for i := 0; i < ckptRecoveries; i++ {
		finish := i == ckptRecoveries-1
		r, err := recoverOnce(in, dir, finish, tr, 0)
		if err != nil {
			return err
		}
		total = append(total, ms(r.total))
		resolve = append(resolve, ms(r.resolve))
		restore = append(restore, ms(r.restore))
		res.layer["ft.replayed_elems"] = float64(r.replayed)
		if r.cp.ID != ckptAbandon {
			fmt.Fprintf(os.Stderr, "bench: recovered from checkpoint %d, expected %d\n", r.cp.ID, ckptAbandon)
			res.count(1, 1)
		}
		if !finish {
			continue
		}
		for q, sink := range r.engine.sinks {
			cut, ok := dead.sinks[q].cuts[r.cp.ID]
			stitched := rowSum{cut.sum + sink.got.sum, cut.rowDur + sink.got.rowDur}
			res.count(sink.rows, 0)
			if !ok || !sink.done || stitched != in.refs[q] {
				res.count(0, max(sink.rows, 1))
			}
		}
	}
	res.layer["checkpoint_recover.recovery_ms"] = median(total)
	res.layer["ft.recover_resolve_ms"] = median(resolve)
	res.layer["ft.recover_restore_ms"] = median(restore)
	return nil
}
