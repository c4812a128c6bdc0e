package pipes

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pipes/internal/archive"
	"pipes/internal/harness"
	"pipes/internal/ops"
	"pipes/internal/planio"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

// bidStream builds n bid tuples with rolling timestamps.
func bidStream(n int) []Element {
	out := make([]Element, n)
	for i := range out {
		out[i] = NewElement(Tuple{"auction": i % 5, "price": 100 + i%37}, Time(i), Time(i+40))
	}
	return out
}

// TestCheckpointRecoveryThroughFacade is the end-to-end recovery
// workflow over the public API: an engine runs a CQL aggregation with
// file-backed checkpointing and is torn down mid-stream; a second engine
// rebuilds the same graph from the plan's XML description, restores the
// latest checkpoint and replays the sources from the recorded offsets
// out of an archive; the stitched output (pre-crash output cut at the
// checkpoint + recovered output) must be snapshot-equivalent to an
// uninterrupted run. The group plan checkpoints live source tuples and
// pending output rows, the self-join both sweep areas and pending pairs:
// every value a plan edge carries (SEMANTICS.md §5) goes through a store.
// DISTINCT checkpoints its pending spans, DSTREAM its pending chronons
// and RSTREAM its live tuples and next boundary.
func TestCheckpointRecoveryThroughFacade(t *testing.T) {
	for name, query := range map[string]string{
		"group": `SELECT auction, AVG(price) FROM bids [RANGE 50] GROUP BY auction`,
		"join": `SELECT hi.price AS hi, lo.price AS lo FROM bids [RANGE 50] AS hi, bids [RANGE 20] AS lo
			WHERE hi.auction = lo.auction AND hi.price > lo.price`,
		"distinct": `SELECT DISTINCT auction FROM bids [RANGE 50]`,
		"dstream":  `DSTREAM(SELECT auction, price FROM bids [RANGE 50])`,
		"rstream":  `RSTREAM(SELECT auction FROM bids [RANGE 50], SLIDE 7)`,
	} {
		t.Run(name, func(t *testing.T) { recoverThroughFacade(t, query, false) })
	}
}

// A GROUP BY lends its result rows while a borrowing sink is subscribed
// (SEMANTICS.md §3.7), and its pending rows are checkpoint state: the
// recovery workflow must stitch a snapshot-equivalent output with such a
// sink on both engines, and every row the recovered engine lent must
// have rendered as the copy its owner kept.
func TestLentGroupRowsRecoverThroughFacade(t *testing.T) {
	recoverThroughFacade(t, `SELECT auction, COUNT(*) AS n, AVG(price) FROM bids [RANGE 50] GROUP BY auction`, true)
}

// renderSink borrows the rows a query lends it: it renders each one in
// the call and keeps only the text, as the service's result sink does.
type renderSink struct {
	mu  sync.Mutex
	out []string
}

func (s *renderSink) Name() string { return "render" }
func (s *renderSink) Done(int)     {}

func (s *renderSink) ProcessBatch(b temporal.Batch, _ int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range b {
		s.out = append(s.out, render(e.Value))
	}
}

func (s *renderSink) rendered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out
}

func render(v any) string {
	js, ok := v.(Tuple).AppendJSON(nil)
	if !ok {
		return "unrendered"
	}
	return string(js)
}

// TestEveryPlannedOperatorIsCheckpointed builds, with checkpointing on,
// one query per kind of node the optimizer plans and requires every
// operator the queries created to have its state in a sealed
// checkpoint, unless it is of a kind that holds no state. An operator
// that holds state but falls out of the checkpoint is recovered empty
// without an error, so this fails loudly instead.
func TestEveryPlannedOperatorIsCheckpointed(t *testing.T) {
	stateless := func(p pubsub.Pipe) bool {
		switch p.(type) {
		case *ops.Filter, *ops.Map, *ops.Project[Tuple], *ops.TimeWindow:
			return true
		}
		return false
	}
	queries := []string{
		`SELECT * FROM bids [RANGE 10]`,
		`SELECT * FROM bids [NOW]`,
		`SELECT * FROM bids [RANGE 10 SLIDE 10]`,
		`SELECT * FROM bids [UNBOUNDED]`,
		`SELECT * FROM bids [ROWS 3]`,
		`SELECT * FROM bids [PARTITION BY auction ROWS 2]`,
		`SELECT * FROM bids [RANGE 20] WHERE price > 110`,
		`SELECT price FROM bids [RANGE 30]`,
		`SELECT auction, COUNT(*) FROM bids [RANGE 40] GROUP BY auction`,
		`SELECT a.price AS p, b.price AS q FROM bids [RANGE 50] AS a, bids [RANGE 60] AS b WHERE a.auction = b.auction`,
		`SELECT DISTINCT auction FROM bids [RANGE 70]`,
		`ISTREAM(SELECT auction FROM bids [RANGE 80])`,
		`DSTREAM(SELECT auction FROM bids [RANGE 90])`,
		`RSTREAM(SELECT auction FROM bids [RANGE 100], SLIDE 7)`,
	}
	d := NewDSMS(Config{CheckpointInterval: time.Millisecond})
	feed := make(chan Element, 60)
	d.RegisterStream("bids", NewChanSource("bids", feed), 100)
	var created []pubsub.Pipe
	for _, text := range queries {
		q, err := d.RegisterQuery(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		created = append(created, q.Instance.Created...)
	}
	kinds := map[string]bool{}
	for _, p := range created {
		kinds[strings.SplitN(p.Name(), "#", 2)[0]] = true
	}
	for _, kind := range []string{"ω-range", "ω-now", "ω-tumble", "ω-unbounded", "ω-rows", "ω-part",
		"σ", "π", "γ", "⋈", "δ", "istream", "dstream", "rstream"} {
		if !kinds[kind] {
			t.Fatalf("no query built a %s node (built %v)", kind, kinds)
		}
	}

	for _, e := range bidStream(60) {
		feed <- e
	}
	d.Start()
	deadline := time.Now().Add(10 * time.Second)
	for d.Checkpoints.Completed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint sealed")
		}
		time.Sleep(time.Millisecond)
	}
	close(feed)
	d.Wait()
	d.Stop()
	cp, err := d.LatestCheckpoint()
	if err != nil || cp == nil {
		t.Fatalf("latest checkpoint: %v, %v", cp, err)
	}
	for _, p := range created {
		if _, saved := cp.States[p.Name()]; !saved && !stateless(p) {
			t.Errorf("%s (%T) holds state but is not checkpointed", p.Name(), p)
		}
	}
}

func recoverThroughFacade(t *testing.T, query string, borrow bool) {
	const total = 120
	const fed = 60
	input := bidStream(total)

	// The durable ingest log: in a deployment the archive sits upstream of
	// the crash domain and holds everything the producers ever sent.
	arch := archive.New("bids", 16)
	for _, e := range input {
		arch.Process(e, 0)
	}

	ref := referenceRun(t, query, input)

	dir := t.TempDir()

	// --- Engine A: checkpointed run, torn down mid-stream. ---
	a := NewDSMS(Config{CheckpointDir: dir, CheckpointInterval: time.Millisecond})
	feed := make(chan Element, total)
	a.RegisterStream("bids", NewChanSource("bids", feed), 100)
	qa, err := a.RegisterQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	planXML, err := planio.Encode(qa.Instance.Plan)
	if err != nil {
		t.Fatal(err)
	}
	sinkA := NewCheckpointSink("out")
	if err := qa.Subscribe(sinkA); err != nil {
		t.Fatal(err)
	}
	a.Checkpoints.RegisterSink(sinkA)
	if borrow {
		if err := qa.Subscribe(&renderSink{}); err != nil {
			t.Fatal(err)
		}
	}

	for _, e := range input[:fed] {
		feed <- e
	}
	a.Start()
	deadline := time.Now().Add(10 * time.Second)
	for a.Checkpoints.Completed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint sealed")
		}
		time.Sleep(time.Millisecond)
	}
	// "Crash": stop the world with the input log longer than what was
	// fed, and abandon engine A. Only the file store, the archive and the
	// sink's already-delivered output survive.
	close(feed)
	a.Wait()
	a.Stop()

	// --- Engine B: rebuild from the XML plan, restore, replay. ---
	b := NewDSMS(Config{CheckpointDir: dir})
	cp, err := b.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("store lost the sealed checkpoint")
	}
	b.RegisterStream("bids", arch.ReplayFrom("bids", cp.Offset("bids")), 100)
	plan, err := planio.Decode(planXML)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.RegisterPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	colB := NewCollector("rec", 1)
	if err := qb.Subscribe(colB); err != nil {
		t.Fatal(err)
	}
	lentB := &renderSink{}
	if borrow {
		if err := qb.Subscribe(lentB); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Recover(cp); err != nil {
		t.Fatal(err)
	}
	b.Start()
	b.Wait()
	colB.Wait()

	if borrow {
		lent := lentB.rendered()
		if len(lent) != len(colB.Elements()) {
			t.Fatalf("the borrower rendered %d rows, the owner kept %d", len(lent), len(colB.Elements()))
		}
		for i, v := range colB.Values() {
			if got := render(v); got != lent[i] {
				t.Fatalf("row %d: the owner kept %s, the borrower was lent %s", i, got, lent[i])
			}
		}
	}

	cut, ok := sinkA.Cut(cp.ID)
	if !ok {
		t.Fatalf("sealed checkpoint %d has no output cut", cp.ID)
	}
	merged := make([]temporal.Element, 0, cut+len(colB.Elements()))
	merged = append(merged, sinkA.Elements()[:cut]...)
	merged = append(merged, colB.Elements()...)
	if err := harness.Equivalent(ref, merged); err != nil {
		t.Fatalf("recovered output not snapshot-equivalent: %v\n(cut %d, recovered %d, reference %d)",
			err, cut, len(colB.Elements()), len(ref))
	}
}

// referenceRun returns the output of query over input on an engine that
// is never interrupted and does not checkpoint.
func referenceRun(t *testing.T, query string, input []Element) []temporal.Element {
	t.Helper()
	ref := NewDSMS(Config{})
	ref.RegisterStream("bids", NewSliceSource("bids", input), 100)
	refQ, err := ref.RegisterQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	refCol := NewCollector("ref", 1)
	if err := refQ.Subscribe(refCol); err != nil {
		t.Fatal(err)
	}
	ref.Start()
	ref.Wait()
	refCol.Wait()
	return refCol.Elements()
}

// TestRecoverLatestEmptyStore covers the cold-start path: recovery on a
// fresh store reports ErrNoCheckpoint and the engine runs normally.
func TestRecoverLatestEmptyStore(t *testing.T) {
	d := NewDSMS(Config{CheckpointDir: t.TempDir()})
	d.RegisterStream("bids", NewSliceSource("bids", bidStream(10)), 10)
	if _, err := d.RegisterQuery(`SELECT auction FROM bids [NOW]`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RecoverLatest(); err != ErrNoCheckpoint {
		t.Fatalf("expected ErrNoCheckpoint, got %v", err)
	}
}

// TestCheckpointMetricsExposed checks the scrape wiring: after a sealed
// round the checkpoint gauges and counters appear on the registry.
func TestCheckpointMetricsExposed(t *testing.T) {
	d := NewDSMS(Config{CheckpointInterval: time.Millisecond})
	d.RegisterStream("bids", NewSliceSource("bids", bidStream(50)), 10)
	q, err := d.RegisterQuery(`SELECT auction, AVG(price) FROM bids [RANGE 50] GROUP BY auction`)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("out", 1)
	if err := q.Subscribe(col); err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Wait()
	col.Wait()

	var buf strings.Builder
	if err := d.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"pipes_checkpoint_last_id",
		"pipes_checkpoint_last_bytes",
		"pipes_checkpoint_last_success_unix_nanos",
		"pipes_checkpoint_completed_total",
		"pipes_checkpoint_duration_nanos",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape output lacks %s:\n%s", want, text)
		}
	}
}

// TestCheckpointIDsContinueAcrossRestarts runs three engine lives over one
// checkpoint directory: checkpoint → crash → recover → checkpoint again →
// crash → recover. The second life seals fewer rounds than the first, so
// if its IDs restarted at 1 the store's newest ID would still be the
// first life's — stale. The second recovery must restore the second
// life's newest round, and the three lives' outputs, each cut at the
// checkpoint the next
// one recovered from, must stitch to the uninterrupted run's.
func TestCheckpointIDsContinueAcrossRestarts(t *testing.T) {
	const query = `SELECT auction, AVG(price) FROM bids [RANGE 50] GROUP BY auction`
	const total, stretch = 150, 10
	input := bidStream(total)

	ref := referenceRun(t, query, input)

	dir := t.TempDir()
	// life is one engine from open to crash. It recovers from whatever the
	// directory holds — a checkpoint of the life before it, whose offsets
	// are absolute positions in the input however many lives came before —
	// is fed the input from that point a stretch at a time with a round
	// triggered ahead of every stretch after the first, and crashes after
	// `rounds` sealed rounds (0: it runs to the end of the input).
	life := func(rounds int) (start int, cp *Checkpoint, sink *CheckpointSink, sealed []uint64) {
		d := NewDSMS(Config{CheckpointDir: dir})
		cp, err := d.LatestCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		start = cp.Offset("bids")
		feed := make(chan Element, total)
		d.RegisterStream("bids", NewChanSource("bids", feed), 100)
		q, err := d.RegisterQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		sink = NewCheckpointSink("out")
		if err := q.Subscribe(sink); err != nil {
			t.Fatal(err)
		}
		d.Checkpoints.RegisterSink(sink)
		if cp != nil {
			if err := d.Recover(cp); err != nil {
				t.Fatal(err)
			}
		}
		d.Start()
		rest := input[start:]
		if rounds > 0 {
			rest = rest[:(rounds+1)*stretch]
		}
		for len(rest) > 0 {
			n := min(stretch, len(rest))
			for _, e := range rest[:n] {
				feed <- e // after a Trigger, the first one has the barrier ahead of it
			}
			rest = rest[n:]
			deadline := time.Now().Add(10 * time.Second)
			for len(sealed) > 0 && d.Checkpoints.LastCheckpointID() != sealed[len(sealed)-1] {
				if time.Now().After(deadline) {
					t.Fatalf("round %d never sealed", sealed[len(sealed)-1])
				}
				time.Sleep(time.Millisecond)
			}
			if len(sealed) < rounds {
				id, err := d.Checkpoints.Trigger()
				if err != nil {
					t.Fatal(err)
				}
				sealed = append(sealed, id)
			}
		}
		close(feed) // the crash: the input log is longer than what was fed
		d.Wait()
		d.Stop()
		return start, cp, sink, sealed
	}

	startA, cp0, outA, sealedA := life(3)
	if cp0 != nil || startA != 0 {
		t.Fatalf("fresh directory: recovered %+v, start %d", cp0, startA)
	}
	_, cp1, outB, sealedB := life(2)
	if cp1 == nil || cp1.ID != sealedA[2] {
		t.Fatalf("second life recovered from %+v, first life sealed %v", cp1, sealedA)
	}
	if sealedB[0] <= sealedA[2] {
		t.Fatalf("second life sealed %v over a directory holding %v: IDs must continue", sealedB, sealedA)
	}
	_, cp2, outC, _ := life(0)
	if cp2 == nil || cp2.ID != sealedB[1] {
		t.Fatalf("third life recovered from %+v, want the second life's newest round of %v", cp2, sealedB)
	}

	cut1, ok1 := outA.Cut(cp1.ID)
	cut2, ok2 := outB.Cut(cp2.ID)
	if !ok1 || !ok2 {
		t.Fatalf("missing output cuts for checkpoints %d (%v) and %d (%v)", cp1.ID, ok1, cp2.ID, ok2)
	}
	merged := append([]temporal.Element(nil), outA.Elements()[:cut1]...)
	merged = append(merged, outB.Elements()[:cut2]...)
	merged = append(merged, outC.Elements()...)
	if err := harness.Equivalent(ref, merged); err != nil {
		t.Fatalf("output stitched across two recoveries not snapshot-equivalent: %v\n(cuts %d and %d, last life %d, reference %d)",
			err, cut1, cut2, len(outC.Elements()), len(ref))
	}
}

// A round triggered while a channel stream is idle goes in at once (no
// worker polls the source, so no later emission would carry the barrier)
// and seals at the count fed so far.
func TestCheckpointRoundOnIdleChanStream(t *testing.T) {
	const fed = 25
	d := NewDSMS(Config{CheckpointDir: t.TempDir()})
	defer d.Stop()
	feed := make(chan Element)
	d.RegisterStream("bids", NewChanSource("bids", feed), 100)
	q, err := d.RegisterQuery(`SELECT auction, AVG(price) FROM bids [RANGE 50] GROUP BY auction`)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCheckpointSink("out")
	if err := q.Subscribe(sink); err != nil {
		t.Fatal(err)
	}
	d.Checkpoints.RegisterSink(sink)
	src, _ := d.Catalog.Lookup("bids")
	published := NewCounter("published", 1)
	if err := src.Subscribe(published, 0); err != nil {
		t.Fatal(err)
	}
	d.Start()
	for _, e := range bidStream(fed) {
		feed <- e
	}
	for deadline := time.Now().Add(10 * time.Second); published.Count() < fed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d fed elements published", published.Count(), fed)
		}
	}
	id, err := d.Checkpoints.Trigger()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); d.Checkpoints.LastCheckpointID() != id; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("round %d never sealed on an idle stream", id)
		}
	}
	cp, err := d.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Offset("bids"); got != fed {
		t.Fatalf("round %d sealed at offset %d, want the %d fed", id, got, fed)
	}
	close(feed)
	d.Wait()
}

// Deregistering a query takes the operators it alone used out of the
// checkpoint rounds: they no longer receive barriers, so a round that
// waited for their acks would never seal, and every later Trigger would
// find it still in flight.
func TestCheckpointAfterDeregisterQuery(t *testing.T) {
	d := NewDSMS(Config{CheckpointDir: t.TempDir()})
	defer d.Stop()
	feed := make(chan Element)
	d.RegisterStream("bids", NewChanSource("bids", feed), 100)
	if _, err := d.RegisterQuery(`SELECT auction, AVG(price) FROM bids [RANGE 50] GROUP BY auction`); err != nil {
		t.Fatal(err)
	}
	gone, err := d.RegisterQuery(`SELECT auction, MAX(price) FROM bids [RANGE 50] GROUP BY auction`)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	for _, e := range bidStream(25) {
		feed <- e
	}
	if err := d.DeregisterQuery(gone); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		id, err := d.Checkpoints.Trigger()
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(3 * time.Second); d.Checkpoints.LastCheckpointID() != id; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d never sealed after DeregisterQuery", id)
			}
		}
	}
	cp, err := d.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.States) == 0 {
		t.Fatal("the remaining query's state is not checkpointed")
	}
	for _, p := range gone.Instance.Created {
		if _, ok := cp.States[p.Name()]; ok {
			t.Fatalf("checkpoint %d holds state of %s, which left with its query", cp.ID, p.Name())
		}
	}
	close(feed)
	d.Wait()
}
