package pipes

import (
	"strings"
	"testing"
	"time"

	"pipes/internal/archive"
	"pipes/internal/harness"
	"pipes/internal/planio"
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
func TestCheckpointRecoveryThroughFacade(t *testing.T) {
	for name, query := range map[string]string{
		"group": `SELECT auction, AVG(price) FROM bids [RANGE 50] GROUP BY auction`,
		"join": `SELECT hi.price AS hi, lo.price AS lo FROM bids [RANGE 50] AS hi, bids [RANGE 20] AS lo
			WHERE hi.auction = lo.auction AND hi.price > lo.price`,
	} {
		t.Run(name, func(t *testing.T) { recoverThroughFacade(t, query) })
	}
}

func recoverThroughFacade(t *testing.T, query string) {
	const total = 120
	const fed = 60
	input := bidStream(total)

	// The durable ingest log: in a deployment the archive sits upstream of
	// the crash domain and holds everything the producers ever sent.
	arch := archive.New("bids", 16)
	for _, e := range input {
		arch.Process(e, 0)
	}

	// Uninterrupted reference run (no checkpointing).
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
	if err := b.Recover(cp); err != nil {
		t.Fatal(err)
	}
	b.Start()
	b.Wait()
	colB.Wait()

	cut, ok := sinkA.Cut(cp.ID)
	if !ok {
		t.Fatalf("sealed checkpoint %d has no output cut", cp.ID)
	}
	merged := make([]temporal.Element, 0, cut+len(colB.Elements()))
	merged = append(merged, sinkA.Elements()[:cut]...)
	merged = append(merged, colB.Elements()...)
	if err := harness.Equivalent(refCol.Elements(), merged); err != nil {
		t.Fatalf("recovered output not snapshot-equivalent: %v\n(cut %d, recovered %d, reference %d)",
			err, cut, len(colB.Elements()), len(refCol.Elements()))
	}
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
