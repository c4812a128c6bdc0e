package ft

import (
	"bytes"
	"math/rand"
	"testing"
)

// randBytes produces deterministic pseudo-random content.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// mutate applies a window-snapshot-like edit to parent: drop a prefix
// (expirations), splice an insertion in the middle, append a suffix
// (arrivals).
func mutate(rng *rand.Rand, parent []byte) []byte {
	drop := rng.Intn(len(parent)/4 + 1)
	cur := append([]byte(nil), parent[drop:]...)
	if len(cur) > 2 {
		at := rng.Intn(len(cur))
		ins := randBytes(rng, rng.Intn(256))
		cur = append(cur[:at], append(ins, cur[at:]...)...)
	}
	return append(cur, randBytes(rng, rng.Intn(512))...)
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var reused []byte // the writer's delta buffer, carried across rounds
	for trial := 0; trial < 200; trial++ {
		parent := randBytes(rng, 1+rng.Intn(64<<10))
		cur := mutate(rng, parent)
		d := MakeDelta(nil, parent, cur)
		reused = MakeDelta(reused[:0], parent, cur)
		if !bytes.Equal(reused, d) {
			t.Fatalf("trial %d: a delta into a reused buffer differs from a fresh one", trial)
		}
		if d == nil {
			continue // not worthwhile for this pair — the caller writes full
		}
		if len(d) >= len(cur) {
			t.Fatalf("trial %d: delta (%dB) not smaller than cur (%dB)", trial, len(d), len(cur))
		}
		got, err := ApplyDelta(parent, d)
		if err != nil {
			t.Fatalf("trial %d: apply: %v", trial, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: reconstruction differs (%dB vs %dB)", trial, len(got), len(cur))
		}
	}
}

// A snapshot that changed only at the tail must delta to a small fraction
// of the full size — the property the incremental checkpoint chain
// depends on for its bytes-per-round reduction.
func TestDeltaCompressesTailAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parent := randBytes(rng, 256<<10)
	cur := append(append([]byte(nil), parent...), randBytes(rng, 1024)...)
	d := MakeDelta(nil, parent, cur)
	if d == nil {
		t.Fatal("tail append produced no delta")
	}
	if len(d) > len(cur)/16 {
		t.Fatalf("tail-append delta is %dB for a %dB state — expected a small fraction", len(d), len(cur))
	}
	got, err := ApplyDelta(parent, d)
	if err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("reconstruction failed: %v", err)
	}
}

// ApplyDelta sizes its output in a first pass over the ops and allocates
// it once, however many ops the chain link holds.
func TestApplyDeltaAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	parent := randBytes(rng, 256<<10)
	cur := parent
	for i := 0; i < 8; i++ {
		cur = mutate(rng, cur)
	}
	d := MakeDelta(nil, parent, cur)
	if d == nil {
		t.Fatal("no delta for an edited state")
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := ApplyDelta(parent, d); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("ApplyDelta made %.0f allocations, want 1", allocs)
	}
}

// Delta bytes must be a pure function of (parent, cur): the chunk table
// is seeded deterministically, so two processes checkpointing identical
// state produce identical chains.
func TestDeltaDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parent := randBytes(rng, 32<<10)
	cur := mutate(rng, parent)
	d1 := MakeDelta(nil, parent, cur)
	d2 := MakeDelta(nil, parent, cur)
	if !bytes.Equal(d1, d2) {
		t.Fatal("MakeDelta is not deterministic")
	}
}

// Incompressible pairs must yield nil (caller falls back to a full
// entry), never a delta larger than the state itself.
func TestDeltaNotWorthwhileReturnsNil(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parent := randBytes(rng, 8<<10)
	cur := randBytes(rng, 8<<10) // unrelated content: nothing to copy
	if d := MakeDelta(nil, parent, cur); d != nil {
		t.Fatalf("unrelated content produced a %dB delta; want nil", len(d))
	}
	if d := MakeDelta(nil, nil, cur); d != nil {
		t.Fatal("empty parent produced a delta; want nil")
	}
	if d := MakeDelta(nil, parent, nil); d != nil {
		t.Fatal("empty cur produced a delta; want nil")
	}
}

// Malformed blobs are errors, never panics or silent garbage: recovery
// treats them as torn entries and falls back along the chain.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	parent := randBytes(rng, 4<<10)
	cur := append(append([]byte(nil), parent...), randBytes(rng, 64)...)
	good := MakeDelta(nil, parent, cur)
	if good == nil {
		t.Fatal("no delta for tail append")
	}
	cases := map[string][]byte{
		"bad magic":    append([]byte{'X', 'D', '1'}, good[3:]...),
		"empty":        {},
		"truncated op": good[:len(good)-1],
		"unknown op":   append(append([]byte(nil), good[:3]...), 0x7F),
		// copy past the end of parent: offset bytes maxed out.
		"out of range": append(append([]byte(nil), good[:3]...), deltaOpCopy, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x08),
	}
	for name, blob := range cases {
		if _, err := ApplyDelta(parent, blob); err == nil {
			t.Errorf("%s: ApplyDelta accepted malformed input", name)
		}
	}
	// Truncating mid-literal must also fail, not return a short state.
	if _, err := ApplyDelta(parent[:1], good); err == nil {
		t.Error("apply against the wrong (short) parent accepted an out-of-range copy")
	}
}

// Chunk boundaries are content-defined: every chunk respects the min/max
// bounds and the chunks tile the input exactly.
func TestCDCChunksTileInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, deltaChunkMin, deltaChunkMin + 1, 4096, 100_000} {
		data := randBytes(rng, n)
		chunks := cdcChunks(data)
		off := 0
		for i, c := range chunks {
			if c.off != off {
				t.Fatalf("n=%d: chunk %d starts at %d, want %d", n, i, c.off, off)
			}
			if c.n <= 0 || c.n > deltaChunkMax {
				t.Fatalf("n=%d: chunk %d has size %d outside (0,%d]", n, i, c.n, deltaChunkMax)
			}
			off += c.n
		}
		if off != len(data) {
			t.Fatalf("n=%d: chunks cover %d of %d bytes", n, off, len(data))
		}
	}
}
