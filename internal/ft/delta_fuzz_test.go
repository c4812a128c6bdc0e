package ft

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzApplyDelta drives the CDC delta codec's decode path with hostile
// input. Recovery reads delta blobs straight off disk, where a crash mid
// fsync leaves torn tails and a misrouted file leaves arbitrary bytes —
// the codec's contract (delta.go) is that malformed input is an *error*,
// never a panic and never an out-of-range copy. Three oracles per input:
//
//   - round-trip: a delta freshly encoded from (parent, cur) must apply
//     back to exactly cur, and must honour the worthwhile contract
//     (MakeDelta returns nil rather than a delta at least as large);
//   - torn tail: every truncation of a valid delta must decode without
//     panicking — the recovery chain walker treats the error as a torn
//     entry and falls back;
//   - corruption: arbitrary blobs, and valid deltas with fuzzer-chosen
//     byte flips (op codes, uvarint lengths, copy offsets — the on-disk
//     chunk table), must likewise reject cleanly.
func FuzzApplyDelta(f *testing.F) {
	// Seeds mirror the torn-tail recovery fixture
	// (TestDeltaChainRecoveryTornTail): snapshot-like byte streams that
	// evolve by expiring a prefix, editing the middle and appending a
	// suffix — the shape content-defined chunking exists to track.
	rng := rand.New(rand.NewSource(7))
	parent := make([]byte, 8<<10)
	for i := range parent {
		parent[i] = byte(rng.Intn(256))
	}
	cur := append([]byte{}, parent[1<<10:]...)         // expired prefix
	copy(cur[2<<10:], bytes.Repeat([]byte{0xAB}, 512)) // middle edit
	tail := make([]byte, 1<<10)                        // appended suffix
	for i := range tail {
		tail[i] = byte(rng.Intn(256))
	}
	cur = append(cur, tail...)

	if d := MakeDelta(nil, parent, cur); d != nil {
		f.Add(parent, cur, d)
		f.Add(parent, cur, d[:len(d)/2])          // torn tail
		f.Add(parent, cur, d[:len(deltaMagic)+1]) // torn just past the magic
		flipped := append([]byte{}, d...)
		flipped[len(deltaMagic)] ^= 0xFF // first op code corrupted
		f.Add(parent, cur, flipped)
	}
	f.Add([]byte("abc"), []byte("abd"), []byte("PD1"))
	f.Add([]byte{}, []byte{}, []byte("PD"))
	f.Add(parent, cur, []byte{'P', 'D', '1', deltaOpCopy, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x08})

	f.Fuzz(func(t *testing.T, parent, cur, blob []byte) {
		// Round-trip oracle.
		if d := MakeDelta(nil, parent, cur); d != nil {
			if len(d) >= len(cur) {
				t.Fatalf("MakeDelta returned a delta of %d bytes for %d bytes of state: worthwhile contract violated", len(d), len(cur))
			}
			got, err := ApplyDelta(parent, d)
			if err != nil {
				t.Fatalf("ApplyDelta rejected a fresh MakeDelta blob: %v", err)
			}
			if !bytes.Equal(got, cur) {
				t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(cur))
			}

			// Torn-tail oracle: a truncation point chosen by the fuzzer.
			cut := 0
			if len(blob) > 0 {
				cut = int(blob[0]) % len(d)
			}
			if _, err := ApplyDelta(parent, d[:cut]); err == nil && cut < len(deltaMagic) {
				t.Fatalf("ApplyDelta accepted a %d-byte blob shorter than the magic", cut)
			}

			// Corrupted-chunk-table oracle: flip one fuzzer-chosen byte in
			// a valid delta. The result may still be a well-formed delta
			// (flipping a literal's payload, say) — the contract under test
			// is no panic and in-range copies, which ApplyDelta's own
			// bounds checks enforce or error.
			if len(blob) >= 2 {
				mut := append([]byte{}, d...)
				mut[int(blob[0])%len(mut)] ^= blob[1] | 1
				// Even a reframed blob obeys a hard output ceiling: every
				// copy op spends at least 3 input bytes and yields at most
				// len(parent) bytes, literals yield at most their own
				// framing. Anything bigger means a bounds check broke.
				limit := (len(mut)/3+1)*len(parent) + len(mut)
				if out, err := ApplyDelta(parent, mut); err == nil && len(out) > limit {
					t.Fatalf("corrupted delta decoded to %d bytes (ceiling %d) from %d-byte parent and %d-byte delta", len(out), limit, len(parent), len(mut))
				}
			}
		}

		// Arbitrary-blob oracle: error or clean decode, never a panic.
		// Reading every output byte surfaces an out-of-range copy that a
		// broken bounds check would have aliased in.
		if out, err := ApplyDelta(parent, blob); err == nil {
			var sum byte
			for _, b := range out {
				sum ^= b
			}
			_ = sum
		}
	})
}
