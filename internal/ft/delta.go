// Binary delta encoding between consecutive checkpoint snapshots of one
// operator, built on content-defined chunking (a gear rolling hash) so
// insertions and expirations in the middle of a serialised window shift
// the byte stream without desynchronising the match: chunk boundaries are
// a function of content, not position. MakeDelta runs on the Manager's
// background writer — never on the barrier stall — and ApplyDelta runs at
// recovery when a base+delta chain is resolved back into full state.
package ft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Chunking parameters. The minimum keeps per-chunk bookkeeping amortised,
// the mask gives ~512 B average chunks past the minimum (fine-grained
// enough to resynchronise around the expired prefix / appended suffix of
// a window snapshot), the maximum bounds pathological content.
const (
	deltaChunkMin  = 128
	deltaChunkMask = 1<<9 - 1
	deltaChunkMax  = 4096
)

// deltaMagic heads every delta blob so a torn or misrouted file fails
// fast instead of decoding garbage.
var deltaMagic = []byte{'P', 'D', '1'}

// Delta op codes (uvarint-framed, see MakeDelta).
const (
	deltaOpLiteral = 0x01 // uvarint length, raw bytes
	deltaOpCopy    = 0x02 // uvarint parent offset, uvarint length
)

// gearTable is the per-byte rolling-hash table, generated once from a
// fixed splitmix64 seed so chunk boundaries — and therefore delta bytes —
// are deterministic across processes and runs (checkpoint bytes must be a
// pure function of state).
var gearTable = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// chunkSpan is one content-defined chunk of a byte stream.
type chunkSpan struct {
	off, n int
}

// cdcChunks splits data at gear-hash boundaries.
func cdcChunks(data []byte) []chunkSpan {
	var out []chunkSpan
	for off := 0; off < len(data); {
		n := cdcNext(data[off:])
		out = append(out, chunkSpan{off: off, n: n})
		off += n
	}
	return out
}

// cdcNext returns the length of the next chunk starting at data[0].
func cdcNext(data []byte) int {
	if len(data) <= deltaChunkMin {
		return len(data)
	}
	var h uint64
	limit := len(data)
	if limit > deltaChunkMax {
		limit = deltaChunkMax
	}
	for i := 0; i < limit; i++ {
		h = h<<1 + gearTable[data[i]]
		if i >= deltaChunkMin && h&deltaChunkMask == 0 {
			return i + 1
		}
	}
	return limit
}

// chunkHash is FNV-1a 64 over one chunk (candidate lookup only — matches
// are always verified byte-for-byte before a copy op is emitted).
func chunkHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// MakeDelta appends to dst the encoding of cur as a delta against parent:
// copy ops referencing byte ranges of parent plus literal ops for new
// content. It returns dst unchanged when a delta is not worthwhile (the
// encoding would not be smaller than cur itself) — the caller then writes
// cur as a full entry. The output is sized for a delta as large as cur up
// front, so a buffer the caller reuses stops growing after its first
// round.
func MakeDelta(dst, parent, cur []byte) []byte {
	if len(parent) == 0 || len(cur) == 0 {
		return dst
	}
	index := make(map[uint64][]chunkSpan)
	for _, c := range cdcChunks(parent) {
		h := chunkHash(parent[c.off : c.off+c.n])
		index[h] = append(index[h], c)
	}

	out := append(slices.Grow(dst, len(cur)+len(deltaMagic)), deltaMagic...)
	var varint [2 * binary.MaxVarintLen64]byte

	litStart := -1 // start of the pending literal run in cur
	flushLit := func(end int) {
		if litStart < 0 {
			return
		}
		out = append(out, deltaOpLiteral)
		n := binary.PutUvarint(varint[:], uint64(end-litStart))
		out = append(out, varint[:n]...)
		out = append(out, cur[litStart:end]...)
		litStart = -1
	}
	// Pending copy run, merged while parent ranges stay contiguous.
	copyOff, copyLen := -1, 0
	flushCopy := func() {
		if copyOff < 0 {
			return
		}
		out = append(out, deltaOpCopy)
		n := binary.PutUvarint(varint[:], uint64(copyOff))
		n += binary.PutUvarint(varint[n:], uint64(copyLen))
		out = append(out, varint[:n]...)
		copyOff, copyLen = -1, 0
	}

	for off := 0; off < len(cur); {
		n := cdcNext(cur[off:])
		chunk := cur[off : off+n]
		matched := false
		for _, c := range index[chunkHash(chunk)] {
			if c.n == n && bytes.Equal(parent[c.off:c.off+c.n], chunk) {
				flushLit(off)
				if copyOff >= 0 && copyOff+copyLen == c.off {
					copyLen += n // contiguous in parent: extend the run
				} else {
					flushCopy()
					copyOff, copyLen = c.off, n
				}
				matched = true
				break
			}
		}
		if !matched {
			flushCopy()
			if litStart < 0 {
				litStart = off
			}
		}
		off += n
	}
	flushLit(len(cur))
	flushCopy()

	if len(out)-len(dst) >= len(cur) {
		return dst
	}
	return out
}

// ApplyDelta reconstructs the full state encoded by a MakeDelta blob
// against the same parent bytes. A first pass checks every op and sums
// the output length, so the output is allocated once, at its final size.
// Malformed input (bad magic, truncated ops, out-of-range copies) is an
// error, never a panic: recovery treats it as a torn entry and falls back
// along the chain.
func ApplyDelta(parent, delta []byte) ([]byte, error) {
	if len(delta) < len(deltaMagic) || !bytes.Equal(delta[:len(deltaMagic)], deltaMagic) {
		return nil, fmt.Errorf("ft: delta blob has bad magic")
	}
	ops := delta[len(deltaMagic):]
	size, err := applyOps(parent, ops, nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, size)
	_, err = applyOps(parent, ops, &out)
	return out, err
}

// applyOps walks a delta's ops and returns the length of the output they
// produce, appending that output to *out when out is not nil.
func applyOps(parent, rest []byte, out *[]byte) (int, error) {
	size := 0
	for len(rest) > 0 {
		op := rest[0]
		rest = rest[1:]
		var piece []byte
		switch op {
		case deltaOpLiteral:
			n, used := binary.Uvarint(rest)
			if used <= 0 || uint64(len(rest)-used) < n {
				return 0, fmt.Errorf("ft: delta literal op truncated")
			}
			piece, rest = rest[used:used+int(n)], rest[used+int(n):]
		case deltaOpCopy:
			off, used := binary.Uvarint(rest)
			if used <= 0 {
				return 0, fmt.Errorf("ft: delta copy op truncated")
			}
			rest = rest[used:]
			n, used := binary.Uvarint(rest)
			if used <= 0 {
				return 0, fmt.Errorf("ft: delta copy op truncated")
			}
			rest = rest[used:]
			if off+n < off || off+n > uint64(len(parent)) {
				return 0, fmt.Errorf("ft: delta copy [%d,%d) outside parent of %d bytes", off, off+n, len(parent))
			}
			piece = parent[off : off+n]
		default:
			return 0, fmt.Errorf("ft: delta blob has unknown op 0x%02x", op)
		}
		size += len(piece)
		if out != nil {
			*out = append(*out, piece...)
		}
	}
	return size, nil
}
