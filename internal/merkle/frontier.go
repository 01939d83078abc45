package merkle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"iaccf/internal/hashsig"
)

// Frontier is the compact serializable state of a Merkle tree: its size and
// the hashes of the maximal perfect subtrees (peaks) covering all leaves.
// Checkpoints record the history tree's frontier so a replica restoring from
// a checkpoint can keep appending ledger entries and produce the same roots
// as a replica that replayed the full ledger (paper §3.4).
type Frontier struct {
	Size  uint64
	Peaks []hashsig.Digest
}

// Frontier captures the tree's current frontier.
func (t *Tree) Frontier() Frontier {
	hashes := make([]hashsig.Digest, len(t.peaks))
	for i, p := range t.peaks {
		hashes[i] = p.hash
	}
	return Frontier{Size: t.Size(), Peaks: hashes}
}

// check reports a frontier whose peak count does not fit its size: one
// peak per set bit.
func (f Frontier) check() error {
	if want := bits.OnesCount64(f.Size); len(f.Peaks) != want {
		return fmt.Errorf("merkle: frontier size %d needs %d peaks, got %d", f.Size, want, len(f.Peaks))
	}
	return nil
}

// appendPeaks appends f's peaks to dst with their sizes, largest first.
func (f Frontier) appendPeaks(dst []peak) []peak {
	rem := f.Size
	for _, h := range f.Peaks {
		size := uint64(1) << (bits.Len64(rem) - 1)
		dst = append(dst, peak{size: size, hash: h})
		rem -= size
	}
	return dst
}

// FromFrontier reconstructs a tree from a frontier. The resulting tree
// accepts appends and produces identical roots, but cannot provide paths or
// rollback for leaves before the restore point.
func FromFrontier(f Frontier) (*Tree, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	t := &Tree{base: f.Size, basePeaks: f.appendPeaks(nil)}
	t.peaks = append([]peak(nil), t.basePeaks...)
	return t, nil
}

// CompactTo drops the retained leaves before f.Size, keeping f's peaks as
// the summary of that prefix; rollback and paths before it become
// unavailable. f must be a frontier this tree itself captured at that size
// (Frontier): its peaks are taken as they are, not re-hashed. A frontier at
// or before the base is a no-op, and one beyond Size, or whose peak count
// does not fit its size, is refused. The leaves shift in place and the
// base peaks have room for the 64 a size can need, so only a tree's first
// compaction allocates.
func (t *Tree) CompactTo(f Frontier) error {
	if f.Size <= t.base {
		return nil
	}
	if f.Size > t.Size() {
		return fmt.Errorf("%w: compact to %d (size %d)", ErrOutOfRange, f.Size, t.Size())
	}
	if err := f.check(); err != nil {
		return err
	}
	if cap(t.basePeaks) < len(f.Peaks) {
		t.basePeaks = make([]peak, 0, 64)
	}
	t.basePeaks = f.appendPeaks(t.basePeaks[:0])
	t.leaves = t.leaves[:copy(t.leaves, t.leaves[f.Size-t.base:])]
	t.base = f.Size
	return nil
}

// Encode serializes the frontier deterministically.
func (f Frontier) Encode() []byte {
	out := make([]byte, 8+4+len(f.Peaks)*hashsig.DigestSize)
	binary.BigEndian.PutUint64(out[0:8], f.Size)
	binary.BigEndian.PutUint32(out[8:12], uint32(len(f.Peaks)))
	off := 12
	for _, p := range f.Peaks {
		copy(out[off:], p[:])
		off += hashsig.DigestSize
	}
	return out
}

// DecodeFrontier parses a serialized frontier.
func DecodeFrontier(b []byte) (Frontier, error) {
	if len(b) < 12 {
		return Frontier{}, errors.New("merkle: frontier too short")
	}
	f := Frontier{Size: binary.BigEndian.Uint64(b[0:8])}
	n := binary.BigEndian.Uint32(b[8:12])
	if n > 64 {
		// A valid frontier has one peak per set bit of Size — at most 64. A
		// hostile stream claiming more is rejected before the length check so
		// the error names the actual lie.
		return Frontier{}, fmt.Errorf("merkle: frontier claims %d peaks, maximum is 64", n)
	}
	if uint64(len(b)) != 12+uint64(n)*hashsig.DigestSize {
		return Frontier{}, errors.New("merkle: frontier length mismatch")
	}
	off := 12
	for i := uint32(0); i < n; i++ {
		var d hashsig.Digest
		copy(d[:], b[off:off+hashsig.DigestSize])
		f.Peaks = append(f.Peaks, d)
		off += hashsig.DigestSize
	}
	return f, nil
}

// Digest returns a digest identifying the frontier (and therefore the entire
// tree contents).
func (f Frontier) Digest() hashsig.Digest {
	return hashsig.Sum(f.Encode())
}
