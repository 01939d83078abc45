// Package merkle implements the append-only Merkle trees that bind the
// IA-CCF ledger (paper §2, §3.1). The tree follows the RFC 6962 structure:
//
//	MTH([])      = H("")
//	MTH([e])     = H(0x00 || e)
//	MTH(D[0:n])  = H(0x01 || MTH(D[0:k]) || MTH(D[k:n]))   k = max pow2 < n
//
// Two trees are used by L-PBFT: the history tree M over all ledger entries,
// whose root ¯M appears in every signed pre-prepare, and a small per-batch
// tree G over the ⟨t,i,o⟩ transaction entries of one batch, whose root ¯G is
// also signed and whose audit paths appear in client receipts.
//
// The tree supports rollback (truncation of a leaf suffix) as required by
// Lemma 1, and can be reconstructed from a compact frontier (size + peaks)
// recorded in checkpoints, after which it keeps accepting appends.
package merkle

import (
	"errors"
	"fmt"
	"math/bits"

	"iaccf/internal/hashsig"
)

var (
	// ErrOutOfRange reports an index outside the tree.
	ErrOutOfRange = errors.New("merkle: index out of range")
	// ErrCompacted reports an operation that needs leaves that were dropped
	// by Compact or never present after a frontier restore.
	ErrCompacted = errors.New("merkle: leaves compacted away")
)

const (
	leafPrefix     = 0x00
	internalPrefix = 0x01
)

// EmptyRoot is the root of a tree with no leaves.
func EmptyRoot() hashsig.Digest { return hashsig.Sum(nil) }

// LeafHash computes the domain-separated hash of a leaf entry digest. The
// preimage is assembled in a stack array: leaf hashing runs once per ledger
// entry per tree and must not allocate.
func LeafHash(entry hashsig.Digest) hashsig.Digest {
	var b [1 + hashsig.DigestSize]byte
	b[0] = leafPrefix
	copy(b[1:], entry[:])
	return hashsig.Sum(b[:])
}

func nodeHash(left, right hashsig.Digest) hashsig.Digest {
	var b [1 + 2*hashsig.DigestSize]byte
	b[0] = internalPrefix
	copy(b[1:], left[:])
	copy(b[1+hashsig.DigestSize:], right[:])
	return hashsig.Sum(b[:])
}

// peak is a perfect subtree on the frontier.
type peak struct {
	size uint64 // number of leaves covered; a power of two
	hash hashsig.Digest
}

// Tree is an append-only Merkle tree. The zero value is an empty tree ready
// for use.
//
// A Tree retains the leaf hashes appended since its base (zero for a fresh
// tree; the restore point for a tree built from a Frontier, or the Compact
// point). Audit paths are available for the retained region; the region
// before the base is summarized by its peaks.
//
// The tree additionally maintains its full peak decomposition incrementally
// (a binary-counter merge per append, amortized one node hash), so Root is
// O(log n) instead of re-hashing every retained leaf. The ledger calls Root
// once per batch; without the cache that call is what made batch execution
// quadratic in ledger length.
type Tree struct {
	base      uint64           // leaves [0, base) are summarized by basePeaks
	basePeaks []peak           // maximal perfect subtrees covering [0, base)
	leaves    []hashsig.Digest // leaf hashes for positions [base, size)
	peaks     []peak           // peak decomposition of [0, Size()), maintained on append
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Size returns the number of leaves in the tree.
func (t *Tree) Size() uint64 { return t.base + uint64(len(t.leaves)) }

// Base returns the first leaf index for which the tree retains the leaf
// hash. Paths and rollback are only available at or after the base.
func (t *Tree) Base() uint64 { return t.base }

// Leaves returns the leaf hashes at positions [from, to), which must lie in
// the retained region: ErrCompacted below Base(). The result is a view into
// the tree, valid until the next append, rollback or compaction, and must
// not be written to.
func (t *Tree) Leaves(from, to uint64) ([]hashsig.Digest, error) {
	if from > to || to > t.Size() {
		return nil, fmt.Errorf("%w: leaves [%d,%d) (size %d)", ErrOutOfRange, from, to, t.Size())
	}
	if from < t.base {
		return nil, fmt.Errorf("%w: leaves from %d before base %d", ErrCompacted, from, t.base)
	}
	return t.leaves[from-t.base : to-t.base : to-t.base], nil
}

// Append adds the digest of a new ledger entry as the rightmost leaf and
// returns its leaf index.
func (t *Tree) Append(entry hashsig.Digest) uint64 {
	return t.AppendLeafHash(LeafHash(entry))
}

// AppendLeafHash adds a pre-hashed leaf (already domain separated). It is
// used when replaying serialized leaf hashes, e.g. restoring checkpoints.
func (t *Tree) AppendLeafHash(leaf hashsig.Digest) uint64 {
	i := t.Size()
	t.leaves = append(t.leaves, leaf)
	t.peaks = pushPeak(t.peaks, leaf)
	return i
}

// pushPeak appends a one-leaf peak and performs the binary-counter merges:
// two adjacent peaks of equal size are siblings of an aligned subtree, so
// folding them keeps the stack equal to the greedy RFC 6962 decomposition.
func pushPeak(peaks []peak, leaf hashsig.Digest) []peak {
	peaks = append(peaks, peak{size: 1, hash: leaf})
	for len(peaks) >= 2 && peaks[len(peaks)-1].size == peaks[len(peaks)-2].size {
		a, b := peaks[len(peaks)-2], peaks[len(peaks)-1]
		peaks = peaks[:len(peaks)-2]
		peaks = append(peaks, peak{size: a.size * 2, hash: nodeHash(a.hash, b.hash)})
	}
	return peaks
}

// rebuildPeaks recomputes the peak decomposition covering the base peaks
// plus the given retained leaves. Used after rollback, the only operation
// that shrinks the tree within the retained region.
func rebuildPeaks(basePeaks []peak, leaves []hashsig.Digest) []peak {
	peaks := append([]peak(nil), basePeaks...)
	for _, leaf := range leaves {
		peaks = pushPeak(peaks, leaf)
	}
	return peaks
}

// Root returns the Merkle root over all leaves: the right fold of the peak
// decomposition, which is exactly the RFC 6962 recursion (the split point
// of a ragged tree is its largest peak).
func (t *Tree) Root() hashsig.Digest {
	if t.Size() == 0 {
		return EmptyRoot()
	}
	acc := t.peaks[len(t.peaks)-1].hash
	for i := len(t.peaks) - 2; i >= 0; i-- {
		acc = nodeHash(t.peaks[i].hash, acc)
	}
	return acc
}

// hashRange computes MTH(D[a:b)) for 0 <= a < b <= Size, using retained
// leaves for positions >= base and base peaks for aligned blocks before it.
func (t *Tree) hashRange(a, b uint64) (hashsig.Digest, error) {
	if b <= a {
		return hashsig.Digest{}, fmt.Errorf("%w: empty range [%d,%d)", ErrOutOfRange, a, b)
	}
	if a >= t.base {
		return t.hashRetained(a, b), nil
	}
	// The range begins before the base: look for a base peak that starts
	// exactly at a and fits in [a, b).
	var off uint64
	for _, p := range t.basePeaks {
		if off == a {
			if p.size == b-a {
				return p.hash, nil
			}
			if p.size < b-a {
				// Peak covers a prefix of the range; combine with the rest.
				// This only happens when the range is ragged on the right,
				// i.e. the recursion below would split exactly at the peak
				// boundary, so recurse on the remainder.
				break
			}
			return hashsig.Digest{}, fmt.Errorf("%w: range [%d,%d) finer than frontier", ErrCompacted, a, b)
		}
		off += p.size
	}
	if b-a == 1 {
		return hashsig.Digest{}, fmt.Errorf("%w: leaf %d before base %d", ErrCompacted, a, t.base)
	}
	k := splitPoint(b - a)
	left, err := t.hashRange(a, a+k)
	if err != nil {
		return hashsig.Digest{}, err
	}
	right, err := t.hashRange(a+k, b)
	if err != nil {
		return hashsig.Digest{}, err
	}
	return nodeHash(left, right), nil
}

// hashRetained computes MTH over a range fully inside the retained leaves.
func (t *Tree) hashRetained(a, b uint64) hashsig.Digest {
	if b-a == 1 {
		return t.leaves[a-t.base]
	}
	k := splitPoint(b - a)
	return nodeHash(t.hashRetained(a, a+k), t.hashRetained(a+k, b))
}

// splitPoint returns the largest power of two strictly less than n (n >= 2).
func splitPoint(n uint64) uint64 {
	return 1 << (bits.Len64(n-1) - 1)
}

// VerifyPath checks that entry is the i-th of n leaves of the tree with the
// given root, using the audit path PathsAt returns for it.
func VerifyPath(entry hashsig.Digest, i, n uint64, path []hashsig.Digest, root hashsig.Digest) bool {
	if i >= n {
		return false
	}
	h, rest, ok := rollUp(LeafHash(entry), i, n, path)
	return ok && len(rest) == 0 && h == root
}

// rollUp recomputes the subtree hash for the range containing leaf i.
func rollUp(h hashsig.Digest, i, n uint64, path []hashsig.Digest) (hashsig.Digest, []hashsig.Digest, bool) {
	if n == 1 {
		return h, path, true
	}
	if len(path) == 0 {
		return h, nil, false
	}
	k := splitPoint(n)
	if i < k {
		sub, rest, ok := rollUp(h, i, k, path)
		if !ok || len(rest) == 0 {
			return h, nil, false
		}
		return nodeHash(sub, rest[0]), rest[1:], true
	}
	sub, rest, ok := rollUp(h, i-k, n-k, path)
	if !ok || len(rest) == 0 {
		return h, nil, false
	}
	return nodeHash(rest[0], sub), rest[1:], true
}

// Rollback truncates the tree to n leaves, discarding the suffix. L-PBFT
// rolls the history tree back when a backup rejects a pre-prepare or during
// view changes (Lemma 1). n must be within the retained region.
func (t *Tree) Rollback(n uint64) error {
	if n > t.Size() {
		return fmt.Errorf("%w: rollback to %d (size %d)", ErrOutOfRange, n, t.Size())
	}
	if n < t.base {
		return fmt.Errorf("%w: rollback to %d before base %d", ErrCompacted, n, t.base)
	}
	t.leaves = t.leaves[:n-t.base]
	t.peaks = rebuildPeaks(t.basePeaks, t.leaves)
	return nil
}
