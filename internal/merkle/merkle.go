// Package merkle implements the append-only Merkle trees that bind the
// IA-CCF ledger (paper §2, §3.1). The tree follows the RFC 6962 structure:
//
//	MTH([])      = H("")
//	MTH([e])     = H(0x00 || e)
//	MTH(D[0:n])  = H(0x01 || MTH(D[0:k]) || MTH(D[k:n]))   k = max pow2 < n
//
// Two trees are used by L-PBFT. Tree is the history tree M over all ledger
// entries, whose root ¯M appears in every signed pre-prepare: it is
// appended to, rolled back (Lemma 1), and reconstructed from a compact
// frontier (size + peaks) recorded in checkpoints, after which it keeps
// accepting appends. The per-batch tree G over the ⟨t,i,o⟩ transaction
// entries of one batch is never built: RootOf folds its root ¯G, which is
// also signed, and PathsOf gives the audit paths that appear in client
// receipts, both straight from the batch's leaf hashes. VerifyPath checks
// such a path.
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
// point). Leaves and rollback are available for the retained region; the
// region before the base is summarized by its peaks.
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
// hash. Leaves and rollback are only available at or after the base.
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

// Root returns the Merkle root over all leaves (foldPeaks).
func (t *Tree) Root() hashsig.Digest { return foldPeaks(t.peaks) }

// RootOf returns the root of the tree whose leaf hashes are leaves, in
// order: what Root returns after each of them is appended to an empty
// Tree, with no Tree built. The peaks live in an array on the stack, so
// the root of a batch costs its interior hashes and no allocation.
func RootOf(leaves []hashsig.Digest) hashsig.Digest {
	var stack [64]peak // a size below 2^64 has at most 64 peaks
	peaks := stack[:0]
	for _, leaf := range leaves {
		peaks = pushPeak(peaks, leaf)
	}
	return foldPeaks(peaks)
}

// foldPeaks is the root over a peak decomposition: its right fold, which
// is exactly the RFC 6962 recursion (the split point of a ragged tree is
// its largest peak). No peaks is the empty tree.
func foldPeaks(peaks []peak) hashsig.Digest {
	if len(peaks) == 0 {
		return EmptyRoot()
	}
	acc := peaks[len(peaks)-1].hash
	for i := len(peaks) - 2; i >= 0; i-- {
		acc = nodeHash(peaks[i].hash, acc)
	}
	return acc
}

// PathsOf returns every leaf's audit path in the tree whose leaf hashes are
// leaves, in order, against the root RootOf returns for them: the siblings
// from the leaf up. It walks the tree level by level, pairing adjacent
// nodes; an unpaired last node rises to the next level unchanged, which is
// the RFC 6962 shape, so each of the n − 1 interior nodes is hashed once.
//
// All paths sub-slice one arena of n × ⌈log₂ n⌉ digests, allocated by
// this call, whose last n digests past them are the walk's scratch. Each
// path is a three-index sub-slice capped at its own stride, so a caller
// that appends to a returned path writes into its own stride or forces a
// fresh copy, never into a neighbour's hashes or the scratch. Callers own
// the paths and may retain them indefinitely. Any n allocates twice: the
// arena and the slice of paths.
func PathsOf(leaves []hashsig.Digest) [][]hashsig.Digest {
	n := len(leaves)
	if n == 0 {
		return nil
	}
	stride := bits.Len(uint(n - 1))
	arena := make([]hashsig.Digest, n*stride+n)
	paths := make([][]hashsig.Digest, n)
	for i := range paths {
		paths[i] = arena[i*stride : i*stride : (i+1)*stride]
	}
	level := arena[n*stride:]
	copy(level, leaves)
	// Node j of a level covers leaves [j*w, min((j+1)*w, n)).
	for w := 1; len(level) > 1; w *= 2 {
		for j := 0; j+1 < len(level); j += 2 {
			left, right := level[j], level[j+1]
			for k := j * w; k < (j+1)*w; k++ {
				paths[k] = append(paths[k], right)
			}
			for k := (j + 1) * w; k < min((j+2)*w, n); k++ {
				paths[k] = append(paths[k], left)
			}
			level[j/2] = nodeHash(left, right)
		}
		if len(level)%2 == 1 {
			level[len(level)/2] = level[len(level)-1]
		}
		level = level[:(len(level)+1)/2]
	}
	return paths
}

// VerifyPath checks that entry is the i-th of n leaves of the tree with the
// given root, using the audit path PathsOf returns for it. It is PathsOf's
// walk for one leaf: at each level the node consumes a sibling unless it is
// the unpaired last one, on the left when its index is odd. A path with a
// sibling too few or too many is refused. For a fixed n the sides the
// siblings take differ for every i, so a path that verifies proves entry
// is leaf i, not merely some leaf of the tree.
func VerifyPath(entry hashsig.Digest, i, n uint64, path []hashsig.Digest, root hashsig.Digest) bool {
	if i >= n {
		return false
	}
	h := LeafHash(entry)
	for ; n > 1; i, n = i/2, n/2+n%2 {
		if i%2 == 0 && i+1 == n {
			continue
		}
		if len(path) == 0 {
			return false
		}
		if i%2 == 1 {
			h = nodeHash(path[0], h)
		} else {
			h = nodeHash(h, path[0])
		}
		path = path[1:]
	}
	return len(path) == 0 && h == root
}

// AppendAndProve appends the given entry digests and returns the index of
// the first appended leaf, the root over the grown tree, and one audit path
// per appended entry, each valid against that root (PathsOf over every
// leaf, so it needs them all: a compacted or restored tree refuses with
// ErrCompacted, before appending). The ledger builds no path in M and does
// not call this; the benchmark's merkle layer row does, on a fresh tree.
func (t *Tree) AppendAndProve(entries []hashsig.Digest) (uint64, hashsig.Digest, [][]hashsig.Digest, error) {
	first := t.Size()
	if t.base > 0 {
		return first, hashsig.Digest{}, nil, fmt.Errorf("%w: paths need leaves from 0, base is %d", ErrCompacted, t.base)
	}
	for _, e := range entries {
		t.Append(e)
	}
	if len(entries) == 0 {
		return first, t.Root(), nil, nil
	}
	return first, t.Root(), PathsOf(t.leaves)[first:], nil
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
