package merkle

import (
	"fmt"

	"iaccf/internal/hashsig"
)

// AppendAndProve appends the given entry digests and returns the index of
// the first appended leaf, the root over the grown tree, and one audit path
// per appended entry, each valid against that root. This is the batch
// construction primitive: the ledger builds the per-batch tree G by
// appending all of a batch's entries at once and handing the paths out in
// client receipts (paper §3.1). Interior hashes are computed once and
// shared across paths, instead of once per leaf as repeated Path calls
// would. See PathsAt for the ownership of the returned paths.
func (t *Tree) AppendAndProve(entries []hashsig.Digest) (uint64, hashsig.Digest, [][]hashsig.Digest, error) {
	leaves := make([]hashsig.Digest, len(entries))
	for i, e := range entries {
		leaves[i] = LeafHash(e)
	}
	return t.AppendAndProveLeafHashes(leaves)
}

// AppendAndProveLeafHashes is AppendAndProve for pre-hashed (domain
// separated) leaves. The ledger uses it to reuse leaf hashes that its entry
// hasher already computed for the history tree, instead of hashing every
// entry a second time per batch tree. The tree copies each leaf hash; the
// caller keeps ownership of the slice.
func (t *Tree) AppendAndProveLeafHashes(leaves []hashsig.Digest) (uint64, hashsig.Digest, [][]hashsig.Digest, error) {
	first := t.Size()
	for _, l := range leaves {
		t.AppendLeafHash(l)
	}
	if t.Size() == 0 {
		return first, EmptyRoot(), nil, nil
	}
	root := t.Root()
	if len(leaves) == 0 {
		return first, root, nil, nil
	}
	paths, err := t.PathsAt(first, t.Size())
	if err != nil {
		return first, root, nil, err
	}
	return first, root, paths, nil
}

// PathsAt returns the audit paths for every leaf in [from, n) against the
// prefix tree of n leaves. It shares interior hash computations across the
// returned paths: one O(n) traversal instead of one O(n) traversal per
// leaf. Requires Base() <= from < n <= Size().
//
// All returned paths sub-slice a single backing arena allocated by this
// call — one allocation for the whole batch instead of O(log n) appends per
// leaf. Each path is a three-index sub-slice with capacity equal to its
// length, so a caller that appends to a returned path (as the ledger does
// when joining a shard path to the top path in a receipt) forces a fresh
// copy instead of overwriting a neighboring path's hashes. Callers own the
// paths and may retain them indefinitely.
func (t *Tree) PathsAt(from, n uint64) ([][]hashsig.Digest, error) {
	if from >= n || n > t.Size() {
		return nil, fmt.Errorf("%w: paths [%d,%d) (size %d)", ErrOutOfRange, from, n, t.Size())
	}
	if from < t.base {
		return nil, fmt.Errorf("%w: paths from %d before base %d", ErrCompacted, from, t.base)
	}
	count := n - from
	paths := make([][]hashsig.Digest, count)
	lens := make([]uint32, count)
	pathLens(from, 0, n, lens)
	total := 0
	for _, l := range lens {
		total += int(l)
	}
	arena := make([]hashsig.Digest, total)
	off := 0
	for j, l := range lens {
		end := off + int(l)
		paths[j] = arena[off:off:end]
		off = end
	}
	if _, err := t.buildPaths(from, 0, n, paths); err != nil {
		return nil, err
	}
	return paths, nil
}

// pathLens computes, per target leaf, the number of sibling hashes its
// audit path will receive. It mirrors the recursion shape of buildPaths:
// every level whose range contains a target leaf and splits contributes
// exactly one sibling to that leaf's path. The counts size the arena in
// PathsAt, so they must stay in lockstep with buildPaths.
func pathLens(from, a, b uint64, lens []uint32) {
	if b <= from || b-a == 1 {
		return
	}
	k := splitPoint(b - a)
	pathLens(from, a, a+k, lens)
	pathLens(from, a+k, b, lens)
	for i := max(a, from); i < b; i++ {
		lens[i-from]++
	}
}

// buildPaths computes the hash of [a, b) while extending, bottom-up, the
// audit path of every target leaf (index >= from) inside the range.
func (t *Tree) buildPaths(from, a, b uint64, paths [][]hashsig.Digest) (hashsig.Digest, error) {
	if b <= from {
		// No target leaves here: a plain subtree hash (possibly from peaks).
		return t.hashRange(a, b)
	}
	if b-a == 1 {
		return t.hashRange(a, b)
	}
	k := splitPoint(b - a)
	left, err := t.buildPaths(from, a, a+k, paths)
	if err != nil {
		return hashsig.Digest{}, err
	}
	right, err := t.buildPaths(from, a+k, b, paths)
	if err != nil {
		return hashsig.Digest{}, err
	}
	for i := max(a, from); i < a+k; i++ {
		paths[i-from] = append(paths[i-from], right)
	}
	for i := max(a+k, from); i < b; i++ {
		paths[i-from] = append(paths[i-from], left)
	}
	return nodeHash(left, right), nil
}

// ConsistencyProof returns the RFC 6962 proof that the tree's first m
// leaves are a prefix of its first n leaves (1 <= m <= n <= Size). A
// restored tree can prove consistency from its restore point: the proof's
// old-tree nodes are exactly the frontier peaks recorded in the checkpoint,
// so an auditor holding a pre-checkpoint signed root ¯M can check it
// against any later root (paper §3.4).
func (t *Tree) ConsistencyProof(m, n uint64) ([]hashsig.Digest, error) {
	if m == 0 || m > n || n > t.Size() {
		return nil, fmt.Errorf("%w: consistency %d -> %d (size %d)", ErrOutOfRange, m, n, t.Size())
	}
	if m == n {
		return nil, nil
	}
	return t.consProof(m, 0, n, true)
}

// consProof computes SUBPROOF(m, [a,b), complete) per RFC 6962 §2.1.2.
func (t *Tree) consProof(m, a, b uint64, complete bool) ([]hashsig.Digest, error) {
	if m == b-a {
		if complete {
			// The old tree is this entire subtree; the verifier already
			// knows its hash (the old root).
			return nil, nil
		}
		h, err := t.hashRange(a, b)
		if err != nil {
			return nil, err
		}
		return []hashsig.Digest{h}, nil
	}
	k := splitPoint(b - a)
	if m <= k {
		p, err := t.consProof(m, a, a+k, complete)
		if err != nil {
			return nil, err
		}
		sib, err := t.hashRange(a+k, b)
		if err != nil {
			return nil, err
		}
		return append(p, sib), nil
	}
	p, err := t.consProof(m-k, a+k, b, false)
	if err != nil {
		return nil, err
	}
	sib, err := t.hashRange(a, a+k)
	if err != nil {
		return nil, err
	}
	return append(p, sib), nil
}

// VerifyConsistency checks an RFC 6962 consistency proof: that the tree
// with n leaves and root newRoot extends the tree with m leaves and root
// oldRoot.
func VerifyConsistency(m, n uint64, oldRoot, newRoot hashsig.Digest, proof []hashsig.Digest) bool {
	if m == 0 || m > n {
		return false
	}
	if m == n {
		return len(proof) == 0 && oldRoot == newRoot
	}
	idx := 0
	var rec func(m, n uint64, complete bool) (hashsig.Digest, hashsig.Digest, bool)
	rec = func(m, n uint64, complete bool) (hashsig.Digest, hashsig.Digest, bool) {
		if m == n {
			if complete {
				return oldRoot, oldRoot, true
			}
			if idx >= len(proof) {
				return hashsig.Digest{}, hashsig.Digest{}, false
			}
			h := proof[idx]
			idx++
			return h, h, true
		}
		k := splitPoint(n)
		if m <= k {
			oldH, newH, ok := rec(m, k, complete)
			if !ok || idx >= len(proof) {
				return hashsig.Digest{}, hashsig.Digest{}, false
			}
			right := proof[idx]
			idx++
			return oldH, nodeHash(newH, right), true
		}
		oldH, newH, ok := rec(m-k, n-k, false)
		if !ok || idx >= len(proof) {
			return hashsig.Digest{}, hashsig.Digest{}, false
		}
		left := proof[idx]
		idx++
		return nodeHash(left, oldH), nodeHash(left, newH), true
	}
	oldH, newH, ok := rec(m, n, true)
	return ok && idx == len(proof) && oldH == oldRoot && newH == newRoot
}
