package merkle

import (
	"fmt"

	"iaccf/internal/hashsig"
)

// AppendAndProve appends the given entry digests and returns the index of
// the first appended leaf, the root over the grown tree, and one audit path
// per appended entry, each valid against that root. Interior hashes are
// computed once and shared across paths, instead of once per leaf as
// repeated Path calls would. See PathsAt for the ownership of the returned
// paths. The ledger builds its batch tree G leaf by leaf and does not call
// this; the benchmark's merkle layer row does.
func (t *Tree) AppendAndProve(entries []hashsig.Digest) (uint64, hashsig.Digest, [][]hashsig.Digest, error) {
	first := t.Size()
	for _, e := range entries {
		t.Append(e)
	}
	if t.Size() == 0 {
		return first, EmptyRoot(), nil, nil
	}
	root := t.Root()
	if len(entries) == 0 {
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
// length, so a caller that appends to a returned path forces a fresh copy
// instead of overwriting a neighboring path's hashes. Callers own the
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
