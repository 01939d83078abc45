package merkle

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
)

// TestVerifyShardedPathNegativeTable drives VerifyShardedPath through a
// table of adversarial mutations. The positive case is asserted first so a
// failing negative can only mean the mutation itself was accepted.
func TestVerifyShardedPathNegativeTable(t *testing.T) {
	const shards = 4
	shardSizes := []uint64{3, 6, 1, 4}
	var trees []*Tree
	entries := make([][]hashsig.Digest, shards)
	top := New()
	for s := 0; s < shards; s++ {
		tr := New()
		for i := uint64(0); i < shardSizes[s]; i++ {
			e := hashsig.Sum([]byte(fmt.Sprintf("neg-%d-%d", s, i)))
			entries[s] = append(entries[s], e)
			tr.Append(e)
		}
		trees = append(trees, tr)
		top.Append(tr.Root())
	}
	root := top.Root()

	pathFor := func(s int, i uint64) []hashsig.Digest {
		t.Helper()
		sp, err := pathOf(trees[s], i)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := pathOf(top, uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		return append(append([]hashsig.Digest(nil), sp...), tp...)
	}

	// Anchor case: shard 1, leaf 2 of 6 — a path with both shard-stage and
	// top-stage segments.
	const s, i = 1, uint64(2)
	entry := entries[s][i]
	path := pathFor(s, i)
	if !VerifyShardedPath(entry, i, shardSizes[s], s, shards, path, root) {
		t.Fatal("anchor path rejected")
	}

	cases := []struct {
		name string
		run  func() bool
	}{
		{"wrong shard index", func() bool {
			return VerifyShardedPath(entry, i, shardSizes[s], s+1, shards, path, root)
		}},
		{"shard index out of range", func() bool {
			return VerifyShardedPath(entry, i, shardSizes[s], shards, shards, path, root)
		}},
		// No "wrong shard count" row: like all position metadata, a shard
		// count whose roll-up shape coincides can verify — the binding of
		// the true count is the signed header (BatchHeader.Shards), which
		// Receipt.Verify feeds in from under the signature.
		{"truncated path (no top stage)", func() bool {
			return VerifyShardedPath(entry, i, shardSizes[s], s, shards, path[:len(path)-2], root)
		}},
		{"truncated path (one node)", func() bool {
			return VerifyShardedPath(entry, i, shardSizes[s], s, shards, path[:len(path)-1], root)
		}},
		{"empty path", func() bool {
			return VerifyShardedPath(entry, i, shardSizes[s], s, shards, nil, root)
		}},
		{"overlong path", func() bool {
			long := append(append([]hashsig.Digest(nil), path...), hashsig.Sum([]byte("pad")))
			return VerifyShardedPath(entry, i, shardSizes[s], s, shards, long, root)
		}},
		{"swapped siblings (shard stage)", func() bool {
			swapped := append([]hashsig.Digest(nil), path...)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			return VerifyShardedPath(entry, i, shardSizes[s], s, shards, swapped, root)
		}},
		{"swapped siblings (across stages)", func() bool {
			swapped := append([]hashsig.Digest(nil), path...)
			last := len(swapped) - 1
			swapped[0], swapped[last] = swapped[last], swapped[0]
			return VerifyShardedPath(entry, i, shardSizes[s], s, shards, swapped, root)
		}},
		{"another leaf's path", func() bool {
			return VerifyShardedPath(entry, i, shardSizes[s], s, shards, pathFor(s, i+1), root)
		}},
		{"another shard's path", func() bool {
			return VerifyShardedPath(entry, 0, shardSizes[2], 2, shards, pathFor(2, 0), root) &&
				VerifyShardedPath(entry, i, shardSizes[s], s, shards, pathFor(2, 0), root)
		}},
		{"leaf index out of shard", func() bool {
			return VerifyShardedPath(entry, shardSizes[s], shardSizes[s], s, shards, path, root)
		}},
		{"shard root replayed as entry", func() bool {
			// The shard root itself must not verify as a leaf of the top
			// tree via the suffix alone: leaf domain separation blocks it.
			tp, err := pathOf(top, uint64(s))
			if err != nil {
				t.Fatal(err)
			}
			return VerifyShardedPath(trees[s].Root(), s, shards, s, shards, tp, root)
		}},
	}
	for _, tc := range cases {
		if tc.run() {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The anchor still verifies after all mutations (no aliasing).
	if !VerifyShardedPath(entry, i, shardSizes[s], s, shards, path, root) {
		t.Fatal("anchor path no longer verifies")
	}
}

// TestVerifyPathNegativeTable gives the single-tree verifier the same
// treatment: swapped siblings and truncations must fail for every size.
func TestVerifyPathNegativeTable(t *testing.T) {
	for n := uint64(2); n <= 16; n++ {
		tr := New()
		var es []hashsig.Digest
		for i := uint64(0); i < n; i++ {
			e := hashsig.Sum([]byte(fmt.Sprintf("vp-%d-%d", n, i)))
			es = append(es, e)
			tr.Append(e)
		}
		root := tr.Root()
		for i := uint64(0); i < n; i++ {
			path, err := pathOf(tr, i)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyPath(es[i], i, n, path, root) {
				t.Fatalf("n=%d i=%d: valid path rejected", n, i)
			}
			if VerifyPath(es[i], i, n, path[:len(path)-1], root) {
				t.Fatalf("n=%d i=%d: truncated path accepted", n, i)
			}
			if len(path) >= 2 {
				swapped := append([]hashsig.Digest(nil), path...)
				swapped[0], swapped[1] = swapped[1], swapped[0]
				if VerifyPath(es[i], i, n, swapped, root) {
					t.Fatalf("n=%d i=%d: swapped siblings accepted", n, i)
				}
			}
			// Claimed size/index metadata is not cryptographically bound
			// (see TestVerifyShardedPath's note): only the (entry, root)
			// pair is, so no inflated-size assertion here.
		}
	}
}
