package merkle

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
)

func entryDigests(n int) []hashsig.Digest {
	out := make([]hashsig.Digest, n)
	for i := range out {
		out[i] = hashsig.Sum([]byte(fmt.Sprintf("entry-%d", i)))
	}
	return out
}

// TestPathsAtMatchesPathAt checks PathsAt's shared traversal against the
// reference paths (refPaths, RFC 6962 PATH leaf by leaf) across sizes from
// one leaf to several perfect subtrees and ragged tree shapes.
func TestPathsAtMatchesPathAt(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 65, 511, 512, 1500} {
		entries := entryDigests(n)
		tree := New()
		for _, e := range entries {
			tree.Append(e)
		}
		ref := refPaths(entries)
		for _, from := range []uint64{0, uint64(n) / 3, uint64(n) - 1} {
			paths, err := tree.PathsAt(from, uint64(n))
			if err != nil {
				t.Fatalf("n=%d from=%d: %v", n, from, err)
			}
			for i := from; i < uint64(n); i++ {
				want := ref[i]
				got := paths[i-from]
				if len(got) != len(want) {
					t.Fatalf("n=%d from=%d leaf %d: path len %d, want %d", n, from, i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("n=%d from=%d leaf %d: path[%d] mismatch", n, from, i, j)
					}
				}
				if !VerifyPath(entries[i], i, uint64(n), got, tree.Root()) {
					t.Fatalf("n=%d from=%d leaf %d: path does not verify", n, from, i)
				}
			}
		}
	}
}

// TestPathsArenaAppendSafe: the arena'd paths must behave like independent
// slices. Appending to one returned path must not alter any sibling path.
func TestPathsArenaAppendSafe(t *testing.T) {
	const n = 600 // a ragged tree over several perfect subtrees
	entries := entryDigests(n)
	tree := New()
	for _, e := range entries {
		tree.Append(e)
	}
	paths, err := tree.PathsAt(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[0]) != cap(paths[0]) {
		t.Fatalf("path capacity %d exceeds length %d: appends would spill into the neighbor", cap(paths[0]), len(paths[0]))
	}
	// Stomp every path with appended garbage...
	junk := hashsig.Sum([]byte("junk"))
	for i := range paths {
		paths[i] = append(paths[i], junk, junk, junk)
	}
	// ...then re-verify each original prefix against a fresh recompute.
	ref := refPaths(entries)
	for i := uint64(0); i < n; i++ {
		want := ref[i]
		for j := range want {
			if paths[i][j] != want[j] {
				t.Fatalf("leaf %d: append to other paths corrupted element %d", i, j)
			}
		}
	}
}

// TestAppendAndProveLeafHashes: the pre-hashed-leaves variant must be
// byte-identical to AppendAndProve over the same entries.
func TestAppendAndProveLeafHashes(t *testing.T) {
	for _, n := range []int{0, 1, 5, 700} {
		entries := entryDigests(n)
		t1, t2 := New(), New()
		f1, r1, p1, err1 := t1.AppendAndProve(entries)
		leaves := make([]hashsig.Digest, n)
		for i, e := range entries {
			leaves[i] = LeafHash(e)
		}
		f2, r2, p2, err2 := t2.AppendAndProveLeafHashes(leaves)
		if err1 != nil || err2 != nil {
			t.Fatalf("n=%d: %v / %v", n, err1, err2)
		}
		if f1 != f2 || r1 != r2 || len(p1) != len(p2) {
			t.Fatalf("n=%d: variants diverge (first %d/%d root %v/%v)", n, f1, f2, r1, r2)
		}
		for i := range p1 {
			if len(p1[i]) != len(p2[i]) {
				t.Fatalf("n=%d leaf %d: path lengths differ", n, i)
			}
			for j := range p1[i] {
				if p1[i][j] != p2[i][j] {
					t.Fatalf("n=%d leaf %d: paths differ at %d", n, i, j)
				}
			}
		}
	}
}

// TestAppendAndProveRagged: appending a second batch onto a ragged tree
// still yields paths valid against the grown root (the arena sizing must
// account for hashRange lookups left of the batch).
func TestAppendAndProveRagged(t *testing.T) {
	entries := entryDigests(900)
	tree := New()
	if _, _, _, err := tree.AppendAndProve(entries[:333]); err != nil {
		t.Fatal(err)
	}
	first, root, paths, err := tree.AppendAndProve(entries[333:])
	if err != nil {
		t.Fatal(err)
	}
	if first != 333 {
		t.Fatalf("first = %d", first)
	}
	for i, p := range paths {
		leaf := uint64(333 + i)
		if !VerifyPath(entries[leaf], leaf, 900, p, root) {
			t.Fatalf("leaf %d: path does not verify against grown root", leaf)
		}
	}
}
