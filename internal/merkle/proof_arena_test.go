package merkle

import (
	"fmt"
	"slices"
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

// TestPathsOfMatchesReference holds PathsOf's level walk to the reference
// paths (refPaths, RFC 6962 PATH leaf by leaf) for every leaf count from
// one to 600, past several perfect subtrees and every ragged shape in
// between, and checks each path against RootOf. Any leaf count costs two
// allocations: the arena and the slice of paths.
func TestPathsOfMatchesReference(t *testing.T) {
	entries := entryDigests(600)
	leaves := leafHashes(entries)
	if PathsOf(nil) != nil {
		t.Fatal("paths of no leaves")
	}
	for n := 1; n <= len(entries); n++ {
		paths, root := PathsOf(leaves[:n]), RootOf(leaves[:n])
		ref := refPaths(entries[:n])
		if !slices.EqualFunc(paths, ref, slices.Equal) {
			t.Fatalf("n=%d: paths differ from the reference", n)
		}
		for i, path := range paths {
			if !VerifyPath(entries[i], uint64(i), uint64(n), path, root) {
				t.Fatalf("n=%d leaf %d: path does not verify", n, i)
			}
		}
	}
	for _, n := range []int{1, 2, 600} {
		if got := testing.AllocsPerRun(20, func() { PathsOf(leaves[:n]) }); got != 2 {
			t.Errorf("PathsOf of %d leaves: %.1f allocations, want 2", n, got)
		}
	}
}

// TestPathsArenaAppendSafe: the arena'd paths must behave like independent
// slices. Appending to one returned path must not alter any sibling path,
// whether the append fits in the path's stride or not.
func TestPathsArenaAppendSafe(t *testing.T) {
	const n = 600 // a ragged tree over several perfect subtrees
	entries := entryDigests(n)
	paths := PathsOf(leafHashes(entries))
	// Stomp every path with appended garbage...
	junk := hashsig.Sum([]byte("junk"))
	for i := range paths {
		paths[i] = append(paths[i], junk)
		paths[i] = append(paths[i], junk, junk)
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

// TestAppendAndProveRagged: appending a second batch onto a ragged tree
// still yields paths valid against the grown root: the second batch's
// paths run through interior nodes over the first batch's leaves.
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
