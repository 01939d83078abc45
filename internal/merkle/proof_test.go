package merkle

import (
	"errors"
	"testing"
)

func TestAppendAndProveMatchesPathAt(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 33} {
		es := entries(n, "aap")
		batch := New()
		first, root, paths, err := batch.AppendAndProve(es)
		if err != nil {
			t.Fatal(err)
		}
		if first != 0 || root != batch.Root() {
			t.Fatalf("n=%d: first=%d root mismatch", n, first)
		}
		if len(paths) != n {
			t.Fatalf("n=%d: %d paths", n, len(paths))
		}
		ref := refPaths(es)
		for i, e := range es {
			if !VerifyPath(e, uint64(i), uint64(n), paths[i], root) {
				t.Fatalf("n=%d: path %d does not verify", n, i)
			}
			want := ref[i]
			if len(want) != len(paths[i]) {
				t.Fatalf("n=%d leaf %d: path length %d, want %d", n, i, len(paths[i]), len(want))
			}
			for j := range want {
				if want[j] != paths[i][j] {
					t.Fatalf("n=%d leaf %d: path node %d differs from the reference", n, i, j)
				}
			}
		}
	}
}

func TestAppendAndProveGrowsExistingTree(t *testing.T) {
	tr := New()
	pre := entries(5, "pre")
	for _, e := range pre {
		tr.Append(e)
	}
	more := entries(3, "more")
	first, root, paths, err := tr.AppendAndProve(more)
	if err != nil {
		t.Fatal(err)
	}
	if first != 5 || tr.Size() != 8 {
		t.Fatalf("first=%d size=%d", first, tr.Size())
	}
	for i, e := range more {
		if !VerifyPath(e, first+uint64(i), 8, paths[i], root) {
			t.Fatalf("appended leaf %d path does not verify", i)
		}
	}
	// Old leaves still provable against the same root.
	all := PathsOf(leafHashes(append(pre, more...)))
	for i, e := range pre {
		if !VerifyPath(e, uint64(i), 8, all[i], root) {
			t.Fatalf("pre-existing leaf %d no longer proves", i)
		}
	}
}

func TestAppendAndProveEmpty(t *testing.T) {
	tr := New()
	first, root, paths, err := tr.AppendAndProve(nil)
	if err != nil || first != 0 || root != EmptyRoot() || paths != nil {
		t.Fatalf("empty append-and-prove: %d %v %v %v", first, root, paths, err)
	}
}

// TestAppendAndProveCompacted: a compacted or restored tree no longer
// holds the leaves a path needs, so AppendAndProve refuses it with
// ErrCompacted before appending anything.
func TestAppendAndProveCompacted(t *testing.T) {
	tr := New()
	var at4 Frontier
	for i, e := range entries(8, "v") {
		tr.Append(e)
		if i == 3 {
			at4 = tr.Frontier()
		}
	}
	if err := tr.CompactTo(at4); err != nil {
		t.Fatal(err)
	}
	restored, err := FromFrontier(at4)
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*Tree{"compacted": tr, "restored": restored} {
		size, root := tree.Size(), tree.Root()
		if _, _, _, err := tree.AppendAndProve(entries(3, "w")); !errors.Is(err, ErrCompacted) {
			t.Fatalf("%s tree: %v, want ErrCompacted", name, err)
		}
		if tree.Size() != size || tree.Root() != root {
			t.Fatalf("%s tree: a refused AppendAndProve changed the tree", name)
		}
	}
}
