package merkle

import (
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
	for i, e := range pre {
		p, err := pathOf(tr, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyPath(e, uint64(i), 8, p, root) {
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

func TestPathsAtValidation(t *testing.T) {
	tr := New()
	var at4 Frontier
	for i, e := range entries(8, "v") {
		tr.Append(e)
		if i == 3 {
			at4 = tr.Frontier()
		}
	}
	if _, err := tr.PathsAt(3, 3); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := tr.PathsAt(0, 9); err == nil {
		t.Fatal("past-size range accepted")
	}
	if err := tr.CompactTo(at4); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.PathsAt(2, 8); err == nil {
		t.Fatal("compacted range accepted")
	}
	// Retained suffix still provable: interior hashes left of base come
	// from the peaks.
	paths, err := tr.PathsAt(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	es := entries(8, "v")
	for i := 4; i < 8; i++ {
		if !VerifyPath(es[i], uint64(i), 8, paths[i-4], tr.Root()) {
			t.Fatalf("leaf %d after compact does not verify", i)
		}
	}
}
