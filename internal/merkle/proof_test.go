package merkle

import (
	"testing"

	"iaccf/internal/hashsig"
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
	for _, e := range entries(8, "v") {
		tr.Append(e)
	}
	if _, err := tr.PathsAt(3, 3); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := tr.PathsAt(0, 9); err == nil {
		t.Fatal("past-size range accepted")
	}
	if err := tr.Compact(4); err != nil {
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

func TestConsistencyProofAllSizes(t *testing.T) {
	const maxN = 20
	es := entries(maxN, "cons")
	for n := 1; n <= maxN; n++ {
		tr := New()
		for _, e := range es[:n] {
			tr.Append(e)
		}
		newRoot := tr.Root()
		for m := 1; m <= n; m++ {
			oldRoot := refRoot(es[:m])
			proof, err := tr.ConsistencyProof(uint64(m), uint64(n))
			if err != nil {
				t.Fatalf("m=%d n=%d: %v", m, n, err)
			}
			if !VerifyConsistency(uint64(m), uint64(n), oldRoot, newRoot, proof) {
				t.Fatalf("m=%d n=%d: proof does not verify", m, n)
			}
			// Tampering with the old root, new root, or any proof node fails.
			bad := hashsig.Sum([]byte("bad"))
			if VerifyConsistency(uint64(m), uint64(n), bad, newRoot, proof) && oldRoot != bad {
				t.Fatalf("m=%d n=%d: wrong old root accepted", m, n)
			}
			if VerifyConsistency(uint64(m), uint64(n), oldRoot, bad, proof) && newRoot != bad {
				t.Fatalf("m=%d n=%d: wrong new root accepted", m, n)
			}
			if len(proof) > 0 {
				mut := append([]hashsig.Digest(nil), proof...)
				mut[0] = hashsig.Sum(mut[0][:])
				if VerifyConsistency(uint64(m), uint64(n), oldRoot, newRoot, mut) {
					t.Fatalf("m=%d n=%d: corrupted proof accepted", m, n)
				}
				if VerifyConsistency(uint64(m), uint64(n), oldRoot, newRoot, proof[:len(proof)-1]) {
					t.Fatalf("m=%d n=%d: truncated proof accepted", m, n)
				}
			}
		}
	}
}

func TestConsistencyProofValidation(t *testing.T) {
	tr := New()
	for _, e := range entries(8, "cv") {
		tr.Append(e)
	}
	if _, err := tr.ConsistencyProof(0, 8); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := tr.ConsistencyProof(5, 3); err == nil {
		t.Fatal("m>n accepted")
	}
	if _, err := tr.ConsistencyProof(3, 9); err == nil {
		t.Fatal("n>size accepted")
	}
	p, err := tr.ConsistencyProof(8, 8)
	if err != nil || p != nil {
		t.Fatal("m==n should yield an empty proof")
	}
	if !VerifyConsistency(8, 8, tr.Root(), tr.Root(), nil) {
		t.Fatal("m==n identity proof rejected")
	}
}

// TestFrontierRestoreConsistency is the checkpoint-audit scenario: a
// replica records a frontier at size m, restores from it, keeps appending,
// and proves to an auditor holding the pre-restore signed root that the new
// history extends the old one.
func TestFrontierRestoreConsistency(t *testing.T) {
	for _, m := range []int{1, 3, 4, 6, 8, 11} {
		for _, extra := range []int{1, 2, 5, 9} {
			n := m + extra
			es := entries(n, "fr")

			full := New()
			for _, e := range es[:m] {
				full.Append(e)
			}
			oldRoot := full.Root()
			f, err := full.Frontier()
			if err != nil {
				t.Fatal(err)
			}

			restored, err := FromFrontier(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range es[m:] {
				restored.Append(e)
			}
			for _, e := range es[m:] {
				full.Append(e)
			}
			if restored.Root() != full.Root() {
				t.Fatalf("m=%d n=%d: restored root diverges", m, n)
			}
			// The restored tree proves consistency with the pre-restore
			// root, identically to a tree that never dropped its leaves.
			proof, err := restored.ConsistencyProof(uint64(m), uint64(n))
			if err != nil {
				t.Fatalf("m=%d n=%d: restored proof: %v", m, n, err)
			}
			if !VerifyConsistency(uint64(m), uint64(n), oldRoot, restored.Root(), proof) {
				t.Fatalf("m=%d n=%d: restored consistency proof rejected", m, n)
			}
			fullProof, err := full.ConsistencyProof(uint64(m), uint64(n))
			if err != nil {
				t.Fatal(err)
			}
			if len(proof) != len(fullProof) {
				t.Fatalf("m=%d n=%d: proof lengths differ", m, n)
			}
			for i := range proof {
				if proof[i] != fullProof[i] {
					t.Fatalf("m=%d n=%d: proof node %d differs from full tree", m, n, i)
				}
			}
		}
	}
}
