package merkle

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"iaccf/internal/hashsig"
)

// refRoot is an independent reference implementation of RFC 6962 MTH used to
// validate the incremental tree.
func refRoot(entries []hashsig.Digest) hashsig.Digest {
	leaves := make([]hashsig.Digest, len(entries))
	for i, e := range entries {
		leaves[i] = LeafHash(e)
	}
	return refMTH(leaves)
}

func refMTH(leaves []hashsig.Digest) hashsig.Digest {
	switch len(leaves) {
	case 0:
		return EmptyRoot()
	case 1:
		return leaves[0]
	}
	k := 1
	for k*2 < len(leaves) {
		k *= 2
	}
	return nodeHash(refMTH(leaves[:k]), refMTH(leaves[k:]))
}

// refPaths returns every leaf's audit path, bottom-up, straight from the
// RFC 6962 definition of PATH: an independent reference for PathsAt.
func refPaths(entries []hashsig.Digest) [][]hashsig.Digest {
	leaves := make([]hashsig.Digest, len(entries))
	for i, e := range entries {
		leaves[i] = LeafHash(e)
	}
	paths := make([][]hashsig.Digest, len(leaves))
	var walk func(a, b int)
	walk = func(a, b int) {
		if b-a <= 1 {
			return
		}
		k := 1
		for k*2 < b-a {
			k *= 2
		}
		walk(a, a+k)
		walk(a+k, b)
		left, right := refMTH(leaves[a:a+k]), refMTH(leaves[a+k:b])
		for i := a; i < a+k; i++ {
			paths[i] = append(paths[i], right)
		}
		for i := a + k; i < b; i++ {
			paths[i] = append(paths[i], left)
		}
	}
	walk(0, len(leaves))
	return paths
}

// TestRootOfMatchesTree holds RootOf to Tree.Root for every leaf count
// from 0 to 300 — past two 128-leaf and one 256-leaf perfect subtrees, so
// every peak count a batch meets — and pins it at zero allocations: the
// batch root ¯G is computed on every replica for every batch.
func TestRootOfMatchesTree(t *testing.T) {
	leaves := make([]hashsig.Digest, 300)
	for i, e := range entries(len(leaves), "rootof") {
		leaves[i] = LeafHash(e)
	}
	tr := New()
	for n := 0; n <= len(leaves); n++ {
		if n > 0 {
			tr.AppendLeafHash(leaves[n-1])
		}
		if got, want := RootOf(leaves[:n]), tr.Root(); got != want {
			t.Fatalf("%d leaves: RootOf %x, Tree.Root %x", n, got, want)
		}
	}
	if got := testing.AllocsPerRun(20, func() { RootOf(leaves) }); got != 0 {
		t.Errorf("RootOf of %d leaves: %.1f allocations, want 0", len(leaves), got)
	}
}

// pathOf returns leaf i's audit path in tr at its current size.
func pathOf(tr *Tree, i uint64) ([]hashsig.Digest, error) {
	paths, err := tr.PathsAt(i, tr.Size())
	if err != nil {
		return nil, err
	}
	return paths[0], nil
}

func entries(n int, seed string) []hashsig.Digest {
	out := make([]hashsig.Digest, n)
	for i := range out {
		out[i] = hashsig.Sum([]byte(fmt.Sprintf("%s-%d", seed, i)))
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Size() != 0 {
		t.Fatal("empty tree has nonzero size")
	}
	if tr.Root() != EmptyRoot() {
		t.Fatal("empty tree root mismatch")
	}
}

func TestRootMatchesReferenceAllSizes(t *testing.T) {
	es := entries(130, "root")
	tr := New()
	for i, e := range es {
		tr.Append(e)
		want := refRoot(es[:i+1])
		if got := tr.Root(); got != want {
			t.Fatalf("size %d: root %v != reference %v", i+1, got, want)
		}
	}
}

func TestPathsVerifyAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 65} {
		es := entries(n, fmt.Sprintf("path-%d", n))
		tr := New()
		for _, e := range es {
			tr.Append(e)
		}
		root := tr.Root()
		for i := 0; i < n; i++ {
			path, err := pathOf(tr, uint64(i))
			if err != nil {
				t.Fatalf("n=%d Path(%d): %v", n, i, err)
			}
			if !VerifyPath(es[i], uint64(i), uint64(n), path, root) {
				t.Fatalf("n=%d: path for leaf %d does not verify", n, i)
			}
			// Wrong leaf, wrong index, wrong root must all fail.
			if VerifyPath(hashsig.Sum([]byte("evil")), uint64(i), uint64(n), path, root) {
				t.Fatalf("n=%d: forged leaf accepted at %d", n, i)
			}
			if n > 1 && VerifyPath(es[i], uint64((i+1)%n), uint64(n), path, root) {
				t.Fatalf("n=%d: path accepted for wrong index %d", n, i)
			}
			if VerifyPath(es[i], uint64(i), uint64(n), path, hashsig.Sum([]byte("bad"))) {
				t.Fatalf("n=%d: path accepted for wrong root", n)
			}
		}
	}
}

func TestVerifyPathRejectsTruncatedPath(t *testing.T) {
	es := entries(10, "trunc")
	tr := New()
	for _, e := range es {
		tr.Append(e)
	}
	path, err := pathOf(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if len(path) == 0 {
		t.Fatal("expected non-empty path")
	}
	if VerifyPath(es[3], 3, 10, path[:len(path)-1], root) {
		t.Fatal("truncated path accepted")
	}
	if VerifyPath(es[3], 3, 10, append(append([]hashsig.Digest{}, path...), hashsig.Sum([]byte("extra"))), root) {
		t.Fatal("extended path accepted")
	}
	// A size with a different path length must fail (same-shape sizes, e.g.
	// 11 or 16 for leaf 3, legitimately verify: the root, not n, binds the
	// contents).
	if VerifyPath(es[3], 3, 5, path, root) {
		t.Fatal("path accepted with wrong tree shape")
	}
	if VerifyPath(es[3], 12, 10, path, root) {
		t.Fatal("out-of-range index accepted")
	}
}

func TestRollback(t *testing.T) {
	es := entries(50, "rb")
	tr := New()
	roots := make([]hashsig.Digest, 0, 51)
	roots = append(roots, tr.Root())
	for _, e := range es {
		tr.Append(e)
		roots = append(roots, tr.Root())
	}
	for n := 50; n >= 0; n-- {
		if err := tr.Rollback(uint64(n)); err != nil {
			t.Fatalf("Rollback(%d): %v", n, err)
		}
		if tr.Size() != uint64(n) {
			t.Fatalf("size after rollback: %d != %d", tr.Size(), n)
		}
		if tr.Root() != roots[n] {
			t.Fatalf("root after rollback to %d differs", n)
		}
	}
	if err := tr.Rollback(1); err == nil {
		t.Fatal("rollback beyond size succeeded")
	}
}

func TestRollbackThenReappend(t *testing.T) {
	es := entries(20, "rr")
	tr := New()
	for _, e := range es {
		tr.Append(e)
	}
	want := tr.Root()
	if err := tr.Rollback(7); err != nil {
		t.Fatal(err)
	}
	for _, e := range es[7:] {
		tr.Append(e)
	}
	if tr.Root() != want {
		t.Fatal("root differs after rollback+reappend of same leaves")
	}
}

func TestFrontierRestore(t *testing.T) {
	es := entries(60, "fr")
	for _, cut := range []int{0, 1, 2, 5, 31, 32, 33, 59, 60} {
		tr := New()
		for _, e := range es[:cut] {
			tr.Append(e)
		}
		f := tr.Frontier()
		restored, err := FromFrontier(f)
		if err != nil {
			t.Fatalf("cut=%d FromFrontier: %v", cut, err)
		}
		if restored.Size() != uint64(cut) {
			t.Fatalf("cut=%d restored size %d", cut, restored.Size())
		}
		if restored.Root() != tr.Root() {
			t.Fatalf("cut=%d restored root differs", cut)
		}
		// Continue appending on both; roots must stay in lockstep.
		for _, e := range es[cut:] {
			tr.Append(e)
			restored.Append(e)
			if restored.Root() != tr.Root() {
				t.Fatalf("cut=%d divergence at size %d", cut, tr.Size())
			}
		}
		// Paths for post-restore leaves must verify against the full root.
		root := restored.Root()
		for i := cut; i < 60; i++ {
			path, err := pathOf(restored, uint64(i))
			if err != nil {
				t.Fatalf("cut=%d Path(%d): %v", cut, i, err)
			}
			if !VerifyPath(es[i], uint64(i), 60, path, root) {
				t.Fatalf("cut=%d: restored path for %d fails", cut, i)
			}
		}
		// Pre-restore paths must be unavailable, not wrong.
		if cut > 0 {
			if _, err := pathOf(restored, uint64(cut-1)); err == nil {
				t.Fatalf("cut=%d: path before base succeeded", cut)
			}
		}
	}
}

func TestFrontierEncodeDecode(t *testing.T) {
	tr := New()
	for _, e := range entries(13, "enc") {
		tr.Append(e)
	}
	f := tr.Frontier()
	dec, err := DecodeFrontier(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Size != f.Size || len(dec.Peaks) != len(f.Peaks) {
		t.Fatal("frontier round trip mismatch")
	}
	for i := range f.Peaks {
		if dec.Peaks[i] != f.Peaks[i] {
			t.Fatal("peak mismatch")
		}
	}
	if dec.Digest() != f.Digest() {
		t.Fatal("frontier digest mismatch")
	}
	if _, err := DecodeFrontier(f.Encode()[:5]); err == nil {
		t.Fatal("short frontier accepted")
	}
	bad := f.Encode()
	bad = append(bad, 0xff)
	if _, err := DecodeFrontier(bad); err == nil {
		t.Fatal("over-long frontier accepted")
	}
}

func TestFromFrontierValidation(t *testing.T) {
	if _, err := FromFrontier(Frontier{Size: 3, Peaks: []hashsig.Digest{{}}}); err == nil {
		t.Fatal("frontier with wrong peak count accepted")
	}
}

// TestCompact: compacting to a frontier the tree captured earlier keeps
// the root, the paths and the leaves from that size on, and drops the
// ones before it.
func TestCompact(t *testing.T) {
	es := entries(48, "cp")
	tr := New()
	var at3, at17 Frontier
	for i, e := range es {
		tr.Append(e)
		switch i + 1 {
		case 3:
			at3 = tr.Frontier()
		case 17:
			at17 = tr.Frontier()
		}
	}
	full := tr.Root()
	if err := tr.CompactTo(at17); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != full {
		t.Fatal("root changed after compact")
	}
	if tr.Base() != 17 {
		t.Fatalf("base %d after compact", tr.Base())
	}
	// Paths at or after the compact point still work.
	for i := 17; i < 48; i++ {
		path, err := pathOf(tr, uint64(i))
		if err != nil {
			t.Fatalf("Path(%d) after compact: %v", i, err)
		}
		if !VerifyPath(es[i], uint64(i), 48, path, full) {
			t.Fatalf("path %d fails after compact", i)
		}
	}
	if _, err := pathOf(tr, 16); err == nil {
		t.Fatal("path before compact point succeeded")
	}
	if err := tr.Rollback(16); err == nil {
		t.Fatal("rollback before compact point succeeded")
	}
	// Retained leaf hashes read back from the compact point on, not before.
	if got, err := tr.Leaves(17, 48); err != nil || len(got) != 31 || got[0] != LeafHash(es[17]) || got[30] != LeafHash(es[47]) {
		t.Fatalf("Leaves(17, 48) after compact: %d leaves, %v", len(got), err)
	}
	if _, err := tr.Leaves(16, 48); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Leaves before compact point: %v, want ErrCompacted", err)
	}
	if _, err := tr.Leaves(17, 49); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Leaves beyond size: %v, want ErrOutOfRange", err)
	}
	// Appends continue correctly.
	more := entries(9, "cp2")
	ref := append(append([]hashsig.Digest{}, es...), more...)
	for _, e := range more {
		tr.Append(e)
	}
	if tr.Root() != refRoot(ref) {
		t.Fatal("root after compact+append differs from reference")
	}
	// Compacting to an earlier point is a no-op.
	if err := tr.CompactTo(at3); err != nil {
		t.Fatal(err)
	}
	if tr.Base() != 17 {
		t.Fatal("compact moved base backwards")
	}
}

// TestCompactTo holds a compacted tree to an uncompacted twin: after each
// CompactTo the root, every path from the new base on, and a rollback to
// any size at or above it are the twin's. A frontier beyond the tree or
// whose peaks do not fit its size is refused, and compacting allocates
// nothing once the tree has compacted before.
func TestCompactTo(t *testing.T) {
	es := entries(1200, "ct")
	tr, twin := New(), New()
	var fs []Frontier
	for i, e := range es {
		tr.Append(e)
		twin.Append(e)
		if i%10 == 9 {
			fs = append(fs, tr.Frontier())
		}
	}
	for _, f := range fs[:8] {
		if err := tr.CompactTo(f); err != nil {
			t.Fatal(err)
		}
		if tr.Base() != f.Size || tr.Root() != twin.Root() {
			t.Fatalf("base %d: base %d, root matches %v", f.Size, tr.Base(), tr.Root() == twin.Root())
		}
		got, err := tr.PathsAt(f.Size, tr.Size())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := twin.PathsAt(f.Size, twin.Size())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("base %d: paths differ from the uncompacted tree's", f.Size)
		}
	}
	base := tr.Base()
	for _, n := range []uint64{1100, 333, base} {
		if err := tr.Rollback(n); err != nil {
			t.Fatal(err)
		}
		twin.Rollback(n)
		if tr.Root() != twin.Root() {
			t.Fatalf("rollback to %d: root differs from the uncompacted tree's", n)
		}
	}
	if err := tr.Rollback(base - 1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("rollback below the base: %v, want ErrCompacted", err)
	}
	for _, e := range es[base:] {
		tr.Append(e)
		twin.Append(e)
	}
	for _, f := range []Frontier{
		{Size: tr.Size() + 1, Peaks: make([]hashsig.Digest, bits.OnesCount64(tr.Size()+1))},
		{Size: base + 10, Peaks: fs[0].Peaks},
	} {
		if err := tr.CompactTo(f); err == nil {
			t.Fatalf("frontier of size %d with %d peaks accepted", f.Size, len(f.Peaks))
		}
	}
	if tr.Base() != base || tr.Root() != twin.Root() {
		t.Fatal("a refused frontier changed the tree")
	}
	i := 8
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.CompactTo(fs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("CompactTo: %.1f allocations per call, want 0", allocs)
	}
	if tr.Base() != fs[i-1].Size || tr.Root() != twin.Root() {
		t.Fatal("compaction in the allocation run changed the root")
	}
}

// Property: for random append/rollback interleavings the incremental tree
// always matches the reference implementation.
func TestQuickAppendRollbackMatchesReference(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		var model []hashsig.Digest
		for _, op := range ops {
			if op%4 == 0 && len(model) > 0 {
				n := rng.Intn(len(model) + 1)
				if err := tr.Rollback(uint64(n)); err != nil {
					return false
				}
				model = model[:n]
			} else {
				e := hashsig.Sum([]byte{op, byte(rng.Intn(256))})
				tr.Append(e)
				model = append(model, e)
			}
			if tr.Root() != refRoot(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: paths generated from a frontier-restored tree verify for every
// retained leaf at every tree size.
func TestQuickFrontierPaths(t *testing.T) {
	f := func(cutRaw, extraRaw uint8) bool {
		cut := int(cutRaw % 40)
		extra := 1 + int(extraRaw%40)
		es := entries(cut+extra, "qf")
		tr := New()
		for _, e := range es[:cut] {
			tr.Append(e)
		}
		fr := tr.Frontier()
		rt, err := FromFrontier(fr)
		if err != nil {
			return false
		}
		for _, e := range es[cut:] {
			rt.Append(e)
		}
		root := rt.Root()
		n := uint64(cut + extra)
		for i := cut; i < cut+extra; i++ {
			path, err := pathOf(rt, uint64(i))
			if err != nil {
				return false
			}
			if !VerifyPath(es[i], uint64(i), n, path, root) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
