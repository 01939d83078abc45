package merkle

import (
	"math"
	"slices"
	"testing"

	"iaccf/internal/hashsig"
)

// TestVerifyPathNegativeTable drives VerifyPath through mutations of every
// leaf's honest path for every size from 1 to 130 leaves, and only the
// honest (index, path) pair is accepted. The honest pair is checked first,
// so a failing negative can only mean the mutation itself was accepted.
// Every other index is tried up to 64 leaves, the neighbours and the
// mirror above: for a fixed size the sides a path's siblings take differ
// for every index, which is what lets a receipt's signed GSize bind its
// unsigned Index.
func TestVerifyPathNegativeTable(t *testing.T) {
	es := entries(130, "vp")
	leaves := leafHashes(es)
	evil, pad := hashsig.Sum([]byte("evil")), hashsig.Sum([]byte("pad"))
	for n := uint64(1); n <= uint64(len(es)); n++ {
		paths, root := PathsOf(leaves[:n]), RootOf(leaves[:n])
		for i, path := range paths {
			i := uint64(i)
			if !VerifyPath(es[i], i, n, path, root) {
				t.Fatalf("n=%d i=%d: honest path rejected", n, i)
			}
			reject := func(what string, entry hashsig.Digest, j uint64, p []hashsig.Digest, r hashsig.Digest) {
				t.Helper()
				if VerifyPath(entry, j, n, p, r) {
					t.Fatalf("n=%d i=%d: %s accepted", n, i, what)
				}
			}
			if len(path) > 0 {
				reject("truncated path", es[i], i, path[:len(path)-1], root)
				reject("empty path", es[i], i, nil, root)
			}
			reject("extended path", es[i], i, append(slices.Clip(path), pad), root)
			reject("forged entry", evil, i, path, root)
			reject("root as entry", root, i, path, root)
			reject("wrong root", es[i], i, path, evil)
			for _, j := range []uint64{n, n + 1, math.MaxUint64} {
				reject("index ≥ n", es[i], j, path, root)
			}
			others := []uint64{i - 1, i + 1, i ^ 1, n - 1 - i}
			if n <= 64 {
				others = others[:0]
				for j := range n {
					others = append(others, j)
				}
			}
			for _, j := range others {
				if j != i && j < n && VerifyPath(es[i], j, n, path, root) {
					t.Fatalf("n=%d i=%d: path accepted at index %d", n, i, j)
				}
			}
			for k := range path {
				flipped := slices.Clone(path)
				flipped[k][k%hashsig.DigestSize] ^= 0x10
				reject("flipped byte", es[i], i, flipped, root)
				if k+1 < len(path) {
					swapped := slices.Clone(path)
					swapped[k], swapped[k+1] = swapped[k+1], swapped[k]
					reject("swapped siblings", es[i], i, swapped, root)
				}
			}
		}
	}
}

// FuzzVerifyPath: for a tree of n ≤ 300 leaves, VerifyPath accepts leaf
// src's entry at index i under a path exactly when i < n, i is src and the
// path is PathsOf's for leaf i — whichever mutation of src's honest path
// (truncated, extended, a flipped bit, two siblings swapped, another
// leaf's, or claimed at another index) the input picks.
func FuzzVerifyPath(f *testing.F) {
	es := entries(300, "fz")
	leaves := leafHashes(es)
	for mut := range uint8(7) {
		f.Add(uint16(130), uint16(77), mut, uint8(1), uint8(9))
	}
	f.Add(uint16(0), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint16(4), uint16(5), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, nRaw, iRaw uint16, mut, k, b uint8) {
		n := 1 + uint64(nRaw)%300
		i := uint64(iRaw)
		src := i % n
		paths, root := PathsOf(leaves[:n]), RootOf(leaves[:n])
		path := slices.Clone(paths[src])
		switch mut % 7 {
		case 1:
			path = path[:len(path)-min(len(path), 1+int(k)%4)]
		case 2:
			for range 1 + int(k)%4 {
				path = append(path, leaves[int(b)%len(leaves)])
			}
		case 3:
			if len(path) > 0 {
				path[int(k)%len(path)][int(b)%hashsig.DigestSize] ^= 1 << (b % 8)
			}
		case 4:
			if len(path) > 1 {
				j := int(k) % (len(path) - 1)
				path[j], path[j+1] = path[j+1], path[j]
			}
		case 5:
			path = paths[(src+uint64(k))%n]
		case 6:
			i = (src + uint64(k)) % n
		}
		want := i < n && i == src && slices.Equal(path, paths[i])
		if got := VerifyPath(es[src], i, n, path, root); got != want {
			t.Fatalf("n=%d leaf %d at index %d, mutation %d: accepted %v, want %v", n, src, i, mut%7, got, want)
		}
	})
}
