package merkle

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
)

// TestVerifyPathNegativeTable drives VerifyPath through adversarial
// mutations for every size: a valid path is accepted first, so a failing
// negative can only mean the mutation itself was accepted.
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
			long := append(append([]hashsig.Digest(nil), path...), hashsig.Sum([]byte("pad")))
			flipped := append([]hashsig.Digest(nil), path...)
			flipped[0][3] ^= 0x10
			for name, ok := range map[string]bool{
				"empty path":         VerifyPath(es[i], i, n, nil, root),
				"overlong path":      VerifyPath(es[i], i, n, long, root),
				"corrupted path":     VerifyPath(es[i], i, n, flipped, root),
				"forged entry":       VerifyPath(hashsig.Sum([]byte("evil")), i, n, path, root),
				"wrong root":         VerifyPath(es[i], i, n, path, hashsig.Sum([]byte("bad"))),
				"index out of range": VerifyPath(es[i], n, n, path, root),
				"root as entry":      VerifyPath(root, i, n, path, root),
			} {
				if ok {
					t.Fatalf("n=%d i=%d: %s accepted", n, i, name)
				}
			}
			// Claimed size/index metadata is not cryptographically bound:
			// like any RFC 6962 audit path, another (index, size) whose
			// roll-up shape coincides verifies too. Only the (entry, root)
			// pair is bound, by leaf/interior domain separation; a receipt
			// takes the size from its signed header.
		}
	}
}
