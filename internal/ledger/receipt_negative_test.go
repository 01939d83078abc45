package ledger

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
)

// TestReceiptNegativeTable drives Receipt.Verify through adversarial
// mutations — wrong and out-of-range indices, truncated and reordered
// paths, cross-receipt splices, forged header fields — complementing the
// replay-side tamper tests.
func TestReceiptNegativeTable(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("receipt-neg")
	l, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("client-%d", i))),
			ReqNo:  uint64(i),
			Body:   EncodeOps([]Op{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}),
		})
	}
	_, receipts, err := l.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	pub := key.Public()

	// The anchor is a receipt whose path has a sibling to swap; other is
	// the next one, for splicing.
	r, other := &receipts[2], &receipts[3]
	if len(r.Path) < 2 {
		t.Fatal("anchor receipt has no two-node path")
	}
	if !r.Verify(pub) || !other.Verify(pub) {
		t.Fatal("honest receipts do not verify")
	}

	cases := []struct {
		name string
		mut  func(x *Receipt)
	}{
		{"wrong leaf index", func(x *Receipt) { x.Index++ }},
		{"leaf index at GSize", func(x *Receipt) { x.Index = x.Header.GSize }},
		{"truncated path", func(x *Receipt) { x.Path = x.Path[:len(x.Path)-1] }},
		{"empty path", func(x *Receipt) { x.Path = nil }},
		{"swapped siblings", func(x *Receipt) {
			x.Path = append([]hashsig.Digest(nil), x.Path...)
			x.Path[0], x.Path[1] = x.Path[1], x.Path[0]
		}},
		{"overlong path", func(x *Receipt) {
			x.Path = append(append([]hashsig.Digest(nil), x.Path...), hashsig.Sum([]byte("pad")))
		}},
		{"spliced path from another entry", func(x *Receipt) { x.Path = other.Path }},
		{"spliced index from another entry", func(x *Receipt) { x.Index = other.Index }},
		{"tampered entry", func(x *Receipt) { x.Entry.ReqNo++ }},
		{"tampered result", func(x *Receipt) { x.Entry.Result[0] ^= 1 }},
		{"forged tree size", func(x *Receipt) { x.Header.GSize++ }},
		{"forged root", func(x *Receipt) { x.Header.GRoot[0] ^= 1 }},
	}
	for _, tc := range cases {
		mutated := *r
		tc.mut(&mutated)
		if mutated.Verify(pub) {
			t.Errorf("%s: tampered receipt verifies", tc.name)
		}
	}
	if !r.Verify(pub) {
		t.Fatal("anchor receipt stopped verifying")
	}
}

// TestReceiptRejectsReinterpretedPosition: the receipt's one unsigned
// field is its index, and the tree size comes from the signed header, so
// a valid receipt's entry and path verify at its own index and at no
// other — not at any other index of the batch, nor at or past GSize.
// Batches of every size up to 20 entries cover the ragged trees, where
// the last leaves sit at uneven depths.
func TestReceiptRejectsReinterpretedPosition(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("receipt-position")
	pub := key.Public()
	l, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 20; n++ {
		var reqs []Request
		for i := 0; i < n; i++ {
			reqs = append(reqs, putReq(fmt.Sprintf("pos-%d", n), uint64(i), fmt.Sprintf("k%d", i), "v"))
		}
		_, receipts, err := l.ExecuteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range receipts {
			r := receipts[i]
			if r.Index != uint64(i) || !r.Verify(pub) {
				t.Fatalf("n=%d: receipt %d is not a valid receipt at its own index", n, i)
			}
			for _, j := range []uint64{uint64(n), uint64(n) + 1, 1<<63 + uint64(i)} {
				bad := r
				bad.Index = j
				if bad.Verify(pub) {
					t.Fatalf("n=%d: receipt %d verifies at index %d, past GSize %d", n, i, j, r.Header.GSize)
				}
			}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				bad := r
				bad.Index = uint64(j)
				if bad.Verify(pub) {
					t.Fatalf("n=%d: receipt %d's path verifies at index %d", n, i, j)
				}
			}
		}
	}
}
