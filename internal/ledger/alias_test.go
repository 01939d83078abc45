package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"iaccf/internal/hashsig"
)

// genSkewedBatch layers author skew over genBatch: hotTenths/10 of the
// requests are re-authored by one hot client. ReqNos stay unique within
// the batch, so re-authoring never collides.
func genSkewedBatch(rng *rand.Rand, n, keyPool, hotTenths int) []Request {
	out := genBatch(rng, n, keyPool)
	hot := hashsig.Sum([]byte("hot-client"))
	for i := range out {
		if rng.Intn(10) < hotTenths {
			out[i].Author = hot
		}
	}
	return out
}

// TestParallelMatchesSequentialUnderAuthorSkew holds the derivation to one
// answer under author skew: with 90% of the requests from one client, the
// arena'd proof builder and the leaf hashing must still emit
// byte-identical headers and receipts, and identical post-state, at
// GOMAXPROCS=4 and GOMAXPROCS=1. Header equality is checked via
// ContentDigest, which covers ¯M, ¯G and d_C, so checkpoint digests are
// compared batch by batch, not just at the end. The resulting stream must
// replay to the live ledger's roots under both of Replay's schedules,
// inline and pipelined. The ledgers take bench/'s Shards: 1, which names
// the subtests.
func TestParallelMatchesSequentialUnderAuthorSkew(t *testing.T) {
	for _, hotTenths := range []int{0, 9} {
		label := fmt.Sprintf("shards=1/hot=%d0%%", hotTenths)
		t.Run(label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + int64(hotTenths)))
			par, err := New(Config{Key: testKey, App: KVApp{}, Shards: 1, CheckpointEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := New(Config{Key: testKey, App: KVApp{}, Shards: 1, CheckpointEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 4; batch++ {
				reqs := genSkewedBatch(rng, 64+rng.Intn(100), 512, hotTenths)
				executeAlike(t, fmt.Sprintf("%s/batch=%d", label, batch), par, seq, reqs)
			}
			stream := par.Batches()
			for _, procs := range []int{1, 2} {
				var res *ReplayResult
				atProcs(procs, func() { res, err = Replay(stream, testKey.Public(), KVApp{}, nil) })
				if err != nil {
					t.Fatalf("%s: replay at GOMAXPROCS=%d: %v", label, procs, err)
				}
				if res.HistSize != par.HistSize() || res.HistRoot != par.HistRoot() ||
					res.StateDigest != par.StateDigest() || res.CkptDigest != stream[len(stream)-1].Header.CkptDigest {
					t.Fatalf("%s: replay at GOMAXPROCS=%d diverges from the live ledger", label, procs)
				}
			}
		})
	}
}

// receiptSnap deep-copies everything a client retains from a receipt.
type receiptSnap struct {
	header  hashsig.Digest
	payload []byte
	path    []hashsig.Digest
}

// TestBatchAndReceiptsSurvivePoolReuse is the aliasing property for the
// execution path: nothing ExecuteBatch returns may share backing memory
// with what the ledger writes for later batches — the history tree's
// leaves, the store's overlay, champ's nodes. Six more batches run after
// the first, so any leaked alias turns into a visible corruption in the
// retained batch or receipts.
func TestBatchAndReceiptsSurvivePoolReuse(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(42))
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}

	first := genBatch(rng, 104, 256)
	b1, r1, err := l.ExecuteBatch(first)
	if err != nil {
		t.Fatal(err)
	}
	headerDigest := b1.Header.StatementDigest()
	payloads := make([][]byte, len(b1.Entries))
	digests := make([]hashsig.Digest, len(b1.Entries))
	for i := range b1.Entries {
		payloads[i] = append([]byte(nil), b1.Entries[i].Payload...)
		digests[i] = b1.Entries[i].Digest()
	}
	snaps := make([]receiptSnap, len(r1))
	for i := range r1 {
		snaps[i] = receiptSnap{
			header:  r1[i].Header.StatementDigest(),
			payload: append([]byte(nil), r1[i].Entry.Payload...),
			path:    append([]hashsig.Digest(nil), r1[i].Path...),
		}
	}

	// Six more batches write the history tree and the store after it.
	for i := 0; i < 6; i++ {
		if _, _, err := l.ExecuteBatch(genBatch(rng, 104, 256)); err != nil {
			t.Fatal(err)
		}
	}

	if got := b1.Header.StatementDigest(); got != headerDigest {
		t.Fatal("batch header mutated after later batches")
	}
	for i := range b1.Entries {
		if !bytes.Equal(b1.Entries[i].Payload, payloads[i]) {
			t.Fatalf("entry %d payload mutated after later batches", i)
		}
		if b1.Entries[i].Digest() != digests[i] {
			t.Fatalf("entry %d digest changed after later batches", i)
		}
	}
	for i := range r1 {
		if r1[i].Header.StatementDigest() != snaps[i].header {
			t.Fatalf("receipt %d header mutated after later batches", i)
		}
		if !bytes.Equal(r1[i].Entry.Payload, snaps[i].payload) {
			t.Fatalf("receipt %d entry payload mutated after later batches", i)
		}
		if len(r1[i].Path) != len(snaps[i].path) {
			t.Fatalf("receipt %d path length changed after later batches", i)
		}
		for j := range r1[i].Path {
			if r1[i].Path[j] != snaps[i].path[j] {
				t.Fatalf("receipt %d path element %d mutated after later batches", i, j)
			}
		}
		if !r1[i].Verify(testKey.Public()) {
			t.Fatalf("receipt %d no longer verifies after later batches", i)
		}
	}
}
