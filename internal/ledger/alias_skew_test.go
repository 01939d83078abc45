package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/pool"
)

// genSkewedBatch layers author skew over genBatch: hotTenths/10 of the
// requests are re-authored by one hot client, so that fraction of the
// batch routes to a single per-shard batch tree (entries shard by author).
// ReqNos stay unique within the batch, so re-authoring never collides.
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

// TestParallelMatchesSequentialUnderAuthorSkew holds shard counts 1, 4 and
// 16 to one derivation under shard-placement skew: with 90% of entries
// landing in one shard tree, the arena'd proof builder, the shared per-shard top path and
// the pipelined leaf hashing must still emit byte-identical headers and
// receipts, and identical post-state, at GOMAXPROCS=4 and GOMAXPROCS=1.
// Header equality is checked via ContentDigest, which covers ¯M, ¯G, and
// d_C — so checkpoint digests are compared batch by batch, not just at the
// end. The resulting stream must replay to the live ledger's roots under
// both of Replay's schedules, inline and two-lane.
func TestParallelMatchesSequentialUnderAuthorSkew(t *testing.T) {
	for _, shards := range []uint32{1, 4, 16} {
		for _, hotTenths := range []int{0, 9} {
			label := fmt.Sprintf("shards=%d/hot=%d0%%", shards, hotTenths)
			t.Run(label, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards)*100 + int64(hotTenths)))
				par, err := New(Config{Key: testKey, App: KVApp{}, Shards: shards, CheckpointEvery: 2})
				if err != nil {
					t.Fatal(err)
				}
				seq, err := New(Config{Key: testKey, App: KVApp{}, Shards: shards, CheckpointEvery: 2})
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
}

// receiptSnap deep-copies everything a client retains from a receipt.
type receiptSnap struct {
	header  hashsig.Digest
	payload []byte
	path    []hashsig.Digest
}

// TestBatchAndReceiptsSurvivePoolReuse is the aliasing property for the
// execution path: nothing ExecuteBatch returns may share backing memory
// with the ledger's pooled scratch or batch-to-batch arenas. Poison mode
// overwrites every buffer as it re-enters a pool, and the ledger's own
// scratch is reused by the subsequent batches, so any leaked alias turns
// into a visible corruption in the retained batch or receipts. Run under
// -race, concurrent reuse by the hashing workers is caught as well.
func TestBatchAndReceiptsSurvivePoolReuse(t *testing.T) {
	defer pool.SetPoison(pool.SetPoison(true))
	forceParallel(t)
	rng := rand.New(rand.NewSource(42))
	l, err := New(Config{Key: testKey, App: KVApp{}, Shards: 8, CheckpointEvery: 2})
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

	// Six more batches cycle every pooled buffer and the ledger's
	// batch-to-batch scratch several times over.
	for i := 0; i < 6; i++ {
		if _, _, err := l.ExecuteBatch(genBatch(rng, 104, 256)); err != nil {
			t.Fatal(err)
		}
	}

	if got := b1.Header.StatementDigest(); got != headerDigest {
		t.Fatal("batch header mutated after pool reuse")
	}
	for i := range b1.Entries {
		if !bytes.Equal(b1.Entries[i].Payload, payloads[i]) {
			t.Fatalf("entry %d payload mutated after pool reuse", i)
		}
		if b1.Entries[i].Digest() != digests[i] {
			t.Fatalf("entry %d digest changed after pool reuse", i)
		}
	}
	for i := range r1 {
		if r1[i].Header.StatementDigest() != snaps[i].header {
			t.Fatalf("receipt %d header mutated after pool reuse", i)
		}
		if !bytes.Equal(r1[i].Entry.Payload, snaps[i].payload) {
			t.Fatalf("receipt %d entry payload mutated after pool reuse", i)
		}
		if len(r1[i].Path) != len(snaps[i].path) {
			t.Fatalf("receipt %d path length changed after pool reuse", i)
		}
		for j := range r1[i].Path {
			if r1[i].Path[j] != snaps[i].path[j] {
				t.Fatalf("receipt %d path element %d mutated after pool reuse", i, j)
			}
		}
		if !r1[i].Verify(testKey.Public()) {
			t.Fatalf("receipt %d no longer verifies after pool reuse", i)
		}
	}
}
