package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"iaccf/internal/hashsig"
)

// The tests named Sharded run a ledger built with bench/'s Shards: 1, so
// the configuration it uses is held to the same properties as the default.
// The ledger keeps one store and one batch tree, the one shard that
// setting still counts.

func newShardedLedger(t testing.TB, ckptEvery uint64) *Ledger {
	t.Helper()
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: ckptEvery, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestShardedReceiptsVerify(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		l := newShardedLedger(t, 2)
		pub := testKey.Public()
		for seq := uint64(1); seq <= 5; seq++ {
			reqs := []Request{
				putReq("alice", seq, fmt.Sprintf("a%d", seq), "1"),
				putReq("bob", seq, fmt.Sprintf("b%d", seq), "2"),
				putReq("carol", seq, "shared", fmt.Sprintf("s%d", seq)),
				{Governance: true, Author: hashsig.Sum([]byte("m")), Body: []byte("act")},
			}
			batch, receipts, err := l.ExecuteBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(receipts) != 3 {
				t.Fatalf("%d receipts for 3 transactions", len(receipts))
			}
			for i, r := range receipts {
				if !r.Verify(pub) {
					t.Fatalf("seq %d receipt %d does not verify", seq, i)
				}
				if r.Index >= batch.Header.GSize {
					t.Fatalf("receipt index %d out of range %d", r.Index, batch.Header.GSize)
				}
			}
		}
		if v, ok := l.Get("shared"); !ok || string(v) != "s5" {
			t.Fatalf("executed state wrong: %q %v", v, ok)
		}
		if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedReplayRejectsTampering: replay reproduces the primary's
// roots, and tampering with an entry or a result is rejected.
func TestShardedReplayRejectsTampering(t *testing.T) {
	l := newShardedLedger(t, 2)
	for seq := uint64(1); seq <= 4; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{
			putReq("alice", seq, fmt.Sprintf("a%d", seq), "x"),
			putReq("bob", seq, fmt.Sprintf("b%d", seq), "y"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	pub := testKey.Public()
	res, err := Replay(l.Batches(), pub, KVApp{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HistRoot != l.HistRoot() || res.StateDigest != l.StateDigest() {
		t.Fatal("replay diverged from primary")
	}
	tampered := deepCopyBatches(l.Batches())
	tampered[1].Entries[0].Payload = append(tampered[1].Entries[0].Payload, 0xEE)
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("tampered payload replayed cleanly")
	}
	tampered = deepCopyBatches(l.Batches())
	tampered[2].Entries[0].Result = hashsig.Sum([]byte("forged"))
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("forged result replayed cleanly")
	}
	if _, err := Replay(l.Batches(), pub, KVApp{}, nil); err != nil {
		t.Fatalf("control replay failed: %v", err)
	}
}

func TestShardedBatchStreamRoundTrip(t *testing.T) {
	l := newShardedLedger(t, 2)
	for seq := uint64(1); seq <= 4; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{
			putReq("alice", seq, fmt.Sprintf("k%d", seq), "v"),
			{Governance: true, Author: hashsig.Sum([]byte("m")), Body: []byte("act")},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteBatches(&buf, l.Batches()); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBatches(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 4 {
		t.Fatalf("decoded %d batches", len(decoded))
	}
	if _, err := Replay(decoded, testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatal(err)
	}
}

// Satellite: rollback across checkpoint boundaries interacting with the
// marks a commit retires, at the ledger layer.
func TestShardedRollbackAcrossCheckpointsWithPrune(t *testing.T) {
	l := newShardedLedger(t, 2)
	stateAt := map[uint64]hashsig.Digest{}
	ckptAt := map[uint64]hashsig.Digest{}
	for seq := uint64(1); seq <= 6; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{putReq("c", seq, fmt.Sprintf("k%d", seq), "v")}); err != nil {
			t.Fatal(err)
		}
		stateAt[seq+1] = l.StateDigest() // state entering batch seq+1
		b := l.Batches()[len(l.Batches())-1]
		ckptAt[seq] = b.Header.CkptDigest
	}
	if err := l.Commit(&CommitCert{Header: l.BatchAt(3).Header}); err != nil {
		t.Fatal(err)
	}
	if err := l.RollbackTo(2); err == nil {
		t.Fatal("pruned mark usable")
	}
	// Roll back across the seq-4 checkpoint boundary to just before batch 5.
	if err := l.RollbackTo(5); err != nil {
		t.Fatal(err)
	}
	if got := l.StateDigest(); got != stateAt[5] {
		t.Fatal("rollback across checkpoint boundary lost state")
	}
	// Diverge: the re-executed batch 5 references the seq-4 checkpoint.
	batch, _, err := l.ExecuteBatch([]Request{putReq("c", 5, "divergent", "yes")})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Header.CkptDigest != ckptAt[5] {
		t.Fatal("re-executed batch references the wrong checkpoint")
	}
	if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatalf("post-prune post-rollback history does not replay: %v", err)
	}
	// A second rollback to a still-marked boundary works after pruning.
	if err := l.RollbackTo(4); err != nil {
		t.Fatal(err)
	}
	if got := l.StateDigest(); got != stateAt[4] {
		t.Fatal("second rollback lost state")
	}
}

// TestShardedEndToEndProperty mirrors TestEndToEndProperty on two more
// random histories: receipts verify, a rollback and re-execution replays
// through the stream codec to the live roots, and a tampered entry is
// rejected.
func TestShardedEndToEndProperty(t *testing.T) {
	for _, seed := range []int64{4, 16} {
		rng := rand.New(rand.NewSource(seed))
		l := newShardedLedger(t, uint64(1+rng.Intn(3)))
		pub := testKey.Public()
		randomBatch := func(seq uint64) []Request {
			reqs := make([]Request, 1+rng.Intn(5))
			for i := range reqs {
				if rng.Intn(8) == 0 {
					reqs[i] = Request{Governance: true, Author: hashsig.Sum([]byte{byte(rng.Intn(3))}), Body: []byte{byte(rng.Int())}}
					continue
				}
				ops := make([]Op, 1+rng.Intn(3))
				for j := range ops {
					k := fmt.Sprintf("k%d", rng.Intn(30))
					if rng.Intn(5) == 0 {
						ops[j] = Op{Key: k, Delete: true}
					} else {
						ops[j] = Op{Key: k, Val: []byte{byte(rng.Int())}}
					}
				}
				reqs[i] = Request{Author: hashsig.Sum([]byte{byte(rng.Intn(6))}), ReqNo: seq, Body: EncodeOps(ops)}
			}
			return reqs
		}
		const n = 8
		for seq := uint64(1); seq <= n; seq++ {
			_, receipts, err := l.ExecuteBatch(randomBatch(seq))
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range receipts {
				if !r.Verify(pub) {
					t.Fatalf("seed %d seq %d receipt %d does not verify", seed, seq, i)
				}
			}
		}
		back := uint64(2 + rng.Intn(n-2))
		if err := l.RollbackTo(back); err != nil {
			t.Fatal(err)
		}
		for seq := back; seq <= n; seq++ {
			if _, _, err := l.ExecuteBatch(randomBatch(seq)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := WriteBatches(&buf, l.Batches()); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadBatches(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(decoded, pub, KVApp{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.HistRoot != l.HistRoot() || res.StateDigest != l.StateDigest() {
			t.Fatalf("seed %d: replay diverged after rollback", seed)
		}
		victim := deepCopyBatches(l.Batches())
		bi := rng.Intn(len(victim))
		for len(victim[bi].Entries) == 0 {
			bi = rng.Intn(len(victim))
		}
		ei := rng.Intn(len(victim[bi].Entries))
		victim[bi].Entries[ei].Payload = append(victim[bi].Entries[ei].Payload, 0xEE)
		if _, err := Replay(victim, pub, KVApp{}, nil); err == nil {
			t.Fatalf("seed %d: tampered stream replayed cleanly", seed)
		}
	}
}
