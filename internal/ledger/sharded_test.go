package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/wire"
)

func newShardedLedger(t testing.TB, ckptEvery uint64, shards uint32) *Ledger {
	t.Helper()
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: ckptEvery, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestShardedReceiptsVerify(t *testing.T) {
	for _, shards := range []uint32{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			l := newShardedLedger(t, 2, shards)
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
				if batch.Header.Shards != shards {
					t.Fatalf("header shard count %d, want %d", batch.Header.Shards, shards)
				}
				if len(receipts) != 3 {
					t.Fatalf("%d receipts for 3 transactions", len(receipts))
				}
				for i, r := range receipts {
					if !r.Verify(pub) {
						t.Fatalf("seq %d receipt %d does not verify", seq, i)
					}
					if r.Shard >= shards {
						t.Fatalf("receipt shard %d out of range %d", r.Shard, shards)
					}
					if want := entryShard(&r.Entry, shards); r.Shard != want {
						t.Fatalf("receipt shard %d, deterministic placement says %d", r.Shard, want)
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
}

func TestShardedReceiptRejectsCrossShardReinterpretation(t *testing.T) {
	l := newShardedLedger(t, 0, 8)
	pub := testKey.Public()
	_, receipts, err := l.ExecuteBatch([]Request{
		putReq("alice", 1, "k1", "v1"),
		putReq("bob", 1, "k2", "v2"),
		putReq("carol", 1, "k3", "v3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := receipts[0]
	tampered := r
	tampered.Shard = (r.Shard + 1) % 8
	if tampered.Verify(pub) {
		t.Fatal("receipt relocated to another shard verifies")
	}
	tampered = r
	tampered.Entry.Payload = EncodeOps([]Op{{Key: "k1", Val: []byte("evil")}})
	if tampered.Verify(pub) {
		t.Fatal("tampered payload verifies under sharding")
	}
	tampered = r
	tampered.Header.GRoot = hashsig.Sum([]byte("forged"))
	if tampered.Verify(pub) {
		t.Fatal("forged combined root verifies")
	}
	if !r.Verify(pub) {
		t.Fatal("untampered sharded receipt stopped verifying")
	}
}

// The sharded end-to-end guarantee: under every shard count, replay
// reproduces the primary's roots, and tampering with any entry, result, or
// header — including the shard count itself — is rejected.
func TestShardedReplayRejectsTampering(t *testing.T) {
	for _, shards := range []uint32{4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			l := newShardedLedger(t, 2, shards)
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
			if res.Shards != shards {
				t.Fatalf("replay saw %d shards, want %d", res.Shards, shards)
			}
			if res.HistRoot != l.HistRoot() || res.StateDigest != l.StateDigest() {
				t.Fatal("sharded replay diverged from primary")
			}

			// Tampered payload.
			tampered := deepCopyBatches(l.Batches())
			tampered[1].Entries[0].Payload = append(tampered[1].Entries[0].Payload, 0xEE)
			if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
				t.Fatal("tampered payload replayed cleanly under sharding")
			}

			// Forged result.
			tampered = deepCopyBatches(l.Batches())
			tampered[2].Entries[0].Result = hashsig.Sum([]byte("forged"))
			if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
				t.Fatal("forged result replayed cleanly under sharding")
			}

			// A replica lying about its shard count, with re-signed headers:
			// the combined ¯G and the checkpoint digests were both built
			// under the true partition, so replay under the claimed one
			// diverges.
			tampered = deepCopyBatches(l.Batches())
			for _, b := range tampered {
				b.Header.Shards = shards + 1
				b.Header.Sig = testKey.MustSign(b.Header.StatementDigest())
			}
			if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
				t.Fatal("re-signed shard-count lie replayed cleanly")
			}

			// Inconsistent shard counts mid-stream.
			tampered = deepCopyBatches(l.Batches())
			tampered[3].Header.Shards = shards + 1
			tampered[3].Header.Sig = testKey.MustSign(tampered[3].Header.StatementDigest())
			if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
				t.Fatal("mixed shard counts replayed cleanly")
			}

			// Control.
			if _, err := Replay(l.Batches(), pub, KVApp{}, nil); err != nil {
				t.Fatalf("control replay failed: %v", err)
			}
		})
	}
}

func TestShardedBatchStreamRoundTrip(t *testing.T) {
	l := newShardedLedger(t, 2, 8)
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
	if len(decoded) != 4 || decoded[0].Header.Shards != 8 {
		t.Fatalf("decoded %d batches, shards %d", len(decoded), decoded[0].Header.Shards)
	}
	if _, err := Replay(decoded, testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBatchesRejectsMixedShardCounts(t *testing.T) {
	a := newShardedLedger(t, 0, 2)
	b := newShardedLedger(t, 0, 4)
	if _, _, err := a.ExecuteBatch([]Request{putReq("c", 1, "k", "v")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.ExecuteBatch([]Request{putReq("c", 1, "k", "v")}); err != nil {
		t.Fatal(err)
	}
	mixed := append(a.Batches(), b.Batches()...)
	if err := WriteBatches(&bytes.Buffer{}, mixed); err == nil {
		t.Fatal("mixed-shard stream serialized")
	}
}

func TestReadBatchesRejectsShardMismatchAndLegacy(t *testing.T) {
	l := newShardedLedger(t, 0, 4)
	if _, _, err := l.ExecuteBatch([]Request{putReq("c", 1, "k", "v")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBatches(&buf, l.Batches()); err != nil {
		t.Fatal(err)
	}
	// The stream header's shard count lives in bytes [8,12) (magic,
	// version, shards); flipping it must be caught against the batch
	// headers even though both fields decode cleanly.
	forged := append([]byte(nil), buf.Bytes()...)
	forged[11] = 7
	if _, err := ReadBatches(bytes.NewReader(forged)); err == nil {
		t.Fatal("stream/batch shard-count mismatch accepted")
	}
	// An unknown stream version is rejected up front with a clear error.
	var unknown bytes.Buffer
	w := wire.NewWriter(&unknown)
	w.Uint32(wire.StreamMagic)
	w.Uint32(wire.StreamVCurrent + 1)
	w.Uint32(4) // shard count
	w.Uint32(0) // batch count
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBatches(&unknown); err == nil {
		t.Fatal("unknown stream version accepted")
	}
	// So is the previous one: a version-2 header has no envelope and its
	// signature covers other bytes, so it must not be half-decoded.
	var v2 bytes.Buffer
	w = wire.NewWriter(&v2)
	w.Uint32(wire.StreamMagic)
	w.Uint32(2)
	w.Uint32(4)
	w.Uint32(0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBatches(&v2); err == nil || !strings.Contains(err.Error(), "unsupported stream version 2") {
		t.Fatalf("version-2 stream: err = %v, want unsupported stream version", err)
	}
	// Garbage magic.
	if _, err := ReadBatches(bytes.NewReader([]byte("not a ledger stream"))); err == nil {
		t.Fatal("foreign bytes accepted")
	}
}

// Satellite: Batches used to return the internal slice; callers could
// mutate retained history the ledger (and later audits) depend on.
func TestBatchesReturnsDefensiveCopy(t *testing.T) {
	l := newTestLedger(t, 0)
	for seq := uint64(1); seq <= 3; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{putReq("c", seq, "k", "v")}); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Batches()
	got[0] = nil
	got[1] = nil
	clean := l.Batches()
	if clean[0] == nil || clean[1] == nil {
		t.Fatal("mutating the returned slice clobbered retained history")
	}
	if _, err := Replay(clean, testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatalf("history corrupted through Batches: %v", err)
	}
}

// Satellite: configuration is validated once in New.
func TestConfigValidatedInNew(t *testing.T) {
	// Shard count beyond the store limit is a construction error, not a
	// panic at first execution.
	if _, err := New(Config{Key: testKey, App: KVApp{}, Shards: kv.MaxShards + 1}); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	// CheckpointEvery 0 still means "every batch" after normalization.
	l := newShardedLedger(t, 0, 2)
	batch, _, err := l.ExecuteBatch([]Request{putReq("c", 1, "k", "v")})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range batch.Entries {
		if e.Kind == KindCheckpoint {
			found = true
		}
	}
	if !found {
		t.Fatal("CheckpointEvery=0 did not checkpoint the first batch")
	}
}

// Satellite: rollback across checkpoint boundaries interacting with
// PruneMarks, at the ledger layer, under sharding.
func TestShardedRollbackAcrossCheckpointsWithPrune(t *testing.T) {
	l := newShardedLedger(t, 2, 4)
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
	l.PruneMarks(3)
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

// The randomized end-to-end scenario under sharding mirrors
// TestEndToEndProperty with shard counts > 1.
func TestShardedEndToEndProperty(t *testing.T) {
	for _, shards := range []uint32{4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			l := newShardedLedger(t, uint64(1+rng.Intn(3)), shards)
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
						t.Fatalf("seq %d receipt %d does not verify", seq, i)
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
				t.Fatal("sharded replay diverged after rollback")
			}
			// Tamper one random entry; replay must reject.
			victim := deepCopyBatches(l.Batches())
			bi := rng.Intn(len(victim))
			for len(victim[bi].Entries) == 0 {
				bi = rng.Intn(len(victim))
			}
			ei := rng.Intn(len(victim[bi].Entries))
			victim[bi].Entries[ei].Payload = append(victim[bi].Entries[ei].Payload, 0xEE)
			if _, err := Replay(victim, pub, KVApp{}, nil); err == nil {
				t.Fatal("tampered sharded stream replayed cleanly")
			}
		})
	}
}

// panicApp executes normally until armed, then panics mid-batch — modeling
// a buggy application — so the pipeline's panic path can be exercised.
type panicApp struct {
	arm bool
}

func (p *panicApp) Execute(tx *kv.Tx, request []byte) error {
	if p.arm {
		panic("app bug")
	}
	return KVApp{}.Execute(tx, request)
}

// A panicking App must not leak the hashing goroutine, and the mark pushed
// at batch start must let the caller roll the half-executed batch back and
// continue.
func TestExecuteBatchPanicIsRecoverable(t *testing.T) {
	app := &panicApp{}
	l, err := New(Config{Key: testKey, App: app, CheckpointEvery: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ExecuteBatch([]Request{putReq("c", 1, "k1", "v")}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	app.arm = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking app did not propagate")
			}
		}()
		l.ExecuteBatch([]Request{putReq("c", 2, "k2", "v")})
	}()
	app.arm = false
	// The hashing goroutine drains and exits via the deferred close.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("hashing goroutine leaked: %d goroutines, baseline %d", got, before)
	}
	// Recover by undoing the poisoned batch, then continue normally.
	if err := l.RollbackTo(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ExecuteBatch([]Request{putReq("c", 2, "k2", "v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatalf("post-recovery history does not replay: %v", err)
	}
}
