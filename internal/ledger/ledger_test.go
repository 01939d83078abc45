package ledger

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/merkle"
	"iaccf/internal/wire"
)

var testKey = hashsig.GenerateKeyFromSeed("ledger-test-replica")

func newTestLedger(t testing.TB, ckptEvery uint64) *Ledger {
	t.Helper()
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func putReq(author string, reqNo uint64, kvs ...string) Request {
	if len(kvs)%2 != 0 {
		panic("putReq needs key/value pairs")
	}
	ops := make([]Op, 0, len(kvs)/2)
	for i := 0; i < len(kvs); i += 2 {
		ops = append(ops, Op{Key: kvs[i], Val: []byte(kvs[i+1])})
	}
	return Request{
		Author: hashsig.Sum([]byte("client:" + author)),
		ReqNo:  reqNo,
		Body:   EncodeOps(ops),
	}
}

// decodeFramed runs decodeEntry over b in a bytes-mode or a stream-mode
// reader and returns the entry and the reader.
func decodeFramed(b []byte, stream bool) (Entry, *wire.Reader) {
	r := wire.NewBytesReader(b)
	if stream {
		r = wire.NewReader(bytes.NewReader(b))
	}
	return decodeEntry(r), r
}

// framed is e's encoding under a length prefix of n.
func framed(n uint32, enc []byte) []byte {
	return append(wire.AppendUint32(nil, n), enc...)
}

func TestEntryCodecRoundTrip(t *testing.T) {
	entries := []Entry{
		{Kind: KindTransaction, Author: hashsig.Sum([]byte("c")), ReqNo: 7, Payload: []byte("tx"), Result: hashsig.Sum([]byte("o"))},
		{Kind: KindTransaction, Author: hashsig.Sum([]byte("c")), ReqNo: 8, Payload: nil, Result: hashsig.ZeroDigest},
		{Kind: KindGovernance, Author: hashsig.Sum([]byte("m")), Payload: []byte("add-member")},
		{Kind: KindCheckpoint, Seq: 42, State: hashsig.Sum([]byte("d_C"))},
	}
	for _, stream := range []bool{false, true} {
		for i, e := range entries {
			enc := e.Encode(nil)
			if e.encodedLen() != len(enc) {
				t.Fatalf("entry %d: encodedLen %d, encoding %d bytes", i, e.encodedLen(), len(enc))
			}
			got, r := decodeFramed(wire.AppendBytes(nil, enc), stream)
			if r.ExpectEOF(); r.Err() != nil {
				t.Fatalf("stream=%v entry %d: %v", stream, i, r.Err())
			}
			if got.Digest() != e.Digest() {
				t.Fatalf("stream=%v entry %d: digest changed across codec round trip", stream, i)
			}
			if !bytes.Equal(got.Encode(nil), enc) {
				t.Fatalf("stream=%v entry %d: re-encoding differs", stream, i)
			}
		}
	}
}

// TestEntryCodecRejects: decodeEntry fails unless the fields fill exactly
// their length prefix, and the prefix is at most wire.MaxValueLen, in both
// reader modes. Each input is otherwise well formed, so only the rule under
// test can refuse it.
func TestEntryCodecRejects(t *testing.T) {
	ckpt := (&Entry{Kind: KindCheckpoint, Seq: 1, State: hashsig.Sum([]byte("x"))}).Encode(nil)
	tx := (&Entry{Kind: KindTransaction, Payload: []byte("payload")}).Encode(nil)
	n := uint32(len(tx))
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"empty", framed(0, ckpt)},
		{"unknown kind", framed(1, []byte{99})},
		{"fields under-fill the prefix", append(framed(n+1, tx), 0x00)},
		{"fields over-fill the prefix", framed(n-1, tx)},
		{"payload longer than the prefix", framed(5, tx)},
		{"prefix over MaxValueLen", framed(wire.MaxValueLen+1, ckpt)},
		{"truncated", framed(n, tx[:10])},
	} {
		for _, stream := range []bool{false, true} {
			if e, r := decodeFramed(c.in, stream); r.Err() == nil || e.Kind != 0 {
				t.Errorf("%s (stream=%v): decoded %+v", c.name, stream, e)
			}
		}
	}
}

func TestExecuteBatchReceiptsVerify(t *testing.T) {
	l := newTestLedger(t, 0)
	pub := testKey.Public()
	for seq := 1; seq <= 5; seq++ {
		reqs := []Request{
			putReq("alice", uint64(seq), fmt.Sprintf("a%d", seq), "1"),
			putReq("bob", uint64(seq), fmt.Sprintf("b%d", seq), "2", "shared", fmt.Sprintf("s%d", seq)),
		}
		batch, receipts, err := l.ExecuteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Header.Seq != uint64(seq) {
			t.Fatalf("batch seq %d, want %d", batch.Header.Seq, seq)
		}
		if len(receipts) != len(reqs) {
			t.Fatalf("%d receipts for %d transactions", len(receipts), len(reqs))
		}
		for i, r := range receipts {
			if !r.Verify(pub) {
				t.Fatalf("seq %d receipt %d does not verify", seq, i)
			}
		}
	}
	if v, ok := l.Get("shared"); !ok || string(v) != "s5" {
		t.Fatalf("executed state wrong: %q %v", v, ok)
	}
}

func TestReceiptRejectsTampering(t *testing.T) {
	l := newTestLedger(t, 0)
	pub := testKey.Public()
	_, receipts, err := l.ExecuteBatch([]Request{
		putReq("alice", 1, "k", "v"),
		putReq("bob", 1, "k2", "v2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := receipts[0]

	tampered := r
	tampered.Entry.Payload = EncodeOps([]Op{{Key: "k", Val: []byte("evil")}})
	if tampered.Verify(pub) {
		t.Fatal("receipt with tampered payload verifies")
	}

	tampered = r
	tampered.Index = 1
	if tampered.Verify(pub) {
		t.Fatal("receipt with wrong index verifies")
	}

	tampered = r
	tampered.Header.GRoot = hashsig.Sum([]byte("forged"))
	if tampered.Verify(pub) {
		t.Fatal("receipt with forged root verifies")
	}

	otherPub := hashsig.GenerateKeyFromSeed("not-the-replica").Public()
	if r.Verify(otherPub) {
		t.Fatal("receipt verifies under the wrong key")
	}
	if !r.Verify(pub) {
		t.Fatal("untampered receipt stopped verifying")
	}
}

// Regression: receipts used to alias the payload slice retained in the
// batch stream, so a client mutating its receipt corrupted the ledger.
func TestReceiptMutationDoesNotCorruptLedger(t *testing.T) {
	l := newTestLedger(t, 0)
	_, receipts, err := l.ExecuteBatch([]Request{putReq("alice", 1, "k", "v")})
	if err != nil {
		t.Fatal(err)
	}
	for i := range receipts[0].Entry.Payload {
		receipts[0].Entry.Payload[i] = 0xEE
	}
	if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatalf("mutating a receipt corrupted the retained stream: %v", err)
	}
}

func TestFailedTransactionRecorded(t *testing.T) {
	l := newTestLedger(t, 0)
	good := putReq("alice", 1, "k", "v")
	bad := Request{Author: hashsig.Sum([]byte("client:mallory")), ReqNo: 1, Body: []byte{0xff, 0xff}}
	batch, receipts, err := l.ExecuteBatch([]Request{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if len(receipts) != 2 {
		t.Fatalf("%d receipts, want 2 (failed tx still gets one)", len(receipts))
	}
	if batch.Entries[1].Result != hashsig.ZeroDigest {
		t.Fatal("failed transaction has nonzero result")
	}
	if !receipts[1].Verify(testKey.Public()) {
		t.Fatal("failed-transaction receipt does not verify")
	}
	if _, ok := l.Get("k"); !ok {
		t.Fatal("good transaction in same batch lost")
	}
}

func TestGovernanceEntryOnLedger(t *testing.T) {
	l := newTestLedger(t, 0)
	gov := Request{
		Governance: true,
		Author:     hashsig.Sum([]byte("member:1")),
		Body:       []byte("propose: add member 4"),
	}
	batch, receipts, err := l.ExecuteBatch([]Request{gov, putReq("alice", 1, "k", "v")})
	if err != nil {
		t.Fatal(err)
	}
	if len(receipts) != 1 {
		t.Fatal("governance entries must not produce client receipts")
	}
	if batch.Entries[0].Kind != KindGovernance {
		t.Fatal("governance entry missing from batch")
	}
	// Governance actions are part of the replayed, signed history.
	if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointInterval(t *testing.T) {
	l := newTestLedger(t, 3)
	for seq := 1; seq <= 7; seq++ {
		batch, _, err := l.ExecuteBatch([]Request{putReq("c", uint64(seq), fmt.Sprintf("k%d", seq), "v")})
		if err != nil {
			t.Fatal(err)
		}
		hasCkpt := false
		for _, e := range batch.Entries {
			if e.Kind == KindCheckpoint {
				hasCkpt = true
				if e.Seq != uint64(seq) {
					t.Fatalf("checkpoint labelled %d in batch %d", e.Seq, seq)
				}
			}
		}
		if want := seq%3 == 0; hasCkpt != want {
			t.Fatalf("batch %d: checkpoint present=%v, want %v", seq, hasCkpt, want)
		}
		if seq < 3 && !batch.Header.CkptDigest.IsZero() {
			t.Fatalf("batch %d references a checkpoint before any was taken", seq)
		}
		if seq >= 3 && batch.Header.CkptDigest.IsZero() {
			t.Fatalf("batch %d missing checkpoint reference", seq)
		}
	}
	if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackRestoresAllLayers(t *testing.T) {
	l := newTestLedger(t, 0)
	type snap struct {
		root  hashsig.Digest
		size  uint64
		state hashsig.Digest
		ckpt  hashsig.Digest
	}
	snaps := map[uint64]snap{}
	snaps[1] = snap{root: l.HistRoot(), size: l.HistSize(), state: l.StateDigest()}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{putReq("c", seq, fmt.Sprintf("k%d", seq), "v")}); err != nil {
			t.Fatal(err)
		}
		b := l.Batches()[len(l.Batches())-1]
		snaps[seq+1] = snap{root: l.HistRoot(), size: l.HistSize(), state: l.StateDigest(), ckpt: b.Header.CkptDigest}
	}

	if err := l.RollbackTo(4); err != nil {
		t.Fatal(err)
	}
	want := snaps[4]
	if l.HistRoot() != want.root || l.HistSize() != want.size || l.StateDigest() != want.state {
		t.Fatal("rollback to 4 did not restore M and store in lockstep")
	}
	if len(l.Batches()) != 3 || l.Seq() != 4 {
		t.Fatalf("rollback left %d batches, next seq %d", len(l.Batches()), l.Seq())
	}

	// Divergent re-execution from the rollback point.
	if _, _, err := l.ExecuteBatch([]Request{putReq("c", 4, "divergent", "yes")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get("k4"); ok {
		t.Fatal("rolled-back write still visible")
	}
	if v, ok := l.Get("divergent"); !ok || string(v) != "yes" {
		t.Fatal("divergent write missing")
	}
	if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatalf("post-rollback history does not replay: %v", err)
	}

	if err := l.RollbackTo(99); err == nil {
		t.Fatal("rollback to unknown seq succeeded")
	}
	if err := l.Commit(&CommitCert{Header: l.BatchAt(3).Header}); err != nil {
		t.Fatal(err)
	}
	if err := l.RollbackTo(1); err == nil {
		t.Fatal("rollback to pruned mark succeeded")
	}
}

func TestBatchStreamRoundTrip(t *testing.T) {
	l := newTestLedger(t, 2)
	for seq := uint64(1); seq <= 4; seq++ {
		reqs := []Request{putReq("c", seq, fmt.Sprintf("k%d", seq), "v")}
		if seq == 2 {
			reqs = append(reqs, Request{Governance: true, Author: hashsig.Sum([]byte("m")), Body: []byte("act")})
		}
		if _, _, err := l.ExecuteBatch(reqs); err != nil {
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
	if len(decoded) != len(l.Batches()) {
		t.Fatalf("decoded %d batches, want %d", len(decoded), len(l.Batches()))
	}
	for i, b := range decoded {
		orig := l.Batches()[i]
		if b.Header.StatementDigest() != orig.Header.StatementDigest() {
			t.Fatalf("batch %d header changed across codec", i)
		}
		if len(b.Entries) != len(orig.Entries) {
			t.Fatalf("batch %d entry count changed", i)
		}
		for j := range b.Entries {
			if b.Entries[j].Digest() != orig.Entries[j].Digest() {
				t.Fatalf("batch %d entry %d changed across codec", i, j)
			}
		}
	}
	// A replay of the decoded stream must also pass.
	if _, err := Replay(decoded, testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadBatches(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Fatal("truncated stream decoded")
	}
	if _, err := ReadBatches(bytes.NewReader(append(buf.Bytes(), 0x01))); err == nil {
		t.Fatal("stream with trailing data decoded")
	}
}

func TestReplayReproducesRoots(t *testing.T) {
	l := newTestLedger(t, 2)
	pool := hashsig.NewVerifierPool(4)
	defer pool.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{
			putReq("alice", seq, fmt.Sprintf("a%d", seq), "x"),
			putReq("bob", seq, "shared", fmt.Sprintf("%d", seq)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Replay(l.Batches(), testKey.Public(), KVApp{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.HistRoot != l.HistRoot() || res.HistSize != l.HistSize() {
		t.Fatal("replayed history root diverges from the primary")
	}
	if res.StateDigest != l.StateDigest() {
		t.Fatal("replayed state digest diverges from the primary")
	}
	if res.Batches != 6 {
		t.Fatalf("replayed %d batches", res.Batches)
	}
}

// deepCopyBatches clones the stream so tamper tests cannot disturb the
// ledger's own copy.
func deepCopyBatches(src []*Batch) []*Batch {
	out := make([]*Batch, len(src))
	for i, b := range src {
		nb := &Batch{Header: b.Header}
		nb.Header.Sig = b.Header.Sig.Clone()
		nb.Entries = make([]Entry, len(b.Entries))
		for j, e := range b.Entries {
			ne := e
			ne.Payload = append([]byte(nil), e.Payload...)
			nb.Entries[j] = ne
		}
		out[i] = nb
	}
	return out
}

func TestReplayRejectsTampering(t *testing.T) {
	l := newTestLedger(t, 0)
	for seq := uint64(1); seq <= 3; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{putReq("c", seq, fmt.Sprintf("k%d", seq), "v")}); err != nil {
			t.Fatal(err)
		}
	}
	pub := testKey.Public()

	// Tampered transaction payload: entry digest changes, ¯G no longer matches.
	tampered := deepCopyBatches(l.Batches())
	tampered[1].Entries[0].Payload = EncodeOps([]Op{{Key: "k2", Val: []byte("evil")}})
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("tampered payload replayed cleanly")
	}

	// Forged result: execution digest diverges.
	tampered = deepCopyBatches(l.Batches())
	tampered[2].Entries[0].Result = hashsig.Sum([]byte("forged"))
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("forged result replayed cleanly")
	}

	// Forged header signature.
	tampered = deepCopyBatches(l.Batches())
	tampered[0].Header.Sig[8] ^= 0x40
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("forged signature replayed cleanly")
	}

	// Re-signed header over a forged root: signature valid, roots diverge.
	tampered = deepCopyBatches(l.Batches())
	tampered[2].Header.MRoot = hashsig.Sum([]byte("rewritten history"))
	tampered[2].Header.Sig = testKey.MustSign(tampered[2].Header.StatementDigest())
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("re-signed forged root replayed cleanly")
	}

	// Dropped batch: sequence gap.
	tampered = deepCopyBatches(l.Batches())
	tampered = append(tampered[:1], tampered[2:]...)
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("stream with dropped batch replayed cleanly")
	}

	// Untampered control.
	if _, err := Replay(l.Batches(), pub, KVApp{}, nil); err != nil {
		t.Fatalf("control replay failed: %v", err)
	}
}

// TestEndToEndProperty is the acceptance-criteria scenario: N random
// batches, every receipt verifies; rollback mid-history and divergent
// re-execution keep M, d_C, and receipts consistent; replay of the final
// stream reproduces identical roots and rejects tampering.
func TestEndToEndProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l := newTestLedger(t, uint64(1+rng.Intn(3)))
			pub := testKey.Public()
			var allReceipts []Receipt

			randomBatch := func(seq uint64) []Request {
				reqs := make([]Request, 1+rng.Intn(4))
				for i := range reqs {
					if rng.Intn(8) == 0 {
						reqs[i] = Request{Governance: true, Author: hashsig.Sum([]byte("m")), Body: []byte{byte(rng.Int())}}
						continue
					}
					ops := make([]Op, 1+rng.Intn(3))
					for j := range ops {
						k := fmt.Sprintf("k%d", rng.Intn(20))
						if rng.Intn(5) == 0 {
							ops[j] = Op{Key: k, Delete: true}
						} else {
							ops[j] = Op{Key: k, Val: []byte{byte(rng.Int())}}
						}
					}
					reqs[i] = Request{Author: hashsig.Sum([]byte{byte(rng.Intn(4))}), ReqNo: seq, Body: EncodeOps(ops)}
				}
				return reqs
			}

			const n = 8
			for seq := uint64(1); seq <= n; seq++ {
				_, receipts, err := l.ExecuteBatch(randomBatch(seq))
				if err != nil {
					t.Fatal(err)
				}
				allReceipts = append(allReceipts, receipts...)
			}
			for i, r := range allReceipts {
				if !r.Verify(pub) {
					t.Fatalf("receipt %d does not verify", i)
				}
			}

			// Roll back to a random mid-history point and diverge.
			back := uint64(2 + rng.Intn(n-2))
			preRollbackRoot := l.HistRoot()
			if err := l.RollbackTo(back); err != nil {
				t.Fatal(err)
			}
			for seq := back; seq <= n; seq++ {
				_, receipts, err := l.ExecuteBatch(randomBatch(seq))
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range receipts {
					if !r.Verify(pub) {
						t.Fatalf("post-rollback receipt %d does not verify", i)
					}
				}
			}
			if l.HistRoot() == preRollbackRoot {
				t.Fatal("divergent history reproduced the rolled-back root")
			}

			// The emitted stream replays to identical roots.
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
				t.Fatal("replay diverged from the primary after rollback")
			}

			// Every header's d_C matches the replayed checkpoint chain, and
			// the batch roots chain into M: check one batch's receipt entry
			// against M via its G path plus header roots.
			if res.CkptDigest != l.Batches()[len(l.Batches())-1].Header.CkptDigest {
				t.Fatal("final checkpoint digest inconsistent")
			}

			// Tampering with any single entry is caught.
			victim := deepCopyBatches(l.Batches())
			bi := rng.Intn(len(victim))
			for len(victim[bi].Entries) == 0 {
				bi = rng.Intn(len(victim))
			}
			ei := rng.Intn(len(victim[bi].Entries))
			victim[bi].Entries[ei].Payload = append(victim[bi].Entries[ei].Payload, 0xEE)
			if _, err := Replay(victim, pub, KVApp{}, nil); err == nil {
				t.Fatal("tampered stream replayed cleanly")
			}
		})
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{App: KVApp{}}); err == nil {
		t.Fatal("ledger without key constructed")
	}
	if _, err := New(Config{Key: testKey}); err == nil {
		t.Fatal("ledger without app constructed")
	}
}

// TestKVAppRejectsMalformed: KVApp applies ops as it decodes them, so a
// body that fails after its first op has written that op into the
// transaction. The failure must still abort it: the entry records a zero
// result and the first op's key stays unwritten.
func TestKVAppRejectsMalformed(t *testing.T) {
	two := EncodeOps([]Op{{Key: "k", Val: []byte("v")}, {Key: "k2", Val: []byte("value")}})
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"trailing garbage", append(EncodeOps([]Op{{Key: "k", Val: []byte("v")}}), 0xFF)},
		{"second op truncated", two[:len(two)-2]},
		{"second op cut after its tag", two[:len(EncodeOps([]Op{{Key: "k", Val: []byte("v")}}))+1]},
	} {
		l := newTestLedger(t, 0)
		batch, _, err := l.ExecuteBatch([]Request{{Author: hashsig.Sum([]byte("c")), ReqNo: 1, Body: c.body}})
		if err != nil {
			t.Fatal(err)
		}
		if batch.Entries[0].Result != hashsig.ZeroDigest {
			t.Errorf("%s: malformed request recorded as succeeded", c.name)
		}
		if _, ok := l.Get("k"); ok {
			t.Errorf("%s: malformed request half-applied", c.name)
		}
	}
}

func TestReceiptChainsToHistory(t *testing.T) {
	// A receipt's entry is also an M leaf: check an entry digest appears in
	// M at the expected position using the history tree's own audit path.
	l := newTestLedger(t, 0)
	if _, _, err := l.ExecuteBatch([]Request{putReq("a", 1, "x", "1")}); err != nil {
		t.Fatal(err)
	}
	batch, receipts, err := l.ExecuteBatch([]Request{putReq("a", 2, "y", "2")})
	if err != nil {
		t.Fatal(err)
	}
	// Batch 2 begins after batch 1's entries (1 tx + 1 checkpoint = 2 leaves).
	first := batch.Header.HistSize - batch.Header.GSize
	// Rebuild the primary's M from the emitted stream and produce a path.
	hist := merkle.New()
	for _, b := range l.Batches() {
		for i := range b.Entries {
			hist.Append(b.Entries[i].Digest())
		}
	}
	paths, err := hist.PathsAt(first, hist.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !merkle.VerifyPath(receipts[0].Entry.Digest(), first, hist.Size(), paths[0], batch.Header.MRoot) {
		t.Fatal("receipt entry does not chain into the signed history root")
	}
}

// TestQuorum: any two quorums of n replicas share at least f+1, so an
// honest one, and the n−f honest replicas can always form one; at
// n = 3f+1 a quorum is PBFT's 2f+1.
func TestQuorum(t *testing.T) {
	for n, want := range map[int]int{4: 3, 5: 4, 6: 4, 7: 5, 10: 7} {
		if got := Quorum(n); got != want {
			t.Errorf("Quorum(%d) = %d, want %d", n, got, want)
		}
	}
	for n := 4; n <= 256; n++ {
		f, q := (n-1)/3, Quorum(n)
		if shared := 2*q - n; shared < f+1 {
			t.Errorf("n=%d: two quorums of %d share %d replicas, want ≥ f+1 = %d", n, q, shared, f+1)
		}
		if q > n-f {
			t.Errorf("n=%d: quorum %d exceeds n−f = %d", n, q, n-f)
		}
		if n == 3*f+1 && q != 2*f+1 {
			t.Errorf("n=%d: quorum %d, want 2f+1 = %d", n, q, 2*f+1)
		}
	}
}
