package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
)

// runBatches executes n simple two-request batches and returns the ledger's
// retained stream (full, since nothing is pruned during execution).
func runBatches(t *testing.T, l *Ledger, n uint64) {
	t.Helper()
	for seq := l.Seq(); seq < n+1; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{
			putReq("alice", seq, fmt.Sprintf("a%d", seq), "x"),
			putReq("bob", seq, "shared", fmt.Sprintf("%d", seq)),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPruneBoundsRetention(t *testing.T) {
	l := newTestLedger(t, 2)
	runBatches(t, l, 6)
	if got := l.FirstRetainedSeq(); got != 1 {
		t.Fatalf("fresh ledger first retained %d, want 1", got)
	}
	before, root := l.RetainedBatches(), l.HistRoot()

	l.Prune(5)
	if got := l.FirstRetainedSeq(); got != 5 {
		t.Fatalf("first retained %d after Prune(5), want 5", got)
	}
	if got := l.RetainedBatches(); got != 2 {
		t.Fatalf("retained %d batches, want 2 (had %d)", got, before)
	}
	if l.BatchAt(4) != nil {
		t.Fatal("pruned batch 4 still served")
	}
	if l.BatchAt(5) == nil || l.BatchAt(6) == nil {
		t.Fatal("retained suffix lost")
	}
	// Checkpoint records below the boundary are gone; the one at the
	// boundary (seq 4 = baseSeq) survives to serve state transfer.
	if ck := l.CheckpointAt(6); ck == nil || ck.Seq != 6 {
		t.Fatal("latest checkpoint lost")
	}
	// Compacting history must not move the root, and execution continues.
	if l.HistRoot() != root {
		t.Fatal("prune changed the history root")
	}
	runBatches(t, l, 7)
	if l.BatchAt(7) == nil {
		t.Fatal("execution broken after prune")
	}
	// Pruning is idempotent and ignores boundaries at or below base.
	l.Prune(3)
	if got := l.FirstRetainedSeq(); got != 5 {
		t.Fatalf("backwards prune moved the boundary to %d", got)
	}
}

// TestReceiptsFromRetainedBatches: Receipts cuts a retained batch's
// receipts from its leaves in M — the bytes ExecuteBatch handed out, after
// Prune compacted M up to the boundary, and the same on a backup that
// applied the batches and signed nothing — and returns nil for a pruned or
// unknown seq.
func TestReceiptsFromRetainedBatches(t *testing.T) {
	cfg := Config{Key: testKey, App: KVApp{}, CheckpointEvery: 2}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := map[uint64][][]byte{}
	for seq := uint64(1); seq <= 6; seq++ {
		b, rcs, err := primary.ExecuteBatch([]Request{
			putReq("alice", seq, fmt.Sprintf("a%d", seq), "x"),
			{Governance: true, Author: hashsig.Sum([]byte("member")), Body: []byte("gov")},
			putReq("bob", seq, "shared", fmt.Sprintf("%d", seq)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := backup.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		for i := range rcs {
			cut[seq] = append(cut[seq], EncodeReceipt(nil, &rcs[i]))
		}
	}
	primary.Prune(5)
	for seq := uint64(0); seq <= 7; seq++ {
		if rcs := primary.Receipts(seq); seq < 5 || seq > 6 {
			if rcs != nil {
				t.Fatalf("%d receipts for seq %d, which is not retained", len(rcs), seq)
			}
			continue
		}
		for name, l := range map[string]*Ledger{"primary": primary, "backup": backup} {
			rcs := l.Receipts(seq)
			if len(rcs) != 2 {
				t.Fatalf("%s: %d receipts for seq %d, want 2", name, len(rcs), seq)
			}
			for i := range rcs {
				if !bytes.Equal(EncodeReceipt(nil, &rcs[i]), cut[seq][i]) || !rcs[i].Verify(testKey.Public()) {
					t.Fatalf("%s: receipt %d of seq %d is not the one ExecuteBatch cut", name, i, seq)
				}
			}
		}
	}
}

func TestPruneBadBoundaryPanics(t *testing.T) {
	l := newTestLedger(t, 2)
	runBatches(t, l, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("prune beyond next seq did not panic")
		}
	}()
	l.Prune(99)
}

func TestRollbackBelowPrunedBoundary(t *testing.T) {
	l := newTestLedger(t, 2)
	runBatches(t, l, 6)
	l.Prune(5)
	err := l.RollbackTo(3)
	if err == nil {
		t.Fatal("rollback below the pruned boundary succeeded")
	}
	if !errors.Is(err, ErrPruned) {
		t.Fatalf("rollback error %v, want ErrPruned", err)
	}
	// At the boundary itself the marks are gone too: baseSeq is 4, and
	// rolling back TO seq 4 would need batch 4's pre-state.
	if err := l.RollbackTo(4); !errors.Is(err, ErrPruned) {
		t.Fatalf("rollback to the boundary: %v, want ErrPruned", err)
	}
	// Above the boundary rollback still works.
	if err := l.RollbackTo(6); err != nil {
		t.Fatalf("rollback inside the retained suffix: %v", err)
	}
	if l.Seq() != 6 {
		t.Fatalf("next seq %d after rollback to 6", l.Seq())
	}
}

func TestNewFromCheckpointResumes(t *testing.T) {
	l := newTestLedger(t, 2)
	runBatches(t, l, 6)
	ck := l.CheckpointAt(4)
	if ck == nil || ck.Seq != 4 {
		t.Fatalf("no checkpoint at 4: %+v", ck)
	}
	cand, err := NewFromCheckpoint(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 2}, ck)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Seq() != 5 {
		t.Fatalf("resumed ledger proposes %d, want 5", cand.Seq())
	}
	if got := cand.RetainedBatches(); got != 0 {
		t.Fatalf("resumed ledger retains %d batches", got)
	}
	for seq := uint64(5); seq <= 6; seq++ {
		if _, err := cand.ApplyBatch(l.BatchAt(seq)); err != nil {
			t.Fatalf("apply suffix batch %d: %v", seq, err)
		}
	}
	if cand.HistRoot() != l.HistRoot() || cand.HistSize() != l.HistSize() {
		t.Fatal("resumed ledger's ¯M diverges from the original")
	}
	if cand.StateDigest() != l.StateDigest() {
		t.Fatal("resumed ledger's state diverges from the original")
	}
}

// TestReplayFromMatchesFullReplay is the audit-equivalence property
// (paper §3.4, §5): resuming verification from any retained checkpoint must
// accept exactly the streams a from-genesis replay accepts and reach the
// same summary.
func TestReplayFromMatchesFullReplay(t *testing.T) {
	pool := hashsig.NewVerifierPool(4)
	defer pool.Close()
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	runBatches(t, l, 8)
	full, err := Replay(l.Batches(), testKey.Public(), KVApp{}, pool)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	for _, ckSeq := range []uint64{3, 6} {
		ck := l.CheckpointAt(ckSeq)
		if ck == nil || ck.Seq != ckSeq {
			t.Fatalf("no checkpoint at %d", ckSeq)
		}
		var suffix []*Batch
		for seq := ckSeq + 1; seq <= 8; seq++ {
			suffix = append(suffix, l.BatchAt(seq))
		}
		got, err := ReplayFrom(ck, suffix, testKey.Public(), KVApp{}, pool)
		if err != nil {
			t.Fatalf("ckpt %d: ReplayFrom: %v", ckSeq, err)
		}
		if got.HistRoot != full.HistRoot || got.HistSize != full.HistSize {
			t.Fatalf("ckpt %d: resumed ¯M diverges from full replay", ckSeq)
		}
		if got.StateDigest != full.StateDigest {
			t.Fatalf("ckpt %d: resumed state diverges from full replay", ckSeq)
		}
		if got.CkptDigest != full.CkptDigest {
			t.Fatalf("ckpt %d: resumed summary diverges from full replay", ckSeq)
		}
		// A tampered suffix is rejected from a checkpoint exactly as it
		// is from genesis.
		bad := deepCopyBatches(suffix)
		bad[len(bad)-1].Entries[0].Payload[0] ^= 0xff
		if _, err := ReplayFrom(ck, bad, testKey.Public(), KVApp{}, pool); err == nil {
			t.Fatalf("ckpt %d: tampered suffix accepted", ckSeq)
		}
		// A suffix that does not start at ck.Seq+1 is rejected.
		if _, err := ReplayFrom(ck, suffix[1:], testKey.Public(), KVApp{}, pool); err == nil {
			t.Fatalf("ckpt %d: gapped suffix accepted", ckSeq)
		}
	}
}
