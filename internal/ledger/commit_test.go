package ledger

import (
	"errors"
	"testing"
)

// certFor is a certificate for what l holds at seq. Commit binds and does
// not verify, so the header alone serves.
func certFor(l *Ledger, seq uint64) *CommitCert {
	return &CommitCert{Header: l.BatchAt(seq).Header}
}

// TestCommitAndCert: Commit binds a certificate to what the ledger holds at
// its seq and refuses any other, changing nothing; Cert returns what was
// bound for as long as the seq is retained.
func TestCommitAndCert(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, l *Ledger)
	}{
		{"other content at a retained seq is refused and changes nothing", func(t *testing.T, l *Ledger) {
			other := newTestLedger(t, 2)
			runBatches(t, other, 2)
			if _, _, err := other.ExecuteBatch([]Request{putReq("carol", 3, "c", "y")}); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(certFor(other, 3)); !errors.Is(err, ErrCommit) {
				t.Fatalf("Commit of another ledger's batch 3: %v, want ErrCommit", err)
			}
			if l.Cert(3) != nil {
				t.Fatal("a refused certificate was recorded")
			}
			if err := l.RollbackTo(2); err != nil {
				t.Fatalf("a refused certificate retired the marks below it: %v", err)
			}
		}},
		{"a seq neither retained nor where the ledger stands is refused", func(t *testing.T, l *Ledger) {
			beyond := certFor(l, 6)
			beyond.Header.Seq = 8
			if err := l.Commit(beyond); !errors.Is(err, ErrCommit) {
				t.Fatalf("Commit beyond the ledger: %v, want ErrCommit", err)
			}
			pruned := certFor(l, 3)
			l.Prune(5)
			if err := l.Commit(pruned); !errors.Is(err, ErrCommit) || l.Cert(3) != nil {
				t.Fatalf("Commit below the pruned boundary: %v, want ErrCommit", err)
			}
		}},
		{"a ledger restored from a checkpoint takes its anchor's certificate", func(t *testing.T, l *Ledger) {
			cand, err := NewFromCheckpoint(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 2}, l.CheckpointAt(4))
			if err != nil {
				t.Fatal(err)
			}
			forged := certFor(l, 4)
			forged.Header.MRoot[0] ^= 1
			if err := cand.Commit(forged); !errors.Is(err, ErrCommit) || cand.Cert(4) != nil {
				t.Fatalf("Commit of another history at the anchor: %v, want ErrCommit", err)
			}
			anchor := certFor(l, 4)
			if err := cand.Commit(anchor); err != nil {
				t.Fatalf("Commit at the anchor: %v", err)
			}
			if cand.Cert(4) != anchor {
				t.Fatal("the anchor's certificate is not kept")
			}
		}},
		{"marks below the committed seq are gone", func(t *testing.T, l *Ledger) {
			if err := l.Commit(certFor(l, 4)); err != nil {
				t.Fatal(err)
			}
			if err := l.RollbackTo(3); !errors.Is(err, ErrUnknownSeq) {
				t.Fatalf("rollback below the committed seq: %v, want ErrUnknownSeq", err)
			}
			if err := l.RollbackTo(5); err != nil {
				t.Fatalf("rollback above the committed seq: %v", err)
			}
		}},
		{"Cert survives Prune for retained seqs and is nil below", func(t *testing.T, l *Ledger) {
			for seq := uint64(3); seq <= 5; seq++ {
				if err := l.Commit(certFor(l, seq)); err != nil {
					t.Fatal(err)
				}
			}
			l.Prune(4)
			if l.Cert(3) != nil {
				t.Fatal("a pruned seq keeps its certificate")
			}
			for seq := uint64(4); seq <= 5; seq++ {
				if c := l.Cert(seq); c == nil || c.Seq() != seq {
					t.Fatalf("retained seq %d lost its certificate to Prune", seq)
				}
			}
		}},
		{"a rolled-back suffix holds no certificate", func(t *testing.T, l *Ledger) {
			for _, seq := range []uint64{4, 5} {
				if err := l.Commit(certFor(l, seq)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.RollbackTo(5); err != nil {
				t.Fatal(err)
			}
			runBatches(t, l, 6)
			for seq := uint64(5); seq <= 6; seq++ {
				if l.Cert(seq) != nil {
					t.Fatalf("seq %d keeps a certificate across its rollback", seq)
				}
			}
			if l.Cert(4) == nil {
				t.Fatal("the rollback dropped the certificate below it")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newTestLedger(t, 2)
			runBatches(t, l, 6)
			tc.run(t, l)
		})
	}
}
