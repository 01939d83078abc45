package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"iaccf/internal/hashsig"
)

func applyPair(t *testing.T) (*Ledger, *Ledger) {
	t.Helper()
	mk := func(seed string) *Ledger {
		l, err := New(Config{
			Key:             hashsig.GenerateKeyFromSeed(seed),
			App:             KVApp{},
			CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	return mk("apply-primary"), mk("apply-backup")
}

func applyReqs(base uint64, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("author-%d", i%3))),
			ReqNo:  base + uint64(i),
			Body:   EncodeOps([]Op{{Key: fmt.Sprintf("k%d", base+uint64(i)), Val: []byte("v")}}),
		}
	}
	return out
}

// TestApplyBatchAdoptsAsReceived: a backup's ledger holds the pre-prepare it
// accepted — the primary's statement under the primary's signature — and
// ApplyBatch signs nothing.
func TestApplyBatchAdoptsAsReceived(t *testing.T) {
	primary, backup := applyPair(t)
	for seq := uint64(1); seq <= 4; seq++ {
		batch, _, err := primary.ExecuteBatch(applyReqs(seq*10, 3))
		if err != nil {
			t.Fatal(err)
		}
		signs, _ := hashsig.Counts()
		own, err := backup.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("seq %d: ApplyBatch: %v", seq, err)
		}
		if after, _ := hashsig.Counts(); after != signs {
			t.Fatalf("seq %d: ApplyBatch signed %d times, want 0", seq, after-signs)
		}
		if own.StatementDigest() != batch.Header.StatementDigest() || !bytes.Equal(own.Sig, batch.Header.Sig) {
			t.Fatalf("seq %d: backup did not adopt the primary's header as received", seq)
		}
		if own == &batch.Header {
			t.Fatal("retained header aliases the caller's")
		}
		if !own.Verify(primary.cfg.Key.Public()) {
			t.Fatal("adopted header does not verify under the primary key")
		}
		if own.Verify(backup.cfg.Key.Public()) {
			t.Fatal("adopted header verifies under the backup key")
		}
	}
	if primary.StateDigest() != backup.StateDigest() {
		t.Fatal("states diverged after honest applies")
	}
	if got := len(backup.Batches()); got != 4 {
		t.Fatalf("backup retains %d batches, want 4", got)
	}
}

// applySnapshot captures everything a rejected ApplyBatch must restore.
type applySnapshot struct {
	seq      uint64
	histSize uint64
	histRoot hashsig.Digest
	state    hashsig.Digest
	batches  int
}

func snapshotLedger(l *Ledger) applySnapshot {
	return applySnapshot{
		seq:      l.Seq(),
		histSize: l.HistSize(),
		histRoot: l.HistRoot(),
		state:    l.StateDigest(),
		batches:  len(l.Batches()),
	}
}

// TestTamperedBatchRejectedAlike is the unification's negative table: every
// tampering is driven through BOTH a backup's ApplyBatch and an auditor's
// Replay — over one core they must reject alike, naming the same field of
// the same signed header. The misbehaving primary re-signs what it
// tampered with (Replay verifies signatures before anything else; ApplyBatch
// leaves provenance to consensus), so the Divergence both return carries a
// header that verifies under the primary's key: signed evidence. Small
// batches hash inline; the large ones (72 entries, above the pipelining
// gate) run at GOMAXPROCS=4, so the entry hasher runs beside ApplyBatch,
// and Replay runs its pipeline at every size; the report must be the
// inline one. A rejected ApplyBatch must also leave the backup exactly as it was.
func TestTamperedBatchRejectedAlike(t *testing.T) {
	forceParallel(t)
	last := func(b *Batch) *Entry { return &b.Entries[len(b.Entries)-1] }
	tamper := []struct {
		name  string
		mut   func(b *Batch)
		field string // Divergence.Field both paths must name; "" = rejected before derivation
	}{
		{"forged result", func(b *Batch) { b.Entries[0].Result[0] ^= 1 }, "Result"},
		{"tampered payload", func(b *Batch) { b.Entries[1].Payload = EncodeOps([]Op{{Key: "evil", Val: []byte("x")}}) }, "Result"},
		{"swapped entries", func(b *Batch) { b.Entries[0], b.Entries[1] = b.Entries[1], b.Entries[0] }, "GRoot"}, // G orders the entries as M does
		{"unknown kind", func(b *Batch) { b.Entries[0].Kind = 99 }, "Kind"},
		{"wrong seq", func(b *Batch) { b.Header.Seq = 7 }, ""},
		{"wrong batch root", func(b *Batch) { b.Header.GRoot[0] ^= 1 }, "GRoot"},
		{"wrong history root", func(b *Batch) { b.Header.MRoot[0] ^= 1 }, "MRoot"},
		{"wrong history size", func(b *Batch) { b.Header.HistSize++ }, "HistSize"},
		{"wrong entry count", func(b *Batch) { b.Header.GSize++ }, "GSize"},
		{"stale checkpoint ref", func(b *Batch) { b.Header.CkptDigest = hashsig.Digest{} }, "CkptDigest"},
		{"marker misplaced", func(b *Batch) { b.Entries[0], *last(b) = *last(b), b.Entries[0] }, "Marker"},
		{"marker mislabelled", func(b *Batch) { last(b).Seq = 9 }, "Seq"},
		{"marker digest forged", func(b *Batch) { last(b).State[0] ^= 1 }, "State"},
		{"marker missing", func(b *Batch) { b.Entries = b.Entries[:len(b.Entries)-1] }, "GSize"},
	}
	for _, size := range []int{3, 72} {
		primary, backup := applyPair(t)
		pub := primary.cfg.Key.Public()
		// Advance both one batch so the divergence cases run mid-stream.
		warm, _, err := primary.ExecuteBatch(applyReqs(5, size))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := backup.ApplyBatch(warm); err != nil {
			t.Fatal(err)
		}
		batch, _, err := primary.ExecuteBatch(applyReqs(1000, size))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range tamper {
			name := fmt.Sprintf("%s/size=%d", tc.name, size)
			before := snapshotLedger(backup)
			evil := &Batch{Header: batch.Header, Entries: append([]Entry(nil), batch.Entries...)}
			tc.mut(evil)
			evil.Header.Sig = primary.cfg.Key.MustSign(evil.Header.StatementDigest())

			_, applyErr := backup.ApplyBatch(evil)
			if !errors.Is(applyErr, ErrApply) {
				t.Fatalf("%s: ApplyBatch err = %v, want ErrApply", name, applyErr)
			}
			if after := snapshotLedger(backup); after != before {
				t.Fatalf("%s: backup state not rolled back: %+v -> %+v", name, before, after)
			}
			_, replayErr := Replay([]*Batch{warm, evil}, pub, KVApp{}, nil)
			if !errors.Is(replayErr, ErrReplay) {
				t.Fatalf("%s: Replay err = %v, want ErrReplay", name, replayErr)
			}

			var fromApply, fromReplay *Divergence
			if got := errors.As(applyErr, &fromApply); got != (tc.field != "") {
				t.Fatalf("%s: ApplyBatch err %v: is a Divergence = %v", name, applyErr, got)
			}
			if got := errors.As(replayErr, &fromReplay); got != (tc.field != "") {
				t.Fatalf("%s: Replay err %v: is a Divergence = %v", name, replayErr, got)
			}
			if tc.field == "" {
				continue
			}
			if fromApply.Field != tc.field || fromReplay.Field != tc.field {
				t.Fatalf("%s: ApplyBatch names %q (%v), Replay names %q (%v), want %q",
					name, fromApply.Field, applyErr, fromReplay.Field, replayErr, tc.field)
			}
			if fromApply.Seq != 2 || fromApply.Entry != fromReplay.Entry || fromApply.Error() != fromReplay.Error() {
				t.Fatalf("%s: reports differ: %+v vs %+v", name, fromApply, fromReplay)
			}
			for _, d := range []*Divergence{fromApply, fromReplay} {
				if !d.Header.Verify(pub) || d.Header.StatementDigest() != evil.Header.StatementDigest() {
					t.Fatalf("%s: divergence does not carry the header the primary signed", name)
				}
			}
		}

		// The untampered batch still applies after every rejection.
		if _, err := backup.ApplyBatch(batch); err != nil {
			t.Fatalf("clean batch rejected after rollbacks: %v", err)
		}
		if primary.StateDigest() != backup.StateDigest() {
			t.Fatal("states diverged")
		}
	}
}

// TestApplyBatchEnforcesCheckpointInterval covers the one rule that stays
// ApplyBatch's own: a stream whose checkpoint markers are individually
// well-formed and consistently signed replays clean for an auditor, who is
// not told CheckpointEvery, but a backup configured with a different
// interval rejects the first batch whose marker is undue or overdue.
func TestApplyBatchEnforcesCheckpointInterval(t *testing.T) {
	mk := func(every uint64) *Ledger {
		l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, tc := range []struct {
		primary, backup uint64
		entry           int
		text            string
	}{
		{1, 2, 2, "entry 2: unexpected checkpoint marker"},
		{2, 1, -1, "checkpoint marker due but absent"},
	} {
		primary, backup := mk(tc.primary), mk(tc.backup)
		b, _, err := primary.ExecuteBatch(applyReqs(10, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay([]*Batch{b}, testKey.Public(), KVApp{}, nil); err != nil {
			t.Fatalf("interval %d stream does not replay: %v", tc.primary, err)
		}
		before := snapshotLedger(backup)
		_, err = backup.ApplyBatch(b)
		var div *Divergence
		if !errors.Is(err, ErrApply) || !errors.As(err, &div) {
			t.Fatalf("interval %d batch on an interval %d backup: err = %v", tc.primary, tc.backup, err)
		}
		if div.Field != "Marker" || div.Entry != tc.entry || !strings.HasSuffix(err.Error(), tc.text) {
			t.Fatalf("interval %d batch on an interval %d backup: %+v (%v)", tc.primary, tc.backup, div, err)
		}
		if after := snapshotLedger(backup); after != before {
			t.Fatalf("backup state not rolled back: %+v -> %+v", before, after)
		}
	}
}

func TestApplyBatchThenRollbackTo(t *testing.T) {
	primary, backup := applyPair(t)
	b1, _, err := primary.ExecuteBatch(applyReqs(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backup.ApplyBatch(b1); err != nil {
		t.Fatal(err)
	}
	before := snapshotLedger(backup)
	b2, _, err := primary.ExecuteBatch(applyReqs(20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backup.ApplyBatch(b2); err != nil {
		t.Fatal(err)
	}
	// A view change undoes the speculative batch (Lemma 1).
	if err := backup.RollbackTo(2); err != nil {
		t.Fatal(err)
	}
	if after := snapshotLedger(backup); after != before {
		t.Fatalf("rollback did not restore the pre-speculation state: %+v -> %+v", before, after)
	}
	if _, err := backup.ApplyBatch(b2); err != nil {
		t.Fatalf("re-apply after rollback: %v", err)
	}
}

// TestReplayKeyedTwoSigners: a ledger that lived through a view change holds
// headers by more than one primary. ReplayKeyed verifies each under the key
// its own envelope names; the single-key form, and a key function that
// knows no signer for a header, reject the same stream.
func TestReplayKeyedTwoSigners(t *testing.T) {
	first, second := applyPair(t)
	pubs := []*hashsig.PublicKey{first.cfg.Key.Public(), second.cfg.Key.Public()}
	b1, err := first.ExecuteBatchAs(Envelope{View: 0, Primary: 0}, applyReqs(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.ApplyBatch(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := second.ExecuteBatchAs(Envelope{View: 1, Primary: 1}, applyReqs(20, 3)); err != nil {
		t.Fatal(err)
	}
	stream := second.Batches()
	byPrimary := func(h *BatchHeader) *hashsig.PublicKey { return pubs[h.Primary] }
	res, err := ReplayKeyed(stream, byPrimary, KVApp{}, nil)
	if err != nil {
		t.Fatalf("two-signer stream does not replay under its own keys: %v", err)
	}
	if res.Batches != 2 || res.HistRoot != second.HistRoot() || res.StateDigest != second.StateDigest() {
		t.Fatalf("keyed replay reached %+v, live ledger differs", res)
	}
	for i, pub := range pubs {
		if _, err := Replay(stream, pub, KVApp{}, nil); !errors.Is(err, ErrReplay) {
			t.Fatalf("single-key replay under signer %d: err = %v, want ErrReplay", i, err)
		}
	}
	onlyFirst := func(h *BatchHeader) *hashsig.PublicKey {
		if h.View == 0 {
			return pubs[0]
		}
		return nil
	}
	if _, err := ReplayKeyed(stream, onlyFirst, KVApp{}, nil); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay with no key for view 1: err = %v, want ErrReplay", err)
	}
}

// TestRestateKeepsContent: a restated header is the same batch under a new
// statement — one signature, by the restating ledger's key, and the ledger
// itself is untouched.
func TestRestateKeepsContent(t *testing.T) {
	first, second := applyPair(t)
	b, err := first.ExecuteBatchAs(Envelope{View: 0, Primary: 0, NonceCommit: hashsig.Sum([]byte("n0"))}, applyReqs(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotLedger(second)
	signs, verifies := hashsig.Counts()
	env := Envelope{View: 1, Primary: 1, NonceCommit: hashsig.Sum([]byte("n1"))}
	h := second.Restate(&b.Header, env)
	if s, v := hashsig.Counts(); s-signs != 1 || v != verifies {
		t.Fatalf("Restate cost %d signs and %d verifies, want 1 and 0", s-signs, v-verifies)
	}
	if h.Envelope != env || h.ContentDigest() != b.Header.ContentDigest() {
		t.Fatal("restated header lost its content or did not take the envelope")
	}
	if h.StatementDigest() == b.Header.StatementDigest() {
		t.Fatal("a new envelope left the statement digest unchanged")
	}
	if !h.Verify(second.cfg.Key.Public()) || h.Verify(first.cfg.Key.Public()) {
		t.Fatal("restated header is not signed by the restating ledger's key alone")
	}
	if !b.Header.Verify(first.cfg.Key.Public()) {
		t.Fatal("the original statement stopped verifying")
	}
	if after := snapshotLedger(second); after != before {
		t.Fatalf("Restate touched the ledger: %+v -> %+v", before, after)
	}
}
