package consensus

import (
	"errors"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// deliver hands each message to every replica once (no recursive flood)
// and returns everything they emitted in response.
func (c *cluster) deliver(msgs []Message) []Message {
	c.t.Helper()
	var out []Message
	for _, m := range msgs {
		for _, r := range c.replicas {
			o, _ := r.Handle(m)
			out = append(out, outMsgs(o)...)
		}
	}
	return out
}

// TestWindowOutOfOrderQuorums fills the whole proposal window, completes
// the prepare/commit quorums for the LATER instances first, and checks
// that nothing commits until the head of the window completes — then the
// buffered quorums cascade, strictly in order.
func TestWindowOutOfOrderQuorums(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))

	pps := make([]*PrePrepare, DefaultWindow)
	for w := range pps {
		pp, _, err := c.replicas[0].Propose(reqs(author, uint64(100*(w+1)), 2))
		if err != nil {
			t.Fatalf("propose %d: %v", w+1, err)
		}
		pps[w] = pp
	}
	// Pre-prepares must flow in order (execution is sequential), and each
	// backup answers with its prepare.
	prepares := make([][]Message, DefaultWindow)
	for w, pp := range pps {
		for _, id := range []int{1, 2, 3} {
			out, err := c.replicas[id].Handle(pp)
			if err != nil {
				t.Fatalf("backup %d pp %d: %v", id, w+1, err)
			}
			prepares[w] = append(prepares[w], outMsgs(out)...)
		}
	}
	for _, r := range c.replicas {
		if got := r.InFlight(); got != DefaultWindow {
			t.Fatalf("replica %d has %d in flight, want %d", r.ID(), got, DefaultWindow)
		}
	}
	// Quorums complete back to front: seqs 4, 3, 2 fully prepare and
	// reveal their nonces while seq 1's prepares are still withheld.
	for w := DefaultWindow - 1; w >= 1; w-- {
		commits := c.deliver(prepares[w])
		c.deliver(commits)
	}
	for _, r := range c.replicas {
		if got := r.Committed(); got != 0 {
			t.Fatalf("replica %d committed %d with the window head incomplete", r.ID(), got)
		}
	}
	// The head completes: everything buffered behind it commits in order.
	commits := c.deliver(prepares[0])
	c.deliver(commits)
	c.assertAgreement(uint64(DefaultWindow), 0, 1, 2, 3)
}

// TestViewChangePartiallyCommittedWindow drives a view change against a
// window in three distinct states at once: seq 1 committed, seq 2 prepared
// but not committed, seq 3 pre-prepared on a single backup. The new
// primary must re-propose exactly the prepared batch (byte-identical
// commitments), the committed boundary must survive, and the unprepared
// tail must be discarded and its slot reusable.
func TestViewChangePartiallyCommittedWindow(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))

	var pps []*PrePrepare
	for w := 0; w < 3; w++ {
		pp, _, err := c.replicas[0].Propose(reqs(author, uint64(100*(w+1)), 2))
		if err != nil {
			t.Fatal(err)
		}
		pps = append(pps, pp)
	}
	// Seq 1 commits everywhere.
	var prep1 []Message
	for _, id := range []int{1, 2, 3} {
		out, err := c.replicas[id].Handle(pps[0])
		if err != nil {
			t.Fatal(err)
		}
		prep1 = append(prep1, outMsgs(out)...)
	}
	c.deliver(c.deliver(prep1))
	// Live history roots legitimately diverge here — the primary holds
	// seqs 2 and 3 speculatively — so only the committed boundary is
	// compared.
	for _, r := range c.replicas {
		if got := r.Committed(); got != 1 {
			t.Fatalf("replica %d committed %d, want 1", r.ID(), got)
		}
	}
	// Seq 2 prepares everywhere; the commit reveals are withheld.
	var prep2 []Message
	for _, id := range []int{1, 2, 3} {
		out, err := c.replicas[id].Handle(pps[1])
		if err != nil {
			t.Fatal(err)
		}
		prep2 = append(prep2, outMsgs(out)...)
	}
	c.deliver(prep2) // commits dropped
	// Seq 3 reaches only replica 1.
	if _, err := c.replicas[1].Handle(pps[2]); err != nil {
		t.Fatal(err)
	}

	wantSeq2 := pps[1].Header.ContentDigest()
	for _, id := range []int{1, 2, 3} {
		c.queue = append(c.queue, outMsgs(c.replicas[id].OnTimeout())...)
	}
	c.flood(0) // old primary stays silent

	// The quorum {1,2,3} lands in view 1 with the prepared seq 2
	// re-committed with identical content and the unprepared seq 3 gone.
	c.assertAgreement(2, 1, 2, 3)
	for _, id := range []int{1, 2, 3} {
		b := c.replicas[id].Ledger().Batches()
		if len(b) != 2 || b[1].Header.ContentDigest() != wantSeq2 {
			t.Fatalf("replica %d did not re-commit the prepared batch", id)
		}
	}
	// The window is clean: the new primary proposes fresh batches for the
	// freed slots and the quorum commits them.
	if !c.replicas[1].IsPrimary() || !c.replicas[1].CanPropose() {
		t.Fatal("new primary cannot continue after the partial-window view change")
	}
	c.propose(1, reqs(author, 400, 2))
	c.flood(0)
	c.assertAgreement(3, 1, 2, 3)
}

// TestEquivocationNonHeadInstance equivocates on a MIDDLE instance of a
// full window (seq 2 of 1..4): the conflicting proposal for an already
// open, non-head slot must still produce verifiable blame naming the
// primary's key.
func TestEquivocationNonHeadInstance(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))

	pps := make([]*PrePrepare, DefaultWindow)
	for w := range pps {
		pp, _, err := c.replicas[0].Propose(reqs(author, uint64(100*(w+1)), 2))
		if err != nil {
			t.Fatal(err)
		}
		pps[w] = pp
	}
	for _, pp := range pps {
		if _, err := c.replicas[1].Handle(pp); err != nil {
			t.Fatal(err)
		}
	}

	// Forge the primary's conflicting batch for seq 2 on a scratch ledger
	// holding the same key (the equivocator re-executes divergent content;
	// Lemma 1 makes the ledger a willing accomplice).
	led, err := ledger.New(ledger.Config{Key: c.keys[0], App: ledger.KVApp{}, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := led.ExecuteBatch(reqs(author, 100, 2)); err != nil {
		t.Fatal(err)
	}
	evil, err := led.ExecuteBatchAs(envelope(0, 0), reqs(author, 666, 2))
	if err != nil {
		t.Fatal(err)
	}
	evilPP := &PrePrepare{Header: evil.Header, Entries: evil.Entries}

	if _, err := c.replicas[1].Handle(evilPP); !errors.Is(err, ErrInvalid) {
		t.Fatalf("conflicting non-head proposal accepted: %v", err)
	}
	ev := c.replicas[1].Evidence()
	if len(ev) != 1 {
		t.Fatalf("got %d blame objects, want 1", len(ev))
	}
	bl := ev[0]
	if bl.Culprit != c.keys[0].Public().ID() || bl.Seq != 2 || bl.View != 0 {
		t.Fatalf("blame %v does not name the primary's key at view 0 seq 2", bl)
	}
	if !bl.Verify(c.keys[0].Public()) {
		t.Fatal("blame evidence does not verify offline")
	}
	// The honest head and tail instances are untouched: the window still
	// holds all four, and completing them commits normally.
	if got := c.replicas[1].InFlight(); got != DefaultWindow {
		t.Fatalf("equivocation disturbed the window: %d in flight", got)
	}
}
