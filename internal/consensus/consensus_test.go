package consensus

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// cluster is a set of replicas plus a flood-delivery helper: every outbound
// message is delivered to every replica in FIFO order until quiescence.
// Flood delivery is deliberately a superset of envelope routing — handlers
// ignore misaddressed unicast traffic — so the helper strips the Outbound
// addressing; the sim harness is where Dest is honored and asserted.
type cluster struct {
	t        *testing.T
	replicas []*Replica
	keys     []*hashsig.PrivateKey
	queue    []Message
	proposed map[uint64]int // requests c.propose put in each seq
}

// outMsgs strips the addressing off a batch of envelopes for flood-style
// delivery.
func outMsgs(outs []Outbound) []Message {
	msgs := make([]Message, 0, len(outs))
	for _, o := range outs {
		msgs = append(msgs, o.Msg)
	}
	return msgs
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	keys := make([]*hashsig.PrivateKey, n)
	peers := make([]*hashsig.PublicKey, n)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("consensus-test-%d", i))
		peers[i] = keys[i].Public()
	}
	c := &cluster{t: t, keys: keys, proposed: map[uint64]int{}}
	for i := 0; i < n; i++ {
		r, err := New(Config{
			ID:              ReplicaID(i),
			Key:             keys[i],
			Peers:           peers,
			App:             ledger.KVApp{},
			CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		c.replicas = append(c.replicas, r)
	}
	return c
}

// flood broadcasts queued messages to every replica until nothing new is
// produced. Skip suppresses delivery to the given replica IDs.
func (c *cluster) flood(skip ...ReplicaID) {
	skipped := map[ReplicaID]bool{}
	for _, id := range skip {
		skipped[id] = true
	}
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		for _, r := range c.replicas {
			if skipped[r.ID()] {
				continue
			}
			out, _ := r.Handle(m)
			c.queue = append(c.queue, outMsgs(out)...)
		}
	}
}

// envelope is the envelope primary would sign with in view, under a fresh
// nonce commitment — what tests forging a primary's statements need.
func envelope(view uint64, primary ReplicaID) ledger.Envelope {
	return ledger.Envelope{View: view, Primary: uint32(primary), NonceCommit: hashsig.NewNonce().Commit()}
}

func reqs(author hashsig.Digest, base uint64, n int) []ledger.Request {
	out := make([]ledger.Request, n)
	for i := range out {
		out[i] = ledger.Request{
			Author: author,
			ReqNo:  base + uint64(i),
			Body: ledger.EncodeOps([]ledger.Op{
				{Key: fmt.Sprintf("k%d", base+uint64(i)), Val: []byte(fmt.Sprintf("v%d", i))},
			}),
		}
	}
	return out
}

func (c *cluster) propose(primary int, rs []ledger.Request) {
	c.t.Helper()
	pp, _, err := c.replicas[primary].Propose(rs)
	if err != nil {
		c.t.Fatalf("Propose: %v", err)
	}
	c.proposed[pp.Header.Seq] = len(rs)
	c.queue = append(c.queue, pp)
}

// assertAgreement checks every listed replica committed seq with identical
// (¯M, d_C, state digest), and, when c.propose put seq's requests in, that
// the receipts every one of them cuts for seq agree.
func (c *cluster) assertAgreement(seq uint64, ids ...int) {
	c.t.Helper()
	ref := c.replicas[ids[0]]
	if ref.Committed() != seq {
		c.t.Fatalf("replica %d committed %d, want %d", ids[0], ref.Committed(), seq)
	}
	for _, id := range ids[1:] {
		r := c.replicas[id]
		if r.Committed() != seq {
			c.t.Fatalf("replica %d committed %d, want %d", id, r.Committed(), seq)
		}
		if r.Ledger().HistRoot() != ref.Ledger().HistRoot() {
			c.t.Fatalf("replica %d history root diverges", id)
		}
		if r.Ledger().StateDigest() != ref.Ledger().StateDigest() {
			c.t.Fatalf("replica %d state digest diverges", id)
		}
	}
	if n, ok := c.proposed[seq]; ok {
		c.assertReceipts(seq, n, ids)
	}
}

// assertReceipts checks the receipts cut from committed batch seq: one per
// request on every listed replica, byte-identical across them, each
// verifying under the key of the primary its header names.
func (c *cluster) assertReceipts(seq uint64, n int, ids []int) {
	c.t.Helper()
	var want [][]byte
	for _, id := range ids {
		rcs := c.replicas[id].Ledger().Receipts(seq)
		if len(rcs) != n {
			c.t.Fatalf("replica %d cut %d receipts for seq %d, want %d", id, len(rcs), seq, n)
		}
		got := make([][]byte, n)
		for i := range rcs {
			if !rcs[i].Verify(c.keys[rcs[i].Header.Primary].Public()) {
				c.t.Fatalf("replica %d: receipt %d of seq %d does not verify", id, i, seq)
			}
			got[i] = ledger.EncodeReceipt(nil, &rcs[i])
			if want != nil && !bytes.Equal(got[i], want[i]) {
				c.t.Fatalf("replica %d: receipt %d of seq %d differs from replica %d's", id, i, seq, ids[0])
			}
		}
		want = got
	}
}

func TestHappyPathCommit(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	for seq := uint64(1); seq <= 5; seq++ {
		c.propose(0, reqs(author, seq*10, 3))
		c.flood()
		c.assertAgreement(seq, 0, 1, 2, 3)
	}
	for _, r := range c.replicas {
		if len(r.Evidence()) != 0 {
			t.Fatalf("replica %d collected blame in an honest run", r.ID())
		}
		// Bounded retention: after committing 5 with CheckpointEvery=2 and
		// window 4, the commit path prunes below min(ckpt 4 + 1, 5 - 4 + 1),
		// so batch 1 is gone and seqs 2..5 remain.
		if got := len(r.Ledger().Batches()); got != 4 {
			t.Fatalf("replica %d retains %d batches, want 4", r.ID(), got)
		}
		if got := r.Ledger().FirstRetainedSeq(); got != 2 {
			t.Fatalf("replica %d first retained seq %d, want 2", r.ID(), got)
		}
	}
}

func TestCommitRequiresQuorum(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	// Two replicas never hear anything: 2 participants < 2f+1 = 3.
	c.propose(0, reqs(author, 10, 2))
	c.flood(2, 3)
	if c.replicas[0].Committed() != 0 || c.replicas[1].Committed() != 0 {
		t.Fatal("committed without a quorum")
	}
}

func TestLaggardCatchesUpFromBroadcasts(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	// Replica 3 misses two full rounds; the traffic is redelivered later
	// (the sim models drops as delayed retransmission).
	var held []Message
	for seq := uint64(1); seq <= 2; seq++ {
		pp, _, err := c.replicas[0].Propose(reqs(author, seq*10, 2))
		if err != nil {
			t.Fatalf("Propose: %v", err)
		}
		c.queue = append(c.queue, pp)
		held = append(held, pp)
		for len(c.queue) > 0 {
			m := c.queue[0]
			c.queue = c.queue[1:]
			for _, r := range c.replicas[:3] {
				out, _ := r.Handle(m)
				c.queue = append(c.queue, outMsgs(out)...)
				held = append(held, outMsgs(out)...)
			}
		}
	}
	c.assertAgreement(2, 0, 1, 2)
	if c.replicas[3].Committed() != 0 {
		t.Fatal("isolated replica advanced")
	}
	for _, m := range held {
		if out, _ := c.replicas[3].Handle(m); len(out) > 0 {
			c.queue = append(c.queue, outMsgs(out)...)
		}
	}
	c.flood()
	c.assertAgreement(2, 0, 1, 2, 3)
}

func TestEquivocatingPrimaryYieldsBlame(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	primary := c.replicas[0]

	// The primary signs two different batches for seq 1 by executing one,
	// rolling back (Lemma 1 makes this cheap), and executing the other.
	batchA, err := primary.Ledger().ExecuteBatchAs(envelope(0, 0), reqs(author, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Ledger().RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	batchB, err := primary.Ledger().ExecuteBatchAs(envelope(0, 0), reqs(author, 99, 2))
	if err != nil {
		t.Fatal(err)
	}
	ppA := &PrePrepare{Header: batchA.Header, Entries: batchA.Entries}
	ppB := &PrePrepare{Header: batchB.Header, Entries: batchB.Entries}

	outA, err := c.replicas[1].Handle(ppA)
	if err != nil {
		t.Fatalf("replica 1 rejects honest-looking pre-prepare: %v", err)
	}
	if _, err := c.replicas[2].Handle(ppB); err != nil {
		t.Fatalf("replica 2 rejects honest-looking pre-prepare: %v", err)
	}
	// Replica 2 now receives replica 1's prepare, which carries the
	// conflicting primary-signed header: blame must appear.
	for _, o := range outA {
		c.replicas[2].Handle(o.Msg)
	}
	ev := c.replicas[2].Evidence()
	if len(ev) != 1 {
		t.Fatalf("replica 2 holds %d blame objects, want 1", len(ev))
	}
	bl := ev[0]
	if bl.Culprit != c.keys[0].Public().ID() {
		t.Fatalf("blame names %s, want the primary's key", bl.Culprit)
	}
	if !bl.Verify(c.keys[0].Public()) {
		t.Fatal("blame evidence does not verify against the culprit key")
	}
	if bl.Verify(c.keys[1].Public()) {
		t.Fatal("blame evidence verifies against an innocent key")
	}
	if bl.View != 0 || bl.Seq != 1 {
		t.Fatalf("blame locates (view %d, seq %d), want (0, 1)", bl.View, bl.Seq)
	}
}

func TestBlameVerifyRejectsForgery(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("blame-forge")
	other := hashsig.GenerateKeyFromSeed("blame-other")
	mk := func(seq uint64, tag byte) ledger.BatchHeader {
		h := ledger.BatchHeader{
			Envelope: ledger.Envelope{View: 3, Primary: 3, NonceCommit: hashsig.Sum([]byte{tag})},
			Seq:      seq, GSize: uint64(tag),
		}
		h.Sig = key.MustSign(h.StatementDigest())
		return h
	}
	a, b := mk(7, 1), mk(7, 2)
	bl := ledger.NewBlame(&a, &b, key.Public())
	if bl == nil || !bl.Verify(key.Public()) {
		t.Fatal("genuine conflict did not produce verifiable blame")
	}
	if ledger.NewBlame(&a, &a, key.Public()) != nil {
		t.Fatal("identical proposals produced blame")
	}
	// Two statements for one slot and one batch — a second nonce commitment,
	// both validly signed — bind the primary to one content: not blame.
	renonced := a
	renonced.NonceCommit = hashsig.Sum([]byte("another nonce"))
	renonced.Sig = key.MustSign(renonced.StatementDigest())
	if renonced.StatementDigest() == a.StatementDigest() || ledger.NewBlame(&a, &renonced, key.Public()) != nil {
		t.Fatal("same content under a second nonce commitment produced blame")
	}
	// Nor is the same content stated in another view.
	later := a
	later.View = 7
	later.Sig = key.MustSign(later.StatementDigest())
	if ledger.NewBlame(&a, &later, key.Public()) != nil {
		t.Fatal("statements from different views produced blame")
	}
	cross := mk(8, 3)
	if ledger.NewBlame(&a, &cross, key.Public()) != nil {
		t.Fatal("different sequence numbers produced blame")
	}
	if bl.Verify(other.Public()) {
		t.Fatal("blame verified against the wrong key")
	}
	tampered := *bl
	tampered.B.GSize = 99
	if tampered.Verify(key.Public()) {
		t.Fatal("tampered blame verified")
	}
}

func TestViewChangeRecoversLiveness(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))

	// Commit one batch normally so the view change has committed state to
	// certify.
	c.propose(0, reqs(author, 10, 2))
	c.flood()
	c.assertAgreement(1, 0, 1, 2, 3)

	// The primary stalls: it proposes seq 2 but the pre-prepare reaches
	// only replica 1, then everyone times out.
	pp, _, err := c.replicas[0].Propose(reqs(author, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.replicas[1].Handle(pp); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2, 3} {
		c.queue = append(c.queue, outMsgs(c.replicas[id].OnTimeout())...)
	}
	c.flood(0) // old primary stays silent
	for _, id := range []int{1, 2, 3} {
		if got := c.replicas[id].View(); got != 1 {
			t.Fatalf("replica %d in view %d, want 1", id, got)
		}
	}
	// The new primary (replica 1) proposes in view 1 and the quorum
	// {1,2,3} commits without the old primary.
	if !c.replicas[1].IsPrimary() {
		t.Fatal("replica 1 should lead view 1")
	}
	if !c.replicas[1].Idle() {
		t.Fatal("new primary not idle after view change")
	}
	c.propose(1, reqs(author, 30, 2))
	c.flood(0)
	c.assertAgreement(2, 1, 2, 3)
}

func TestPreparedBatchSurvivesViewChange(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))

	// Seq 1 reaches the prepared stage at replicas 1-3 (pre-prepare and
	// prepares flow) but no commit quorum forms: commits are withheld.
	pp, _, err := c.replicas[0].Propose(reqs(author, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	var prepares []Message
	for _, id := range []int{1, 2, 3} {
		out, err := c.replicas[id].Handle(pp)
		if err != nil {
			t.Fatal(err)
		}
		prepares = append(prepares, outMsgs(out)...)
	}
	var commits []Message
	for _, m := range prepares {
		for _, id := range []int{1, 2, 3} {
			out, _ := c.replicas[id].Handle(m)
			for _, o := range out {
				if _, ok := o.Msg.(*Commit); ok {
					commits = append(commits, o.Msg)
					continue
				}
			}
		}
	}
	if len(commits) == 0 {
		t.Fatal("no replica reached the prepared stage")
	}
	// View change: the prepared batch must be re-proposed and commit in
	// view 1 with the same content, under the new primary's statement.
	wantDigest := pp.Header.ContentDigest()
	for _, id := range []int{1, 2, 3} {
		c.queue = append(c.queue, outMsgs(c.replicas[id].OnTimeout())...)
	}
	c.flood(0)
	c.assertAgreement(1, 1, 2, 3)
	for _, id := range []int{1, 2, 3} {
		b := c.replicas[id].Ledger().Batches()
		if len(b) != 1 || b[0].Header.ContentDigest() != wantDigest {
			t.Fatalf("replica %d committed a different batch than the prepared one", id)
		}
		if h := &b[0].Header; h.View != 1 || h.Primary != 1 || !h.Verify(c.keys[1].Public()) {
			t.Fatalf("replica %d holds the batch under view %d primary %d, want the new primary's statement", id, h.View, h.Primary)
		}
	}
}

// TestPreparedCertificateOutlivesFailedReproposal: a batch prepares at
// replicas 1-3 in view 0 and commits at replica 3, which then falls
// silent. View 1 re-proposes it, but the pre-prepare is lost, so it never
// prepares there. The view-changes for view 2 must still claim view 0's
// certificate: otherwise view 2's primary may fill seq 1 with another batch
// while replica 3 holds this one committed.
func TestPreparedCertificateOutlivesFailedReproposal(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	pp, _, err := c.replicas[0].Propose(reqs(author, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	var round, commits []Message
	for _, id := range []int{1, 2, 3} {
		out, err := c.replicas[id].Handle(pp)
		if err != nil {
			t.Fatal(err)
		}
		round = append(round, outMsgs(out)...)
	}
	for _, m := range round {
		for _, id := range []int{1, 2, 3} {
			out, _ := c.replicas[id].Handle(m)
			for _, o := range out {
				if _, ok := o.Msg.(*Commit); ok {
					commits = append(commits, o.Msg)
				}
			}
		}
	}
	for _, m := range commits {
		c.replicas[3].Handle(m)
	}
	if got := c.replicas[3].Committed(); got != 1 {
		t.Fatalf("replica 3 committed %d, want 1", got)
	}

	// From here replica 3 hears and says nothing.
	deliver := func(lose func(Message) bool) {
		for len(c.queue) > 0 {
			m := c.queue[0]
			c.queue = c.queue[1:]
			if lose(m) {
				continue
			}
			for _, id := range []int{0, 1, 2} {
				out, _ := c.replicas[id].Handle(m)
				c.queue = append(c.queue, outMsgs(out)...)
			}
		}
	}
	timeout := func() {
		for _, id := range []int{0, 1, 2} {
			c.queue = append(c.queue, outMsgs(c.replicas[id].OnTimeout())...)
		}
	}
	timeout()
	deliver(func(m Message) bool { _, ok := m.(*PrePrepare); return ok })
	for _, id := range []int{0, 1, 2} {
		if got := c.replicas[id].View(); got != 1 {
			t.Fatalf("replica %d in view %d, want 1", id, got)
		}
	}
	timeout()
	deliver(func(Message) bool { return false })
	want := pp.Header.ContentDigest()
	for _, id := range []int{0, 1, 2} {
		r := c.replicas[id]
		if r.View() != 2 || r.Committed() != 1 {
			t.Fatalf("replica %d in view %d committed %d, want view 2 and seq 1", id, r.View(), r.Committed())
		}
		if got := r.Ledger().BatchAt(1).Header.ContentDigest(); got != want {
			t.Fatalf("replica %d committed another batch at seq 1 than replica 3 did", id)
		}
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	pp, _, err := c.replicas[0].Propose(reqs(author, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	out1, err := c.replicas[1].Handle(pp)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{pp}
	msgs = append(msgs, outMsgs(out1)...)
	msgs = append(msgs, &Commit{
		View: 1, Replica: 2, Seq: 9,
		Statement: hashsig.Sum([]byte("h")),
		Nonce:     hashsig.NonceFromSeed("n"),
	})
	msgs = append(msgs, outMsgs(c.replicas[2].OnTimeout())...)
	// A chunk of a suffix-only offer: no frontier.
	msgs = append(msgs, &SyncChunk{Replica: 1, Requester: 3, CkptSeq: 5, Cert: &ledger.CommitCert{Header: pp.Header}, Kind: SyncChunkBatch, Data: []byte("batch")})
	for i, m := range msgs {
		enc := EncodeMessage(m)
		dec, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("msg %d (%T): decode: %v", i, m, err)
		}
		if dec.Type() != m.Type() {
			t.Fatalf("msg %d: type %d -> %d", i, m.Type(), dec.Type())
		}
		if !bytes.Equal(EncodeMessage(dec), enc) {
			t.Fatalf("msg %d (%T): re-encode differs", i, m)
		}
	}
}

func TestDecodeMessageRejectsMalformed(t *testing.T) {
	c := newCluster(t, 4)
	pp, _, err := c.replicas[0].Propose(reqs(hashsig.Sum([]byte("x")), 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	valid := EncodeMessage(pp)
	cases := [][]byte{
		nil,
		{},
		{0xff},
		{0, 0, 0, 99},             // unknown type
		valid[:len(valid)/2],      // truncated
		append(valid, 0xde, 0xad), // trailing garbage
	}
	for i, b := range cases {
		if _, err := DecodeMessage(b); err == nil {
			t.Fatalf("case %d: malformed message decoded", i)
		}
	}

	// Every signature field is capped at the scheme's size. A header,
	// prepare or view-change signature of exactly that many garbage bytes
	// decodes (and would fail verification); one byte more is rejected by
	// the decoder, before any signature check.
	out, err := c.replicas[1].Handle(pp)
	if err != nil {
		t.Fatal(err)
	}
	prep := outMsgs(out)[0].(*Prepare)
	vc := outMsgs(c.replicas[2].OnTimeout())[0].(*ViewChange)
	for _, n := range []int{hashsig.SignatureSize, hashsig.SignatureSize + 1} {
		sig := make(hashsig.Signature, n)
		badPP, badPrep, badVC := *pp, *prep, *vc
		badPP.Header.Sig, badPrep.Sig, badVC.Sig = sig, sig, sig
		for _, m := range []Message{&badPP, &badPrep, &badVC} {
			_, err := DecodeMessage(EncodeMessage(m))
			if n == hashsig.SignatureSize && err != nil {
				t.Fatalf("%T with a %d-byte signature does not decode: %v", m, n, err)
			}
			if n > hashsig.SignatureSize && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%T with a %d-byte signature: %v, want ErrBadMessage", m, n, err)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	keys := make([]*hashsig.PrivateKey, 4)
	peers := make([]*hashsig.PublicKey, 4)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("cv-%d", i))
		peers[i] = keys[i].Public()
	}
	if _, err := New(Config{ID: 0, Key: keys[0], Peers: peers[:3], App: ledger.KVApp{}}); !errors.Is(err, ErrConfig) {
		t.Fatalf("3 peers accepted: %v", err)
	}
	if _, err := New(Config{ID: 1, Key: keys[0], Peers: peers, App: ledger.KVApp{}}); !errors.Is(err, ErrConfig) {
		t.Fatalf("mismatched key accepted: %v", err)
	}
	if _, err := New(Config{ID: 9, Key: keys[0], Peers: peers, App: ledger.KVApp{}}); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-range id accepted: %v", err)
	}
	if _, err := New(Config{ID: 0, Key: keys[0], Peers: peers, App: ledger.KVApp{}, Window: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative window accepted: %v", err)
	}
	if _, err := New(Config{ID: 0, Key: keys[0], Peers: peers, App: ledger.KVApp{}, Window: maxPreparedClaims + 1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("window beyond the decodable claim bound accepted: %v", err)
	}
	// Shards is bench/'s name for the one ledger: 0 or 1, nothing else.
	if _, err := New(Config{ID: 0, Key: keys[0], Peers: peers, App: ledger.KVApp{}, Shards: 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("Shards: 2 accepted: %v", err)
	}
	if _, err := New(Config{ID: 0, Key: keys[0], Peers: peers, App: ledger.KVApp{}, Shards: 1}); err != nil {
		t.Fatalf("Shards: 1 refused: %v", err)
	}
	// Window 1 restores the strict serial behaviour: one outstanding
	// proposal at a time.
	r, err := New(Config{ID: 0, Key: keys[0], Peers: peers, App: ledger.KVApp{}, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Propose(nil); err != nil {
		t.Fatalf("primary cannot propose: %v", err)
	}
	if _, _, err := r.Propose(nil); !errors.Is(err, ErrNotPrimary) {
		t.Fatal("window-1 primary proposed a second in-flight batch")
	}
	// The default window pipelines up to DefaultWindow instances and no
	// more.
	r, err = New(Config{ID: 0, Key: keys[0], Peers: peers, App: ledger.KVApp{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Window() != DefaultWindow {
		t.Fatalf("default window %d, want %d", r.Window(), DefaultWindow)
	}
	for i := 0; i < DefaultWindow; i++ {
		if _, _, err := r.Propose(nil); err != nil {
			t.Fatalf("proposal %d within the window refused: %v", i+1, err)
		}
	}
	if _, _, err := r.Propose(nil); !errors.Is(err, ErrNotPrimary) {
		t.Fatal("primary proposed past a full window")
	}
	if got := r.InFlight(); got != DefaultWindow {
		t.Fatalf("in-flight %d, want %d", got, DefaultWindow)
	}
}

// TestFutureBuffer: what the out-of-order buffer keeps and what it lets go.
// A later view's message is kept whatever its seq says about this view; the
// buffer holds maxFuture messages and evicts the oldest; and the drain a
// commit triggers drops what that commit decided, keeping the rest.
func TestFutureBuffer(t *testing.T) {
	c := newCluster(t, 4)
	r := c.replicas[3]
	later := func(seq uint64) *Commit { return &Commit{View: 7, Replica: 2, Seq: seq} }
	for _, seq := range []uint64{1, 2} {
		if out, err := r.Handle(later(seq)); err != nil || len(out) != 0 {
			t.Fatalf("later view's commit for seq %d: %d envelopes, err %v", seq, len(out), err)
		}
	}
	if len(r.future) != 2 {
		t.Fatalf("%d of 2 later-view commits buffered", len(r.future))
	}
	c.propose(0, reqs(hashsig.Sum([]byte("client")), 10, 2))
	c.flood()
	c.assertAgreement(1, 0, 1, 2, 3)
	if len(r.future) != 1 || r.future[0].(*Commit).Seq != 2 {
		t.Fatalf("after seq 1 committed the buffer holds %d messages, want the one for seq 2", len(r.future))
	}

	for seq := uint64(3); len(r.future) < maxFuture; seq++ {
		r.buffer(later(seq))
	}
	r.buffer(later(1 << 40))
	if got := len(r.future); got != maxFuture {
		t.Fatalf("buffer holds %d messages, cap is %d", got, maxFuture)
	}
	if oldest, newest := r.future[0].(*Commit).Seq, r.future[maxFuture-1].(*Commit).Seq; oldest != 3 || newest != 1<<40 {
		t.Fatalf("full buffer runs from seq %d to %d, want the oldest (2) evicted for the newest", oldest, newest)
	}
}
