package consensus

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
	"iaccf/internal/transport"
	"iaccf/internal/wire"
)

// TestSyncChunkVerifiedAgainstCertifiedDigest puts a replica mid-transfer
// and hands it state chunks by hand. A chunk is judged at the chunk, by
// the d_C the offer's certificate signs: one that decodes cleanly and
// merely holds different contents is refused like a garbled one and
// leaves the state missing; the honest chunk then fills it.
func TestSyncChunkVerifiedAgainstCertifiedDigest(t *testing.T) {
	serving := kv.New()
	tx := serving.Begin()
	for _, k := range []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"} {
		tx.Put(k, []byte("100"))
	}
	tx.Commit()
	chunkOf := func(s *kv.Store) []byte {
		var buf bytes.Buffer
		if err := s.SerializeShard(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	lying := serving.Clone()
	tx = lying.Begin()
	tx.Put("alice", []byte("999"))
	tx.Commit()

	r := newCluster(t, 4).replicas[3]
	const ckptSeq = uint64(2)
	cert := &ledger.CommitCert{Header: ledger.BatchHeader{Seq: ckptSeq + 1, CkptDigest: serving.CheckpointDigest()}}
	r.sync.offer = &syncOffer{ckptSeq: ckptSeq, checkpoint: true, cert: cert}
	r.sync.batch = make([]*ledger.Batch, 1) // a suffix batch still owed: no adoption here

	deliver := func(data []byte) error {
		return r.recordChunk(&SyncChunk{
			Replica: 1, Requester: r.ID(), CkptSeq: ckptSeq,
			Kind: SyncChunkState, Data: data,
		})
	}
	garbled := chunkOf(serving)
	garbled[len(garbled)/2] ^= 0xff
	for what, data := range map[string][]byte{
		"garbled chunk": garbled,
		"well-formed chunk with different contents": chunkOf(lying),
	} {
		if err := deliver(data); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: got %v, want ErrInvalid", what, err)
		}
		if r.sync.store != nil {
			t.Fatalf("%s was recorded", what)
		}
	}
	if err := deliver(chunkOf(serving)); err != nil {
		t.Fatal(err)
	}
	if r.sync.store == nil || r.sync.store.CheckpointDigest() != serving.CheckpointDigest() {
		t.Fatal("honest chunk not installed")
	}
	if got := r.sync.missing(); got != 1 {
		t.Fatalf("%d chunks missing, want the one suffix batch", got)
	}
}

// laggingCluster commits batches seqs 1..committed on replicas 0-2 while
// replica 3 hears nothing, and returns the cluster with replica 3 asking
// replica 1.
func laggingCluster(t *testing.T, committed uint64) (*cluster, *Replica) {
	t.Helper()
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	for seq := uint64(1); seq <= committed; seq++ {
		c.propose(0, reqs(author, 10*seq, 2))
		c.flood(3)
	}
	c.assertAgreement(committed, 0, 1, 2)
	lag := c.replicas[3]
	lag.sync.force = true
	if out := lag.SyncTick(); len(out) != 1 || out[0].Dest != 1 || !lag.Syncing() {
		t.Fatalf("laggard did not ask replica 1: %s", lag.DebugState())
	}
	return c, lag
}

// tickUntilAsking ticks a replica holding certified evidence of a commit it
// lacks through its patience and queues the request it then sends.
func (c *cluster) tickUntilAsking(lag *Replica) {
	c.t.Helper()
	for i := 0; i < syncPatience && !lag.Syncing(); i++ {
		c.queue = append(c.queue, outMsgs(lag.SyncTick())...)
	}
	if !lag.Syncing() {
		c.t.Fatalf("laggard never asked: %s", lag.DebugState())
	}
}

// TestPatienceFollowsEvidence: how long a replica goes without a commit
// before it asks depends on what it knows. With an instance in flight it
// waits syncBaseBackoff ticks — retransmission's turn — and a commit inside
// that span starts the count again, so a cluster under load never asks. A
// replica that lost every frame of the last batch before the cluster went
// idle knows nothing, and still asks after syncMaxBackoff ticks; so does a
// replica that lacks nothing, and nobody answers it. Every ask goes to one
// peer.
func TestPatienceFollowsEvidence(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	lag := c.replicas[3]
	silentFor := func(r *Replica, ticks int) {
		t.Helper()
		for i := 0; i < ticks; i++ {
			if out := r.SyncTick(); len(out) != 0 || r.Syncing() {
				t.Fatalf("replica %d asked after %d ticks: %s", r.ID(), i+1, r.DebugState())
			}
		}
	}
	ask := func(r *Replica) {
		t.Helper()
		out := r.SyncTick()
		if len(out) != 1 || out[0].IsBroadcast() || out[0].Dest == r.ID() || !r.Syncing() {
			t.Fatalf("replica %d did not ask one peer: %s", r.ID(), r.DebugState())
		}
		c.queue = append(c.queue, out[0].Msg)
	}
	// preprepared proposes the next batch; replica 3 sees the pre-prepare and
	// none of the votes, which stay queued.
	preprepared := func(seq uint64) {
		t.Helper()
		c.propose(0, reqs(author, 10*seq, 2))
		if _, err := lag.Handle(c.queue[0]); err != nil || lag.InFlight() != 1 {
			t.Fatalf("replica 3 did not open seq %d: %v", seq, err)
		}
	}

	// In flight, and the votes are only late.
	preprepared(1)
	silentFor(lag, syncBaseBackoff-1)
	c.flood()
	c.assertAgreement(1, 0, 1, 2, 3)
	preprepared(2)
	silentFor(lag, syncBaseBackoff-1)

	// In flight, and the votes never come: seq 2 commits on the others.
	c.flood(3)
	c.assertAgreement(2, 0, 1, 2)
	ask(lag)
	c.flood()
	c.assertAgreement(2, 0, 1, 2, 3)
	if lag.Syncs() != 1 || lag.Syncing() {
		t.Fatalf("replica 3 did not catch up on seq 2: %s", lag.DebugState())
	}

	// Nothing in flight, nothing heard: seq 3 commits without a frame
	// reaching replica 3, and the cluster goes idle.
	c.propose(0, reqs(author, 30, 2))
	c.flood(3)
	c.assertAgreement(3, 0, 1, 2)
	silentFor(lag, syncMaxBackoff-1)
	ask(lag)
	c.flood()
	c.assertAgreement(3, 0, 1, 2, 3)
	if lag.Syncs() != 2 {
		t.Fatalf("replica 3 did not catch up on seq 3: %s", lag.DebugState())
	}

	// A replica that lacks nothing asks as rarely, and gets no answer.
	silentFor(c.replicas[1], syncMaxBackoff-1)
	ask(c.replicas[1])
	for _, r := range c.replicas {
		if out, err := r.Handle(c.queue[0]); err != nil || len(out) != 0 {
			t.Fatalf("replica %d answered a request for nothing it has: %d envelopes, err %v", r.ID(), len(out), err)
		}
	}
}

// pushFrom returns the chunks server pushes in answer to an ask from lag,
// each checked to be addressed to lag alone.
func pushFrom(t *testing.T, server, lag *Replica) []*SyncChunk {
	t.Helper()
	out, err := server.Handle(&SyncRequest{Replica: lag.ID(), HaveSeq: lag.Committed()})
	if err != nil || len(out) == 0 {
		t.Fatalf("replica %d answered a sync request with %d envelopes, err %v", server.ID(), len(out), err)
	}
	var push []*SyncChunk
	for _, o := range out {
		chunk, ok := o.Msg.(*SyncChunk)
		if !ok || o.Dest != lag.ID() {
			t.Fatalf("replica %d pushed %T to %d", server.ID(), o.Msg, o.Dest)
		}
		push = append(push, chunk)
	}
	return push
}

// deliver hands lag a push chunk by chunk and returns what the last chunk
// produced; every chunk before it must be taken without error.
func deliver(t *testing.T, lag *Replica, push []*SyncChunk) (last []Outbound, err error) {
	t.Helper()
	for i, chunk := range push {
		if last, err = lag.Handle(chunk); err != nil && i < len(push)-1 {
			t.Fatalf("chunk %d of %d refused on arrival: %v", i, len(push), err)
		}
	}
	return last, err
}

// TestSuffixOfferAcceptance: a peer that still retains the batch above the
// requester's boundary pushes the suffix alone — batch chunks, no
// frontier, its latest certificate — to the requester alone.
// The requester takes the offer only if it starts exactly at its own
// boundary, spans a bounded suffix and carries a certificate that verifies;
// an offer that fails a check leaves the replica as it was, bans its source
// and moves the ask to the next peer.
func TestSuffixOfferAcceptance(t *testing.T) {
	c, lag := laggingCluster(t, 3)
	honest := pushFrom(t, c.replicas[1], lag)
	if len(honest) != 3 {
		t.Fatalf("push of the suffix 1..3 holds %d chunks", len(honest))
	}
	for i, chunk := range honest {
		if chunk.Kind != SyncChunkBatch || chunk.Index != uint64(i) || chunk.CkptSeq != 0 ||
			len(chunk.Frontier) != 0 || chunk.Cert.Seq() != 3 {
			t.Fatalf("chunk %d of the push to a near laggard is (kind %d index %d, from %d, %d frontier bytes, cert %d), want batch %d of the bare suffix 1..3",
				i, chunk.Kind, chunk.Index, chunk.CkptSeq, len(chunk.Frontier), chunk.Cert.Seq(), i)
		}
	}
	if out, _ := c.replicas[2].Handle(&SyncRequest{Replica: 0, HaveSeq: 3}); len(out) != 0 {
		t.Fatal("a peer with nothing newer answered a sync request")
	}
	// A suffix the requester would refuse as too long is not offered: the
	// push starts at the checkpoint instead. (The boundary is set by hand;
	// committing maxSyncSuffix batches would say no more.)
	far := c.replicas[0]
	near := far.suffixServes(0)
	far.committed += maxSyncSuffix
	tooLong := far.suffixServes(0)
	far.committed -= maxSyncSuffix
	if !near || tooLong {
		t.Fatalf("suffix offered across 3 batches %v, across more than maxSyncSuffix %v", near, tooLong)
	}

	mutate := func(f func(m *SyncChunk)) *SyncChunk {
		m := *honest[0]
		cert := *honest[0].Cert
		cert.Prepares = append([]ledger.Prepare(nil), cert.Prepares...)
		m.Cert = &cert
		f(&m)
		return &m
	}
	for _, tc := range []struct {
		what    string
		chunk   *SyncChunk
		invalid bool
	}{
		{"starts above the requester's boundary", mutate(func(m *SyncChunk) { m.CkptSeq = 1 }), false},
		{"spans more than maxSyncSuffix", mutate(func(m *SyncChunk) { m.Cert.Header.Seq = maxSyncSuffix + 1 }), true},
		{"certificate with a forged prepare", mutate(func(m *SyncChunk) { m.Cert.Prepares[0].Sig = []byte("garbage") }), true},
		{"certificate without an opened quorum", mutate(func(m *SyncChunk) { m.Cert.Opens = m.Cert.Opens[:1] }), true},
	} {
		// Each case meets a fresh laggard asking replica 1; the cluster's
		// keys are fixed, so the push verifies there as it does here.
		_, fresh := laggingCluster(t, 3)
		seq, state := fresh.Ledger().Seq(), fresh.Ledger().StateDigest()
		out, err := fresh.Handle(tc.chunk)
		if errors.Is(err, ErrInvalid) != tc.invalid || (err != nil) != tc.invalid {
			t.Fatalf("offer that %s: err = %v, want invalid %v", tc.what, err, tc.invalid)
		}
		if fresh.sync.offer != nil || fresh.Committed() != 0 || fresh.Ledger().Seq() != seq || fresh.Ledger().StateDigest() != state {
			t.Fatalf("offer that %s was taken up: %s", tc.what, fresh.DebugState())
		}
		if asked := len(out) == 1 && out[0].Dest == 2; fresh.sync.banned[1] != tc.invalid || asked != tc.invalid || !fresh.Syncing() {
			t.Fatalf("offer that %s: source banned %v, %d envelopes, want the ban and an ask to replica 2 %v",
				tc.what, fresh.sync.banned[1], len(out), tc.invalid)
		}
	}

	if _, err := deliver(t, lag, honest); err != nil {
		t.Fatalf("honest suffix push refused: %v", err)
	}
	c.assertAgreement(3, 0, 1, 2, 3)
	if lag.Syncs() != 1 || lag.Syncing() || lag.Ledger().FirstRetainedSeq() != 1 {
		t.Fatalf("after the honest push: %s", lag.DebugState())
	}
}

// TestPushSurvivesSourcePruning is the live-load race the push removes: the
// source builds its push when the ask arrives. Here the push reaches the
// laggard only after the source has committed two more checkpoints and
// pruned the one it offered, with the batch above it, and the laggard still
// adopts it: it asks the source for nothing more. (When the laggard pulled
// each chunk of an accepted offer, its requests reached a source that no
// longer held the chunks; every one was refused and nothing was adopted.)
func TestPushSurvivesSourcePruning(t *testing.T) {
	c, lag := laggingCluster(t, 7)
	source := c.replicas[1]
	// CheckpointEvery 2, window 4: at 7 the source has pruned batch 1, so it
	// offers checkpoint 6 and the batch above it.
	push := pushFrom(t, source, lag)
	if len(push) != 2 || push[0].Kind != SyncChunkState || push[0].CkptSeq != 6 ||
		push[1].Kind != SyncChunkBatch || push[1].Cert.Seq() != 7 {
		t.Fatalf("push to a laggard at 0 holds %d chunks (first of kind %d from %d), want checkpoint 6 and batch 7",
			len(push), push[0].Kind, push[0].CkptSeq)
	}
	author := hashsig.Sum([]byte("client"))
	for seq := uint64(8); seq <= 11; seq++ {
		c.propose(0, reqs(author, 10*seq, 2))
		c.flood(3)
	}
	c.assertAgreement(11, 0, 1, 2)
	if source.Ledger().CheckpointAt(7) != nil || source.Ledger().BatchAt(7) != nil {
		t.Fatalf("the source still holds checkpoint 6 or batch 7 (first retained %d)", source.Ledger().FirstRetainedSeq())
	}

	if _, err := deliver(t, lag, push); err != nil {
		t.Fatalf("push delivered after the source moved on: %v", err)
	}
	if lag.Syncs() != 1 || lag.Committed() != 7 || lag.Syncing() || lag.Ledger().FirstRetainedSeq() != 7 {
		t.Fatalf("laggard did not adopt checkpoint 6 and batch 7: %s", lag.DebugState())
	}
	if got := lag.Ledger().BatchAt(7).Header.ContentDigest(); got != push[1].Cert.Header.ContentDigest() {
		t.Fatal("laggard adopted another batch 7 than the certified one")
	}
}

// TestPushFailureIsReturned: a source that cannot serialize a state chunk
// pushes nothing and returns the error, wrapped, so the node counts it
// (Stats.HandleErrors counts every error Handle returns) instead of the
// laggard waiting for a push that is not coming, with nothing recorded.
func TestPushFailureIsReturned(t *testing.T) {
	c, lag := laggingCluster(t, 7)
	broken := errors.New("state unreadable")
	defer func(f func(*kv.Store, io.Writer) error) { serializeState = f }(serializeState)
	serializeState = func(*kv.Store, io.Writer) error { return broken }
	out, err := c.replicas[1].Handle(&SyncRequest{Replica: lag.ID(), HaveSeq: lag.Committed()})
	if !errors.Is(err, broken) || len(out) != 0 {
		t.Fatalf("push of an unserializable checkpoint: %d envelopes, err %v; want none and the error", len(out), err)
	}
}

// TestSyncChunkFitsOneFrame: every chunk carries its offer, so the largest
// state chunk a decoder accepts (wire.MaxChunkLen) must fit one transport
// frame beside the largest offer an n-replica cluster can make — a
// certificate with a prepare from every backup and an opening from every
// replica, and the longest frontier a decoder accepts — for this cluster's
// 4 and for the 165 that transport.MaxFrameLen's comment promises.
func TestSyncChunkFitsOneFrame(t *testing.T) {
	c := newCluster(t, 4)
	c.propose(0, reqs(hashsig.Sum([]byte("client")), 10, 2))
	c.flood()
	c.assertAgreement(1, 0, 1, 2, 3)
	committed := c.replicas[0].lastCommit
	for _, n := range []int{4, 165} {
		cert := *committed
		cert.Prepares, cert.Opens = nil, nil
		for len(cert.Prepares) < n-1 {
			cert.Prepares = append(cert.Prepares, committed.Prepares[0])
		}
		for len(cert.Opens) < n {
			cert.Opens = append(cert.Opens, committed.Opens[0])
		}
		chunk := &SyncChunk{
			Replica: 1, Requester: 3, CkptSeq: 2,
			Frontier: make([]byte, maxFrontierBytes),
			Cert:     &cert,
			Kind:     SyncChunkState,
		}
		// Data is a length-prefixed field: a full chunk adds exactly its length.
		if frame := len(EncodeMessage(chunk)) + wire.MaxChunkLen; frame > transport.MaxFrameLen {
			t.Fatalf("a full state chunk under a %d-replica offer is a %d-byte frame, over transport.MaxFrameLen (%d)", n, frame, transport.MaxFrameLen)
		}
	}
}

// TestTamperedSuffixChangesNothing: a source pushes one suffix batch that is
// validly signed and not what committed — the committed header over other
// entries, above the laggard's speculation; or a batch the source signed as
// primary of a view of its own, in place of the batch the laggard has in
// flight. The adoption fails and the replica is exactly where it was —
// boundary, ledger, state, the instance it had in flight under the nonce its
// prepare committed to — with the source banned and the next peer asked,
// whose honest push then completes the transfer, and the speculation that matched it is not executed
// twice.
func TestTamperedSuffixChangesNothing(t *testing.T) {
	author := hashsig.Sum([]byte("client"))
	for what, lie := range map[string]func(c *cluster) (index uint64, b *ledger.Batch){
		"the committed header over other entries": func(c *cluster) (uint64, *ledger.Batch) {
			b := *c.replicas[1].Ledger().BatchAt(2)
			b.Entries = append([]ledger.Entry(nil), b.Entries...)
			b.Entries[0].Payload = []byte("not what the header signs")
			return 1, &b
		},
		"the source's own statement against the speculation": func(c *cluster) (uint64, *ledger.Batch) {
			scratch, err := ledger.New(ledger.Config{Key: c.keys[1], App: ledger.KVApp{}, CheckpointEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			evil, err := scratch.ExecuteBatchAs(envelope(1, 1), reqs(author, 666, 2))
			if err != nil {
				t.Fatal(err)
			}
			return 0, evil
		},
	} {
		c, lag := laggingCluster(t, 3)
		// The laggard did see seq 1's pre-prepare, and none of its votes.
		first := c.replicas[0].Ledger().BatchAt(1)
		if _, err := lag.Handle(&PrePrepare{Header: first.Header, Entries: first.Entries}); err != nil || lag.InFlight() != 1 {
			t.Fatalf("laggard did not open seq 1: %v", err)
		}
		inFlight, nonce := lag.insts[1], lag.insts[1].nonce
		seq, state := lag.Ledger().Seq(), lag.Ledger().StateDigest()

		serve := func(server *Replica, tamper uint64, with *ledger.Batch) ([]Outbound, error) {
			t.Helper()
			push := pushFrom(t, server, lag)
			if len(push) != 3 {
				t.Fatalf("%s: push from %d holds %d chunks, want 3", what, server.ID(), len(push))
			}
			for _, chunk := range push {
				if chunk.Index == tamper {
					chunk.Data = encodeBatchChunk(with)
				}
			}
			return deliver(t, lag, push)
		}

		index, b := lie(c)
		out, err := serve(c.replicas[1], index, b)
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: adoption err = %v, want ErrInvalid", what, err)
		}
		if lag.Committed() != 0 || lag.Ledger().Seq() != seq || lag.Ledger().StateDigest() != state || lag.Syncs() != 0 ||
			lag.InFlight() != 1 || lag.insts[1] != inFlight || inFlight.nonce != nonce || inFlight.ownPrepare == nil {
			t.Fatalf("%s: failed adoption moved the replica: %s", what, lag.DebugState())
		}
		if got := lag.Ledger().BatchAt(1); got == nil || got.Header.StatementDigest() != first.Header.StatementDigest() {
			t.Fatalf("%s: failed adoption left another batch at the speculated seq", what)
		}
		if !lag.sync.banned[1] || !lag.Syncing() || len(out) != 1 || out[0].Dest != 2 {
			t.Fatalf("%s: lying source not banned, or replica 2 not asked: %s", what, lag.DebugState())
		}
		for _, chunk := range pushFrom(t, c.replicas[1], lag) {
			if out, err := lag.Handle(chunk); err != nil || len(out) != 0 || lag.sync.offer != nil {
				t.Fatalf("%s: push from the banned source was taken up", what)
			}
		}

		if _, err := serve(c.replicas[2], 99, nil); err != nil {
			t.Fatalf("%s: honest transfer: %v", what, err)
		}
		c.assertAgreement(3, 0, 1, 2, 3)
		if lag.Syncs() != 1 || lag.Syncing() || lag.InFlight() != 0 {
			t.Fatalf("%s: after the honest transfer: %s", what, lag.DebugState())
		}
		if got := lag.Ledger().BatchAt(1).Header.StatementDigest(); got != first.Header.StatementDigest() {
			t.Fatalf("%s: matching speculation was replaced", what)
		}
	}
}

// TestPinsSurviveAdoptionWithinView: the batch after the last commit
// prepared in view 0, so view 1's new-view pins its content on every replica
// that enters the view — among them replica 3, which is still at seq 0. It
// catches up on the committed prefix under the view-0 certificate — the suffix
// alone when its peers still retain seq 1, their checkpoint once they do
// not: an adoption that does not change its view, and so must not lift the
// pin above it. Without the pin a Byzantine view-1 primary could replace a
// batch that committed outside the new-view quorum.
func TestPinsSurviveAdoptionWithinView(t *testing.T) {
	for what, committed := range map[string]uint64{"suffix offer": 1, "checkpoint offer": 6} {
		c := newCluster(t, 4)
		author := hashsig.Sum([]byte("client"))
		scratch, err := ledger.New(ledger.Config{Key: c.keys[1], App: ledger.KVApp{}, CheckpointEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= committed; seq++ {
			c.propose(0, reqs(author, 10*seq, 2))
			c.flood(3)
			if _, _, err := scratch.ExecuteBatch(reqs(author, 10*seq, 2)); err != nil {
				t.Fatal(err)
			}
		}
		c.assertAgreement(committed, 0, 1, 2)
		pinned := committed + 1
		pp, _, err := c.replicas[0].Propose(reqs(author, 10*pinned, 2))
		if err != nil {
			t.Fatal(err)
		}
		var prepares []Message
		for _, id := range []int{1, 2} {
			out, err := c.replicas[id].Handle(pp)
			if err != nil {
				t.Fatal(err)
			}
			prepares = append(prepares, outMsgs(out)...)
		}
		for _, m := range prepares {
			for _, id := range []int{0, 1, 2} {
				c.replicas[id].Handle(m) // commits withheld: prepared, never committed
			}
		}

		nv, _ := viewChangeTo1(t, c)
		lag := c.replicas[3]
		if _, err := lag.Handle(nv); err != nil {
			t.Fatal(err)
		}
		isPinned := func() bool {
			want, ok := lag.mustRepropose[pinned]
			return ok && want == pp.Header.ContentDigest()
		}
		if !isPinned() || lag.Committed() != 0 {
			t.Fatalf("%s: laggard is not pinned at seq %d from seq 0: %s", what, pinned, lag.DebugState())
		}
		c.tickUntilAsking(lag)
		// Replica 1, asked first, stays silent; the laggard ticks past its
		// deadline and asks replica 2, which has not entered view 1 and
		// holds the view-0 certificate.
		c.flood(0, 1)
		for i := 0; i < syncBaseBackoff && lag.Syncs() == 0; i++ {
			c.queue = append(c.queue, outMsgs(lag.SyncTick())...)
			c.flood(0, 1)
		}
		if lag.Committed() != committed || lag.Syncs() != 1 || lag.View() != 1 {
			t.Fatalf("%s: laggard did not catch up through seq %d within view 1: %s", what, committed, lag.DebugState())
		}
		if fromCheckpoint := lag.Ledger().FirstRetainedSeq() > 1; fromCheckpoint != (what == "checkpoint offer") {
			t.Fatalf("%s: laggard's ledger starts at seq %d", what, lag.Ledger().FirstRetainedSeq())
		}
		if !isPinned() {
			t.Fatalf("%s: adoption within the view lifted the pin above the adopted seq", what)
		}

		evil, err := scratch.ExecuteBatchAs(envelope(1, 1), reqs(author, 666, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lag.Handle(&PrePrepare{Header: evil.Header, Entries: evil.Entries}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: other content at the pinned seq after the adoption: err = %v, want ErrInvalid", what, err)
		}
		if lag.Ledger().Seq() != pinned {
			t.Fatalf("%s: rejected proposal left its execution in the ledger", what)
		}
	}
}
