package consensus

import (
	"bytes"
	"errors"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
)

// TestSyncChunkVerifiedAgainstCertifiedVector puts a replica mid-fetch and
// serves it state chunks by hand. A chunk is judged at the chunk, by what
// d_C commits to: one that decodes cleanly, keeps every key in its shard
// and merely holds different contents is refused like a garbled one and
// leaves the slot open for the re-request; the honest chunk then fills it.
func TestSyncChunkVerifiedAgainstCertifiedVector(t *testing.T) {
	const shards = 4
	serving := kv.NewSharded(shards)
	tx := serving.Begin()
	for _, k := range []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"} {
		tx.Put(k, []byte("100"))
	}
	tx.Commit()
	shard := int(kv.ShardOfKey("alice", shards))
	chunkOf := func(s *kv.ShardedStore) []byte {
		var buf bytes.Buffer
		if err := s.SerializeShard(shard, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	lying := serving.Clone()
	tx = lying.Begin()
	tx.Put("alice", []byte("999"))
	tx.Commit()

	r := newCluster(t, 4, shards).replicas[3]
	const source, ckptSeq = ReplicaID(1), uint64(2)
	r.sync.phase = syncFetching
	r.sync.offer = &syncOffer{source: source, ckptSeq: ckptSeq, shardDigests: serving.ShardDigests()}
	r.sync.store = kv.NewSharded(shards)
	r.sync.have = make([]bool, shards)
	r.sync.batch = make([]*ledger.Batch, 1) // a suffix batch still owed: no adoption here

	deliver := func(data []byte) error {
		var out []Outbound
		return r.handleSyncChunk(&SyncChunk{
			Replica: source, Requester: r.ID(), CkptSeq: ckptSeq,
			Kind: SyncChunkState, Index: uint64(shard), Data: data,
		}, &out)
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
		if r.sync.have[shard] || r.sync.store.ShardSnapshot(shard).Len() != 0 {
			t.Fatalf("%s was recorded", what)
		}
	}
	if err := deliver(chunkOf(serving)); err != nil {
		t.Fatal(err)
	}
	if !r.sync.have[shard] || r.sync.store.ShardDigest(shard) != serving.ShardDigest(shard) {
		t.Fatal("honest chunk not installed")
	}
	if got, want := r.sync.missing(), shards-1+1; got != want {
		t.Fatalf("%d chunks missing, want %d", got, want)
	}
}

// TestSyncChunkRefusalsAreCounted: a source asked for a chunk it no longer
// holds emits nothing and counts the refusal by kind — the state chunk of a
// checkpoint it has moved past or of a shard that checkpoint lacks, a batch
// it has pruned or has not committed — while a chunk it holds is served and
// counts nothing.
func TestSyncChunkRefusalsAreCounted(t *testing.T) {
	c := newCluster(t, 4, 1)
	author := hashsig.Sum([]byte("client"))
	source := c.replicas[1]
	commitThrough := func(last uint64) {
		for seq := source.Committed() + 1; seq <= last; seq++ {
			c.propose(0, reqs(author, 10*seq, 2))
			c.flood()
		}
		c.assertAgreement(last, 0, 1, 2, 3)
	}
	ask := func(ckptSeq uint64, kind uint32, index uint64) int {
		t.Helper()
		out, err := source.Handle(&SyncChunkRequest{Replica: 3, Source: source.ID(), CkptSeq: ckptSeq, Kind: kind, Index: index})
		if err != nil {
			t.Fatal(err)
		}
		return len(out)
	}

	commitThrough(2)
	if sent := ask(2, SyncChunkState, 0); sent != 1 || source.SyncRefusals() != (SyncRefusals{}) {
		t.Fatalf("state chunk of the current checkpoint: %d chunks sent, refusals %+v", sent, source.SyncRefusals())
	}
	// CheckpointEvery 2, window 4: at 8 the checkpoint is 8 and batches
	// below 5 are pruned.
	commitThrough(8)
	if first := source.Ledger().FirstRetainedSeq(); first != 5 {
		t.Fatalf("first retained batch %d, want 5", first)
	}
	for _, tc := range []struct {
		what    string
		ckptSeq uint64
		kind    uint32
		index   uint64
		sent    int
		want    SyncRefusals // counted so far
	}{
		{"the state chunk of checkpoint 2, moved past", 2, SyncChunkState, 0, 0, SyncRefusals{State: 1}},
		{"the state chunk of checkpoint 8", 8, SyncChunkState, 0, 1, SyncRefusals{State: 1}},
		{"a shard checkpoint 8 does not have", 8, SyncChunkState, 1, 0, SyncRefusals{State: 2}},
		{"pruned batch 1", 0, SyncChunkBatch, 0, 0, SyncRefusals{State: 2, Batch: 1}},
		{"retained batch 5", 4, SyncChunkBatch, 0, 1, SyncRefusals{State: 2, Batch: 1}},
		{"batch 9, above the watermark", 8, SyncChunkBatch, 0, 0, SyncRefusals{State: 2, Batch: 2}},
	} {
		if sent := ask(tc.ckptSeq, tc.kind, tc.index); sent != tc.sent || source.SyncRefusals() != tc.want {
			t.Fatalf("%s: %d chunks sent, refusals %+v, want %d and %+v", tc.what, sent, source.SyncRefusals(), tc.sent, tc.want)
		}
	}
}

// laggingCluster commits batches seqs 1..committed on replicas 0-2 while
// replica 3 hears nothing, and returns the cluster with replica 3 asking.
func laggingCluster(t *testing.T, committed uint64) (*cluster, *Replica) {
	t.Helper()
	c := newCluster(t, 4, 1)
	author := hashsig.Sum([]byte("client"))
	for seq := uint64(1); seq <= committed; seq++ {
		c.propose(0, reqs(author, 10*seq, 2))
		c.flood(3)
	}
	c.assertAgreement(committed, 0, 1, 2)
	lag := c.replicas[3]
	lag.sync.force = true
	if out := lag.SyncTick(); len(out) != 1 || !lag.Syncing() {
		t.Fatalf("laggard did not ask: %s", lag.DebugState())
	}
	return c, lag
}

// tickUntilAsking ticks a replica holding certified evidence of a commit it
// lacks through its patience and queues the request it then broadcasts.
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
// replica that lacks nothing, and nobody answers it.
func TestPatienceFollowsEvidence(t *testing.T) {
	c := newCluster(t, 4, 1)
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
		if len(out) != 1 || !out[0].IsBroadcast() || !r.Syncing() {
			t.Fatalf("replica %d did not ask: %s", r.ID(), r.DebugState())
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
		t.Fatalf("replica 3 did not fetch seq 2: %s", lag.DebugState())
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
		t.Fatalf("replica 3 did not fetch seq 3: %s", lag.DebugState())
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

// offerFrom returns the offer server makes to a request from lag.
func offerFrom(t *testing.T, server, lag *Replica) *SyncAvail {
	t.Helper()
	out, err := server.Handle(&SyncRequest{Replica: lag.ID(), HaveSeq: lag.Committed()})
	if err != nil || len(out) != 1 || out[0].Dest != lag.ID() {
		t.Fatalf("replica %d answered a sync request with %d envelopes, err %v", server.ID(), len(out), err)
	}
	return out[0].Msg.(*SyncAvail)
}

// TestSuffixOfferAcceptance: a peer that still retains the batch above the
// requester's boundary offers the suffix alone — no shard digests, no
// frontier, its latest certificate. The requester takes it only if it
// starts exactly at its own boundary, spans a bounded suffix and carries a
// certificate that verifies; what it then asks for is batch chunks, from
// the source alone.
func TestSuffixOfferAcceptance(t *testing.T) {
	c, lag := laggingCluster(t, 3)
	honest := offerFrom(t, c.replicas[1], lag)
	if honest.CkptSeq != 0 || len(honest.ShardDigests) != 0 || len(honest.Frontier) != 0 || honest.Cert.Seq() != 3 {
		t.Fatalf("offer to a near laggard is (from %d, %d shard digests, cert %d), want the bare suffix 1..3",
			honest.CkptSeq, len(honest.ShardDigests), honest.Cert.Seq())
	}
	if out, _ := c.replicas[2].Handle(&SyncRequest{Replica: 0, HaveSeq: 3}); len(out) != 0 {
		t.Fatal("a peer with nothing newer answered a sync request")
	}
	// A suffix the requester would refuse as too long is not offered: the
	// server starts the fetch at its checkpoint instead. (The boundary is set
	// by hand; committing maxSyncSuffix batches would say no more.)
	far := c.replicas[0]
	far.committed += maxSyncSuffix
	capped := offerFrom(t, far, lag)
	far.committed -= maxSyncSuffix
	if capped.CkptSeq != 2 || len(capped.ShardDigests) != 1 || len(capped.Frontier) == 0 {
		t.Fatalf("offer across more than maxSyncSuffix batches is (from %d, %d shard digests), want the checkpoint at 2",
			capped.CkptSeq, len(capped.ShardDigests))
	}

	mutate := func(f func(m *SyncAvail)) *SyncAvail {
		m := *honest
		cert := *honest.Cert
		cert.Prepares = append([]ledger.Prepare(nil), cert.Prepares...)
		m.Cert = &cert
		f(&m)
		return &m
	}
	for _, tc := range []struct {
		what    string
		offer   *SyncAvail
		invalid bool
	}{
		{"starts above the requester's boundary", mutate(func(m *SyncAvail) { m.CkptSeq = 1 }), false},
		{"spans more than maxSyncSuffix", mutate(func(m *SyncAvail) { m.Cert.Header.Seq = maxSyncSuffix + 1 }), true},
		{"certificate with a forged prepare", mutate(func(m *SyncAvail) { m.Cert.Prepares[0].Sig = []byte("garbage") }), true},
		{"certificate without an opened quorum", mutate(func(m *SyncAvail) { m.Cert.Opens = m.Cert.Opens[:1] }), true},
	} {
		out, err := lag.Handle(tc.offer)
		if errors.Is(err, ErrInvalid) != tc.invalid || (err != nil) != tc.invalid {
			t.Fatalf("offer that %s: err = %v, want invalid %v", tc.what, err, tc.invalid)
		}
		if len(out) != 0 || lag.sync.phase != syncCollecting || lag.sync.offer != nil {
			t.Fatalf("offer that %s was taken up: %s", tc.what, lag.DebugState())
		}
	}

	out, err := lag.Handle(honest)
	if err != nil || lag.sync.phase != syncFetching {
		t.Fatalf("honest suffix offer refused: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("accepted a 3-batch suffix and asked for %d chunks", len(out))
	}
	for _, o := range out {
		if rq, ok := o.Msg.(*SyncChunkRequest); !ok || o.Dest != 1 || rq.Kind != SyncChunkBatch {
			t.Fatalf("fetch plan holds %T to %d", o.Msg, o.Dest)
		}
	}
}

// TestTamperedSuffixChangesNothing: a source serves one suffix batch that is
// validly signed and not what committed — the committed header over other
// entries, above the laggard's speculation; or a batch the source signed as
// primary of a view of its own, in place of the batch the laggard has in
// flight. The adoption fails and the replica is exactly where it was —
// boundary, ledger, state, the instance it had in flight under the nonce its
// prepare committed to — with the source banned; an honest peer then
// completes the transfer, and the speculation that matched it is not executed
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
			scratch, err := ledger.New(ledger.Config{Key: c.keys[1], App: ledger.KVApp{}, CheckpointEvery: 2, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			evil, _, err := scratch.ExecuteBatchAs(envelope(1, 1), reqs(author, 666, 2))
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

		serve := func(server *Replica, tamper uint64, with *ledger.Batch) (last []Outbound, err error) {
			t.Helper()
			requests, err := lag.Handle(offerFrom(t, server, lag))
			if err != nil || len(requests) != 3 {
				t.Fatalf("%s: offer from %d: %d chunk requests, err %v", what, server.ID(), len(requests), err)
			}
			for _, rq := range requests {
				out, _ := server.Handle(rq.Msg)
				chunk := out[0].Msg.(*SyncChunk)
				if chunk.Index == tamper {
					chunk.Data = encodeBatchChunk(with)
				}
				if last, err = lag.Handle(chunk); err != nil && rq.Msg != requests[2].Msg {
					t.Fatalf("%s: chunk %d refused on arrival: %v", what, chunk.Index, err)
				}
			}
			return last, err
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
		if !lag.sync.banned[1] || lag.sync.phase != syncCollecting || len(out) != 1 {
			t.Fatalf("%s: lying source not banned and rediscovered: %s", what, lag.DebugState())
		}
		if out, _ := lag.Handle(offerFrom(t, c.replicas[1], lag)); len(out) != 0 || lag.sync.phase != syncCollecting {
			t.Fatalf("%s: offer from the banned source was taken up", what)
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
// fetches the committed prefix under the view-0 certificate — the suffix
// alone when its peers still retain seq 1, their checkpoint once they do
// not: an adoption that does not change its view, and so must not lift the
// pin above it. Without the pin a Byzantine view-1 primary could replace a
// batch that committed outside the new-view quorum.
func TestPinsSurviveAdoptionWithinView(t *testing.T) {
	for what, committed := range map[string]uint64{"suffix offer": 1, "checkpoint offer": 6} {
		c := newCluster(t, 4, 1)
		author := hashsig.Sum([]byte("client"))
		scratch, err := ledger.New(ledger.Config{Key: c.keys[1], App: ledger.KVApp{}, CheckpointEvery: 2, Shards: 1})
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
		// Replica 2 has not entered view 1 and holds the view-0 certificate.
		c.flood(0, 1)
		if lag.Committed() != committed || lag.Syncs() != 1 || lag.View() != 1 {
			t.Fatalf("%s: laggard did not fetch through seq %d within view 1: %s", what, committed, lag.DebugState())
		}
		if fromCheckpoint := lag.Ledger().FirstRetainedSeq() > 1; fromCheckpoint != (what == "checkpoint offer") {
			t.Fatalf("%s: laggard's ledger starts at seq %d", what, lag.Ledger().FirstRetainedSeq())
		}
		if !isPinned() {
			t.Fatalf("%s: adoption within the view lifted the pin above the adopted seq", what)
		}

		evil, _, err := scratch.ExecuteBatchAs(envelope(1, 1), reqs(author, 666, 2))
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
