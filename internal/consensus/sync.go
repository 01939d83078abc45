package consensus

import (
	"bytes"
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
	"iaccf/internal/merkle"
	"iaccf/internal/wire"
)

// Catching up (paper §3.4, §6). A commit is a transferable fact — 2f+1
// prepares plus opened nonces, retained as CommitCert — so a replica that
// missed one never re-runs agreement on it: it fetches the batches from a
// peer, anchored by the peer's latest certificate, and checks them by
// re-execution. This file is the only way a replica obtains a batch it did
// not commit itself.
//
// Who asks: a replica that made no commit progress for as many ticks as
// what it knows warrants (patience: few on certified evidence of a commit it
// lacks, more on a hunch, many when it hears nothing at all) broadcasts
// SyncRequest{HaveSeq: committed}. A commit that lands cancels the ask. Who
// answers: any peer with committed > HaveSeq, to the requester alone; peers
// with nothing newer stay silent, so a cluster under load sends nothing and
// an idle one a 12-byte question per replica every syncMaxBackoff ticks. The
// answer (SyncAvail) takes one of two shapes:
//
//   - suffix-only, when the peer still retains batch HaveSeq+1 (maybePrune
//     keeps the last W) and the suffix is one a requester accepts
//     (maxSyncSuffix): CkptSeq = HaveSeq, no shard digests, no frontier — the
//     batches HaveSeq+1..Cert.Seq() apply onto the requester's own ledger;
//   - checkpoint, otherwise: the peer's latest committed checkpoint (seq,
//     shard digest vector, frontier) fetched as per-shard state chunks, plus
//     the batch suffix above it.
//
// Trust chain — one certificate anchors the whole transfer:
//
//   - The SyncAvail's commit certificate proves its batch header committed;
//     the header signs d_C, so a checkpoint offer's shard digest vector must
//     combine to the header's d_C.
//   - Each state chunk must rebuild to its slot in that vector: a slot is
//     the digest of a shard's trie (kv.ShardDigest), so the chunk is
//     decoded, placement-checked and rebuilt on arrival, and kept decoded.
//   - The frontier and the batch suffix are verified transitively: the
//     suffix is re-executed (ledger.ApplyBatch checks results, ¯G, ¯M, d_C
//     per batch) onto the replica's own ledger or onto a candidate restored
//     from the checkpoint; the final batch's header must reproduce the
//     certified header's content digest (content, not statement: the server
//     may hold the batch under another view's statement than its
//     certificate's). The history roots chain every entry, so a lying
//     frontier or a tampered suffix batch cannot survive the anchor. Each
//     suffix header is adopted as received, so its signature is checked on
//     arrival like any pre-prepare's — a replica's ledger holds only
//     statements it verified.
//
// Adoption is all-or-nothing (adoptSync): the committed boundary moves only
// after the full chain verifies; a failed one undoes what it executed and
// puts back the speculation it displaced. A source whose data fails any
// check is banned for the rest of the effort and the transfer restarts from
// discovery, which is what makes lying chunk servers a liveness nuisance,
// never a safety risk. Timeouts are integer ticks (SyncTick) with
// exponential backoff — the replica owns no clock; the harness drives it
// deterministically.

// syncPhase is the catch-up protocol state.
type syncPhase uint8

const (
	// syncIdle: not asking.
	syncIdle syncPhase = iota
	// syncCollecting: broadcasting SyncRequest, waiting for a verifiable
	// SyncAvail.
	syncCollecting
	// syncFetching: requesting chunks of one accepted offer.
	syncFetching
)

const (
	// syncPatience is how many consecutive ticks the replica must go without
	// commit progress, holding certified evidence of a commit it lacks, before
	// it asks: the normal case's own messages are usually just late.
	syncPatience = 3
	// syncBaseBackoff and syncMaxBackoff bound the retry deadline ticks.
	// Ticks are scheduling rounds, and one request/reply round trip spans
	// many rounds under load (deliveries are one per round, drops re-queue),
	// so the clock must be generous: banning an honest server for network
	// slowness costs a full rediscovery.
	syncBaseBackoff = 16
	syncMaxBackoff  = 512
	// syncMaxAttempts is how many fetch rounds one source gets before it is
	// banned and discovery restarts.
	syncMaxAttempts = 6
	// maxSyncSuffix bounds the committed batch suffix an offer may span. An
	// honest server's suffix is shorter than its retention (window plus
	// checkpoint interval); the bound stops a hostile offer from driving an
	// unbounded fetch plan.
	maxSyncSuffix = 1 << 12
)

// syncOffer is one accepted, certificate-verified SyncAvail. shardDigests is
// empty for a suffix-only offer.
type syncOffer struct {
	source       ReplicaID
	ckptSeq      uint64
	shardDigests []hashsig.Digest
	frontier     merkle.Frontier
	cert         *ledger.CommitCert
}

// syncState is the laggard side of catch-up. Zero value is idle.
type syncState struct {
	phase syncPhase
	tick  uint64

	// ahead is the highest cluster-committed sequence number credibly
	// observed (certified view-change claims, new-view certificates, and
	// far-future proposals); behindFor counts consecutive ticks with no local
	// commit progress under one unchanged patience.
	ahead         uint64
	behindFor     int
	waitFor       int
	lastCommitted uint64
	// force requests a transfer regardless of patience: set when a rollback
	// hit the pruned checkpoint boundary, where local history cannot reach
	// the state the protocol needs.
	force bool

	deadline uint64
	backoff  uint64
	attempts int

	offer  *syncOffer
	store  *kv.ShardedStore // candidate state: the shards verified so far
	have   []bool           // have[i]: shard i is installed in store
	batch  []*ledger.Batch  // suffix ckptSeq+1..cert.Seq(), nil = missing
	banned map[ReplicaID]bool
	// adopted counts completed transfers (verified and committed).
	adopted int
	// refused is the source side: chunk requests answered with nothing.
	refused SyncRefusals
}

// SyncRefusals counts the chunk requests a replica, as a sync source, dropped
// without an answer, by what it no longer held. Counts only, no clock: a
// requester learns of a refusal only by timing out, so these say how often
// that wait was spent on a chunk its source could not serve.
type SyncRefusals struct {
	// State counts state-chunk requests for a checkpoint other than the one
	// the replica would offer now (CheckpointAt(committed)), or for a shard
	// index that checkpoint does not have.
	State uint64
	// Batch counts batch-chunk requests for a batch above the replica's
	// committed watermark or no longer retained.
	Batch uint64
}

// missing counts chunks not yet received and verified.
func (s *syncState) missing() int {
	n := 0
	for _, ok := range s.have {
		if !ok {
			n++
		}
	}
	for _, b := range s.batch {
		if b == nil {
			n++
		}
	}
	return n
}

// reset drops all transfer progress but keeps the ban list and trigger
// evidence: a failed source should stay banned across the restart.
func (s *syncState) reset() {
	s.phase = syncIdle
	s.deadline = 0
	s.backoff = 0
	s.attempts = 0
	s.offer, s.store, s.have, s.batch = nil, nil, nil, nil
}

// Syncing reports whether a catch-up is in progress.
func (r *Replica) Syncing() bool { return r.sync.phase != syncIdle }

// noteAhead records credible evidence that the cluster committed through
// seq. Callers pass only validated claims (certified view-changes,
// new-view certificates) or window-implied bounds from signed proposals;
// the evidence only gates when discovery starts — everything fetched is
// verified independently, so an inflated claim cannot corrupt state.
func (r *Replica) noteAhead(seq uint64) {
	if seq > r.sync.ahead {
		r.sync.ahead = seq
	}
}

// patience is how many ticks without a commit this replica lets pass before
// it asks, by what it knows. Certified evidence of a commit it lacks waits
// out late delivery only. Instances in flight, or buffered traffic for a slot
// above the boundary, are a hunch — the quorum may have completed elsewhere,
// and nobody retransmits for a decided slot — so retransmission gets its turn
// first and a cluster under load never asks. A replica that hears nothing
// asks too, rarely: its peers go quiet after a commit whose every frame to it
// was lost.
func (r *Replica) patience() int {
	if r.sync.ahead > r.committed {
		return syncPatience
	}
	hunch := len(r.insts) > 0
	for _, m := range r.future {
		if seq, ok := messageSeq(m); ok && seq > r.committed {
			hunch = true
		}
	}
	if hunch {
		return syncBaseBackoff
	}
	return syncMaxBackoff
}

// discover (re)starts discovery and returns the request to broadcast — the
// laggard does not know who holds what it lacks.
func (r *Replica) discover() Outbound {
	s := &r.sync
	s.reset()
	s.phase = syncCollecting
	s.backoff = syncBaseBackoff
	s.deadline = s.tick + s.backoff
	return toAll(&SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed})
}

// SyncTick advances the catch-up clock one step and returns any envelopes
// to send: discovery requests broadcast, chunk re-requests unicast to the
// accepted offer's source. The harness or node runtime calls it once per
// scheduling round; all deadlines and backoffs are in these ticks, never
// wall time.
func (r *Replica) SyncTick() []Outbound {
	s := &r.sync
	s.tick++
	progressed := r.committed != s.lastCommitted
	if wait := r.patience(); progressed || wait != s.waitFor {
		s.lastCommitted, s.waitFor, s.behindFor = r.committed, wait, 0
	}
	var out []Outbound
	switch s.phase {
	case syncIdle:
		s.behindFor++
		if s.force || s.behindFor >= s.waitFor {
			out = append(out, r.discover())
		}
	case syncCollecting:
		if !s.force && progressed && s.ahead <= r.committed {
			// The commit landed after all: stop asking.
			s.reset()
			break
		}
		if s.tick >= s.deadline {
			if s.backoff < syncMaxBackoff {
				s.backoff *= 2
			}
			s.deadline = s.tick + s.backoff
			out = append(out, toAll(&SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed}))
		}
	case syncFetching:
		if r.committed >= s.offer.cert.Seq() {
			// Organic progress overtook the offer while fetching; adopting
			// it now would move the watermark backwards.
			s.reset()
			break
		}
		if s.tick >= s.deadline {
			s.attempts++
			if s.attempts >= syncMaxAttempts {
				// The source keeps failing to deliver verifiable chunks:
				// ban it and rediscover.
				r.banSyncSource(s.offer.source)
				out = append(out, r.discover())
				break
			}
			if s.backoff < syncMaxBackoff {
				s.backoff *= 2
			}
			s.deadline = s.tick + s.backoff
			out = append(out, r.requestMissingChunks()...)
		}
	}
	return out
}

// banSyncSource excludes a source for the remainder of this replica's sync
// effort (lying or persistently unresponsive chunk server).
func (r *Replica) banSyncSource(id ReplicaID) {
	if r.sync.banned == nil {
		r.sync.banned = make(map[ReplicaID]bool)
	}
	r.sync.banned[id] = true
	// Never ban ourselves into a corner: if every peer has now failed a
	// round, the failures were more likely congestion than malice — clear
	// the list and give everyone another chance rather than wait forever.
	if len(r.sync.banned) >= r.n-1 {
		r.sync.banned = nil
	}
}

// requestMissingChunks re-emits chunk requests for everything still owed by
// the current offer, each addressed to the offer's source alone — the only
// replica the fetch plan was derived from.
func (r *Replica) requestMissingChunks() []Outbound {
	s := &r.sync
	if s.offer == nil {
		return nil
	}
	var out []Outbound
	ask := func(kind uint32, i int) {
		out = append(out, toPeer(s.offer.source, &SyncChunkRequest{
			Replica: r.cfg.ID, Source: s.offer.source,
			CkptSeq: s.offer.ckptSeq, Kind: kind, Index: uint64(i),
		}))
	}
	for i, ok := range s.have {
		if !ok {
			ask(SyncChunkState, i)
		}
	}
	for i, b := range s.batch {
		if b == nil {
			ask(SyncChunkBatch, i)
		}
	}
	return out
}

// handleSyncRequest is the server side of discovery: a replica that
// committed past the requester's watermark answers — the requester alone; an
// offer means nothing to anyone else — with its latest commit certificate
// and where the fetch starts: the requester's own watermark while the batch
// above it is still retained and the suffix is one the requester would take,
// this replica's latest committed checkpoint otherwise.
func (r *Replica) handleSyncRequest(m *SyncRequest, out *[]Outbound) error {
	if int(m.Replica) >= r.n || m.Replica == r.cfg.ID {
		return nil
	}
	if r.committed <= m.HaveSeq {
		return nil
	}
	avail := &SyncAvail{Replica: r.cfg.ID, Requester: m.Replica, CkptSeq: m.HaveSeq, Cert: r.lastCommit}
	if r.led.BatchAt(m.HaveSeq+1) == nil || r.committed-m.HaveSeq > maxSyncSuffix {
		ck := r.led.CheckpointAt(r.committed)
		if ck == nil {
			return nil
		}
		avail.CkptSeq, avail.ShardDigests, avail.Frontier = ck.Seq, ck.ShardDigests, ck.Frontier.Encode()
	}
	*out = append(*out, toPeer(m.Replica, avail))
	return nil
}

// handleSyncAvail is the laggard accepting an offer: the certificate must
// verify and certify a sequence number past our watermark. An offer with
// state chunks to fetch must announce a shard digest vector that combines to
// the d_C the certificate signs; one without starts at our own watermark or
// is of no use. First verified offer wins; the fetch plan is derived
// entirely from it.
func (r *Replica) handleSyncAvail(m *SyncAvail, out *[]Outbound) error {
	s := &r.sync
	if s.phase != syncCollecting || m.Requester != r.cfg.ID {
		return nil
	}
	if int(m.Replica) >= r.n || m.Replica == r.cfg.ID || s.banned[m.Replica] {
		return nil
	}
	if m.Cert == nil || m.Cert.Seq() <= r.committed {
		return nil
	}
	if m.CkptSeq > m.Cert.Seq() || m.Cert.Seq()-m.CkptSeq > maxSyncSuffix {
		return fmt.Errorf("%w: sync offer starting at %d under certificate %d", ErrInvalid, m.CkptSeq, m.Cert.Seq())
	}
	offer := &syncOffer{source: m.Replica, ckptSeq: m.CkptSeq, cert: m.Cert}
	if len(m.ShardDigests) > 0 {
		if got := uint32(len(m.ShardDigests)); m.CkptSeq == 0 || got != r.led.Shards() {
			return fmt.Errorf("%w: sync offer for checkpoint %d with %d shards, replica runs %d", ErrInvalid, m.CkptSeq, got, r.led.Shards())
		}
		// The certified header pins the digest vector: d_C is the
		// domain-tagged combination of exactly these per-shard digests.
		if kv.CombineShardDigests(m.ShardDigests) != m.Cert.Header.CkptDigest {
			return fmt.Errorf("%w: sync offer digests do not combine to the certified d_C", ErrInvalid)
		}
		f, err := merkle.DecodeFrontier(m.Frontier)
		if err != nil {
			return fmt.Errorf("%w: sync offer frontier: %v", ErrInvalid, err)
		}
		offer.shardDigests = append([]hashsig.Digest(nil), m.ShardDigests...)
		offer.frontier = f
	} else if m.CkptSeq != r.committed {
		return nil // answers an ask this replica has since moved past
	}
	tasks, ok := m.Cert.Structure(r.cfg.Peers, r.quorum)
	if !ok || !r.verifyTasks(tasks) {
		return fmt.Errorf("%w: sync offer certificate from %d does not verify", ErrInvalid, m.Replica)
	}
	s.offer = offer
	s.store = kv.NewSharded(len(offer.shardDigests))
	s.have = make([]bool, len(offer.shardDigests))
	s.batch = make([]*ledger.Batch, m.Cert.Seq()-m.CkptSeq)
	if own := r.led.BatchAt(m.Cert.Seq()); own != nil && own.Header.ContentDigest() == m.Cert.Header.ContentDigest() {
		// The certificate is for a batch this replica already executed: ¯M
		// chains every batch below it, so what it holds of the suffix is the
		// suffix, and nothing of it is fetched.
		for i := range s.batch {
			s.batch[i] = r.led.BatchAt(m.CkptSeq + 1 + uint64(i))
		}
	}
	s.phase = syncFetching
	s.backoff = syncBaseBackoff
	s.deadline = s.tick + s.backoff
	*out = append(*out, r.requestMissingChunks()...)
	return r.adoptIfComplete(out)
}

// handleSyncChunkRequest is the server side of the fetch: serve one chunk,
// unicast back to the requester (chunks are the bulk of sync traffic;
// broadcasting them would multiply transfer bandwidth by the cluster size).
// A batch chunk is any retained committed batch; a state chunk must be of
// the checkpoint this replica would announce now. Requests for what this
// replica no longer holds (pruned past, or rolled back) are silently
// ignored, and counted (SyncRefusals); the requester's timeout re-discovers.
func (r *Replica) handleSyncChunkRequest(m *SyncChunkRequest, out *[]Outbound) error {
	if m.Source != r.cfg.ID || int(m.Replica) >= r.n || m.Replica == r.cfg.ID {
		return nil
	}
	var data []byte
	switch m.Kind {
	case SyncChunkState:
		ck := r.led.CheckpointAt(r.committed)
		if ck == nil || ck.Seq != m.CkptSeq || m.Index >= uint64(len(ck.ShardDigests)) {
			r.sync.refused.State++
			return nil
		}
		var buf bytes.Buffer
		if err := ck.Store.SerializeShard(int(m.Index), &buf); err != nil {
			return nil
		}
		data = buf.Bytes()
	case SyncChunkBatch:
		seq := m.CkptSeq + 1 + m.Index
		if seq <= m.CkptSeq {
			return nil // the index wrapped: malformed, not a refusal
		}
		b := r.led.BatchAt(seq)
		if seq > r.committed || b == nil {
			r.sync.refused.Batch++
			return nil
		}
		data = encodeBatchChunk(b)
	default:
		return nil
	}
	*out = append(*out, toPeer(m.Replica, &SyncChunk{
		Replica: r.cfg.ID, Requester: m.Replica,
		CkptSeq: m.CkptSeq, Kind: m.Kind, Index: m.Index, Data: data,
	}))
	return nil
}

// encodeBatchChunk frames one batch as a chunk payload.
func encodeBatchChunk(b *ledger.Batch) []byte {
	w := wire.NewAppendWriter(make([]byte, 0, 512))
	b.EncodeTo(w)
	if err := w.Flush(); err != nil {
		panic(err) // appending never fails
	}
	return w.AppendedBytes()
}

// handleSyncChunk is the laggard receiving one chunk. State chunks verify
// immediately against the offer's digest vector — decoded, every key checked
// against the shard, rebuilt, and the rebuilt shard's digest compared — and
// are kept as the shard they decoded to; batch chunks must decode, carry the
// right sequence number and a validly signed statement, with execution
// checks deferred to adoption. A
// chunk that fails its check is simply not recorded — the next timeout
// re-requests it, and persistent failure bans the source.
func (r *Replica) handleSyncChunk(m *SyncChunk, out *[]Outbound) error {
	s := &r.sync
	if s.phase != syncFetching || s.offer == nil {
		return nil
	}
	if m.Requester != r.cfg.ID || m.Replica != s.offer.source || m.CkptSeq != s.offer.ckptSeq {
		return nil
	}
	switch m.Kind {
	case SyncChunkState:
		if m.Index >= uint64(len(s.have)) || s.have[m.Index] {
			return nil
		}
		if err := s.store.InstallShard(int(m.Index), m.Data, s.offer.shardDigests[m.Index]); err != nil {
			return fmt.Errorf("%w: sync state chunk %d: %v", ErrInvalid, m.Index, err)
		}
		s.have[m.Index] = true
	case SyncChunkBatch:
		if m.Index >= uint64(len(s.batch)) || s.batch[m.Index] != nil {
			return nil
		}
		rd := wire.NewBytesReader(m.Data)
		b := ledger.DecodeBatch(rd)
		rd.ExpectEOF()
		if err := rd.Err(); err != nil {
			return fmt.Errorf("%w: sync batch chunk %d: %v", ErrInvalid, m.Index, err)
		}
		if want := s.offer.ckptSeq + 1 + m.Index; b.Header.Seq != want {
			return fmt.Errorf("%w: sync batch chunk %d carries seq %d, want %d", ErrInvalid, m.Index, b.Header.Seq, want)
		}
		if err := r.statementStructure(&b.Header); err != nil {
			return err
		}
		if err := r.verifyStatement(&b.Header); err != nil {
			return err
		}
		s.batch[m.Index] = b
	default:
		return nil
	}
	return r.adoptIfComplete(out)
}

// adoptIfComplete adopts the transfer once nothing is missing. A transfer
// that fails the certificate anchor means the source lied somewhere cheap
// verification could not catch (frontier, batch contents): ban it and
// rediscover.
func (r *Replica) adoptIfComplete(out *[]Outbound) error {
	s := &r.sync
	if s.missing() > 0 {
		return nil
	}
	if r.committed >= s.offer.cert.Seq() {
		// Organic progress overtook the transfer; drop it.
		s.reset()
		return nil
	}
	source := s.offer.source
	if err := r.adoptSync(out); err != nil {
		r.banSyncSource(source)
		*out = append(*out, r.discover())
		return fmt.Errorf("%w: sync adoption failed: %v", ErrInvalid, err)
	}
	return nil
}

// adoptSync performs all-or-nothing adoption of the assembled transfer. A
// checkpoint offer first builds a candidate ledger from the verified
// shards; either way the suffix is then re-executed onto the ledger — own
// speculation that already holds a suffix batch's content stays, the first
// that does not is rolled back — and only if the final header reproduces
// the certified content digest does the committed boundary move to the
// certificate. On failure everything this adoption executed is undone and
// the speculation it rolled back is executed again under the instances it
// had: Committed, Ledger().Seq(), StateDigest and the in-flight window read
// as before the offer.
func (r *Replica) adoptSync(out *[]Outbound) error {
	s := &r.sync
	offer, cert := s.offer, s.offer.cert
	led := r.led
	if len(offer.shardDigests) > 0 {
		cand, err := ledger.NewFromCheckpoint(ledger.Config{
			Key:             r.cfg.Key,
			App:             r.cfg.App,
			CheckpointEvery: r.cfg.CheckpointEvery,
			Shards:          uint32(len(offer.shardDigests)),
		}, &ledger.Checkpoint{
			Seq:          offer.ckptSeq,
			Store:        s.store,
			ShardDigests: offer.shardDigests,
			Frontier:     offer.frontier,
			Digest:       cert.Header.CkptDigest,
		})
		if err != nil {
			return err
		}
		led = cand
	}
	executed := uint64(0)     // first seq this adoption executed onto led
	var displaced []*instance // own speculation the suffix contradicted, in order
	fail := func(err error) error {
		if led == r.led && executed != 0 {
			r.abandonFrom(executed)
			for _, in := range displaced {
				// Same instance, same nonce: the prepare this replica sent for
				// the slot still opens.
				if _, err := led.ApplyBatch(&ledger.Batch{Header: *in.stmt, Entries: in.entries}); err != nil {
					break
				}
				r.insts[in.stmt.Seq] = in
			}
		}
		return err
	}
	for _, b := range s.batch {
		seq := b.Header.Seq
		if led == r.led && seq <= r.committed {
			continue // committed here while the fetch was under way
		}
		if own := led.BatchAt(seq); own != nil {
			if own.Header.ContentDigest() == b.Header.ContentDigest() {
				continue
			}
			for _, at := range sortedKeys(r.insts) {
				if at >= seq {
					displaced = append(displaced, r.insts[at])
				}
			}
			r.abandonFrom(seq)
		}
		if executed == 0 {
			executed = seq
		}
		if _, err := led.ApplyBatch(b); err != nil {
			return fail(err)
		}
	}
	if len(s.batch) == 0 {
		// Empty suffix: the certificate is for the checkpoint batch itself,
		// so the frontier must reproduce the certified history commitment
		// directly (with a suffix, the per-batch ¯M checks anchor it).
		if led.HistSize() != cert.Header.HistSize || led.HistRoot() != cert.Header.MRoot {
			return fail(fmt.Errorf("%w: sync frontier does not reproduce the certified history root", ErrInvalid))
		}
	} else if final := led.BatchAt(cert.Seq()); final == nil || final.Header.ContentDigest() != cert.Header.ContentDigest() {
		return fail(fmt.Errorf("%w: sync suffix does not reproduce the certified header", ErrInvalid))
	}

	// Verified end to end: resume as a normal replica at the certified
	// watermark. A certificate from a later view moves this replica there (it
	// trusts certified progress, as with new-view re-proposals), and what it
	// held for the view it leaves goes: speculation, pins, a parked chain.
	// Within the view, pins and instances above the certificate stand —
	// instances as far as the ledger they executed on does.
	r.led = led
	stand := led.Seq()
	if cert.Header.View > r.view {
		r.view = cert.Header.View
		r.mustRepropose = make(map[uint64]hashsig.Digest)
		r.pendingRepropose = nil
		stand = cert.Seq() + 1
	}
	r.abandonFrom(stand)
	if r.inViewChange && r.vcTarget <= r.view {
		r.inViewChange = false
		r.ownVC = nil
	}
	r.markCommitted(cert)
	s.reset()
	s.force = false
	s.behindFor = 0
	s.lastCommitted = r.committed
	s.adopted++
	r.advanceCommits(out)
	return nil
}

// Syncs returns how many transfers, of either shape, this replica has
// adopted.
func (r *Replica) Syncs() int { return r.sync.adopted }

// SyncRefusals returns the chunk requests this replica has dropped as a sync
// source, by reason.
func (r *Replica) SyncRefusals() SyncRefusals { return r.sync.refused }

// messageSeq extracts the batch sequence number a message is about, for
// staleness decisions. View-change traffic is view-keyed, not seq-keyed.
func messageSeq(m Message) (uint64, bool) {
	switch msg := m.(type) {
	case *PrePrepare:
		return msg.Header.Seq, true
	case *Prepare:
		return msg.Header.Seq, true
	case *Commit:
		return msg.Seq, true
	}
	return 0, false
}

// maybePrune drops committed batches below both the latest committed
// checkpoint and the last W commits, keeping steady-state ledger memory at
// O(window + checkpoint interval): the last W batches stay so a near
// laggard gets the suffix-only offer, the chunk-servable checkpoint and the
// suffix above it stay for everyone else.
func (r *Replica) maybePrune() {
	ck := r.led.CheckpointAt(r.committed)
	if ck == nil {
		return
	}
	w := uint64(r.window)
	if r.committed+1 <= w {
		return // the whole history is still inside the last W commits
	}
	r.led.Prune(min(ck.Seq+1, r.committed+1-w))
}
