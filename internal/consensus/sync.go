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

// Chunked checkpoint state transfer (paper §3.4, §6). A replica that falls
// behind by more than the proposal window cannot catch up from re-acks and
// retransmissions: its peers have pruned the batches it needs, retaining
// only the suffix above their latest committed checkpoint. The laggard
// instead discovers who holds a checkpoint (SyncRequest/SyncAvail), fetches
// the checkpoint as per-shard state chunks plus the committed batch suffix
// (SyncChunkRequest/SyncChunk), verifies everything against one commit
// certificate, and adopts the result wholesale before resuming as a normal
// replica.
//
// Trust chain — one certificate anchors the whole transfer:
//
//   - The SyncAvail's commit certificate proves its batch header committed;
//     the header signs d_C, so the announced shard digest vector must
//     combine to the header's d_C.
//   - Each state chunk must rebuild to its slot in that vector: a slot is
//     the digest of a shard's trie (kv.ShardDigest), so the chunk is
//     decoded, placement-checked and rebuilt on arrival, and kept decoded.
//   - The frontier and the batch suffix are verified transitively: a
//     candidate ledger is restored from the checkpoint and the suffix is
//     re-executed onto it (ledger.ApplyBatch checks results, ¯G, ¯M, d_C
//     per batch); the final batch's header must reproduce the certified
//     header's content digest (content, not statement: the server may hold
//     the batch under another view's statement than its certificate's). The
//     history roots chain every entry, so a lying frontier or a tampered
//     suffix batch cannot survive the anchor. Each suffix header is adopted
//     as received, so its signature is checked on arrival like any
//     pre-prepare's — a replica's ledger holds only statements it verified.
//
// Adoption is all-or-nothing: the replica's ledger is only swapped after
// the full chain verifies. A source whose data fails any check is banned
// for the rest of the sync and the transfer restarts from discovery, which
// is what makes lying chunk servers a liveness nuisance, never a safety
// risk. Timeouts are integer ticks (SyncTick) with exponential backoff —
// the replica owns no clock; the harness drives it deterministically.

// syncPhase is the state-transfer protocol state.
type syncPhase uint8

const (
	// syncIdle: in-window operation; watching for credible evidence that
	// the cluster has moved beyond reach of normal catch-up.
	syncIdle syncPhase = iota
	// syncCollecting: broadcasting SyncRequest, waiting for a verifiable
	// SyncAvail.
	syncCollecting
	// syncFetching: requesting chunks of one accepted offer.
	syncFetching
)

const (
	// syncPatience is how many consecutive ticks the replica must observe
	// itself behind (with no commit progress) before starting a transfer:
	// within-window gaps heal via retransmission, and a transfer discards
	// all in-flight participation.
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
	// maxSyncSuffix bounds the committed batch suffix accepted above a
	// checkpoint. An honest server's suffix is shorter than its checkpoint
	// interval (it serves its latest committed checkpoint); the bound stops
	// a hostile offer from driving an unbounded fetch plan.
	maxSyncSuffix = 1 << 12
)

// syncOffer is one accepted, certificate-verified SyncAvail.
type syncOffer struct {
	source       ReplicaID
	ckptSeq      uint64
	shardDigests []hashsig.Digest
	frontier     merkle.Frontier
	cert         *CommitCert
}

// syncState is the laggard side of state transfer. Zero value is idle.
type syncState struct {
	phase syncPhase
	tick  uint64

	// ahead is the highest cluster-committed sequence number credibly
	// observed (certified view-change claims, new-view certificates, and
	// far-future proposals); behindFor counts consecutive ticks spent with
	// ahead out of window and no local commit progress.
	ahead         uint64
	behindFor     int
	lastCommitted uint64
	// force requests a transfer regardless of patience: set when a rollback
	// hit the pruned checkpoint boundary, where local history cannot reach
	// the state the protocol needs (satellite: ErrPruned routes here).
	force bool

	deadline uint64
	backoff  uint64
	attempts int

	offer  *syncOffer
	store  *kv.ShardedStore // candidate state: the shards verified so far
	have   []bool           // have[i]: shard i is installed in store
	batch  []*ledger.Batch  // suffix ckptSeq+1..cert.Seq(), nil = missing
	banned map[ReplicaID]bool
	// adopted counts completed transfers (verified and swapped in).
	adopted int
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
	s.dropOffer()
}

// dropOffer forgets the accepted offer and everything fetched under it.
func (s *syncState) dropOffer() {
	s.offer, s.store, s.have, s.batch = nil, nil, nil, nil
}

// Syncing reports whether a state transfer is in progress.
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

// SyncTick advances the state-transfer clock one step and returns any
// envelopes to send: discovery requests broadcast (the laggard does not
// know who holds a checkpoint), chunk re-requests unicast to the accepted
// offer's source. The harness or node runtime calls it once per scheduling
// round; all deadlines and backoffs are in these ticks, never wall time.
func (r *Replica) SyncTick() []Outbound {
	s := &r.sync
	s.tick++
	if r.committed != s.lastCommitted {
		s.lastCommitted = r.committed
		s.behindFor = 0
	}
	var out []Outbound
	switch s.phase {
	case syncIdle:
		behind := s.ahead > r.committed+uint64(r.window)
		if behind {
			s.behindFor++
		} else {
			s.behindFor = 0
		}
		if s.force || (behind && s.behindFor >= syncPatience) {
			s.phase = syncCollecting
			s.backoff = syncBaseBackoff
			s.deadline = s.tick + s.backoff
			out = append(out, toAll(&SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed}))
		}
	case syncCollecting:
		if !s.force && s.ahead <= r.committed+uint64(r.window) {
			// Caught up organically (delayed traffic arrived after all):
			// stop asking.
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
				s.phase = syncCollecting
				s.backoff = syncBaseBackoff
				s.deadline = s.tick + s.backoff
				s.dropOffer()
				out = append(out, toAll(&SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed}))
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
// replica whose checkpoint the fetch plan was derived from.
func (r *Replica) requestMissingChunks() []Outbound {
	s := &r.sync
	if s.offer == nil {
		return nil
	}
	var out []Outbound
	for i, ok := range s.have {
		if !ok {
			out = append(out, toPeer(s.offer.source, &SyncChunkRequest{
				Replica: r.cfg.ID, Source: s.offer.source,
				CkptSeq: s.offer.ckptSeq, Kind: SyncChunkState, Index: uint64(i),
			}))
		}
	}
	for i, b := range s.batch {
		if b == nil {
			out = append(out, toPeer(s.offer.source, &SyncChunkRequest{
				Replica: r.cfg.ID, Source: s.offer.source,
				CkptSeq: s.offer.ckptSeq, Kind: SyncChunkBatch, Index: uint64(i),
			}))
		}
	}
	return out
}

// handleSyncRequest is the server side of discovery: if this replica holds
// a committed checkpoint past the requester's watermark, it answers — the
// requester alone; an offer means nothing to anyone else — with the
// checkpoint coordinates anchored by its latest commit certificate.
func (r *Replica) handleSyncRequest(m *SyncRequest, out *[]Outbound) error {
	if int(m.Replica) >= r.n || m.Replica == r.cfg.ID {
		return nil
	}
	if r.lastCommit == nil || r.lastCommit.Seq() != r.committed {
		return nil
	}
	ck := r.led.CheckpointAt(r.committed)
	if ck == nil || ck.Seq <= m.HaveSeq {
		// Nothing to offer beyond what normal retransmission covers.
		return nil
	}
	*out = append(*out, toPeer(m.Replica, &SyncAvail{
		Replica:      r.cfg.ID,
		Requester:    m.Replica,
		CkptSeq:      ck.Seq,
		ShardDigests: ck.ShardDigests,
		Frontier:     ck.Frontier.Encode(),
		Cert:         r.lastCommit,
	}))
	return nil
}

// handleSyncAvail is the laggard accepting an offer: the certificate must
// verify, certify a sequence number past our watermark, and sign over a
// d_C that the announced shard digest vector combines to. First verified
// offer wins; the fetch plan is derived entirely from it.
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
	if m.CkptSeq == 0 || m.CkptSeq > m.Cert.Seq() || m.Cert.Seq()-m.CkptSeq > maxSyncSuffix {
		return fmt.Errorf("%w: sync offer for checkpoint %d under certificate %d", ErrInvalid, m.CkptSeq, m.Cert.Seq())
	}
	if got := uint32(len(m.ShardDigests)); got != r.led.Shards() {
		return fmt.Errorf("%w: sync offer with %d shards, replica runs %d", ErrInvalid, got, r.led.Shards())
	}
	// The certified header pins the digest vector: d_C is the domain-tagged
	// combination of exactly these per-shard digests.
	if kv.CombineShardDigests(m.ShardDigests) != m.Cert.Header.CkptDigest {
		return fmt.Errorf("%w: sync offer digests do not combine to the certified d_C", ErrInvalid)
	}
	f, err := merkle.DecodeFrontier(m.Frontier)
	if err != nil {
		return fmt.Errorf("%w: sync offer frontier: %v", ErrInvalid, err)
	}
	tasks, ok := m.Cert.structure(r.cfg.Peers, r.quorum)
	if !ok || !r.verifyTasks(tasks) {
		return fmt.Errorf("%w: sync offer certificate from %d does not verify", ErrInvalid, m.Replica)
	}
	s.offer = &syncOffer{
		source:       m.Replica,
		ckptSeq:      m.CkptSeq,
		shardDigests: append([]hashsig.Digest(nil), m.ShardDigests...),
		frontier:     f,
		cert:         m.Cert,
	}
	s.store = kv.NewSharded(len(m.ShardDigests))
	s.have = make([]bool, len(m.ShardDigests))
	s.batch = make([]*ledger.Batch, m.Cert.Seq()-m.CkptSeq)
	s.phase = syncFetching
	s.attempts = 0
	s.backoff = syncBaseBackoff
	s.deadline = s.tick + s.backoff
	*out = append(*out, r.requestMissingChunks()...)
	return nil
}

// handleSyncChunkRequest is the server side of the fetch: serve one chunk
// of the checkpoint this replica announced, unicast back to the requester
// (chunks are the bulk of sync traffic; broadcasting them would multiply
// transfer bandwidth by the cluster size), if still retained. Requests
// for checkpoints this replica no longer holds (pruned past, or rolled
// back) are silently ignored; the requester's timeout re-discovers.
func (r *Replica) handleSyncChunkRequest(m *SyncChunkRequest, out *[]Outbound) error {
	if m.Source != r.cfg.ID || int(m.Replica) >= r.n || m.Replica == r.cfg.ID {
		return nil
	}
	ck := r.led.CheckpointAt(r.committed)
	if ck == nil || ck.Seq != m.CkptSeq {
		return nil
	}
	var data []byte
	switch m.Kind {
	case SyncChunkState:
		if m.Index >= uint64(len(ck.ShardDigests)) {
			return nil
		}
		var buf bytes.Buffer
		if err := ck.Store.SerializeShard(int(m.Index), &buf); err != nil {
			return nil
		}
		data = buf.Bytes()
	case SyncChunkBatch:
		seq := m.CkptSeq + 1 + m.Index
		if seq <= m.CkptSeq || seq > r.committed {
			return nil
		}
		b := r.led.BatchAt(seq)
		if b == nil {
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
	if s.missing() == 0 {
		if r.committed >= s.offer.cert.Seq() {
			// Organic progress overtook the transfer; drop it.
			s.reset()
			return nil
		}
		if err := r.adoptSync(); err != nil {
			// The assembled transfer failed the certificate anchor: the
			// source lied somewhere cheap verification could not catch
			// (frontier, batch contents). Ban it and rediscover.
			r.banSyncSource(s.offer.source)
			s.reset()
			s.phase = syncCollecting
			s.backoff = syncBaseBackoff
			s.deadline = s.tick + s.backoff
			*out = append(*out, toAll(&SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed}))
			return fmt.Errorf("%w: sync adoption failed: %v", ErrInvalid, err)
		}
	}
	return nil
}

// adoptSync performs all-or-nothing adoption of the assembled transfer: a
// candidate ledger is started from the verified shards and the suffix is
// replayed onto it; only if the final header reproduces the certified
// content digest does the replica swap ledgers and resume at the certified
// watermark.
func (r *Replica) adoptSync() error {
	s := &r.sync
	offer := s.offer
	shards := uint32(len(offer.shardDigests))
	ck := &ledger.Checkpoint{
		Seq:          offer.ckptSeq,
		Store:        s.store,
		ShardDigests: offer.shardDigests,
		Frontier:     offer.frontier,
		Digest:       offer.cert.Header.CkptDigest,
	}
	cand, err := ledger.NewFromCheckpoint(ledger.Config{
		Key:             r.cfg.Key,
		App:             r.cfg.App,
		CheckpointEvery: r.cfg.CheckpointEvery,
		Shards:          shards,
	}, ck)
	if err != nil {
		return err
	}
	cert := offer.cert
	certHeader := &cert.Header
	if len(s.batch) == 0 {
		// Empty suffix: the certificate is for the checkpoint batch itself,
		// so the frontier must reproduce the certified history commitment
		// directly (with a suffix, the per-batch ¯M checks anchor it).
		if cand.HistSize() != certHeader.HistSize || cand.HistRoot() != certHeader.MRoot {
			return fmt.Errorf("%w: sync frontier does not reproduce the certified history root", ErrInvalid)
		}
	} else {
		for _, b := range s.batch {
			if _, err := cand.ApplyBatch(b); err != nil {
				return err
			}
		}
		final := cand.BatchAt(cert.Seq())
		if final == nil || final.Header.ContentDigest() != certHeader.ContentDigest() {
			return fmt.Errorf("%w: sync suffix does not reproduce the certified header", ErrInvalid)
		}
	}

	// Verified end to end: swap the ledger and resume as a normal replica
	// at the certified watermark. Every in-flight instance was speculation
	// on the abandoned ledger; the certificate's view is adopted (a replica
	// this far behind trusts certified progress, as with new-view
	// re-proposals).
	r.led = cand
	r.committed = cert.Seq()
	r.lastCommit = cert
	if cert.Header.View > r.view {
		r.view = cert.Header.View
	}
	if r.inViewChange && r.vcTarget <= r.view {
		r.inViewChange = false
		r.ownVC = nil
	}
	r.insts = make(map[uint64]*instance)
	r.reacks = make(map[uint64]*instance)
	r.recentOwn = make(map[uint64][]Message)
	r.mustRepropose = make(map[uint64]hashsig.Digest)
	r.pendingRepropose = nil
	if r.committed > r.proposeFloor {
		r.proposeFloor = r.committed
	}
	for k := range r.seen {
		if k.seq <= r.committed {
			delete(r.seen, k)
		}
	}
	// Drop buffered messages the new watermark makes permanently stale
	// (ack-and-discard below the checkpoint, instead of holding them until
	// the bounded buffer churns them out).
	kept := r.future[:0]
	for _, m := range r.future {
		if seq, ok := messageSeq(m); ok && seq+uint64(r.window) <= r.committed {
			continue
		}
		kept = append(kept, m)
	}
	for i := len(kept); i < len(r.future); i++ {
		r.future[i] = nil
	}
	r.future = kept

	s.reset()
	s.force = false
	s.behindFor = 0
	s.lastCommitted = r.committed
	s.adopted++
	r.gen++
	return nil
}

// Syncs returns how many chunked state transfers this replica has adopted.
func (r *Replica) Syncs() int { return r.sync.adopted }

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
// checkpoint and the re-ack window, keeping steady-state ledger memory at
// O(window + checkpoint interval): everything a peer might still need —
// re-ack batches inside the window, the chunk-servable checkpoint, and the
// suffix above it — survives; anything older is reachable only through
// state transfer, which is exactly what SyncRequest serves.
func (r *Replica) maybePrune() {
	ck := r.led.CheckpointAt(r.committed)
	if ck == nil {
		return
	}
	w := uint64(r.window)
	if r.committed+1 <= w {
		return // the whole history is still inside the re-ack window
	}
	r.led.Prune(min(ck.Seq+1, r.committed+1-w))
}
