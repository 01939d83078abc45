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
// missed one never re-runs agreement on it: a peer pushes it the batches,
// anchored by the peer's latest certificate, and it checks them by
// re-execution. This file is the only way a replica obtains a batch it did
// not commit itself.
//
// Who asks: a replica that made no commit progress for as many ticks as
// what it knows warrants (patience: few on certified evidence of a commit it
// lacks, more on a hunch, many when it hears nothing at all) sends
// SyncRequest{HaveSeq: committed} to one peer. Each deadline that passes
// without an adopted transfer moves the ask to the next peer it has not
// banned and doubles the wait; a commit that lands cancels the ask. Who
// answers: a peer with committed > HaveSeq, at once and to the requester
// alone, with every chunk of the transfer it would offer at that moment;
// peers with nothing newer stay silent, so a cluster under load sends
// nothing and an idle one a 12-byte question per replica every
// syncMaxBackoff ticks. The transfer takes one of two shapes:
//
//   - suffix-only, when the peer still retains batch HaveSeq+1 (maybePrune
//     keeps the last W) and the suffix is one a requester accepts
//     (maxSyncSuffix): CkptSeq = HaveSeq, no frontier — the batches
//     HaveSeq+1..Cert.Seq() apply onto the requester's own ledger;
//   - checkpoint, otherwise: the peer's latest committed checkpoint (seq,
//     frontier) as one state chunk, then the batch suffix above it.
//
// Every chunk carries the offer, so chunks verify and assemble in any
// arrival order. The source keeps nothing per requester and is never asked
// for anything later: what it pushes is built from what it holds when the
// ask arrives, so pruning afterwards takes none of it back.
//
// Trust chain — one certificate anchors the whole transfer:
//
//   - The offer's commit certificate proves its batch header committed; the
//     header signs d_C.
//   - The state chunk must rebuild to a store whose digest is that d_C, so
//     it is decoded and rebuilt on arrival, and kept decoded.
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
// puts back the speculation it displaced. A source whose push fails any
// check is banned for the rest of the effort and the ask moves on at once —
// nothing is re-requested, so that push can never complete — which is what
// makes a lying source a liveness nuisance, never a safety risk. Timeouts
// are integer ticks (SyncTick) with exponential backoff — the replica owns
// no clock; the harness drives it deterministically.

const (
	// syncPatience is how many consecutive ticks the replica must go without
	// commit progress, holding certified evidence of a commit it lacks, before
	// it asks: the normal case's own messages are usually just late.
	syncPatience = 3
	// syncBaseBackoff and syncMaxBackoff bound the ticks an ask waits for
	// its push before the next peer is asked. Ticks are scheduling rounds,
	// and one request/push round trip spans many rounds under load
	// (deliveries are one per round, drops re-queue), so the clock must be
	// generous: an ask abandoned too early throws away a push in flight.
	syncBaseBackoff = 16
	syncMaxBackoff  = 512
	// maxSyncSuffix bounds the committed batch suffix an offer may span. An
	// honest server's suffix is shorter than its retention (window plus
	// checkpoint interval); the bound stops a hostile offer from sizing an
	// unbounded assembly.
	maxSyncSuffix = 1 << 12
)

// syncOffer is one accepted, certificate-verified offer, from the peer
// asked last (syncState.source). A checkpoint offer carries a state chunk
// and a frontier; a suffix-only offer neither.
type syncOffer struct {
	ckptSeq    uint64
	checkpoint bool
	frontier   merkle.Frontier
	cert       *ledger.CommitCert
}

// carries reports whether chunk m belongs to offer o (nil: none does).
// Only the start and the certified sequence number are compared: every
// check runs against the accepted offer, never against what a later chunk
// claims.
func (o *syncOffer) carries(m *SyncChunk) bool {
	return o != nil && o.ckptSeq == m.CkptSeq && o.cert.Seq() == m.Cert.Seq()
}

// syncState is the laggard side of catch-up. Zero value is idle.
type syncState struct {
	asking bool
	tick   uint64

	// ahead is the highest cluster-committed sequence number credibly
	// observed (certified view-change claims, new-view certificates,
	// far-future proposals, accepted offers); behindFor counts consecutive
	// ticks with no local commit progress under one unchanged patience.
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
	// source is the peer asked last, the only one whose push is assembled.
	source ReplicaID

	offer  *syncOffer
	store  *kv.Store       // a checkpoint offer's state, once its chunk verified
	batch  []*ledger.Batch // suffix ckptSeq+1..cert.Seq(), nil = missing
	banned map[ReplicaID]bool
	// adopted counts completed transfers (verified and committed).
	adopted int
}

// missing counts chunks not yet received and verified.
func (s *syncState) missing() int {
	n := 0
	if s.offer.checkpoint && s.store == nil {
		n++
	}
	for _, b := range s.batch {
		if b == nil {
			n++
		}
	}
	return n
}

// drop discards the transfer being assembled.
func (s *syncState) drop() {
	s.offer, s.store, s.batch = nil, nil, nil
}

// reset stops asking but keeps the ban list and trigger evidence: a failed
// source should stay banned across the restart.
func (s *syncState) reset() {
	s.asking = false
	s.deadline = 0
	s.backoff = 0
	s.drop()
}

// Syncing reports whether a catch-up is in progress.
func (r *Replica) Syncing() bool { return r.sync.asking }

// noteAhead records credible evidence that the cluster committed through
// seq. Callers pass only validated claims (certified view-changes,
// new-view certificates, verified offers) or window-implied bounds from
// signed proposals; the evidence only gates when asking starts — everything
// pushed is verified independently, so an inflated claim cannot corrupt
// state.
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

// askNext drops whatever was assembled, arms the deadline, and returns the
// request for the next peer in turn that is not banned.
func (r *Replica) askNext() Outbound {
	s := &r.sync
	s.drop()
	for {
		s.source = (s.source + 1) % ReplicaID(r.n)
		if s.source != r.cfg.ID && !s.banned[s.source] {
			break
		}
	}
	s.deadline = s.tick + s.backoff
	return toPeer(s.source, &SyncRequest{Replica: r.cfg.ID, HaveSeq: r.committed})
}

// SyncTick advances the catch-up clock one step and returns the ask to
// send, if any. The harness or node runtime calls it once per scheduling
// round; all deadlines and backoffs are in these ticks, never wall time.
func (r *Replica) SyncTick() []Outbound {
	s := &r.sync
	s.tick++
	progressed := r.committed != s.lastCommitted
	if wait := r.patience(); progressed || wait != s.waitFor {
		s.lastCommitted, s.waitFor, s.behindFor = r.committed, wait, 0
	}
	switch {
	case !s.asking:
		s.behindFor++
		if s.force || s.behindFor >= s.waitFor {
			s.asking, s.backoff = true, syncBaseBackoff
			return []Outbound{r.askNext()}
		}
	case !s.force && progressed && s.ahead <= r.committed:
		// The commit landed after all: stop asking.
		s.reset()
	case s.tick >= s.deadline:
		s.backoff = min(2*s.backoff, syncMaxBackoff)
		return []Outbound{r.askNext()}
	}
	return nil
}

// banSyncSource excludes a source for the remainder of this replica's sync
// effort (its push failed a check).
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

// handleSyncRequest is the source side: a replica that committed past the
// requester's watermark pushes it, unicast, every chunk of the transfer it
// holds now, under its latest commit certificate — from the requester's
// own watermark while the batch above it is still retained and the suffix
// is one the requester would take, from this replica's latest committed
// checkpoint otherwise. The push is built here and nothing is kept: it
// stands however far this replica prunes afterwards.
func (r *Replica) handleSyncRequest(m *SyncRequest, out *[]Outbound) error {
	if int(m.Replica) >= r.n || m.Replica == r.cfg.ID || r.committed <= m.HaveSeq {
		return nil
	}
	offer := SyncChunk{Replica: r.cfg.ID, Requester: m.Replica, CkptSeq: m.HaveSeq, Cert: r.lastCommit}
	var push []Outbound
	send := func(kind uint32, index uint64, data []byte) {
		c := offer
		c.Kind, c.Index, c.Data = kind, index, data
		push = append(push, toPeer(m.Replica, &c))
	}
	if !r.suffixServes(m.HaveSeq) {
		ck := r.led.CheckpointAt(r.committed)
		if ck == nil {
			return nil
		}
		offer.CkptSeq, offer.Frontier = ck.Seq, ck.Frontier.Encode()
		var buf bytes.Buffer
		if err := serializeState(ck.Store, &buf); err != nil {
			return fmt.Errorf("consensus: sync push to %d: state of checkpoint %d: %w", m.Replica, ck.Seq, err)
		}
		send(SyncChunkState, 0, buf.Bytes())
	}
	// maybePrune keeps every batch above the offer's start.
	for seq := offer.CkptSeq + 1; seq <= r.committed; seq++ {
		send(SyncChunkBatch, seq-offer.CkptSeq-1, encodeBatchChunk(r.led.BatchAt(seq)))
	}
	*out = append(*out, push...)
	return nil
}

// suffixServes reports whether the batches above haveSeq alone make an
// offer: this replica still retains the first of them, and a requester
// accepts that many (maxSyncSuffix).
func (r *Replica) suffixServes(haveSeq uint64) bool {
	return r.led.BatchAt(haveSeq+1) != nil && r.committed-haveSeq <= maxSyncSuffix
}

// serializeState writes a checkpoint's state as its state chunk. It is a
// variable so a test can make the push fail; serializing into memory does
// not.
var serializeState = (*kv.Store).SerializeShard

// encodeBatchChunk frames one batch as a chunk payload.
func encodeBatchChunk(b *ledger.Batch) []byte {
	w := wire.NewAppendWriter(make([]byte, 0, 512))
	b.EncodeTo(w)
	if err := w.Flush(); err != nil {
		panic(err) // appending never fails
	}
	return w.AppendedBytes()
}

// handleSyncChunk is the laggard receiving one chunk of the push it asked
// for; chunks from anyone else are ignored. The first chunk of an offer —
// or of a newer one from the same source, which replaces it — must carry an
// offer that passes acceptOffer; each chunk then passes recordChunk, and
// the transfer is adopted once nothing is missing. A failed check of any
// kind bans the source and asks the next peer.
func (r *Replica) handleSyncChunk(m *SyncChunk, out *[]Outbound) error {
	s := &r.sync
	if !s.asking || m.Requester != r.cfg.ID || m.Replica != s.source || m.Cert == nil || m.Cert.Seq() <= r.committed {
		return nil
	}
	if !s.offer.carries(m) {
		if s.offer != nil && m.Cert.Seq() <= s.offer.cert.Seq() {
			return nil // an older push from the same source
		}
		if err := r.acceptOffer(m); err != nil {
			return r.failSync(err, out)
		}
		if !s.offer.carries(m) {
			return nil
		}
	}
	if err := r.recordChunk(m); err != nil {
		return r.failSync(err, out)
	}
	return r.adoptIfComplete(out)
}

// failSync bans the source whose push failed a check and asks the next
// peer.
func (r *Replica) failSync(err error, out *[]Outbound) error {
	r.banSyncSource(r.sync.source)
	*out = append(*out, r.askNext())
	return err
}

// acceptOffer checks the offer a chunk carries and makes it the transfer
// being assembled: the certificate must verify, and the offer must span at
// most maxSyncSuffix batches. A checkpoint offer (one with a frontier)
// must start at a checkpoint; a suffix-only one starts at our own
// watermark or is of no use (nothing is accepted, and nothing is wrong).
// Everything the assembly needs derives from the accepted offer.
func (r *Replica) acceptOffer(m *SyncChunk) error {
	if m.CkptSeq > m.Cert.Seq() || m.Cert.Seq()-m.CkptSeq > maxSyncSuffix {
		return fmt.Errorf("%w: sync offer starting at %d under certificate %d", ErrInvalid, m.CkptSeq, m.Cert.Seq())
	}
	offer := &syncOffer{ckptSeq: m.CkptSeq, checkpoint: len(m.Frontier) > 0, cert: m.Cert}
	if offer.checkpoint {
		if m.CkptSeq == 0 {
			return fmt.Errorf("%w: sync offer for a checkpoint at 0", ErrInvalid)
		}
		f, err := merkle.DecodeFrontier(m.Frontier)
		if err != nil {
			return fmt.Errorf("%w: sync offer frontier: %v", ErrInvalid, err)
		}
		offer.frontier = f
	} else if m.CkptSeq != r.committed {
		return nil // answers an ask this replica has since moved past
	}
	tasks, ok := m.Cert.Structure(r.cfg.Peers, r.quorum)
	if !ok || !r.verifyTasks(tasks) {
		return fmt.Errorf("%w: sync offer certificate from %d does not verify", ErrInvalid, m.Replica)
	}
	s := &r.sync
	s.offer = offer
	s.store = nil
	s.batch = make([]*ledger.Batch, m.Cert.Seq()-m.CkptSeq)
	if own := r.led.BatchAt(m.Cert.Seq()); own != nil && own.Header.ContentDigest() == m.Cert.Header.ContentDigest() {
		// The certificate is for a batch this replica already executed: ¯M
		// chains every batch below it, so what it holds of the suffix is the
		// suffix, and no batch chunk is needed.
		for i := range s.batch {
			s.batch[i] = r.led.BatchAt(m.CkptSeq + 1 + uint64(i))
		}
	}
	r.noteAhead(m.Cert.Seq())
	return nil
}

// recordChunk checks one chunk against the accepted offer and keeps it.
// The state chunk verifies immediately against the certified d_C —
// decoded, rebuilt, and the rebuilt store's digest compared — and is kept
// as the store it decoded to; batch chunks must decode, carry the right
// sequence number and a validly signed statement, with execution checks
// deferred to adoption. A chunk already held, or of no slot, changes
// nothing.
func (r *Replica) recordChunk(m *SyncChunk) error {
	s := &r.sync
	switch m.Kind {
	case SyncChunkState:
		if !s.offer.checkpoint || m.Index != 0 || s.store != nil {
			return nil
		}
		store := kv.New()
		if err := store.InstallShard(m.Data, s.offer.cert.Header.CkptDigest); err != nil {
			return fmt.Errorf("%w: sync state chunk: %v", ErrInvalid, err)
		}
		s.store = store
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
	}
	return nil
}

// adoptIfComplete adopts the transfer once nothing is missing. A transfer
// that fails the certificate anchor means the source lied somewhere cheap
// verification could not catch (frontier, batch contents): ban it and ask
// the next peer.
func (r *Replica) adoptIfComplete(out *[]Outbound) error {
	if r.sync.missing() > 0 {
		return nil
	}
	if err := r.adoptSync(out); err != nil {
		return r.failSync(fmt.Errorf("%w: sync adoption failed: %v", ErrInvalid, err), out)
	}
	return nil
}

// adoptSync performs all-or-nothing adoption of the assembled transfer. A
// checkpoint offer first builds a candidate ledger from the verified
// state; either way the suffix is then re-executed onto the ledger — own
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
	if offer.checkpoint {
		cand, err := ledger.NewFromCheckpoint(ledger.Config{
			Key:             r.cfg.Key,
			App:             r.cfg.App,
			CheckpointEvery: r.cfg.CheckpointEvery,
		}, &ledger.Checkpoint{
			Seq:      offer.ckptSeq,
			Store:    s.store,
			Frontier: offer.frontier,
			Digest:   cert.Header.CkptDigest,
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
			continue // committed here while the transfer was under way
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
// laggard gets the suffix-only offer, the checkpoint a push starts from and
// the suffix above it stay for everyone else.
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
