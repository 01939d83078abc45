package consensus

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

var (
	// ErrConfig reports an invalid replica configuration.
	ErrConfig = errors.New("consensus: config needs >= 4 peers, a matching key, and an app")
	// ErrNotPrimary reports a Propose call on a replica that is not the
	// primary of the current view, or not in a position to propose.
	ErrNotPrimary = errors.New("consensus: replica cannot propose now")
	// ErrInvalid reports a message that failed validation (bad signature,
	// wrong primary, malformed proof). Invalid messages never change state.
	ErrInvalid = errors.New("consensus: invalid message")
)

// DefaultWindow is the proposal window used when Config.Window is zero:
// the primary may have this many consecutive instances in flight before the
// oldest commits (paper §3, §6: pipelining consensus instances is what
// hides signing and verification latency between batches).
const DefaultWindow = 4

// Config parameterizes a Replica.
type Config struct {
	// ID is this replica's index; Peers[ID] must be Key's public half.
	ID ReplicaID
	// Key signs this replica's statements — batch headers while it is
	// primary, prepares while it is a backup — and view-change messages. One
	// key per replica, shared with its ledger, so blame evidence names the
	// same identity the ledger's signed headers do.
	Key *hashsig.PrivateKey
	// Peers holds every replica's public key, indexed by ReplicaID. The
	// configuration tolerates f = (len(Peers)-1)/3 faults.
	Peers []*hashsig.PublicKey
	// App executes transaction payloads (must be deterministic).
	App ledger.App
	// CheckpointEvery and Shards parameterize the underlying ledger.
	CheckpointEvery uint64
	Shards          uint32
	// Window is the proposal window W: how many consecutive instances may
	// be in flight at once. 0 means DefaultWindow. All replicas of one
	// configuration must agree on it (it bounds the prepared claims a
	// view-change may carry).
	Window int
	// Pool verifies protocol signatures; nil selects the process-wide
	// hashsig.DefaultPool.
	Pool *hashsig.VerifierPool
}

// slotKey identifies one proposal slot for equivocation detection: a
// primary may sign any number of views' statements for one seq, but only
// one batch content per (view, seq).
type slotKey struct {
	view uint64
	seq  uint64
}

// instance is one in-flight consensus instance. A replica runs up to
// Window of them concurrently, at consecutive sequence numbers starting
// just above the committed boundary; instances are created in ledger order
// (execution is sequential) but their prepare/commit quorums may complete
// in any order — commits are applied in order by advanceCommits.
type instance struct {
	// stmt is the primary's signed header for this instance; content and
	// statement cache its two digests (which batch; which pre-prepare).
	stmt      *ledger.BatchHeader
	content   hashsig.Digest // stmt.ContentDigest()
	statement hashsig.Digest // stmt.StatementDigest()
	entries   []ledger.Entry
	nonce     hashsig.Nonce // own commit nonce
	// passive marks a catch-up instance replayed from an older view's
	// traffic: the replica executes and collects, but emits nothing, and
	// commits only on a full quorum of openings.
	passive bool
	// reack marks an instance for a seq this replica already committed.
	reack bool
	// prepMsgs holds the valid prepares seen, by backup (never the
	// primary, whose endorsement and nonce commitment ride in stmt).
	prepMsgs map[ReplicaID]*Prepare
	// opens holds revealed nonces, validated against commitments lazily.
	opens        map[ReplicaID]hashsig.Nonce
	preparedCert bool
	// own messages, kept for retransmission.
	ownPrePrepare *PrePrepare
	ownPrepare    *Prepare
	ownCommit     *Commit
}

// endorsers counts distinct replicas backing the statement: the primary via
// its header signature plus one per valid prepare.
func (in *instance) endorsers() int { return 1 + len(in.prepMsgs) }

// commitment returns the nonce commitment replica id announced for this
// instance, if known.
func (in *instance) commitment(id ReplicaID) (hashsig.Digest, bool) {
	if id == ReplicaID(in.stmt.Primary) {
		return in.stmt.NonceCommit, true
	}
	if p, ok := in.prepMsgs[id]; ok {
		return p.NonceCommit, true
	}
	return hashsig.Digest{}, false
}

// openedQuorum counts distinct replicas whose revealed nonce opens their
// announced commitment.
func (in *instance) openedQuorum() int {
	n := 0
	for id, nonce := range in.opens {
		if c, ok := in.commitment(id); ok && nonce.Opens(c) {
			n++
		}
	}
	return n
}

// Replica is one L-PBFT replica: a ledger plus the protocol state machine.
// It is single-threaded, like the replica loop it models: callers feed it
// one message (Handle) or one batch of messages (HandleAll) at a time and
// route the addressed envelopes it returns — Broadcast envelopes to every
// peer, unicast envelopes to exactly their Dest.
type Replica struct {
	cfg    Config
	n      int
	f      int
	quorum int // 2f+1
	window int
	led    *ledger.Ledger
	pool   *hashsig.VerifierPool
	keyOf  ledger.KeyOf // StatementKey(cfg.Peers)

	view      uint64
	committed uint64 // highest committed batch seq (0 = none)
	// insts holds the in-flight window, keyed by sequence number. Keys are
	// always the contiguous range (committed, Ledger().Seq()): instances
	// are created in execution order and abandoned as a suffix.
	insts map[uint64]*instance
	// reacks holds participation-only instances for already committed
	// batches (a new primary re-proposing them so laggards can finish),
	// keyed by sequence number and bounded to the last Window commits.
	// They never touch the ledger: the replica answers from its stored
	// batch copy, lending its prepare and opening to the new round's
	// quorum. Without them a replica that committed seq could never help
	// re-form a quorum for it, and two laggards stuck below it would wait
	// forever (quorums need 2f+1 participants, committed-or-not).
	reacks map[uint64]*instance

	// lastCommit retains the proof for the latest committed batch, carried
	// in view-changes to certify CommittedSeq.
	lastCommit *CommitCert
	// recentOwn keeps this replica's own protocol messages for the last
	// Window committed instances. Retransmit re-emits them so a replica
	// that missed a whole pipelined window — the original broadcasts are
	// one-shot — can still rebuild passive catch-up instances and gather
	// the openings it needs, without a state-transfer protocol.
	recentOwn map[uint64][]Message

	// view-change state
	inViewChange bool
	vcTarget     uint64
	ownVC        *ViewChange
	vcs          map[uint64]map[ReplicaID]*ViewChange
	lastNewView  *NewView
	// mustRepropose pins, per sequence number, the content digest the
	// current view's primary is obliged to re-propose (from the new-view
	// certificate's contiguous prepared chain) — content, not statement: the
	// new primary re-signs the batch under its own view.
	mustRepropose map[uint64]hashsig.Digest
	// pendingRepropose is the chain a new primary must re-propose but
	// cannot yet, because it is still catching up to the chain's start.
	pendingRepropose []*PrePrepare
	// proposeFloor is the highest certified committed seq seen in a
	// new-view certificate; fresh proposals stay above it.
	proposeFloor uint64

	// seen records the first valid statement per (view, seq); a second one
	// with different content is equivocation.
	seen     map[slotKey]*ledger.BatchHeader
	evidence []*Blame
	blamed   map[slotKey]bool

	// future buffers messages that cannot be processed yet (later seq,
	// later view, or instance not created). Bounded; oldest dropped first.
	future []Message

	// sigOK holds the signature checks this replica has already made (or
	// signatures it produced itself), so buffered messages are not
	// re-verified on every drain pass and a statement carried by several
	// prepares is checked once.
	sigOK *hashsig.VerifiedSet

	// sync is the checkpoint state-transfer state machine (sync.go): how
	// this replica recovers once the cluster has pruned the batches it
	// would need for in-window catch-up.
	sync syncState

	// gen counts state transitions that can make buffered messages
	// processable; Handle drains the future buffer when it advances.
	gen uint64
}

// maxFuture bounds the out-of-order buffer.
const maxFuture = 1 << 14

// New returns a replica with a fresh ledger.
func New(cfg Config) (*Replica, error) {
	n := len(cfg.Peers)
	if n < 4 || cfg.Key == nil || int(cfg.ID) >= n {
		return nil, ErrConfig
	}
	if cfg.Peers[cfg.ID] == nil || !cfg.Peers[cfg.ID].Equal(cfg.Key.Public()) {
		return nil, fmt.Errorf("%w: Peers[%d] is not Key's public half", ErrConfig, cfg.ID)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("%w: negative window %d", ErrConfig, cfg.Window)
	}
	if cfg.Window > maxPreparedClaims {
		// A view-change carries one prepared claim per in-window instance;
		// peers' decoders cap the list at maxPreparedClaims, so a larger
		// window could emit view-changes no peer accepts — a liveness loss
		// baked in at configuration time.
		return nil, fmt.Errorf("%w: window %d exceeds the decodable claim bound %d", ErrConfig, cfg.Window, maxPreparedClaims)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	led, err := ledger.New(ledger.Config{
		Key:             cfg.Key,
		App:             cfg.App,
		CheckpointEvery: cfg.CheckpointEvery,
		Shards:          cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	f := (n - 1) / 3
	pool := cfg.Pool
	if pool == nil {
		pool = hashsig.DefaultPool()
	}
	return &Replica{
		cfg:           cfg,
		n:             n,
		f:             f,
		quorum:        2*f + 1,
		window:        cfg.Window,
		led:           led,
		pool:          pool,
		keyOf:         StatementKey(cfg.Peers),
		insts:         make(map[uint64]*instance),
		reacks:        make(map[uint64]*instance),
		recentOwn:     make(map[uint64][]Message),
		vcs:           make(map[uint64]map[ReplicaID]*ViewChange),
		mustRepropose: make(map[uint64]hashsig.Digest),
		seen:          make(map[slotKey]*ledger.BatchHeader),
		blamed:        make(map[slotKey]bool),
		sigOK:         hashsig.NewVerifiedSet(maxSigCache),
	}, nil
}

// ID returns this replica's index.
func (r *Replica) ID() ReplicaID { return r.cfg.ID }

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// Committed returns the highest committed batch sequence number (0 before
// the first commit).
func (r *Replica) Committed() uint64 { return r.committed }

// Window returns the configured proposal window W.
func (r *Replica) Window() int { return r.window }

// InFlight returns the number of speculative instances currently open
// (excluding re-acks of already committed batches).
func (r *Replica) InFlight() int { return len(r.insts) }

// NextProposalSeq returns the sequence number the next Propose call would
// use: the ledger's next batch, one past the speculative chain.
func (r *Replica) NextProposalSeq() uint64 { return r.led.Seq() }

// Ledger exposes the replica's ledger (read-only use by callers).
func (r *Replica) Ledger() *ledger.Ledger { return r.led }

// Evidence returns the blame objects collected so far, as a fresh slice.
func (r *Replica) Evidence() []*Blame {
	return append([]*Blame(nil), r.evidence...)
}

// DebugState renders the replica's protocol coordinates for harness
// failure reports.
func (r *Replica) DebugState() string {
	win := "idle"
	if len(r.insts) > 0 || len(r.reacks) > 0 {
		win = ""
		for _, seq := range sortedKeys(r.insts) {
			in := r.insts[seq]
			win += fmt.Sprintf("inst{view %d seq %d passive %v prepared %v endorsers %d opens %d} ",
				in.stmt.View, seq, in.passive, in.preparedCert, in.endorsers(), len(in.opens))
		}
		for _, seq := range sortedKeys(r.reacks) {
			in := r.reacks[seq]
			win += fmt.Sprintf("reack{view %d seq %d endorsers %d opens %d} ", in.stmt.View, seq, in.endorsers(), len(in.opens))
		}
	}
	return fmt.Sprintf("replica %d: view %d committed %d window %d vc %v(target %d) floor %d obligations %d pending %d future %d sync %d(ahead %d) retained %d %s",
		r.cfg.ID, r.view, r.committed, r.window, r.inViewChange, r.vcTarget, r.proposeFloor,
		len(r.mustRepropose), len(r.pendingRepropose), len(r.future), r.sync.phase, r.sync.ahead,
		r.led.RetainedBatches(), win)
}

// sortedKeys returns m's keys in ascending order. Every place the replica
// iterates a protocol map — window instances, re-acks, certificate
// assembly — must do so deterministically, or identical replicas would
// emit differently-ordered (and differently-signed-over) messages.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// primaryOf returns the primary of view v.
func (r *Replica) primaryOf(v uint64) ReplicaID { return ReplicaID(v % uint64(r.n)) }

// IsPrimary reports whether this replica leads the current view.
func (r *Replica) IsPrimary() bool { return r.primaryOf(r.view) == r.cfg.ID }

// CanPropose reports whether the replica could start a new instance now:
// no view change pending, no re-proposal obligation, caught up to every
// certified commit it knows about, and a free slot in the proposal window.
func (r *Replica) CanPropose() bool {
	return !r.inViewChange && len(r.mustRepropose) == 0 &&
		len(r.pendingRepropose) == 0 && r.committed >= r.proposeFloor &&
		len(r.insts) < r.window
}

// Idle reports whether the replica has nothing in flight at all: no open
// instances, no re-acks, and CanPropose holds. With a window above one a
// pipelining primary is rarely Idle — use CanPropose to pace proposals.
func (r *Replica) Idle() bool {
	return len(r.insts) == 0 && len(r.reacks) == 0 && r.CanPropose()
}

// Propose executes reqs as the next batch and returns the pre-prepare to
// broadcast plus the client receipts. Only the primary may propose, and
// only while the proposal window has room (CanPropose). The batch's header
// is the pre-prepare statement: the ledger signs it, once, with this view,
// this replica and a fresh nonce commitment in the envelope.
func (r *Replica) Propose(reqs []ledger.Request) (*PrePrepare, []ledger.Receipt, error) {
	if !r.IsPrimary() || !r.CanPropose() {
		return nil, nil, ErrNotPrimary
	}
	nonce := hashsig.NewNonce()
	batch, receipts, err := r.led.ExecuteBatchAs(r.envelope(nonce), reqs)
	if err != nil {
		return nil, nil, err
	}
	return r.openOwn(batch, nonce), receipts, nil
}

// envelope is what this replica, as primary of the current view, puts
// around a batch it proposes under nonce.
func (r *Replica) envelope(nonce hashsig.Nonce) ledger.Envelope {
	return ledger.Envelope{View: r.view, Primary: uint32(r.cfg.ID), NonceCommit: nonce.Commit()}
}

// restate re-signs a batch this replica re-proposes as primary of the
// current view: the same content under this view's envelope and a fresh
// nonce — one signature, no execution.
func (r *Replica) restate(h *ledger.BatchHeader, entries []ledger.Entry) (*ledger.Batch, hashsig.Nonce) {
	nonce := hashsig.NewNonce()
	return &ledger.Batch{Header: r.led.Restate(h, r.envelope(nonce)), Entries: entries}, nonce
}

// openOwn opens the instance for a batch whose header this replica just
// signed as primary under nonce, and returns the pre-prepare. A batch at or
// below the committed boundary opens as a re-ack.
func (r *Replica) openOwn(batch *ledger.Batch, nonce hashsig.Nonce) *PrePrepare {
	pp := &PrePrepare{Header: batch.Header, Entries: batch.Entries}
	in := newInstance(&pp.Header, pp.Entries, nonce)
	in.reack = in.stmt.Seq <= r.committed
	in.ownPrePrepare = pp
	// The signature is this replica's own, so the prepares that carry the
	// statement back owe it no signature check.
	r.sigOK.Add(hashsig.VerifyTask{Key: r.cfg.Peers[r.cfg.ID], Digest: in.statement, Sig: in.stmt.Sig}.MemoKey())
	r.seen[slotKey{in.stmt.View, in.stmt.Seq}] = in.stmt
	if in.reack {
		r.reacks[in.stmt.Seq] = in
	} else {
		r.insts[in.stmt.Seq] = in
	}
	r.gen++
	return pp
}

// newInstance returns an instance for the statement stmt under this
// replica's own commit nonce.
func newInstance(stmt *ledger.BatchHeader, entries []ledger.Entry, nonce hashsig.Nonce) *instance {
	return &instance{
		stmt:      stmt,
		content:   stmt.ContentDigest(),
		statement: stmt.StatementDigest(),
		entries:   entries,
		nonce:     nonce,
		prepMsgs:  make(map[ReplicaID]*Prepare),
		opens:     make(map[ReplicaID]hashsig.Nonce),
	}
}

// prepare signs this replica's agreement to the instance's statement — its
// one signature for the batch as a backup — records it and queues the
// broadcast.
func (r *Replica) prepare(in *instance, out *[]Outbound) {
	prep := &Prepare{Replica: r.cfg.ID, Header: *in.stmt, NonceCommit: in.nonce.Commit()}
	prep.Sig = r.cfg.Key.MustSign(prep.SigningDigest())
	in.ownPrepare = prep
	in.prepMsgs[r.cfg.ID] = prep
	*out = append(*out, toAll(prep))
}

// Handle processes one message and returns the addressed envelopes to send
// in response. Invalid messages return ErrInvalid-wrapped errors and change
// no state; stale or not-yet-processable messages return nil.
func (r *Replica) Handle(m Message) ([]Outbound, error) {
	var out []Outbound
	before := r.gen
	err := r.handle(m, &out)
	if r.gen != before {
		// Only a state transition can make buffered messages processable.
		r.drainFuture(&out)
	}
	return out, err
}

// drainFuture re-feeds buffered messages for as long as doing so advances
// the replica. Messages that are still premature re-buffer themselves.
func (r *Replica) drainFuture(out *[]Outbound) {
	for {
		if len(r.future) == 0 {
			return
		}
		before := r.gen
		pending := r.future
		r.future = nil
		for _, m := range pending {
			// Errors from buffered messages were either already reported at
			// receipt time or are stale-view artifacts; drop them.
			_ = r.handle(m, out)
		}
		if r.gen == before {
			return
		}
	}
}

func (r *Replica) buffer(m Message) {
	// Ack-and-discard: a delayed retransmit (or a later-view copy) of a
	// message for a batch below the retained re-ack window can never be
	// processed — the replica checkpointed past it and its peers pruned it.
	// Buffering it would leak it until maxFuture churn under long
	// adversarial schedules.
	if seq, ok := messageSeq(m); ok && seq > 0 && seq+uint64(r.window) <= r.committed {
		return
	}
	if len(r.future) >= maxFuture {
		r.future = r.future[1:]
	}
	r.future = append(r.future, m)
}

func (r *Replica) handle(m Message, out *[]Outbound) error {
	switch msg := m.(type) {
	case *PrePrepare:
		return r.handlePrePrepare(msg, out)
	case *Prepare:
		return r.handlePrepare(msg, out)
	case *Commit:
		return r.handleCommit(msg, out)
	case *ViewChange:
		return r.handleViewChange(msg, out)
	case *NewView:
		return r.handleNewView(msg, out)
	case *SyncRequest:
		return r.handleSyncRequest(msg, out)
	case *SyncAvail:
		return r.handleSyncAvail(msg, out)
	case *SyncChunkRequest:
		return r.handleSyncChunkRequest(msg, out)
	case *SyncChunk:
		return r.handleSyncChunk(msg, out)
	default:
		return fmt.Errorf("%w: unknown message %T", ErrInvalid, m)
	}
}

// checkEquivocation records h as the canonical statement for its slot, or —
// if a statement with different content already holds the slot — captures
// blame against the primary and reports the conflict. The same content
// under a second nonce commitment is not a conflict.
func (r *Replica) checkEquivocation(h *ledger.BatchHeader) bool {
	key := slotKey{h.View, h.Seq}
	if key.seq > r.committed+uint64(r.window) {
		// Outside the proposal window: the message gets buffered and
		// re-checked once in range. Recording it now would let a Byzantine
		// peer grow the map without bound by signing far-future slots.
		return false
	}
	prev, ok := r.seen[key]
	if !ok {
		r.seen[key] = h
		return false
	}
	if prev.ContentDigest() == h.ContentDigest() {
		return false
	}
	if !r.blamed[key] {
		if bl := blameFrom(prev, h, r.cfg.Peers[h.Primary]); bl != nil {
			r.blamed[key] = true
			r.evidence = append(r.evidence, bl)
		}
	}
	return true
}

// statementStructure checks a statement's identity claims: right primary
// for its view, index in range.
func (r *Replica) statementStructure(h *ledger.BatchHeader) error {
	if r.keyOf(h) == nil {
		return fmt.Errorf("%w: proposal from %d for view %d", ErrInvalid, h.Primary, h.View)
	}
	return nil
}

// verifyStatement checks the statement's one signature, by the primary it
// names (structure already checked).
func (r *Replica) verifyStatement(h *ledger.BatchHeader) error {
	if !r.verifyTasks([]hashsig.VerifyTask{r.statementTask(h)}) {
		return fmt.Errorf("%w: bad pre-prepare signature", ErrInvalid)
	}
	return nil
}

// instanceAt returns the in-flight instance owning seq: a window instance
// above the committed boundary, a re-ack at or below it (the two maps'
// key ranges are disjoint).
func (r *Replica) instanceAt(seq uint64) *instance {
	if in, ok := r.insts[seq]; ok {
		return in
	}
	return r.reacks[seq]
}

func (r *Replica) handlePrePrepare(pp *PrePrepare, out *[]Outbound) error {
	h := &pp.Header
	if err := r.statementStructure(h); err != nil {
		return err
	}
	seq := h.Seq
	if seq == 0 || seq+uint64(r.window) <= r.committed {
		// Stale: outside the retained re-ack window. Dropped before the
		// signature check — a verdict nobody will use is not worth a verify.
		return nil
	}
	if err := r.verifyStatement(h); err != nil {
		return err
	}
	if h.View > r.view {
		r.buffer(pp)
		return nil
	}
	if r.checkEquivocation(h) {
		return fmt.Errorf("%w: equivocating proposal at view %d seq %d", ErrInvalid, h.View, seq)
	}
	if r.inViewChange {
		// Park it: if the view change lands us past this proposal's view,
		// the batch may still commit passively from its quorum's traffic.
		r.buffer(pp)
		return nil
	}

	if seq <= r.committed {
		if h.View < r.view {
			return nil // an old view's re-proposal; nothing to gain
		}
		// Re-proposal of a batch we already committed (a new primary helping
		// laggards finish): participate from our stored copy, no re-execution.
		return r.startReack(pp, out)
	}
	if seq > r.committed+uint64(r.window) {
		// A validly signed proposal at seq implies its primary committed at
		// least seq-window: evidence this replica may be beyond in-window
		// catch-up (sync.go decides after patience).
		r.noteAhead(seq - uint64(r.window))
		r.buffer(pp)
		return nil
	}

	passive := h.View < r.view
	if in := r.insts[seq]; in != nil {
		if in.statement == h.StatementDigest() {
			// Duplicate delivery; stragglers pull resends via Retransmit
			// (re-emitting here would echo-amplify every broadcast).
			return nil
		}
		if passive {
			return nil // one catch-up instance per slot; first wins
		}
		if !in.passive && in.stmt.View == h.View {
			return nil // conflicting same-view proposal; blame recorded above
		}
		// A current-view proposal replaces an older view's passive
		// speculation — which, sitting in the ledger, takes every later
		// speculative batch down with it (Lemma 1, suffix rollback).
		r.abandonFrom(seq)
	}
	if seq != r.led.Seq() {
		// In the window but ahead of the execution chain (an earlier
		// pre-prepare is still missing): wait for the gap to fill.
		r.buffer(pp)
		return nil
	}
	if !passive {
		// The pin is on content: the prepared batch comes back under the new
		// primary's own statement.
		if want, pinned := r.mustRepropose[seq]; pinned && h.ContentDigest() != want {
			return fmt.Errorf("%w: view %d primary must re-propose the prepared batch at seq %d", ErrInvalid, r.view, seq)
		}
	}

	// Re-execute, compare, and adopt the primary's header as received: the
	// ledger holds the pre-prepare this replica accepted.
	if _, err := r.led.ApplyBatch(pp.Batch()); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	in := newInstance(h, pp.Entries, hashsig.NewNonce())
	in.passive = passive
	r.insts[seq] = in
	r.gen++
	if !passive {
		delete(r.mustRepropose, seq)
		r.prepare(in, out)
	}
	r.checkPrepared(in, out)
	r.advanceCommits(out)
	return nil
}

// startReack opens a participation-only instance for a batch this replica
// already committed, so replicas that missed the original round can gather
// a quorum in the new view. The re-proposal is a new statement; what must
// match the committed batch is its content.
func (r *Replica) startReack(pp *PrePrepare, out *[]Outbound) error {
	seq := pp.Header.Seq
	ownBatch := r.committedBatch(seq)
	if ownBatch == nil || ownBatch.Header.ContentDigest() != pp.Header.ContentDigest() {
		return fmt.Errorf("%w: re-proposal conflicts with committed batch %d", ErrInvalid, seq)
	}
	if in := r.reacks[seq]; in != nil && in.stmt.View >= pp.Header.View {
		return nil // duplicate delivery (same-view conflicts blame earlier)
	}
	in := newInstance(&pp.Header, pp.Entries, hashsig.NewNonce())
	in.reack = true
	r.reacks[seq] = in
	r.gen++
	r.prepare(in, out)
	r.checkPrepared(in, out)
	return nil
}

// committedBatch returns this replica's stored batch for a committed seq,
// or nil.
func (r *Replica) committedBatch(seq uint64) *ledger.Batch {
	if seq > r.committed {
		return nil
	}
	return r.led.BatchAt(seq)
}

// abandonFrom discards the in-flight instance at seq and every later one,
// rolling back the speculative execution they put in the ledger (Lemma 1).
func (r *Replica) abandonFrom(seq uint64) {
	dropped := false
	for s := range r.insts {
		if s >= seq {
			delete(r.insts, s)
			dropped = true
		}
	}
	if !dropped {
		return
	}
	if r.led.Seq() > seq {
		if err := r.led.RollbackTo(seq); err != nil {
			if errors.Is(err, ledger.ErrPruned) {
				// The rollback target fell below the pruned checkpoint
				// boundary: local history can no longer reach the state the
				// protocol needs, so route into state transfer instead of
				// crashing — the sync protocol replaces the whole ledger with
				// a verified checkpoint.
				r.sync.force = true
				r.gen++
				return
			}
			// The mark exists: every executed batch leaves one, and marks at
			// or above the committed boundary are never pruned.
			panic(err)
		}
	}
	r.gen++
}

func (r *Replica) handlePrepare(p *Prepare, out *[]Outbound) error {
	h := &p.Header
	if err := r.statementStructure(h); err != nil {
		return err
	}
	if int(p.Replica) >= r.n || p.Replica == ReplicaID(h.Primary) {
		return fmt.Errorf("%w: prepare from %d", ErrInvalid, p.Replica)
	}
	seq := h.Seq
	if seq <= r.committed && r.reacks[seq] == nil {
		// The slot committed without this prepare (routinely: the third of
		// three). Dropped before the signature checks — their verdict would
		// be discarded.
		return nil
	}
	// Both signature checks — the carried statement's and the backup's own —
	// go through the set and pool in one pass.
	if !r.verifyTasks(r.prepareTasks(p, nil)) {
		return fmt.Errorf("%w: bad signature in prepare from %d", ErrInvalid, p.Replica)
	}
	if h.View > r.view {
		r.buffer(p)
		return nil
	}
	r.checkEquivocation(h)
	if r.inViewChange {
		r.buffer(p)
		return nil
	}
	in := r.instanceAt(seq)
	if in == nil || in.statement != h.StatementDigest() {
		if seq > r.committed {
			r.buffer(p)
		}
		return nil
	}
	if _, dup := in.prepMsgs[p.Replica]; !dup {
		in.prepMsgs[p.Replica] = p
	}
	r.checkPrepared(in, out)
	r.advanceCommits(out)
	return nil
}

func (r *Replica) handleCommit(c *Commit, out *[]Outbound) error {
	if int(c.Replica) >= r.n {
		return fmt.Errorf("%w: commit from %d", ErrInvalid, c.Replica)
	}
	if c.Seq <= r.committed && r.reacks[c.Seq] == nil {
		return nil
	}
	if c.View > r.view {
		r.buffer(c)
		return nil
	}
	if r.inViewChange {
		r.buffer(c)
		return nil
	}
	in := r.instanceAt(c.Seq)
	if in == nil || in.stmt.View != c.View || in.statement != c.Statement ||
		in.stmt.Seq != c.Seq {
		if c.Seq > r.committed {
			r.buffer(c)
		}
		return nil
	}
	// The nonce authenticates itself: it must open the commitment c.Replica
	// announced. Commits are unsigned, so the Replica field is spoofable —
	// never let a garbage nonce squat on an honest replica's slot: when the
	// commitment is known, only an opening nonce is recorded, and a stored
	// non-opening nonce is replaced by one that opens (genuine commits are
	// retransmitted, so a spoof that raced in first cannot block quorum).
	if cm, known := in.commitment(c.Replica); known {
		if c.Nonce.Opens(cm) {
			in.opens[c.Replica] = c.Nonce
		}
	} else if _, dup := in.opens[c.Replica]; !dup {
		// Commitment not yet seen (prepare still in flight): hold the
		// candidate; openedQuorum validates it once the commitment lands.
		in.opens[c.Replica] = c.Nonce
	}
	r.advanceCommits(out)
	return nil
}

// checkPrepared fires once 2f+1 distinct replicas back the instance's
// statement: the replica reveals its nonce in an unsigned commit message
// (Lemma 3).
func (r *Replica) checkPrepared(in *instance, out *[]Outbound) {
	if in == nil || in.preparedCert || in.passive || in.endorsers() < r.quorum {
		return
	}
	in.preparedCert = true
	cm := &Commit{
		View:      in.stmt.View,
		Replica:   r.cfg.ID,
		Seq:       in.stmt.Seq,
		Statement: in.statement,
		Nonce:     in.nonce,
	}
	in.ownCommit = cm
	in.opens[r.cfg.ID] = in.nonce
	*out = append(*out, toAll(cm))
}

// advanceCommits applies every completion the window allows, strictly in
// order: the instance just above the committed boundary commits once 2f+1
// distinct replicas opened their commitments, which may unblock the next.
// Quorums that completed out of order simply wait here, fully buffered,
// until their predecessors commit. A completed re-ack is dropped (its
// batch was already committed).
func (r *Replica) advanceCommits(out *[]Outbound) {
	progressed := false
	for {
		seq := r.committed + 1
		in := r.insts[seq]
		if in == nil || in.openedQuorum() < r.quorum {
			break
		}
		progressed = true
		cert := r.buildCommitCert(in)
		delete(r.insts, seq)
		r.committed = seq
		r.lastCommit = cert
		r.retainOwn(seq, in)
		r.led.PruneMarks(seq)
		delete(r.mustRepropose, seq)
		// Blame slots at or below the committed boundary stay recorded (the
		// evidence keeps its value), but the seen map is pruned to bound it.
		for k := range r.seen {
			if k.seq < seq {
				delete(r.seen, k)
			}
		}
		r.gen++
	}
	if progressed {
		// Commits advanced past a checkpoint boundary eventually: drop
		// batches below both the latest committed checkpoint and the re-ack
		// window, bounding retained ledger memory (sync.go serves anything
		// older via chunked state transfer).
		r.maybePrune()
	}
	// Close out re-acks that served their purpose (full quorum of
	// openings re-formed) or slid out of the retained window.
	for seq, in := range r.reacks {
		if seq+uint64(r.window) <= r.committed || in.openedQuorum() >= r.quorum {
			delete(r.reacks, seq)
			r.gen++
		}
	}
	// A parked re-proposal chain resumes the moment the primary reaches its
	// start.
	for len(r.pendingRepropose) > 0 && r.pendingRepropose[0].Header.Seq <= r.committed {
		r.pendingRepropose = r.pendingRepropose[1:]
	}
	if len(r.pendingRepropose) > 0 && r.pendingRepropose[0].Header.Seq == r.committed+1 {
		chain := r.pendingRepropose
		r.pendingRepropose = nil
		r.reproposeChain(chain, out)
	}
}

// buildCommitCert assembles the proof that the instance committed.
func (r *Replica) buildCommitCert(in *instance) *CommitCert {
	cert := &CommitCert{Header: *in.stmt}
	for _, id := range sortedKeys(in.prepMsgs) {
		cert.Prepares = append(cert.Prepares, *in.prepMsgs[id])
	}
	for _, id := range sortedKeys(in.opens) {
		cert.Opens = append(cert.Opens, NonceOpen{Replica: id, Nonce: in.opens[id]})
	}
	return cert
}

// retainOwn records the replica's own messages for a just-committed
// instance and prunes retention to the last Window sequence numbers. A
// passive instance contributes nothing (it never emitted).
func (r *Replica) retainOwn(seq uint64, in *instance) {
	var own []Message
	r.retransmitInstance(in, &own)
	if len(own) > 0 {
		r.recentOwn[seq] = own
	}
	for s := range r.recentOwn {
		if s+uint64(r.window) <= seq {
			delete(r.recentOwn, s)
		}
	}
}

// OnTimeout abandons the current view and broadcasts a view change for the
// next one. Callers invoke it when progress has stalled; repeated calls
// escalate the target view.
func (r *Replica) OnTimeout() []Outbound {
	target := r.view + 1
	if r.inViewChange && r.vcTarget >= target {
		target = r.vcTarget + 1
	}
	return r.startViewChange(target)
}

// startViewChange emits this replica's view-change for the target view,
// carrying a prepared claim for every in-window instance that reached its
// prepare quorum (quorums can form out of order, so the claims may be
// non-contiguous).
func (r *Replica) startViewChange(target uint64) []Outbound {
	r.inViewChange = true
	r.vcTarget = target
	r.gen++
	vc := &ViewChange{
		NewView:      target,
		Replica:      r.cfg.ID,
		CommittedSeq: r.committed,
		CommitProof:  r.lastCommit,
	}
	for _, seq := range sortedKeys(r.insts) {
		in := r.insts[seq]
		if !in.preparedCert || seq <= r.committed {
			continue
		}
		claim := PreparedProof{PP: PrePrepare{Header: *in.stmt, Entries: in.entries}}
		for _, id := range sortedKeys(in.prepMsgs) {
			claim.Prepares = append(claim.Prepares, *in.prepMsgs[id])
		}
		vc.Prepared = append(vc.Prepared, claim)
	}
	vc.Sig = r.cfg.Key.MustSign(vc.SigningDigest())
	r.ownVC = vc
	r.recordViewChange(vc)
	out := []Outbound{toAll(vc)}
	r.maybeEmitNewView(target, &out)
	return out
}

// viewChangeStructure checks everything about a view-change except
// signature validity, appending the owed signature checks to tasks.
func (r *Replica) viewChangeStructure(vc *ViewChange, tasks *[]hashsig.VerifyTask) error {
	if int(vc.Replica) >= r.n {
		return fmt.Errorf("%w: view-change from %d", ErrInvalid, vc.Replica)
	}
	*tasks = append(*tasks, hashsig.VerifyTask{
		Key: r.cfg.Peers[vc.Replica], Digest: vc.SigningDigest(), Sig: vc.Sig})
	if vc.CommittedSeq > 0 {
		if vc.CommitProof == nil || vc.CommitProof.Seq() != vc.CommittedSeq {
			return fmt.Errorf("%w: uncertified committed seq %d", ErrInvalid, vc.CommittedSeq)
		}
		ts, ok := vc.CommitProof.structure(r.cfg.Peers, r.quorum)
		if !ok {
			return fmt.Errorf("%w: uncertified committed seq %d", ErrInvalid, vc.CommittedSeq)
		}
		*tasks = append(*tasks, ts...)
	}
	lastSeq := vc.CommittedSeq
	for i := range vc.Prepared {
		claim := &vc.Prepared[i]
		h := &claim.PP.Header
		seq := h.Seq
		if seq <= lastSeq || seq > vc.CommittedSeq+uint64(r.window) {
			return fmt.Errorf("%w: prepared batch at seq %d out of place", ErrInvalid, seq)
		}
		lastSeq = seq
		if h.View >= vc.NewView {
			return fmt.Errorf("%w: prepared batch from view %d >= target %d", ErrInvalid, h.View, vc.NewView)
		}
		if err := r.statementStructure(h); err != nil {
			return err
		}
		*tasks = append(*tasks, r.statementTask(h))
		// The entries ride outside every signature (the view-change binds
		// only the statement digest), so check they reproduce the signed ¯G:
		// a relayed certificate with tampered entries must not reach the
		// new primary, which would fail to re-execute it and stall the view.
		if err := ledger.CheckBatchShape(claim.PP.Batch()); err != nil {
			return fmt.Errorf("%w: prepared batch entries do not match header: %v", ErrInvalid, err)
		}
		primary := ReplicaID(h.Primary)
		endorsers := map[ReplicaID]bool{primary: true}
		d := h.StatementDigest()
		for j := range claim.Prepares {
			p := &claim.Prepares[j]
			if int(p.Replica) >= r.n || p.Replica == primary {
				continue
			}
			if p.Header.StatementDigest() != d {
				return fmt.Errorf("%w: bad prepare proof", ErrInvalid)
			}
			*tasks = append(*tasks, hashsig.VerifyTask{
				Key: r.cfg.Peers[p.Replica], Digest: p.SigningDigest(), Sig: p.Sig})
			endorsers[p.Replica] = true
		}
		if len(endorsers) < r.quorum {
			return fmt.Errorf("%w: prepared claim backed by %d < %d replicas", ErrInvalid, len(endorsers), r.quorum)
		}
	}
	return nil
}

// validateViewChange checks a view-change's signature and all its proofs,
// verifying the collected signature set in one pooled pass.
func (r *Replica) validateViewChange(vc *ViewChange) error {
	var tasks []hashsig.VerifyTask
	if err := r.viewChangeStructure(vc, &tasks); err != nil {
		return err
	}
	if !r.verifyTasks(tasks) {
		return fmt.Errorf("%w: bad signature in view-change from %d", ErrInvalid, vc.Replica)
	}
	return nil
}

func (r *Replica) recordViewChange(vc *ViewChange) {
	byID, ok := r.vcs[vc.NewView]
	if !ok {
		byID = make(map[ReplicaID]*ViewChange)
		r.vcs[vc.NewView] = byID
	}
	if _, dup := byID[vc.Replica]; !dup {
		byID[vc.Replica] = vc
	}
}

// maxViewAhead bounds how far above the local view-change target incoming
// view-changes are retained; honest targets escalate one view per timeout,
// so anything far beyond is a Byzantine attempt to grow the vcs map.
const maxViewAhead = 64

func (r *Replica) handleViewChange(vc *ViewChange, out *[]Outbound) error {
	if vc.NewView <= r.view {
		return nil
	}
	if vc.NewView > max(r.view, r.vcTarget)+maxViewAhead {
		return fmt.Errorf("%w: view-change for view %d is too far ahead", ErrInvalid, vc.NewView)
	}
	if err := r.validateViewChange(vc); err != nil {
		return err
	}
	// The committed claim was just certified against its commit proof.
	r.noteAhead(vc.CommittedSeq)
	for i := range vc.Prepared {
		r.checkEquivocation(&vc.Prepared[i].PP.Header)
	}
	r.recordViewChange(vc)
	// Join rule: f+1 distinct replicas already gave up on our view — at
	// least one is honest, so follow rather than stay behind.
	if !r.inViewChange || r.vcTarget < vc.NewView {
		if len(r.vcs[vc.NewView]) >= r.f+1 {
			*out = append(*out, r.startViewChange(vc.NewView)...)
			return nil
		}
	}
	r.maybeEmitNewView(vc.NewView, out)
	return nil
}

// maybeEmitNewView builds and broadcasts the new-view certificate once this
// replica is the target view's primary and holds a quorum of view-changes.
func (r *Replica) maybeEmitNewView(v uint64, out *[]Outbound) {
	if r.primaryOf(v) != r.cfg.ID || v <= r.view {
		return
	}
	byID := r.vcs[v]
	if len(byID) < r.quorum {
		return
	}
	nv := &NewView{View: v, Replica: r.cfg.ID}
	for _, id := range sortedKeys(byID) {
		nv.VCs = append(nv.VCs, *byID[id])
	}
	nv.Sig = r.cfg.Key.MustSign(nv.SigningDigest())
	r.lastNewView = nv
	*out = append(*out, toAll(nv))
	r.enterView(nv, out)
}

func (r *Replica) handleNewView(nv *NewView, out *[]Outbound) error {
	if nv.View <= r.view {
		return nil
	}
	if int(nv.Replica) >= r.n || nv.Replica != r.primaryOf(nv.View) {
		return fmt.Errorf("%w: new-view from %d", ErrInvalid, nv.Replica)
	}
	tasks := []hashsig.VerifyTask{{
		Key: r.cfg.Peers[nv.Replica], Digest: nv.SigningDigest(), Sig: nv.Sig}}
	seen := map[ReplicaID]bool{}
	for i := range nv.VCs {
		vc := &nv.VCs[i]
		if vc.NewView != nv.View {
			return fmt.Errorf("%w: certificate mixes views", ErrInvalid)
		}
		if err := r.viewChangeStructure(vc, &tasks); err != nil {
			return err
		}
		seen[vc.Replica] = true
	}
	if len(seen) < r.quorum {
		return fmt.Errorf("%w: new-view backed by %d < %d replicas", ErrInvalid, len(seen), r.quorum)
	}
	// One pooled pass over the whole certificate: the new-view signature,
	// every view-change signature, and every proof inside them.
	if !r.verifyTasks(tasks) {
		return fmt.Errorf("%w: bad signature in new-view certificate", ErrInvalid)
	}
	r.enterView(nv, out)
	return nil
}

// enterView moves the replica into nv.View. The certificate determines the
// commit high-water mark and the contiguous chain of prepared batches the
// new primary is bound to re-propose, starting just above that mark: per
// sequence number the claim from the highest view wins (a later view's
// certificate supersedes earlier ones, as in PBFT), and the chain stops at
// the first uncertified gap — commits are in order, so nothing beyond a
// gap can have committed anywhere. Speculative instances are kept as
// passive catch-up instances (their openings may still complete them);
// conflicting re-proposals in the new view replace them, rolling the
// speculation back at that point (Lemma 1).
func (r *Replica) enterView(nv *NewView, out *[]Outbound) {
	v := nv.View
	maxCommitted := uint64(0)
	for i := range nv.VCs {
		if vc := &nv.VCs[i]; vc.CommittedSeq > maxCommitted {
			maxCommitted = vc.CommittedSeq
		}
	}
	r.noteAhead(maxCommitted)
	best := make(map[uint64]*PrePrepare)
	for i := range nv.VCs {
		for j := range nv.VCs[i].Prepared {
			pp := &nv.VCs[i].Prepared[j].PP
			seq := pp.Header.Seq
			if seq <= maxCommitted {
				continue
			}
			if cur, ok := best[seq]; !ok || pp.Header.View > cur.Header.View {
				best[seq] = pp
			}
		}
	}
	var chain []*PrePrepare
	for seq := maxCommitted + 1; ; seq++ {
		pp, ok := best[seq]
		if !ok {
			break
		}
		chain = append(chain, pp)
	}

	r.view = v
	r.inViewChange = false
	r.vcTarget = v
	r.ownVC = nil
	r.gen++
	for tv := range r.vcs {
		if tv <= v {
			delete(r.vcs, tv)
		}
	}
	for _, in := range r.insts {
		in.passive = true
	}
	r.reacks = make(map[uint64]*instance) // old-view re-acks; nothing speculative to undo
	r.mustRepropose = make(map[uint64]hashsig.Digest)
	r.pendingRepropose = nil
	if maxCommitted > r.proposeFloor {
		r.proposeFloor = maxCommitted
	}

	isPrimary := r.primaryOf(v) == r.cfg.ID
	if len(chain) > 0 {
		for _, pp := range chain {
			if seq := pp.Header.Seq; seq > r.committed {
				r.mustRepropose[seq] = pp.Header.ContentDigest()
			}
		}
		if isPrimary {
			r.reproposeChain(chain, out)
		}
	} else if isPrimary {
		// Leading a view with no surviving prepared chain: passive leftovers
		// above the certificate's commit mark can never complete (their
		// batches demonstrably have no prepared quorum, or they would be in
		// the certificate), so clear them rather than letting them block
		// proposals. Leftovers at or below the mark are catch-up instances
		// for batches that committed elsewhere — keep them, they complete
		// from retransmitted openings (and proposeFloor already blocks
		// fresh proposals until this replica catches up through them).
		r.abandonFrom(max(r.committed, maxCommitted) + 1)
		if r.committed >= maxCommitted {
			// Laggards may still need quorums anywhere inside the last
			// committed window in this view: re-propose the whole retained
			// suffix (a laggard applies these in order as active instances;
			// replicas that already committed them re-ack from storage).
			r.reproposeCommittedWindow(out)
		}
	}
}

// reproposeCommittedWindow re-proposes this replica's stored batches for
// the last Window committed sequence numbers, oldest first. Bounded by the
// window, it is the new primary's catch-up offer to laggards that fell
// behind by more than one batch — the boundary batch alone would buffer
// unusably on any replica whose ledger is further back. Each goes out under
// a new statement of this view (one signature, no re-execution); the ledger
// keeps the statement the batch committed under.
func (r *Replica) reproposeCommittedWindow(out *[]Outbound) {
	if r.committed == 0 {
		return
	}
	lo := uint64(1)
	if r.committed > uint64(r.window) {
		lo = r.committed - uint64(r.window) + 1
	}
	for seq := lo; seq <= r.committed; seq++ {
		if b := r.led.BatchAt(seq); b != nil {
			*out = append(*out, toAll(r.openOwn(r.restate(&b.Header, b.Entries))))
		}
	}
}

// reproposeChain is the new primary's obligation: re-propose the
// certificate's prepared chain, in order, with identical content
// (deterministic re-execution reproduces every commitment) under its own
// statements — this view, this replica, a fresh nonce commitment, one
// signature per batch. If the primary is still behind the chain's start it
// parks the chain and resumes as soon as it catches up.
func (r *Replica) reproposeChain(chain []*PrePrepare, out *[]Outbound) {
	for len(chain) > 0 && chain[0].Header.Seq <= r.committed {
		chain = chain[1:] // already committed here
	}
	if len(chain) == 0 {
		// The whole chain is committed locally; re-propose our retained
		// committed window so laggards can finish.
		r.reproposeCommittedWindow(out)
		return
	}
	if first := chain[0].Header.Seq; first > r.committed+1 {
		r.pendingRepropose = chain
		return
	}
	// Any passive leftovers occupy the ledger slots the chain needs; the
	// re-proposals supersede them either way.
	r.abandonFrom(r.committed + 1)
	for _, pp := range chain {
		restated, nonce := r.restate(&pp.Header, pp.Entries)
		// The ledger executes the batch under the statement it goes out
		// with, as a backup accepting this pre-prepare will.
		if _, err := r.led.ApplyBatch(restated); err != nil {
			// A certified prepared batch re-executes cleanly by
			// construction; if the application is nondeterministic nothing
			// further can be proposed safely.
			return
		}
		delete(r.mustRepropose, pp.Header.Seq)
		*out = append(*out, toAll(r.openOwn(restated, nonce)))
	}
}

// Retransmit returns this replica's current outbound state — the messages a
// peer would need if earlier deliveries were lost. Harness and transport
// call it to model timeout-driven resends. Everything here is broadcast:
// own protocol messages and re-ack resupply feed every peer's quorum
// formation (a committed replica's prepares count toward others' endorser
// tallies), unlike the pairwise sync chunk traffic.
func (r *Replica) Retransmit() []Outbound {
	var msgs []Message
	if r.inViewChange {
		if r.ownVC != nil {
			msgs = append(msgs, r.ownVC)
		}
		var out []Outbound
		broadcastAll(&out, msgs)
		return out
	}
	if r.lastNewView != nil && r.lastNewView.View == r.view {
		msgs = append(msgs, r.lastNewView)
	}
	for _, seq := range sortedKeys(r.insts) {
		r.retransmitInstance(r.insts[seq], &msgs)
	}
	for _, seq := range sortedKeys(r.reacks) {
		r.retransmitInstance(r.reacks[seq], &msgs)
	}
	// Re-emit the window's worth of committed-instance messages: between
	// them, 2f+1 replicas resupply the pre-prepares, commitments, and
	// openings a laggard needs to passively re-commit the batches it
	// missed, however deep inside the last window it fell behind.
	for _, seq := range sortedKeys(r.recentOwn) {
		msgs = append(msgs, r.recentOwn[seq]...)
	}
	var out []Outbound
	broadcastAll(&out, msgs)
	return out
}

// retransmitInstance re-emits this replica's own messages for one in-flight
// instance.
func (r *Replica) retransmitInstance(in *instance, out *[]Message) {
	if in == nil {
		return
	}
	if in.ownPrePrepare != nil {
		*out = append(*out, in.ownPrePrepare)
	}
	if in.ownPrepare != nil {
		*out = append(*out, in.ownPrepare)
	}
	if in.ownCommit != nil {
		*out = append(*out, in.ownCommit)
	}
}
