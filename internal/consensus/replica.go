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
	// CheckpointEvery parameterizes the underlying ledger.
	CheckpointEvery uint64
	// Shards is kept for bench/ only, which sets it to 1: 0 or 1. Any other
	// value is refused with ErrConfig; the ledger is not partitioned.
	Shards uint32
	// Window is the proposal window W: how many consecutive instances may
	// be in flight at once. 0 means DefaultWindow. All replicas of one
	// configuration must agree on it (it bounds the prepared claims a
	// view-change may carry).
	Window int
	// SigOK, when set, is the set of signature checks this replica consults
	// and records into instead of a set of its own. Replicas in one process
	// (the sim) may share one: a member is a check that passed, so sharing
	// changes which replica runs a check, never a verdict. nil means a
	// private set.
	SigOK *hashsig.VerifiedSet[hashsig.Digest]
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
// one message at a time (Handle) and route the addressed envelopes it
// returns — Broadcast envelopes to every peer, unicast envelopes to exactly
// their Dest.
type Replica struct {
	cfg    Config
	n      int
	f      int
	quorum int // ledger.Quorum(n)
	window int
	led    *ledger.Ledger
	pool   *hashsig.VerifierPool
	keyOf  ledger.KeyOf // ledger.StatementKey(cfg.Peers)

	view      uint64
	committed uint64 // highest committed batch seq (0 = none)
	// insts holds the in-flight window, keyed by sequence number. Keys are
	// always the contiguous range (committed, Ledger().Seq()): instances
	// are created in execution order and abandoned as a suffix, and all of
	// them belong to the current view.
	insts map[uint64]*instance

	// view-change state
	inViewChange bool
	vcTarget     uint64
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
	// prepared keeps, per uncommitted seq, the prepared certificate of the
	// highest view this replica held one in for an instance it abandoned.
	// A view change abandons every instance, and the re-proposal that
	// replaces a prepared one may never prepare; the next view-change must
	// still claim the certificate (PBFT's P set), or a batch that committed
	// elsewhere could lose its seq to another.
	prepared map[uint64]*PreparedProof

	// seen records the first valid statement per (view, seq); a second one
	// with different content is equivocation.
	seen     map[slotKey]*ledger.BatchHeader
	evidence []*ledger.Blame
	blamed   map[slotKey]bool

	// future buffers messages that cannot be processed yet (later seq,
	// later view, or instance not created). Bounded; oldest dropped first.
	future []Message

	// sigOK holds the signature checks this replica has already made (or
	// signatures it produced itself), so buffered messages are not
	// re-verified on every drain pass and a statement carried by several
	// prepares is checked once. Members are VerifyTask.MemoKeys.
	sigOK *hashsig.VerifiedSet[hashsig.Digest]

	// sync is the catch-up state machine (sync.go): how this replica
	// obtains every batch it did not commit itself.
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
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("%w: shard count %d: the ledger is not partitioned (0 or 1)", ErrConfig, cfg.Shards)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	sigOK := cfg.SigOK
	if sigOK == nil {
		sigOK = hashsig.NewVerifiedSet[hashsig.Digest](maxSigCache)
	}
	led, err := ledger.New(ledger.Config{Key: cfg.Key, App: cfg.App, CheckpointEvery: cfg.CheckpointEvery})
	if err != nil {
		return nil, err
	}
	f := (n - 1) / 3
	return &Replica{
		cfg:           cfg,
		n:             n,
		f:             f,
		quorum:        ledger.Quorum(n),
		window:        cfg.Window,
		led:           led,
		pool:          hashsig.DefaultPool(),
		keyOf:         ledger.StatementKey(cfg.Peers),
		insts:         make(map[uint64]*instance),
		vcs:           make(map[uint64]map[ReplicaID]*ViewChange),
		mustRepropose: make(map[uint64]hashsig.Digest),
		prepared:      make(map[uint64]*PreparedProof),
		seen:          make(map[slotKey]*ledger.BatchHeader),
		blamed:        make(map[slotKey]bool),
		sigOK:         sigOK,
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

// InFlight returns the number of speculative instances currently open.
func (r *Replica) InFlight() int { return len(r.insts) }

// NextProposalSeq returns the sequence number the next Propose call would
// use: the ledger's next batch, one past the speculative chain.
func (r *Replica) NextProposalSeq() uint64 { return r.led.Seq() }

// Ledger exposes the replica's ledger (read-only use by callers).
func (r *Replica) Ledger() *ledger.Ledger { return r.led }

// Evidence returns the blame objects collected so far, as a fresh slice.
func (r *Replica) Evidence() []*ledger.Blame {
	return append([]*ledger.Blame(nil), r.evidence...)
}

// DebugState renders the replica's protocol coordinates for harness
// failure reports.
func (r *Replica) DebugState() string {
	win := "idle"
	if len(r.insts) > 0 {
		win = ""
		for _, seq := range sortedKeys(r.insts) {
			in := r.insts[seq]
			win += fmt.Sprintf("inst{view %d seq %d prepared %v endorsers %d opens %d} ",
				in.stmt.View, seq, in.preparedCert, in.endorsers(), len(in.opens))
		}
	}
	return fmt.Sprintf("replica %d: view %d committed %d window %d vc %v(target %d) floor %d obligations %d pending %d future %d sync %v(source %d ahead %d) retained %d %s",
		r.cfg.ID, r.view, r.committed, r.window, r.inViewChange, r.vcTarget, r.proposeFloor,
		len(r.mustRepropose), len(r.pendingRepropose), len(r.future), r.sync.asking, r.sync.source, r.sync.ahead,
		r.led.RetainedBatches(), win)
}

// sortedKeys returns m's keys in ascending order. Every place the replica
// iterates a protocol map — window instances, certificate assembly — must
// do so deterministically, or identical replicas would
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
// certified commit it knows about, a free slot in the proposal window, and
// no statement of its own already at the next seq of this view (a state
// transfer rolls back the proposals above it; signing that seq again would
// be equivocation).
func (r *Replica) CanPropose() bool {
	return !r.inViewChange && len(r.mustRepropose) == 0 &&
		len(r.pendingRepropose) == 0 && r.committed >= r.proposeFloor &&
		len(r.insts) < r.window && r.seen[slotKey{r.view, r.led.Seq()}] == nil
}

// Idle reports whether the replica has nothing in flight at all: no open
// instances, and CanPropose holds. With a window above one a pipelining
// primary is rarely Idle — use CanPropose to pace proposals.
func (r *Replica) Idle() bool {
	return len(r.insts) == 0 && r.CanPropose()
}

// Propose executes reqs as the next batch and returns the pre-prepare to
// broadcast and the batch's content digest, which tells the caller whether
// the batch that later commits at its seq is this one (receipts are cut
// from that one: Ledger.Receipts). Only the primary may propose, and only
// while the proposal window has room (CanPropose). The batch's header is
// the pre-prepare statement: the ledger signs it, once, with this view,
// this replica and the commitment to this replica's nonce for the content
// in the envelope.
func (r *Replica) Propose(reqs []ledger.Request) (*PrePrepare, hashsig.Digest, error) {
	if !r.IsPrimary() || !r.CanPropose() {
		return nil, hashsig.Digest{}, ErrNotPrimary
	}
	seq := r.led.Seq()
	var nonce hashsig.Nonce
	batch, err := r.led.ExecuteBatchAs(func(content hashsig.Digest) ledger.Envelope {
		nonce = r.cfg.Key.Nonce(r.view, seq, content)
		return r.envelope(nonce)
	}, reqs)
	if err != nil {
		return nil, hashsig.Digest{}, err
	}
	pp := r.openOwn(batch, nonce)
	return pp, r.insts[pp.Header.Seq].content, nil
}

// envelope is what this replica, as primary of the current view, puts
// around a batch it proposes under nonce.
func (r *Replica) envelope(nonce hashsig.Nonce) ledger.Envelope {
	return ledger.Envelope{View: r.view, Primary: uint32(r.cfg.ID), NonceCommit: nonce.Commit()}
}

// restate re-signs a batch this replica re-proposes as primary of the
// current view: the same content under this view's envelope and this
// view's nonce — one signature, no execution.
func (r *Replica) restate(h *ledger.BatchHeader, entries []ledger.Entry) (*ledger.Batch, hashsig.Nonce) {
	nonce := r.cfg.Key.Nonce(r.view, h.Seq, h.ContentDigest())
	return &ledger.Batch{Header: r.led.Restate(h, r.envelope(nonce)), Entries: entries}, nonce
}

// openOwn opens the instance for a batch whose header this replica just
// signed as primary under nonce, and returns the pre-prepare.
func (r *Replica) openOwn(batch *ledger.Batch, nonce hashsig.Nonce) *PrePrepare {
	pp := &PrePrepare{Header: batch.Header, Entries: batch.Entries}
	in := newInstance(&pp.Header, pp.Entries, nonce)
	in.ownPrePrepare = pp
	// The signature is this replica's own, so the prepares that carry the
	// statement back owe it no signature check.
	r.sigOK.Add(hashsig.VerifyTask{Key: r.cfg.Peers[r.cfg.ID], Digest: in.statement, Sig: in.stmt.Sig}.MemoKey())
	r.seen[slotKey{in.stmt.View, in.stmt.Seq}] = in.stmt
	r.insts[in.stmt.Seq] = in
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
	prep := &Prepare{ledger.Prepare{Replica: r.cfg.ID, Header: *in.stmt, NonceCommit: in.nonce.Commit()}}
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

// buffer parks a message that is valid but premature. Handlers drop
// anything about a decided slot before they get here, and every commit
// triggers a drain that re-handles — and so drops — what it made stale.
func (r *Replica) buffer(m Message) {
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
	case *SyncChunk:
		return r.handleSyncChunk(msg, out)
	case *Forward:
		return nil // the node runtime's
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
		if bl := ledger.NewBlame(prev, h, r.cfg.Peers[h.Primary]); bl != nil {
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

func (r *Replica) handlePrePrepare(pp *PrePrepare, out *[]Outbound) error {
	h := &pp.Header
	if err := r.statementStructure(h); err != nil {
		return err
	}
	seq := h.Seq
	if seq <= r.committed || h.View < r.view {
		// A decided slot, or a view this replica left: a committed batch is
		// fetched with its certificate (sync.go), never re-agreed. Dropped
		// before the signature check — a verdict nobody will use is not worth
		// a verify.
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
		return nil // this replica gave up on the view the proposal belongs to
	}
	if seq > r.committed+uint64(r.window) {
		// A validly signed proposal at seq implies its primary committed at
		// least seq-window: a commit this replica lacks (sync.go asks for it
		// after patience).
		r.noteAhead(seq - uint64(r.window))
		r.buffer(pp)
		return nil
	}
	if r.insts[seq] != nil {
		// Duplicate delivery (stragglers pull resends via Retransmit;
		// re-emitting here would echo-amplify every broadcast), the same
		// content under a second nonce commitment, or a conflicting proposal
		// whose blame was recorded above: the first statement keeps the slot.
		return nil
	}
	if seq != r.led.Seq() {
		// In the window but ahead of the execution chain (an earlier
		// pre-prepare is still missing): wait for the gap to fill.
		r.buffer(pp)
		return nil
	}
	// The pin is on content: the prepared batch comes back under the new
	// primary's own statement.
	if want, pinned := r.mustRepropose[seq]; pinned && h.ContentDigest() != want {
		return fmt.Errorf("%w: view %d primary must re-propose the prepared batch at seq %d", ErrInvalid, r.view, seq)
	}

	// Re-execute, compare, and adopt the primary's header as received: the
	// ledger holds the pre-prepare this replica accepted.
	if _, err := r.led.ApplyBatch(pp.Batch()); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	in := newInstance(h, pp.Entries, r.cfg.Key.Nonce(h.View, seq, h.ContentDigest()))
	r.insts[seq] = in
	r.gen++
	delete(r.mustRepropose, seq)
	r.prepare(in, out)
	r.checkPrepared(in, out)
	r.advanceCommits(out)
	return nil
}

// abandonFrom discards the in-flight instance at seq and every later one,
// rolling back the speculative execution the ledger holds from seq on
// (Lemma 1). seq is always above the committed boundary.
func (r *Replica) abandonFrom(seq uint64) {
	for s, in := range r.insts {
		if s >= seq {
			if in.preparedCert {
				r.keepPrepared(in)
			}
			delete(r.insts, s)
		}
	}
	if r.led.Seq() <= seq {
		return
	}
	if err := r.led.RollbackTo(seq); err != nil {
		if errors.Is(err, ledger.ErrPruned) {
			// The rollback target fell below the pruned checkpoint boundary:
			// local history can no longer reach the state the protocol needs,
			// so route into state transfer instead of crashing — a checkpoint
			// offer replaces the whole ledger.
			r.sync.force = true
			r.gen++
			return
		}
		// The mark exists: every executed batch leaves one, and marks at or
		// above the committed boundary are never pruned.
		panic(err)
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
	if seq <= r.committed {
		// The slot is decided without this prepare (routinely: the third of
		// three). Dropped before the signature checks — their verdict would
		// be discarded.
		return nil
	}
	// Both signature checks — the carried statement's and the backup's own —
	// go through the set and pool in one pass.
	if !r.verifyTasks(r.prepareTasks(p)) {
		return fmt.Errorf("%w: bad signature in prepare from %d", ErrInvalid, p.Replica)
	}
	if h.View > r.view {
		r.buffer(p)
		return nil
	}
	// An older view's statement is still evidence, though no longer a vote.
	r.checkEquivocation(h)
	if r.inViewChange || h.View < r.view {
		return nil
	}
	in := r.insts[seq]
	if in == nil || in.statement != h.StatementDigest() {
		r.buffer(p)
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
	if c.Seq <= r.committed || c.View < r.view {
		return nil
	}
	if c.View > r.view {
		r.buffer(c)
		return nil
	}
	if r.inViewChange {
		return nil
	}
	in := r.insts[c.Seq]
	if in == nil || in.statement != c.Statement {
		r.buffer(c)
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

// checkPrepared fires once a quorum of distinct replicas back the instance's
// statement: the replica reveals its nonce in an unsigned commit message
// (Lemma 3).
func (r *Replica) checkPrepared(in *instance, out *[]Outbound) {
	if in.preparedCert || in.endorsers() < r.quorum {
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
// order: the instance just above the committed boundary commits once a
// quorum of distinct replicas opened their commitments, which may unblock
// the next.
// Quorums that completed out of order simply wait here, fully buffered,
// until their predecessors commit.
func (r *Replica) advanceCommits(out *[]Outbound) {
	for {
		in := r.insts[r.committed+1]
		if in == nil || in.openedQuorum() < r.quorum {
			break
		}
		if err := r.markCommitted(r.buildCommitCert(in)); err != nil {
			// The ledger executed this very statement's batch.
			panic(err)
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

// markCommitted binds cert — built by advanceCommits or fetched by sync.go,
// verified either way — to the ledger (Ledger.Commit), returning a refusal,
// and moves the committed boundary to it: what the boundary passed retires
// (instances and pins at or below it, seen slots below it, blame already
// captured keeping its value), and so do the batches maybePrune lets go.
func (r *Replica) markCommitted(cert *ledger.CommitCert) error {
	if err := r.led.Commit(cert); err != nil {
		return err
	}
	seq := cert.Seq()
	r.committed = seq
	for s := range r.insts {
		if s <= seq {
			delete(r.insts, s)
		}
	}
	for s := range r.mustRepropose {
		if s <= seq {
			delete(r.mustRepropose, s)
		}
	}
	for s := range r.prepared {
		if s <= seq {
			delete(r.prepared, s)
		}
	}
	for k := range r.seen {
		if k.seq < seq {
			delete(r.seen, k)
		}
	}
	r.maybePrune()
	r.gen++
	return nil
}

// buildCommitCert assembles the proof that the instance committed.
func (r *Replica) buildCommitCert(in *instance) *ledger.CommitCert {
	cert := &ledger.CommitCert{Header: *in.stmt}
	for _, id := range sortedKeys(in.prepMsgs) {
		cert.Prepares = append(cert.Prepares, in.prepMsgs[id].Prepare)
	}
	for _, id := range sortedKeys(in.opens) {
		cert.Opens = append(cert.Opens, ledger.NonceOpen{Replica: id, Nonce: in.opens[id]})
	}
	return cert
}

// OnTimeout abandons the current view and broadcasts a view change for the
// next one. Callers invoke it when progress has stalled. As in PBFT, a
// repeated call escalates the target only once a quorum voted for it: a
// replica that timed out alone keeps its vote (Retransmit repeats it) where
// the others can join it, rather than run ahead of any view they accept.
func (r *Replica) OnTimeout() []Outbound {
	target := r.view + 1
	if r.inViewChange {
		if len(r.vcs[r.vcTarget]) < r.quorum {
			return nil
		}
		target = r.vcTarget + 1
	}
	return r.startViewChange(target)
}

// startViewChange emits this replica's view-change for the target view,
// carrying a prepared claim for every uncommitted seq it holds a prepared
// certificate for: an in-window instance that reached its prepare quorum,
// or one an earlier view change abandoned (quorums can form out of order,
// so the claims may be non-contiguous).
func (r *Replica) startViewChange(target uint64) []Outbound {
	r.inViewChange = true
	r.vcTarget = target
	r.gen++
	vc := &ViewChange{
		NewView:      target,
		Replica:      r.cfg.ID,
		CommittedSeq: r.committed,
		CommitProof:  r.led.Cert(r.committed),
	}
	for _, seq := range sortedKeys(r.insts) {
		if in := r.insts[seq]; in.preparedCert && seq > r.committed {
			r.keepPrepared(in)
		}
	}
	for _, seq := range sortedKeys(r.prepared) {
		if seq > r.committed {
			vc.Prepared = append(vc.Prepared, *r.prepared[seq])
		}
	}
	vc.Sig = r.cfg.Key.MustSign(vc.SigningDigest())
	r.recordViewChange(vc)
	out := []Outbound{toAll(vc)}
	r.maybeEmitNewView(target, &out)
	return out
}

// keepPrepared records a prepared instance's certificate unless one from a
// later view is already kept for its seq.
func (r *Replica) keepPrepared(in *instance) {
	seq := in.stmt.Seq
	if cur := r.prepared[seq]; cur != nil && cur.PP.Header.View > in.stmt.View {
		return
	}
	claim := &PreparedProof{PP: PrePrepare{Header: *in.stmt, Entries: in.entries}}
	for _, id := range sortedKeys(in.prepMsgs) {
		claim.Prepares = append(claim.Prepares, in.prepMsgs[id].Prepare)
	}
	r.prepared[seq] = claim
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
		ts, ok := vc.CommitProof.Structure(r.cfg.Peers)
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
		ts, ok := ledger.Prepared(h, claim.Prepares, r.cfg.Peers)
		if !ok {
			return fmt.Errorf("%w: bad prepared claim at seq %d", ErrInvalid, seq)
		}
		*tasks = append(*tasks, ts...)
		// The entries ride outside every signature (the view-change binds
		// only the statement digest), so check they reproduce the signed ¯G:
		// a relayed certificate with tampered entries must not reach the
		// new primary, which would fail to re-execute it and stall the view.
		if err := ledger.CheckBatchShape(claim.PP.Batch()); err != nil {
			return fmt.Errorf("%w: prepared batch entries do not match header: %v", ErrInvalid, err)
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
// gap can have committed anywhere. Nothing speculative crosses into the new
// view (Lemma 1): what prepared comes back in the chain, re-executed under
// the new primary's statement; what committed elsewhere is fetched with its
// certificate (noteAhead arms the ask, proposeFloor bars a lagging primary
// from proposing over it).
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
	r.gen++
	for tv := range r.vcs {
		if tv <= v {
			delete(r.vcs, tv)
		}
	}
	r.abandonFrom(r.committed + 1)
	r.mustRepropose = make(map[uint64]hashsig.Digest)
	r.pendingRepropose = nil
	if maxCommitted > r.proposeFloor {
		r.proposeFloor = maxCommitted
	}
	for _, pp := range chain {
		if seq := pp.Header.Seq; seq > r.committed {
			r.mustRepropose[seq] = pp.Header.ContentDigest()
		}
	}
	if r.primaryOf(v) == r.cfg.ID {
		r.reproposeChain(chain, out)
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
	if len(chain) > 0 && chain[0].Header.Seq > r.committed+1 {
		r.pendingRepropose = chain
		return
	}
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
// own protocol messages feed every peer's quorum formation, unlike the
// pairwise sync traffic. Nothing is resent for a committed instance —
// a peer that missed one fetches it (sync.go).
func (r *Replica) Retransmit() []Outbound {
	var msgs []Message
	if r.inViewChange {
		// Every vote cast above the view: a target this replica escalated
		// past may lack only its vote at that target's primary.
		for _, v := range sortedKeys(r.vcs) {
			if own := r.vcs[v][r.cfg.ID]; v > r.view && own != nil {
				msgs = append(msgs, own)
			}
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
	var out []Outbound
	broadcastAll(&out, msgs)
	return out
}

// retransmitInstance re-emits this replica's own messages for one in-flight
// instance.
func (r *Replica) retransmitInstance(in *instance, out *[]Message) {
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
