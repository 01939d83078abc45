// Package ledger implements the IA-CCF replicated ledger (paper §3, §6):
// an append-only sequence of typed entries executed in batches against the
// key-value store. Every entry is a leaf of the history tree M and of its
// batch's tree G, whose root is ¯G. The primary signs one BatchHeader per
// batch — the paper's pre-prepare statement (§3.1): its view, its index and
// its nonce commitment around the content (seq, ¯M, ¯G, d_C) — and hands
// each client a Receipt — its entry's audit path to ¯G — verifiable offline
// against that header, cut from the batch as committed (Receipts).
// RollbackTo undoes batches per Lemma 1 until Commit binds a certificate
// for them; checkpoints, pruning and NewFromCheckpoint bound memory and let
// a laggard resume from a verified d_C.
//
// # One statement, two digests
//
// A header answers two questions, and each has its own digest.
// ContentDigest is the identity of the batch — the same entries executed
// from the same state produce it in any view, under any primary.
// StatementDigest is the identity of the act of proposing — this primary,
// in this view, with this nonce commitment, proposes that content — and it
// is what Sig signs, once. "Is this the batch I executed, committed, was
// pinned to?" compares content; "is this the pre-prepare that prepare,
// commit or certificate answers?" compares statements. A batch re-proposed
// after a view change keeps its content and gets a new statement.
//
// A ledger therefore holds the pre-prepares its replica proposed or
// accepted, as the paper's does: a backup's retained headers carry the
// primary's signature, not its own (its agreement is its signed prepare,
// which names the statement), and a ledger that lived through a view change
// has more than one signer — ReplayKeyed takes the key as a function of the
// header. A ledger used without consensus (ExecuteBatch) signs with the zero
// envelope.
//
// # One core, three policies
//
// The audit (§4–§5) is sound only if the auditor re-derives exactly the
// commitments the replicas signed, so exactly one piece of code derives
// them: core.derive (core.go) turns a batch's entries into results, entry
// digests and leaf hashes, ¯G, ¯M and d_C over a given store and history
// tree. It owns the only execute loop (transactions one at a time, in
// ledger order), the only checkpoint-marker rule and the only batch tree.
// The three public paths are policies over it:
//
//   - ExecuteBatchAs (propose) mints entries from requests and appends the
//     checkpoint marker when CheckpointEvery says one is due. The core SETS
//     each transaction's result and the marker's d_C; the policy puts the
//     caller's envelope around the derived content, signs the statement,
//     and retains the batch with its rollback mark.
//   - ApplyBatch (backup, state-transfer suffix) hands the core another
//     replica's entries and header. The core COMPARES every result, the
//     marker, and every content field; the policy adds the one rule only a
//     configured replica can check (a marker is present exactly when due),
//     retains the batch under the header as received — and on any
//     divergence rolls store, M and d_C back to the pre-batch boundary.
//   - Replay / ReplayFrom (audit) drive a stream through a core over a
//     fresh (or checkpoint-seeded) store. The core compares exactly as for
//     a backup; the policy verifies every header signature beside the
//     replay (a bad one is the verdict whatever the replay found), never
//     signs, and retains nothing — no batches, no rollback marks.
//
// derive is check(execute(…)), for every policy. execute is the execution
// loop and nothing else — transactions in ledger order plus the structural
// rules execution needs (a known Kind, the marker's placement and label) —
// and leaves a job: each transaction's write set, a snapshot of the store
// at the marker, and the structural verdict if it stopped early. check
// runs every check of that job in derivation order — results against the
// write sets, d_C of the snapshot, entry digests and leaf hashes, ¯G, the
// M append, the header when one was signed — setting instead of comparing
// when minting. The policies differ only in where check runs. Propose and
// apply run it inline, on the goroutine that calls them: a replica under
// load has no idle core, and spreading the work over goroutines was
// measured and bought nothing. The audit is the one path with a core to
// spare and entries that are final before it starts, so its execution lane
// hands each job to one checker goroutine for the whole replay, which runs
// check a batch or more behind (core.replay). Since the two schedules run
// the same two functions, the verdict is the same, byte for byte: the
// first divergence in derivation order.
//
// A mismatch is reported once, by the core, as a *Divergence naming the
// first field that failed to reproduce and carrying the signed header it
// failed against; ApplyBatch wraps it in ErrApply, Replay in ErrReplay.
// CheckBatchShape uses the same batch tree to validate relayed batches
// without executing them.
//
// # What a receipt check costs
//
// The signature is per batch and only the audit path is per transaction
// (§3.3): a client or auditor holding the 64 receipts of one batch owes
// their shared header one signature check. BatchHeader.Verify — and so
// Receipt.Verify — therefore consults one process-wide
// hashsig.VerifiedSet: one signature verification per distinct (key, signed
// header fields, signature bytes) per process, then path hashing only,
// until the triple ages out of a bounded two-generation set (a re-check,
// never a different verdict). A member is that triple itself, not a digest
// of it, so a repeat check finds its header by comparison: no SHA-256 but
// the path's, no Ed25519, no allocation. On a 2-core x86-64 machine
// (BenchmarkReceiptVerify, -cpu 1, receipts of a 65-entry batch) a warm
// receipt check is ≈ 1.85 µs and a cold one ≈ 54 µs, nearly all of it
// Ed25519. Failures are never cached. The signed fields are the envelope
// as well as the content, so the one check also proves which primary
// proposed the batch, in which view, under which nonce commitment — the
// first component of the §3.3 receipt — and the envelope rides in hash
// blocks the content already paid for. Two callers do not
// use the set: Replay / ReplayFrom verify every header of the stream
// they are given, every time — an auditor replays a ledger once, and a
// replay must not be vouched for by an earlier one — and consensus
// replicas, which verify headers through their own per-replica sets so
// that replicas sharing a process share no verification state.
//
// # The signed statements
//
// Every signed statement of the protocol, and the evidence built from
// them, is ledger data (evidence.go), so a client or auditor checks it with
// this package alone: the BatchHeader (the primary's pre-prepare), a
// backup's Prepare, the CommitCert (a header, its prepares and a Quorum of
// opened nonces; Structure hands a replica the signature checks it owes),
// Blame (two headers with different content for one (view, seq) under one
// key) and the Receipt. StatementKey names the key a header verifies under.
// A ledger keeps the CommitCert of each retained committed seq (Cert):
// Commit binds one to what the ledger holds at its seq and retires the
// rollback marks below it. It binds and does not verify; its callers do.
//
// # Memory ownership on the commit path
//
// Every API boundary on the commit path follows explicit ownership rules:
//
//   - Everything ExecuteBatch, ApplyBatch and Receipts RETURN is
//     caller-owned forever: Batch headers, entries, and Receipts never
//     alias the history tree, and the ledger never writes to them after
//     returning. Receipts from one call share arena backing with each
//     other (paths in the one []Digest arena merkle.PathsOf allocates for
//     the batch, payloads in one []byte arena) — safe because each is a
//     three-index sub-slice capped at its own region, which a client
//     append cannot grow into a neighbour's — but never with the history
//     tree or with the retained stream.
//   - Request slices passed IN are read-only during the call and not
//     retained. Entries inside a Batch handed to ApplyBatch are adopted
//     into the retained stream and must not be mutated afterwards, same
//     as Batches() results.
//   - A batch's leaf hashes and outcomes are allocated per batch and M keeps
//     its own copies of the leaves; the aliasing property tests retain what
//     one batch returned across the batches after it.
//   - A rollback mark holds a clone of the store (one flush plus one
//     pointer: the trie is persistent and shares every node), and
//     RollbackTo makes that clone the store. Commit and Prune drop the
//     marks below them, so under consensus the marks pin the trie heads of
//     at most the window's uncommitted batches.
//   - Replay and ReplayFrom only read the batches they are given.
//
// The aliasing property tests (alias_test.go) enforce these rules. The
// determinism requirements (no map-order bytes, no wall clocks or unseeded
// randomness) are tested, not linted: the golden and replay tests compare
// bytes, and a replayed sim run must deliver the same frames
// (TestSimDeterministicReplay).
//
// # Pruning boundary invariant
//
// Prune(before) establishes a pruned boundary baseSeq = before-1: batches
// at or below it are dropped, the history tree is compacted to the newest
// checkpoint at or below it (that checkpoint's frontier is all that
// survives of the leaves before it), and their rollback marks and commit
// certificates are discarded. Everything above the boundary behaves
// exactly as before — BatchAt, RollbackTo, ApplyBatch. At or below it,
// BatchAt returns nil and RollbackTo fails with ErrPruned (wrapped, so
// errors.Is(err, ErrPruned) routes a consensus view change into state
// transfer instead of a crash). Callers must maintain: the boundary never
// exceeds the latest checkpoint boundary (CheckpointAt(committed) stays
// non-nil once a checkpoint committed, so the retained checkpoint plus the
// retained batch suffix always reconstruct the present state), and never
// exceeds the consensus commit watermark (uncommitted batches must stay
// rollbackable per Lemma 1). Under the consensus prune policy —
// min(latest committed checkpoint + 1, committed − W + 1) — the retained
// batch count is bounded by max(CheckpointEvery − 1, W) committed batches
// plus at most W speculative ones: steady-state memory is
// O(window + checkpoint interval) regardless of ledger length.
package ledger

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/merkle"
	"iaccf/internal/wire"
)

var (
	// ErrConfig reports a Ledger constructed without a key or app.
	ErrConfig = errors.New("ledger: config needs a signing key and an app")
	// ErrUnknownSeq reports a rollback to a batch boundary that was never
	// marked or has been pruned.
	ErrUnknownSeq = errors.New("ledger: unknown batch sequence number")
	// ErrBadBatch reports a malformed batch on decode.
	ErrBadBatch = errors.New("ledger: malformed batch")
	// ErrPruned reports an operation on a batch at or below the pruned
	// checkpoint boundary: the batch and its rollback mark no longer exist.
	// Consensus treats it as the signal to re-sync via state transfer.
	ErrPruned = errors.New("ledger: sequence below the pruned checkpoint boundary")
	// ErrCommit reports a certificate naming what the ledger does not hold.
	ErrCommit = errors.New("ledger: certificate does not match the ledger")
)

// MaxRequestLen bounds request bodies accepted for execution. It sits far
// enough under wire.MaxValueLen that every encoded entry (payload plus
// fixed header fields) stays within the decoder limits — without an
// ingress cap, a proposer could execute and sign a batch whose entries no
// backup or auditor can decode.
const MaxRequestLen = wire.MaxValueLen - 128

// contentDomain and statementDomain domain-separate the two header digests
// from each other and from all other hashed and signed messages. The
// statement domain is short on purpose: with it the statement preimage —
// 44 bytes of envelope ahead of the 120 of content — still fits three
// SHA-256 blocks, what the content alone costs, so checking a receipt
// hashes no more than it did before the header carried an envelope.
const (
	contentDomain   = "iaccf-batch-header:"
	statementDomain = "iaccf-stmt:"
)

// Envelope is the part of a pre-prepare statement that is about the act of
// proposing rather than the batch proposed: the view, the proposing
// primary's replica index, and the primary's commit-nonce commitment H(n)
// (paper §3.1). The zero Envelope is what a ledger used without consensus
// signs with.
type Envelope struct {
	View        uint64
	Primary     uint32
	NonceCommit hashsig.Digest
}

// BatchHeader is the signed statement a primary issues for one executed
// batch — the signed part of the paper's pre-prepare (§3.1). The content
// binds the batch sequence number, the history tree root ¯M after the
// batch, the root ¯G of the batch tree G over the batch's entries with its
// entry count, and the digest d_C of the latest checkpoint. The envelope
// says who proposes that content, and when. Sig signs StatementDigest,
// which covers both.
type BatchHeader struct {
	Envelope
	Seq        uint64         // batch sequence number
	HistSize   uint64         // leaves in M after this batch
	MRoot      hashsig.Digest // ¯M
	GRoot      hashsig.Digest // ¯G: root of the batch tree G
	GSize      uint64         // entries under G: the batch's entry count
	CkptDigest hashsig.Digest // d_C of the latest checkpoint (zero before the first)
	Sig        hashsig.Signature
}

// ContentDigest identifies the batch, whoever proposes it: every content
// field (not the envelope, not the signature), domain separated. Two
// headers with equal content digests commit to the same entries, results,
// history and state in any view. It is NOT what is signed — see
// StatementDigest.
func (h *BatchHeader) ContentDigest() hashsig.Digest {
	var buf [256]byte
	return hashsig.Sum(h.appendContent(append(buf[:0], contentDomain...)))
}

// StatementDigest identifies the pre-prepare — this primary, in this view,
// under this nonce commitment, proposes this content — and is the digest
// Sig signs: every field but the signature, envelope first, domain
// separated, in one pass. Prepares, commits and certificates name a
// statement by it. Like ContentDigest's, the preimage is assembled on the
// stack — the digests run for every message sent and verified and for
// every receipt checked, and must not allocate.
func (h *BatchHeader) StatementDigest() hashsig.Digest {
	var buf [256]byte
	return hashsig.Sum(h.appendSigned(append(buf[:0], statementDomain...)))
}

// appendSigned appends every field the signature covers — the envelope,
// then the content — and appendContent the content alone. They are the
// single enumerations shared by the two digests and the header codec, so a
// digest preimage and the serialized form can never drift apart;
// readSigned is appendSigned's inverse.
func (h *BatchHeader) appendSigned(dst []byte) []byte {
	dst = wire.AppendUint64(dst, h.View)
	dst = wire.AppendUint32(dst, h.Primary)
	dst = wire.AppendDigest(dst, h.NonceCommit)
	return h.appendContent(dst)
}

func (h *BatchHeader) appendContent(dst []byte) []byte {
	dst = wire.AppendUint64(dst, h.Seq)
	dst = wire.AppendUint64(dst, h.HistSize)
	dst = wire.AppendDigest(dst, h.MRoot)
	dst = wire.AppendDigest(dst, h.GRoot)
	dst = wire.AppendUint64(dst, h.GSize)
	return wire.AppendDigest(dst, h.CkptDigest)
}

// signedLen is the length appendSigned appends: four 64-bit fields, the
// primary's 32-bit index and four digests.
const signedLen = 4*8 + 4 + 4*hashsig.DigestSize

func (h *BatchHeader) readSigned(r *wire.Reader) {
	h.View = r.Uint64()
	h.Primary = r.Uint32()
	h.NonceCommit = r.Digest()
	h.Seq = r.Uint64()
	h.HistSize = r.Uint64()
	h.MRoot = r.Digest()
	h.GRoot = r.Digest()
	h.GSize = r.Uint64()
	h.CkptDigest = r.Digest()
}

// headerCheck is a member of verifiedHeaders: the exact check
// BatchHeader.Verify made — the key's ID, every field the signature covers
// (envelope and content) and all the signature's bytes — held by value, so
// a lookup compares the triple and hashes none of it. Fields are ordered by
// alignment and primary is widened to 64 bits, leaving no padding, so the
// map hashes a member as one block of memory. checkOf is, with appendSigned and
// readSigned, an enumeration of the signed fields;
// TestHeaderCheckBindsEverySignedField holds it to BatchHeader's.
type headerCheck struct {
	view, seq, histSize, gSize, primary   uint64
	key                                   hashsig.Digest
	nonceCommit, mRoot, gRoot, ckptDigest hashsig.Digest
	sig                                   [hashsig.SignatureSize]byte
}

// checkOf returns the member a successful check of h under pub adds, and
// false when there is none: a nil key or a signature of any length other
// than SignatureSize never verifies.
func (h *BatchHeader) checkOf(pub *hashsig.PublicKey) (headerCheck, bool) {
	if pub == nil || len(h.Sig) != hashsig.SignatureSize {
		return headerCheck{}, false
	}
	k := headerCheck{
		view: h.View, seq: h.Seq, histSize: h.HistSize, gSize: h.GSize,
		primary:     uint64(h.Primary),
		key:         pub.ID(),
		nonceCommit: h.NonceCommit, mRoot: h.MRoot, gRoot: h.GRoot, ckptDigest: h.CkptDigest,
	}
	copy(k.sig[:], h.Sig)
	return k, true
}

// maxVerifiedHeaders bounds verifiedHeaders across both generations. A
// client's working set is the batches it has receipts outstanding for — a
// few, or a few thousand for an auditor sampling a ledger. A member is a
// 264-byte headerCheck, which a Go map keeps in an allocation of its own
// (keys over 128 B are held by reference): ≈ 300 B with its slot, so a full
// set is ≈ 1.2 MB. Past it the oldest headers are re-checked.
const maxVerifiedHeaders = 4096

// verifiedHeaders is the process's set of header signature checks that
// have succeeded, consulted by BatchHeader.Verify only (see the package
// doc, "What a receipt check costs").
var verifiedHeaders = hashsig.NewVerifiedSet[headerCheck](maxVerifiedHeaders)

// Verify reports whether the statement carries a valid signature by pub. The
// first successful check of a given (pub, envelope and content, signature
// bytes) in this process costs StatementDigest, one signature verification
// and the member's allocation; repeating it is one map probe that compares
// the triple — no SHA-256, no Ed25519, no allocation — until it ages out of
// a bounded set. Failures are never remembered, so a false verdict never
// comes from the set, and changing any one of the three components is a
// miss.
func (h *BatchHeader) Verify(pub *hashsig.PublicKey) bool {
	k, ok := h.checkOf(pub)
	if !ok {
		return false
	}
	return verifiedHeaders.Verify(k, func() bool { return pub.Verify(h.StatementDigest(), h.Sig) })
}

// EncodeTo writes the header — signed fields in signing order, then the
// signature — so consensus messages can frame headers on their own, outside
// a batch stream.
func (h *BatchHeader) EncodeTo(w *wire.Writer) {
	var buf [256]byte
	w.Raw(h.appendSigned(buf[:0]))
	w.Bytes(h.Sig)
}

// DecodeHeader reads a header written by EncodeTo. Errors stick to the
// reader; the caller checks r.Err(). The signature field is capped at
// hashsig.SignatureSize: a longer one is wire.ErrCorrupt here, a shorter
// one decodes and fails Verify.
func DecodeHeader(r *wire.Reader) BatchHeader {
	var h BatchHeader
	h.readSigned(r)
	h.Sig = r.Bytes(hashsig.SignatureSize)
	return h
}

// Batch is one executed batch: the signed header plus the entries it
// covers, in ledger order. A sequence of batches is the ledger stream an
// auditor replays.
type Batch struct {
	Header  BatchHeader
	Entries []Entry
}

// Receipt is the client's offline-verifiable proof that its transaction
// executed in a given batch: the transaction entry, its audit path in the
// batch tree G, and the signed header whose ¯G the path roots in (paper
// §3.1). Index is the entry's position in the batch; the tree's size is
// the header's signed GSize, so the one unsigned field is the position.
// The signature plus leaf/interior domain separation bind that this exact
// entry is committed under ¯G, and in a tree of GSize leaves the sides the
// path's siblings take differ for every position, so a path that verifies
// proves the entry is at Index, not merely somewhere in G (merkle.VerifyPath).
type Receipt struct {
	Header BatchHeader
	Entry  Entry
	Index  uint64 // leaf index of Entry in G: its position in the batch
	Path   []hashsig.Digest
}

// Verify checks the receipt against the replica public key: the header
// signature must be valid and the entry's audit path must root in ¯G, in
// a tree of the header's signed GSize leaves. The signature is per batch and
// only the path is per transaction (§3.3), so the receipts of one batch owe
// their shared header one signature check between them (BatchHeader.Verify);
// the path is hashed for every receipt, every time.
func (r *Receipt) Verify(pub *hashsig.PublicKey) bool {
	if !r.Header.Verify(pub) {
		return false
	}
	return merkle.VerifyPath(r.Entry.Digest(), r.Index, r.Header.GSize, r.Path, r.Header.GRoot)
}

// Request is one client or member submission awaiting execution.
type Request struct {
	// Governance records the request on the ledger without executing it
	// against the store.
	Governance bool
	// Author is the submitting key's ID (client for transactions, member
	// for governance).
	Author hashsig.Digest
	// ReqNo is the client's request number i, making ⟨t,i⟩ unique per
	// client so duplicate submissions are distinguishable on the ledger.
	ReqNo uint64
	// Body is the application payload t (or the governance action).
	Body []byte
}

// Config parameterizes a Ledger.
type Config struct {
	// Key signs batch headers. Required.
	Key *hashsig.PrivateKey
	// App executes transaction payloads. Required.
	App App
	// CheckpointEvery takes a state checkpoint (and appends a checkpoint
	// marker entry) every n batches. 0 means every batch. Validated and
	// normalized once in New.
	CheckpointEvery uint64
	// Shards is kept for bench/ only, which sets it to 1: 0 or 1. Any other
	// value is refused with ErrConfig; the store and the batch tree are
	// not partitioned.
	Shards uint32
}

// Ledger executes batches of requests against a key-value store while
// maintaining the history tree M, emitting signed batch headers and client
// receipts. It is single-writer, like the replica execution loop it models.
type Ledger struct {
	core
	cfg     Config
	nextSeq uint64
	marks   []ledgerMark
	// baseSeq is the pruned boundary: batches[0] (if any) has sequence
	// number baseSeq+1. Zero until the first Prune (or the checkpoint seq
	// after NewFromCheckpoint); see the package doc's pruning invariant.
	baseSeq uint64
	batches []*Batch
	// ckpts are the retained checkpoint materializations, ascending by Seq
	// (speculative ones included; rollback discards them). Prune keeps only
	// those at or above the boundary.
	ckpts []*Checkpoint
	// certs are the certificates Commit bound, by seq; Prune and
	// RollbackTo drop them with their batches.
	certs map[uint64]*CommitCert
}

// ledgerMark is the rollback record of one batch boundary: a clone of the
// store (one flush plus one pointer: the trie is persistent), the
// history-tree size and the checkpoint digest, so RollbackTo restores all
// three in lockstep.
type ledgerMark struct {
	seq      uint64
	store    *kv.Store
	histSize uint64
	lastCkpt hashsig.Digest
}

// New returns a ledger executing against a fresh store. The first batch
// has sequence number 1. Configuration is validated here, once:
// CheckpointEvery is normalized (0 → 1) so the execution path never
// re-checks it.
func New(cfg Config) (*Ledger, error) {
	if cfg.Key == nil || cfg.App == nil {
		return nil, ErrConfig
	}
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("%w: shard count %d: the store is not partitioned (0 or 1)", ErrConfig, cfg.Shards)
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	return &Ledger{
		core: core{
			app:   cfg.App,
			store: kv.New(),
			hist:  merkle.New(),
		},
		cfg:     cfg,
		nextSeq: 1,
		certs:   make(map[uint64]*CommitCert),
	}, nil
}

// Seq returns the sequence number the next batch will get.
func (l *Ledger) Seq() uint64 { return l.nextSeq }

// HistRoot returns the current history tree root ¯M.
func (l *Ledger) HistRoot() hashsig.Digest { return l.hist.Root() }

// HistSize returns the number of entries in the history tree.
func (l *Ledger) HistSize() uint64 { return l.hist.Size() }

// StateDigest returns the deterministic digest of the current store state
// — the d_C a checkpoint taken now would pin. It hashes only the
// trie nodes written since the last digest, so it is cheap between
// checkpoints.
func (l *Ledger) StateDigest() hashsig.Digest { return l.store.CheckpointDigest() }

// Get reads a key from the executed state.
func (l *Ledger) Get(key string) ([]byte, bool) { return l.store.Get(key) }

// Batches returns the emitted batch stream since genesis (or the last
// rollback), oldest first, as a fresh slice: appending to or reordering the
// result cannot disturb the ledger's retained history. The batches
// themselves are shared and must be treated as immutable (deep-copying
// every payload on each call would make auditing quadratic).
func (l *Ledger) Batches() []*Batch {
	return append([]*Batch(nil), l.batches...)
}

// BatchAt returns the stored batch for seq, or nil when seq is out of
// range — above the retained stream or at/below the pruned boundary. The
// retained stream is contiguous from baseSeq+1 (rollbacks truncate a
// suffix, Prune drops a prefix), so this is index arithmetic — hot paths
// (the node delivering receipts per commit, consensus serving a laggard its
// suffix) must not pay Batches()'s slice copy per lookup. The result is
// shared and must be treated as immutable, like Batches.
func (l *Ledger) BatchAt(seq uint64) *Batch {
	if seq <= l.baseSeq || seq > l.baseSeq+uint64(len(l.batches)) {
		return nil
	}
	return l.batches[seq-l.baseSeq-1]
}

// ExecuteBatch proposes reqs as the next batch under the zero envelope —
// the form a ledger used without consensus takes (a single writer, one
// signer, no commit to wait for) — and returns its receipts too.
func (l *Ledger) ExecuteBatch(reqs []Request) (*Batch, []Receipt, error) {
	b, err := l.ExecuteBatchAs(func(hashsig.Digest) Envelope { return Envelope{} }, reqs)
	if err != nil {
		return nil, nil, err
	}
	return b, l.Receipts(b.Header.Seq), nil
}

// ExecuteBatchAs is the propose policy: it mints the requests into entries —
// plus a checkpoint marker when one is due — runs them through the core,
// which sets every transaction's result (zero for an aborted one) and the
// marker's incremental d_C, puts env(content digest) around the derived
// content, signs the statement — the batch's one signature — and retains
// the batch. env takes the content digest because a primary's nonce
// commitment is derived from it. ExecuteBatchAs cuts no receipts: under
// consensus the batch may yet commit under a later view's statement, and
// Receipts cuts them from the header the ledger holds then.
func (l *Ledger) ExecuteBatchAs(env func(content hashsig.Digest) Envelope, reqs []Request) (*Batch, error) {
	for i := range reqs {
		if len(reqs[i].Body) > MaxRequestLen {
			return nil, fmt.Errorf("%w: request %d body %d bytes exceeds %d",
				ErrBadBatch, i, len(reqs[i].Body), MaxRequestLen)
		}
	}
	seq := l.nextSeq
	// Room for the checkpoint marker, so appending it does not copy.
	entries := make([]Entry, len(reqs), len(reqs)+1)
	for i, req := range reqs {
		e := Entry{Kind: KindTransaction, Author: req.Author, ReqNo: req.ReqNo, Payload: append([]byte(nil), req.Body...)}
		if req.Governance {
			// Recorded, never executed; the ledger keeps no request number.
			e.Kind, e.ReqNo = KindGovernance, 0
		}
		entries[i] = e
	}
	if l.checkpointDue(seq) {
		entries = append(entries, Entry{Kind: KindCheckpoint, Seq: seq})
	}

	// If anything below panics (a buggy App retaining a finished Tx, say),
	// the mark pushed here stays, so a caller that recovers can
	// RollbackTo(seq) to discard the half-executed batch.
	l.mark(seq)
	header, _ := l.derive(seq, entries, nil)
	header.Envelope = env(header.ContentDigest())
	header.Sig = l.cfg.Key.MustSign(header.StatementDigest())
	batch := &Batch{Header: header, Entries: entries}
	l.adopt(batch)
	return batch, nil
}

// Receipts cuts one receipt per transaction entry of retained batch seq, in
// ledger order, each under the header the ledger holds for it — for a
// committed batch, the statement that committed. The paths are rebuilt from
// the leaf hashes the batch occupies in M, [HistSize−GSize, HistSize), so no
// entry is digested again. Receipts returns nil for a seq that is not
// retained (pruned, or never executed).
func (l *Ledger) Receipts(seq uint64) []Receipt {
	b := l.BatchAt(seq)
	if b == nil {
		return nil
	}
	h := &b.Header
	leaves, err := l.hist.Leaves(h.HistSize-h.GSize, h.HistSize)
	if err != nil {
		// Prune compacts M only up to its anchor's HistSize, so every
		// retained batch's leaves are retained too.
		panic(err)
	}
	return receipts(h, b.Entries, leaves)
}

// Restate returns h's content under a new envelope, signed with this
// ledger's key: what a new primary issues for a batch it re-proposes after
// a view change. The batch is not re-executed and the ledger is not
// touched — the content is h's, only the statement is new.
func (l *Ledger) Restate(h *BatchHeader, env Envelope) BatchHeader {
	out := *h
	out.Envelope = env
	out.Sig = l.cfg.Key.MustSign(out.StatementDigest())
	return out
}

// checkpointDue reports whether batch seq ends a checkpoint interval.
func (l *Ledger) checkpointDue(seq uint64) bool { return seq%l.cfg.CheckpointEvery == 0 }

// mark records the boundary before batch seq — store, history tree size
// and checkpoint digest — for RollbackTo.
func (l *Ledger) mark(seq uint64) {
	l.marks = append(l.marks, ledgerMark{seq: seq, store: l.store.Clone(), histSize: l.hist.Size(), lastCkpt: l.lastCkpt})
}

// adopt retains a batch the core just derived or reproduced and, at a
// checkpoint boundary, its materialization.
func (l *Ledger) adopt(b *Batch) {
	l.batches = append(l.batches, b)
	l.nextSeq = b.Header.Seq + 1
	if l.checkpointDue(b.Header.Seq) {
		l.captureCheckpoint(b.Header.Seq)
	}
}

// RollbackTo undoes batch seq and everything after it, restoring the store,
// the history tree, and the checkpoint digest to the state just before
// batch seq executed (Lemma 1). The next executed batch reuses sequence
// number seq. A rollback at or below the pruned boundary fails with a
// wrapped ErrPruned: the batches and marks below a pruned checkpoint no
// longer exist, so the caller must re-sync via state transfer instead.
func (l *Ledger) RollbackTo(seq uint64) error {
	if seq <= l.baseSeq {
		return fmt.Errorf("%w: rollback to %d, boundary %d", ErrPruned, seq, l.baseSeq)
	}
	i := slices.IndexFunc(l.marks, func(m ledgerMark) bool { return m.seq == seq })
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrUnknownSeq, seq)
	}
	m := l.marks[i]
	if err := l.hist.Rollback(m.histSize); err != nil {
		// The history tree is only compacted past pruned marks, so a
		// marked boundary is always within the retained region.
		panic(err)
	}
	// The mark's clone becomes the store: it holds no overlay, and its
	// trie head is the one the boundary had, hashes included. The mark
	// goes with it, so nothing else holds the clone.
	l.store = m.store
	l.lastCkpt = m.lastCkpt
	l.marks = slices.Delete(l.marks, i, len(l.marks))
	for len(l.batches) > 0 && l.batches[len(l.batches)-1].Header.Seq >= seq {
		l.batches = l.batches[:len(l.batches)-1]
	}
	// Checkpoint materializations taken at or beyond the rollback point
	// describe undone state.
	for len(l.ckpts) > 0 && l.ckpts[len(l.ckpts)-1].Seq >= seq {
		l.ckpts = l.ckpts[:len(l.ckpts)-1]
	}
	maps.DeleteFunc(l.certs, func(s uint64, _ *CommitCert) bool { return s >= seq })
	l.nextSeq = seq
	return nil
}

// Commit binds cert to what the ledger holds at cert.Seq() — the retained
// batch's content (under any view's statement) or, with no batch there, the
// history the ledger stands on (one restored from a checkpoint) — then keeps
// it for Cert and drops the rollback marks below it. A refused certificate
// changes nothing. Commit does not verify: its callers hold only
// certificates they checked.
func (l *Ledger) Commit(cert *CommitCert) error {
	seq, h := cert.Seq(), &cert.Header
	switch b := l.BatchAt(seq); {
	case b != nil:
		if b.Header.ContentDigest() != h.ContentDigest() {
			return fmt.Errorf("%w: seq %d holds other content than its certificate", ErrCommit, seq)
		}
	case seq+1 != l.nextSeq:
		return fmt.Errorf("%w: seq %d is neither retained nor where the ledger stands", ErrCommit, seq)
	case h.HistSize != l.hist.Size() || h.MRoot != l.hist.Root():
		return fmt.Errorf("%w: the history at seq %d is not its certificate's", ErrCommit, seq)
	}
	l.certs[seq] = cert
	l.pruneMarks(seq)
	return nil
}

// Cert returns the certificate Commit bound at seq, or nil: not committed
// here, pruned or rolled back, or inside a synced suffix, which arrives
// with one certificate, for its last seq.
func (l *Ledger) Cert(seq uint64) *CommitCert { return l.certs[seq] }

// pruneMarks drops rollback marks with seq < before; batches that have
// committed globally no longer need to be undoable.
func (l *Ledger) pruneMarks(before uint64) {
	l.marks = slices.DeleteFunc(l.marks, func(m ledgerMark) bool { return m.seq < before })
}

// WriteBatches serializes a batch stream: the versioned stream header,
// then the batch count, then each batch's header and entries in the wire
// codec.
func WriteBatches(w io.Writer, batches []*Batch) error {
	ww := wire.NewWriter(w)
	sh := wire.StreamHeader{Version: wire.StreamVCurrent}
	sh.EncodeTo(ww)
	ww.Uint32(uint32(len(batches)))
	for _, b := range batches {
		b.EncodeTo(ww)
	}
	return ww.Flush()
}

// MaxBatchEntries bounds the entry count accepted when decoding a single
// batch (stream framing and consensus pre-prepares alike).
const MaxBatchEntries = 1 << 20

// EncodeTo writes one batch — the signed header, then the entries — in the
// deterministic wire codec. It is the framing unit shared by the batch
// stream (WriteBatches), state-transfer chunks and consensus pre-prepare
// messages: a pre-prepare is a batch.
func (b *Batch) EncodeTo(w *wire.Writer) {
	b.Header.EncodeTo(w)
	w.Uint32(uint32(len(b.Entries)))
	// One stack buffer serves every entry: w.Bytes copies the encoding out.
	// An entry too large for it grows onto the heap once, and that buffer
	// serves the entries after it.
	var arr [256]byte
	buf := arr[:0]
	for i := range b.Entries {
		buf = b.Entries[i].Encode(buf[:0])
		w.Bytes(buf)
	}
}

// EncodedLen is the number of bytes EncodeTo writes for b, computed without
// encoding, so that a frame holding a batch is allocated once, at its size.
func (b *Batch) EncodedLen() int {
	n := signedLen + 4 + len(b.Header.Sig) + 4 // the header, then the entry count
	for i := range b.Entries {
		n += 4 + b.Entries[i].encodedLen()
	}
	return n
}

// DecodeBatch reads one batch written by EncodeTo. Errors stick to the
// reader; the caller checks r.Err(). Malformed input never panics: entry
// counts are bounded before allocation and every entry decode is validated.
func DecodeBatch(r *wire.Reader) *Batch {
	b := &Batch{}
	b.Header = DecodeHeader(r)
	ne := r.Uint32()
	if r.Err() == nil && ne > MaxBatchEntries {
		r.Fail(fmt.Errorf("%w: %d entries", ErrBadBatch, ne))
		return b
	}
	// Preallocation hints are capped: counts are attacker-controlled, and a
	// tiny hostile stream must not drive a huge allocation before the first
	// decode error surfaces.
	b.Entries = make([]Entry, 0, min(ne, 1024))
	for j := uint32(0); j < ne && r.Err() == nil; j++ {
		b.Entries = append(b.Entries, decodeEntry(r))
	}
	return b
}

// ReadBatches parses a stream produced by WriteBatches.
func ReadBatches(r io.Reader) ([]*Batch, error) {
	rr := wire.NewReader(r)
	if _, err := wire.DecodeStreamHeader(rr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	n := rr.Uint32()
	const maxBatches = 1 << 24
	if rr.Err() == nil && n > maxBatches {
		return nil, fmt.Errorf("%w: %d batches", ErrBadBatch, n)
	}
	batches := make([]*Batch, 0, min(n, 1024))
	for i := uint32(0); i < n && rr.Err() == nil; i++ {
		batches = append(batches, DecodeBatch(rr))
	}
	rr.ExpectEOF()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	return batches, nil
}
