package ledger

import (
	"bytes"
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// ReplicaID indexes a replica within the current configuration. The primary
// of view v is replica v mod n.
type ReplicaID uint32

// StatementKey returns the KeyOf for headers signed under this replica set:
// the key of the header's claimed primary, provided that replica leads the
// header's claimed view — nil otherwise, which verifies nothing. It is how a
// replica checks a pre-prepare, how a client checks a receipt and how an
// auditor replays a ledger that lived through view changes.
func StatementKey(peers []*hashsig.PublicKey) KeyOf {
	return func(h *BatchHeader) *hashsig.PublicKey {
		if n := uint64(len(peers)); n == 0 || uint64(h.Primary) != h.View%n {
			return nil
		}
		return peers[h.Primary]
	}
}

// prepareDomain separates prepare signatures from every other signed
// statement, so no message can be replayed as another kind.
var prepareDomain = []byte("iaccf-prepare:")

// Prepare is a backup's signed agreement to a pre-prepare, and the backup's
// only signature for the batch. It carries the full signed header (primary
// signature included) rather than a bare digest: a replica that received a
// different header for the same (view, seq) thereby obtains both
// conflicting primary signatures and can construct Blame evidence without
// any extra round.
type Prepare struct {
	Replica     ReplicaID
	Header      BatchHeader
	NonceCommit hashsig.Digest // H(n) of the backup's own commit nonce
	Sig         hashsig.Signature
}

// SigningDigest covers the backup's identity, the statement it answers, and
// the backup's nonce commitment. The preimage is assembled on the stack:
// it runs for every prepare sent and verified, and must not allocate per
// call.
func (p *Prepare) SigningDigest() hashsig.Digest {
	var buf [256]byte
	b := append(buf[:0], prepareDomain...)
	b = wire.AppendUint32(b, uint32(p.Replica))
	b = wire.AppendDigest(b, p.Header.StatementDigest())
	b = wire.AppendDigest(b, p.NonceCommit)
	return hashsig.Sum(b)
}

// Verify reports whether the prepare carries a valid signature by pub.
func (p *Prepare) Verify(pub *hashsig.PublicKey) bool {
	return pub.Verify(p.SigningDigest(), p.Sig)
}

// EncodeTo writes the prepare: replica, header, nonce commitment, signature.
func (p *Prepare) EncodeTo(w *wire.Writer) {
	w.Uint32(uint32(p.Replica))
	p.Header.EncodeTo(w)
	w.Digest(p.NonceCommit)
	w.Bytes(p.Sig)
}

// DecodePrepare reads a prepare written by EncodeTo. Errors stick to the
// reader; the signature field is capped at hashsig.SignatureSize.
func DecodePrepare(r *wire.Reader) Prepare {
	p := Prepare{Replica: ReplicaID(r.Uint32())}
	p.Header = DecodeHeader(r)
	p.NonceCommit = r.Digest()
	p.Sig = r.Bytes(hashsig.SignatureSize)
	return p
}

// NonceOpen is one revealed commit nonce inside a CommitCert.
type NonceOpen struct {
	Replica ReplicaID
	Nonce   hashsig.Nonce
}

// maxCertEntries bounds the prepares and the openings a certificate may
// announce on decode; a real certificate holds at most n of each.
const maxCertEntries = 1 << 10

// Quorum is the number of replicas whose agreement a step of the protocol
// needs among n: ⌈(n+f+1)/2⌉ with f = ⌊(n−1)/3⌋ faults tolerated. Any two
// quorums share at least f+1 replicas, so at least one honest one, and a
// quorum never exceeds n−f, so the honest replicas alone can form one. At
// n = 3f+1 it is PBFT's 2f+1. At n = 3f+2 or 3f+3 two quorums of 2f+1
// can share f replicas or fewer, and the ledger can fork with no honest
// replica on both sides.
func Quorum(n int) int {
	f := (n - 1) / 3
	return (n + f + 2) / 2
}

// CommitCert proves that a batch committed: the primary's signed header,
// the signed prepares that announced each backup's nonce commitment, and
// a Quorum of revealed nonces opening those commitments (the primary's
// commitment rides in the header itself). View-change messages carry the
// sender's certificate for its last committed batch, making the
// CommittedSeq claim verifiable — a Byzantine replica can replay an old
// certificate but can never exhibit one for a sequence number that did not
// actually commit.
type CommitCert struct {
	Header   BatchHeader
	Prepares []Prepare
	Opens    []NonceOpen
}

// Seq returns the committed batch sequence number the certificate proves.
func (c *CommitCert) Seq() uint64 { return c.Header.Seq }

// Verify reports whether the certificate proves a commit under the given
// replica keys: the header and every counted prepare must be validly
// signed, and at least Quorum(len(peers)) distinct replicas must have an
// opened nonce matching their announced commitment.
func (c *CommitCert) Verify(peers []*hashsig.PublicKey) bool {
	tasks, ok := c.Structure(peers)
	if !ok {
		return false
	}
	for _, t := range tasks {
		if !t.Key.Verify(t.Digest, t.Sig) {
			return false
		}
	}
	return true
}

// Structure checks everything about the certificate except signature
// validity — Prepared's rule for the header and its prepares, and the
// opened-nonce Quorum of len(peers) — and returns the signature checks
// still owed as verification tasks.
// Replicas batch those through a memoizing pooled verifier; the plain
// Verify above runs them inline. A certificate has one byte form: its
// prepares and its openings are each strictly ascending by replica, so a
// replica appears at most once in each, and anything else is refused.
func (c *CommitCert) Structure(peers []*hashsig.PublicKey) ([]hashsig.VerifyTask, bool) {
	tasks, ok := Prepared(&c.Header, c.Prepares, peers)
	if !ok {
		return nil, false
	}
	commits := map[ReplicaID]hashsig.Digest{ReplicaID(c.Header.Primary): c.Header.NonceCommit}
	for i := range c.Prepares {
		commits[c.Prepares[i].Replica] = c.Prepares[i].NonceCommit
	}
	opened := 0
	for i, o := range c.Opens {
		if i > 0 && o.Replica <= c.Opens[i-1].Replica {
			return nil, false
		}
		if cm, ok := commits[o.Replica]; ok && o.Nonce.Opens(cm) {
			opened++
		}
	}
	return tasks, opened >= Quorum(len(peers))
}

// Prepared is the one rule for a quorum of prepares behind a statement,
// wherever it is checked: in a CommitCert and in a view-change's prepared
// claim. It checks everything except signature validity: h's primary
// leads h's view, every prepare is from an in-range backup other than
// that primary, in strictly ascending replica order, and names h's exact
// statement (the same content under another view's statement does not
// count), and the primary with the backups make Quorum(len(peers))
// replicas. It returns the signature checks still owed: h's, then each
// prepare's.
func Prepared(h *BatchHeader, prepares []Prepare, peers []*hashsig.PublicKey) ([]hashsig.VerifyTask, bool) {
	key := StatementKey(peers)(h)
	if key == nil || 1+len(prepares) < Quorum(len(peers)) {
		return nil, false
	}
	n := ReplicaID(len(peers))
	primary := ReplicaID(h.Primary)
	statement := h.StatementDigest()
	tasks := make([]hashsig.VerifyTask, 0, 1+len(prepares))
	tasks = append(tasks, hashsig.VerifyTask{Key: key, Digest: statement, Sig: h.Sig})
	for i := range prepares {
		p := &prepares[i]
		if p.Replica >= n || p.Replica == primary || i > 0 && p.Replica <= prepares[i-1].Replica {
			return nil, false
		}
		if p.Header.StatementDigest() != statement {
			return nil, false
		}
		tasks = append(tasks, hashsig.VerifyTask{Key: peers[p.Replica], Digest: p.SigningDigest(), Sig: p.Sig})
	}
	return tasks, true
}

// EncodeTo writes the certificate: the header, the counted prepares, the
// counted openings.
func (c *CommitCert) EncodeTo(w *wire.Writer) {
	c.Header.EncodeTo(w)
	w.Uint32(uint32(len(c.Prepares)))
	for i := range c.Prepares {
		c.Prepares[i].EncodeTo(w)
	}
	w.Uint32(uint32(len(c.Opens)))
	for _, o := range c.Opens {
		w.Uint32(uint32(o.Replica))
		w.Nonce(o.Nonce)
	}
}

// DecodeCommitCert reads a certificate written by EncodeTo. Errors stick to
// the reader; a count over maxCertEntries is wire.ErrCorrupt before
// anything is allocated for it.
func DecodeCommitCert(r *wire.Reader) *CommitCert {
	return &CommitCert{
		Header:   DecodeHeader(r),
		Prepares: wire.ReadList(r, maxCertEntries, "prepares", DecodePrepare),
		Opens: wire.ReadList(r, maxCertEntries, "nonce opens", func(r *wire.Reader) NonceOpen {
			return NonceOpen{Replica: ReplicaID(r.Uint32()), Nonce: r.Nonce()}
		}),
	}
}

// Blame is self-contained evidence that one replica equivocated: two
// pre-prepare statements for the same (view, seq) with different content,
// both signed by the culprit's key. Anyone holding the culprit's public key
// can check it offline — this is the artifact individual accountability
// reduces to (paper §5): a universe where misbehaviour either has no effect
// or yields a transferable proof naming the offending key.
type Blame struct {
	// Culprit is the key ID (hashsig.PublicKey.ID) of the equivocating
	// replica.
	Culprit hashsig.Digest
	// View and Seq locate the equivocation. Conflicting headers from
	// different views are NOT blame: a view change legitimately rolls
	// replicas back and re-proposes, so the same replica may sign two
	// different headers for one sequence number across views (Lemma 1).
	// Nor are two statements for one slot with the same content and
	// different nonce commitments: they bind the primary to one batch.
	View uint64
	Seq  uint64
	// A and B are the conflicting signed headers, in canonical order
	// (ascending content digest) so the same conflict always produces the
	// same evidence object.
	A, B BatchHeader
}

// String names the culprit and the slot, for logs and operator reports.
func (bl *Blame) String() string {
	return fmt.Sprintf("equivocation by key %s at view %d seq %d (%s vs %s)",
		bl.Culprit, bl.View, bl.Seq, bl.A.ContentDigest(), bl.B.ContentDigest())
}

// NewBlame builds evidence from two conflicting statements attributed to
// pub. It returns nil unless the pair genuinely conflicts under pub's
// signatures, so a caller can never fabricate blame from garbage.
func NewBlame(a, b *BatchHeader, pub *hashsig.PublicKey) *Blame {
	bl := &Blame{
		Culprit: pub.ID(),
		View:    a.View,
		Seq:     a.Seq,
		A:       *a,
		B:       *b,
	}
	da, db := a.ContentDigest(), b.ContentDigest()
	if bytes.Compare(da[:], db[:]) > 0 {
		bl.A, bl.B = bl.B, bl.A
	}
	if !bl.Verify(pub) {
		return nil
	}
	return bl
}

// Verify checks the evidence against the culprit's public key: both
// statements must name the same (view, seq) and primary, commit to different
// content, and carry valid signatures by pub, whose ID must match Culprit.
// A true result is transferable proof of equivocation: honest replicas sign
// at most one batch per (view, seq), so no honest key can ever be blamed.
// The signatures are checked by plain PublicKey.Verify, consulting no
// verified set: an accusation is re-derived by whoever weighs it.
func (bl *Blame) Verify(pub *hashsig.PublicKey) bool {
	if pub == nil || pub.ID() != bl.Culprit {
		return false
	}
	if bl.A.View != bl.View || bl.B.View != bl.View {
		return false
	}
	if bl.A.Seq != bl.Seq || bl.B.Seq != bl.Seq {
		return false
	}
	if bl.A.Primary != bl.B.Primary {
		return false
	}
	if bl.A.ContentDigest() == bl.B.ContentDigest() {
		return false
	}
	return pub.Verify(bl.A.StatementDigest(), bl.A.Sig) && pub.Verify(bl.B.StatementDigest(), bl.B.Sig)
}
