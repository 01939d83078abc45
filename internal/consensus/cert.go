package consensus

import (
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/wire"
)

// NonceOpen is one revealed commit nonce inside a CommitCert.
type NonceOpen struct {
	Replica ReplicaID
	Nonce   hashsig.Nonce
}

// CommitCert proves that a batch committed: the primary's signed header,
// the signed prepares that announced each backup's nonce commitment, and
// 2f+1 revealed nonces opening those commitments (the primary's commitment
// rides in the header itself). View-change messages carry the sender's certificate for
// its last committed batch, making the CommittedSeq claim verifiable — a
// Byzantine replica can replay an old certificate but can never exhibit one
// for a sequence number that did not actually commit.
type CommitCert struct {
	Header   ledger.BatchHeader
	Prepares []Prepare
	Opens    []NonceOpen
}

// Seq returns the committed batch sequence number the certificate proves.
func (c *CommitCert) Seq() uint64 { return c.Header.Seq }

// Verify reports whether the certificate proves a commit under the given
// replica keys: the header and every counted prepare must be validly
// signed, and at least quorum distinct replicas must have an opened nonce
// matching their announced commitment.
func (c *CommitCert) Verify(peers []*hashsig.PublicKey, quorum int) bool {
	tasks, ok := c.structure(peers, quorum)
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

// structure checks everything about the certificate except signature
// validity — identities, every prepare naming this exact statement (the
// same content under another view's statement does not count), and the
// opened-nonce quorum — and returns the signature checks still owed as
// verification tasks.
// Replicas batch those through a memoizing pooled verifier; the plain
// Verify above runs them inline.
func (c *CommitCert) structure(peers []*hashsig.PublicKey, quorum int) ([]hashsig.VerifyTask, bool) {
	n := ReplicaID(len(peers))
	primary := ReplicaID(c.Header.Primary)
	key := StatementKey(peers)(&c.Header)
	if key == nil {
		return nil, false
	}
	statement := c.Header.StatementDigest()
	tasks := make([]hashsig.VerifyTask, 0, 1+len(c.Prepares))
	tasks = append(tasks, hashsig.VerifyTask{Key: key, Digest: statement, Sig: c.Header.Sig})
	commits := map[ReplicaID]hashsig.Digest{primary: c.Header.NonceCommit}
	for i := range c.Prepares {
		p := &c.Prepares[i]
		if p.Replica >= n || p.Replica == primary {
			return nil, false
		}
		if p.Header.StatementDigest() != statement {
			return nil, false
		}
		tasks = append(tasks, hashsig.VerifyTask{Key: peers[p.Replica], Digest: p.SigningDigest(), Sig: p.Sig})
		commits[p.Replica] = p.NonceCommit
	}
	opened := map[ReplicaID]bool{}
	for _, o := range c.Opens {
		cm, ok := commits[o.Replica]
		if ok && o.Nonce.Opens(cm) {
			opened[o.Replica] = true
		}
	}
	return tasks, len(opened) >= quorum
}

func (c *CommitCert) encodeTo(w *wire.Writer) {
	c.Header.EncodeTo(w)
	w.Uint32(uint32(len(c.Prepares)))
	for i := range c.Prepares {
		c.Prepares[i].encodeBody(w)
	}
	w.Uint32(uint32(len(c.Opens)))
	for _, o := range c.Opens {
		w.Uint32(uint32(o.Replica))
		w.Nonce(o.Nonce)
	}
}

func decodeCommitCert(r *wire.Reader) *CommitCert {
	c := &CommitCert{Header: ledger.DecodeHeader(r)}
	np := r.Uint32()
	if r.Err() == nil && np > maxViewChanges {
		r.Fail(errTooMany("prepares", np))
		return c
	}
	c.Prepares = make([]Prepare, 0, min(np, 64))
	for i := uint32(0); i < np && r.Err() == nil; i++ {
		c.Prepares = append(c.Prepares, *decodePrepare(r))
	}
	no := r.Uint32()
	if r.Err() == nil && no > maxViewChanges {
		r.Fail(errTooMany("nonce opens", no))
		return c
	}
	c.Opens = make([]NonceOpen, 0, min(no, 64))
	for i := uint32(0); i < no && r.Err() == nil; i++ {
		c.Opens = append(c.Opens, NonceOpen{Replica: ReplicaID(r.Uint32()), Nonce: r.Nonce()})
	}
	return c
}
