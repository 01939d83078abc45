package consensus

import (
	"bytes"
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

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
	A, B ledger.BatchHeader
}

// String names the culprit and the slot, for logs and operator reports.
func (bl *Blame) String() string {
	return fmt.Sprintf("equivocation by key %s at view %d seq %d (%s vs %s)",
		bl.Culprit, bl.View, bl.Seq, bl.A.ContentDigest(), bl.B.ContentDigest())
}

// blameFrom builds evidence from two conflicting statements attributed to
// pub. It returns nil unless the pair genuinely conflicts under pub's
// signatures, so a caller can never fabricate blame from garbage.
func blameFrom(a, b *ledger.BatchHeader, pub *hashsig.PublicKey) *Blame {
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
