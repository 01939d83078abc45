package ledger

import (
	"errors"
	"fmt"

	"iaccf/internal/merkle"
)

// ErrApply reports a proposed batch that diverges from this replica's own
// execution: a forged result, a wrong root, a misplaced checkpoint (each
// also a *Divergence, see errors.As), or a sequence mismatch. The
// ledger is rolled back to the pre-batch boundary before the error is
// returned (Lemma 1), so a backup that rejects a pre-prepare keeps exactly
// the state it had before speculating.
var ErrApply = errors.New("ledger: proposed batch diverges from local execution")

// CheckBatchShape verifies, without executing anything, that the batch's
// entries reproduce the header's batch tree: GSize entries whose tree G has
// the root ¯G. Consensus uses it to validate relayed batches (view-change
// certificates) whose header signature covers ¯G but whose entries travel
// outside any signature: tampered entries cannot pass.
func CheckBatchShape(b *Batch) error {
	h := &b.Header
	if got := uint64(len(b.Entries)); got != h.GSize {
		return fmt.Errorf("%w: batch %d: %d entries, header claims %d", ErrBadBatch, h.Seq, got, h.GSize)
	}
	if merkle.RootOf(leavesOf(b.Entries)) != h.GRoot {
		return fmt.Errorf("%w: batch %d: batch root mismatch", ErrBadBatch, h.Seq)
	}
	return nil
}

// ApplyBatch is the backup policy, the other half of a pre-prepare: it
// runs a batch proposed by another replica through this ledger's own core,
// which re-executes it and compares every field the proposer's content
// commits to — per-entry results, the checkpoint marker, the batch root
// ¯G, the history root ¯M, and the
// checkpoint digest d_C. If they all reproduce, and the marker is present
// exactly when this replica's checkpoint interval says one is due, it
// adopts the batch under the header as received — the primary's statement,
// the primary's signature; this replica signs nothing here (its agreement
// is the prepare that names the statement, paper §3.1) — and returns the
// retained header. On any divergence the store, history tree, and
// checkpoint digest are rolled back to the state just before the batch
// (Lemma 1) and the error wraps both ErrApply and the *Divergence naming
// the first mismatch.
//
// ApplyBatch checks execution, not provenance: callers (the consensus
// layer) must have verified the statement's signature already.
func (l *Ledger) ApplyBatch(b *Batch) (*BatchHeader, error) {
	h := &b.Header
	if h.Seq != l.nextSeq {
		return nil, fmt.Errorf("%w: batch seq %d, replica expects %d", ErrApply, h.Seq, l.nextSeq)
	}
	seq := h.Seq
	l.mark(seq)
	_, div := l.derive(seq, b.Entries, h)
	if div == nil {
		div = l.checkInterval(b)
	}
	if div != nil {
		if rb := l.RollbackTo(seq); rb != nil {
			// The mark pushed above cannot have vanished.
			panic(rb)
		}
		return nil, fmt.Errorf("%w: %w", ErrApply, div)
	}
	// Entries are shared with the caller and treated as immutable, like
	// Batches(); the header is copied so the caller's cannot alias it.
	adopted := &Batch{Header: *h, Entries: b.Entries}
	l.adopt(adopted)
	return &adopted.Header, nil
}

// checkInterval is the one rule only a configured replica can apply: a
// batch carries a checkpoint marker exactly when CheckpointEvery says one
// is due. (Placement and label are the core's; an auditor, who is not told
// the interval, checks only those.)
func (l *Ledger) checkInterval(b *Batch) *Divergence {
	last := len(b.Entries) - 1
	has := last >= 0 && b.Entries[last].Kind == KindCheckpoint
	switch due := l.checkpointDue(b.Header.Seq); {
	case has && !due:
		return diverge(&b.Header, last, "Marker", " entry %d: unexpected checkpoint marker", last)
	case due && !has:
		return diverge(&b.Header, -1, "Marker", ": checkpoint marker due but absent")
	}
	return nil
}
