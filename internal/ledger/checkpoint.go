package ledger

import (
	"fmt"
	"maps"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/merkle"
)

// Checkpoint is the retained materialization of one checkpoint boundary:
// everything a replica needs to serve chunked state transfer for that
// boundary, or to resume execution from it. The store snapshot is a
// copy-on-write clone (O(1), shares the immutable trie) whose one chunk,
// SerializeShard's bytes, verifies by kv's InstallShard against Digest,
// and the frontier is the history tree's compact state at the boundary, so
// a restored tree appends onward to the same roots ¯M.
type Checkpoint struct {
	Seq      uint64
	Store    *kv.Store
	Frontier merkle.Frontier
	Digest   hashsig.Digest // d_C at Seq
}

// captureCheckpoint records the checkpoint materialization for seq. Called
// by adopt when seq is a checkpoint boundary — after the batch's entries landed in the history tree, so the
// frontier matches the signed header's (HistSize, ¯M).
func (l *Ledger) captureCheckpoint(seq uint64) {
	l.ckpts = append(l.ckpts, &Checkpoint{Seq: seq, Store: l.store.Clone(), Frontier: l.hist.Frontier(), Digest: l.lastCkpt})
}

// CheckpointAt returns the latest retained checkpoint with Seq <= upTo, or
// nil. Consensus serves state transfer from CheckpointAt(committed): a
// speculative checkpoint beyond the committed boundary is never handed out
// (it could still roll back), and the prune policy keeps every batch above
// the latest committed checkpoint, so the suffix a laggard needs is always
// available alongside it.
func (l *Ledger) CheckpointAt(upTo uint64) *Checkpoint {
	for i := len(l.ckpts) - 1; i >= 0; i-- {
		if l.ckpts[i].Seq <= upTo {
			return l.ckpts[i]
		}
	}
	return nil
}

// FirstRetainedSeq returns the lowest batch sequence number still retained;
// BatchAt below it returns nil. Before any pruning this is 1.
func (l *Ledger) FirstRetainedSeq() uint64 { return l.baseSeq + 1 }

// RetainedBatches returns how many batches the ledger currently retains —
// the quantity the bounded-memory invariant caps at
// window + checkpoint interval.
func (l *Ledger) RetainedBatches() int { return len(l.batches) }

// Prune drops retained batches with seq < before, compacts the history
// tree to the newest checkpoint at or below the new boundary, and discards
// rollback marks, commit certificates and checkpoint records below the
// boundary. The caller (consensus) must only prune below its committed
// watermark and at or below the latest checkpoint boundary plus one —
// pruned batches can never be rolled back to (RollbackTo returns
// ErrPruned) and can no longer be served to laggards, who instead sync
// from the retained checkpoint.
// Pruning to an unexecuted boundary is a caller bug and panics.
func (l *Ledger) Prune(before uint64) {
	if before <= l.baseSeq+1 {
		return // nothing below the boundary is retained
	}
	if before > l.nextSeq {
		panic(fmt.Sprintf("ledger: prune to %d beyond next seq %d", before, l.nextSeq))
	}
	if l.BatchAt(before-1) == nil {
		panic(fmt.Sprintf("ledger: prune boundary %d not retained", before))
	}
	// Compact M to the newest retained checkpoint at or below the anchor,
	// whose frontier summarizes the leaves below it as recorded when it
	// was taken: no leaf is re-hashed. Without one, M waits for a later
	// prune; every retained batch's leaves stay either way.
	if ck := l.CheckpointAt(before - 1); ck != nil {
		if err := l.hist.CompactTo(ck.Frontier); err != nil {
			panic(err)
		}
	}
	// Copy the tail into a fresh slice so the dropped batches' backing
	// array is actually released — re-slicing would pin every pruned batch.
	l.batches = append([]*Batch(nil), l.batches[before-1-l.baseSeq:]...)
	l.baseSeq = before - 1
	l.pruneMarks(before)
	maps.DeleteFunc(l.certs, func(s uint64, _ *CommitCert) bool { return s < before })
	keep := l.ckpts[:0]
	for _, ck := range l.ckpts {
		if ck.Seq >= l.baseSeq {
			keep = append(keep, ck)
		}
	}
	// Nil out the dropped records so the retained slice does not pin them.
	for i := len(keep); i < len(l.ckpts); i++ {
		l.ckpts[i] = nil
	}
	l.ckpts = keep
}

// NewFromCheckpoint returns a ledger resuming execution from a verified
// checkpoint: the store is a clone of the checkpoint snapshot, the history
// tree is restored from the frontier (appends onward reproduce ¯M; paths
// and rollback below the boundary are unavailable), and the next batch has
// sequence number ck.Seq+1. The caller must have verified the checkpoint
// against a signed d_C before trusting it.
func NewFromCheckpoint(cfg Config, ck *Checkpoint) (*Ledger, error) {
	l, err := New(cfg)
	if err != nil {
		return nil, err
	}
	hist, err := merkle.FromFrontier(ck.Frontier)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	l.store = ck.Store.Clone()
	l.hist = hist
	l.nextSeq = ck.Seq + 1
	l.lastCkpt = ck.Digest
	l.baseSeq = ck.Seq
	l.ckpts = []*Checkpoint{ck}
	return l, nil
}
