package ledger

import (
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/merkle"
)

// core is the batch-derivation engine every policy runs: it executes one
// batch's entries against store, extends hist, and derives the commitments
// a header signs. It is single-writer, like the replica execution loop.
type core struct {
	app      App
	store    *kv.Store
	hist     *merkle.Tree
	lastCkpt hashsig.Digest // d_C of the latest checkpoint marker executed
}

// Divergence reports a batch that does not reproduce the header signed
// over it: the first field, in derivation order, where re-execution and
// the signed commitment disagree. Header is that signed header, so the
// error is itself the evidence an auditor presents (paper §5) — verify
// Header under the signer's key, replay the stream, observe Field.
//
// Entry is the offending entry's index, or -1 when Field names a header
// field. Field is one of: "Kind", "Result", "Marker" (a checkpoint marker
// misplaced, undue, or absent), "Seq" (marker label), "State" (marker
// digest); "GSize", "GRoot", "HistSize", "MRoot", "CkptDigest".
type Divergence struct {
	Seq    uint64
	Entry  int
	Field  string
	Header BatchHeader
	msg    string
}

func (d *Divergence) Error() string { return d.msg }

// diverge builds the one report of a mismatch; format continues the
// message after "batch <seq>".
func diverge(h *BatchHeader, entry int, field, format string, args ...any) *Divergence {
	return &Divergence{
		Seq: h.Seq, Entry: entry, Field: field, Header: *h,
		msg: fmt.Sprintf("batch %d", h.Seq) + fmt.Sprintf(format, args...),
	}
}

// derive runs batch seq through the core and returns the commitments this
// replica computes for it. With want nil (propose) the entries are being
// minted: transaction results and the checkpoint marker's state digest are
// set. With want non-nil the entries are final:
// every result, the marker, and then every header field is compared
// against want, and the first mismatch is returned. A caller that may have
// to undo the batch marks the store first.
//
// derive is two halves composed inline on the calling goroutine: the
// execution half (execute), which also hashes every entry as it finishes,
// then the commitment half (commit). The audit policy runs every check of
// both halves on a checker goroutine of its own, a batch behind execution
// (replay.go).
func (c *core) derive(seq uint64, entries []Entry, want *BatchHeader) (BatchHeader, *Divergence) {
	leaves := make([]hashsig.Digest, len(entries))
	if div := c.execute(seq, entries, want, leaves, nil); div != nil {
		return BatchHeader{}, div
	}
	got := c.header(seq, len(entries), c.commit(leaves))
	if want != nil {
		if div := compareHeader(want, &got); div != nil {
			return BatchHeader{}, div
		}
	}
	return got, nil
}

// commit is the commitment half given the batch's leaf hashes: every leaf
// appended to M, and the batch tree's root ¯G, folded from the same leaf
// hashes without building G (merkle.RootOf).
func (c *core) commit(leaves []hashsig.Digest) hashsig.Digest {
	for _, lh := range leaves {
		c.hist.AppendLeafHash(lh)
	}
	return merkle.RootOf(leaves)
}

// header assembles the content this core derived for batch seq of n
// entries.
func (c *core) header(seq uint64, n int, gRoot hashsig.Digest) BatchHeader {
	return BatchHeader{
		Seq:        seq,
		HistSize:   c.hist.Size(),
		MRoot:      c.hist.Root(),
		GRoot:      gRoot,
		GSize:      uint64(n),
		CkptDigest: c.lastCkpt,
	}
}

// compareHeader checks the derived commitments against the signed ones.
func compareHeader(want, got *BatchHeader) *Divergence {
	switch {
	case got.GSize != want.GSize:
		return diverge(want, -1, "GSize", ": %d entries, header claims %d", got.GSize, want.GSize)
	case got.GRoot != want.GRoot:
		return diverge(want, -1, "GRoot", ": batch root mismatch")
	case got.HistSize != want.HistSize:
		return diverge(want, -1, "HistSize", ": history size %d, header claims %d", got.HistSize, want.HistSize)
	case got.MRoot != want.MRoot:
		return diverge(want, -1, "MRoot", ": history root mismatch")
	case got.CkptDigest != want.CkptDigest:
		return diverge(want, -1, "CkptDigest", ": checkpoint reference mismatch")
	}
	return nil
}

// execute is the execution half, and the one execution loop: one kv
// transaction per transaction entry, strictly in ledger order, and the
// structural rules execution itself needs (a known Kind, the marker's
// placement and label).
//
// With job nil every check runs here: each transaction's result is set or
// compared as it finishes (settle) and the marker's d_C when it is reached
// (checkpoint), and each entry's leaf hash goes into leaves once the entry
// is final, while its payload is still warm in cache. With job non-nil
// (the audit, want non-nil) execution only executes: each finished
// transaction's outcome and the store as of the marker go into job, and
// the checker does the rest, hashing included.
func (c *core) execute(seq uint64, entries []Entry, want *BatchHeader, leaves []hashsig.Digest, job *checkJob) *Divergence {
	for ei := range entries {
		e := &entries[ei]
		switch e.Kind {
		case KindTransaction:
			var o outcome
			tx := c.store.Begin()
			if err := c.app.Execute(tx, e.Payload); err != nil {
				// Failed transactions are still recorded, with a zero result:
				// the ledger holds clients accountable for what they submitted,
				// not only for what succeeded.
				tx.Abort()
			} else {
				o = outcome{ws: tx.Commit(), committed: true}
			}
			if job != nil {
				job.outcomes[ei] = o
			} else if div := settle(want, ei, e, o); div != nil {
				return div
			}
		case KindGovernance:
			// Recorded, no state effect.
		case KindCheckpoint:
			if div := c.marker(seq, entries, ei, want); div != nil {
				return div
			}
			if job != nil {
				job.snap = c.store.Clone()
			} else if div := c.checkpoint(want, ei, e, c.store); div != nil {
				return div
			}
		default:
			return diverge(want, ei, "Kind", " entry %d: unknown kind %d", ei, e.Kind)
		}
		if job == nil {
			leaves[ei] = leafOf(e)
		}
	}
	return nil
}

// leafOf is entry e's leaf in both trees: the history tree M and the batch
// tree G each commit to LeafHash(Digest(e)).
func leafOf(e *Entry) hashsig.Digest { return merkle.LeafHash(e.Digest()) }

// leavesOf hashes every entry of a batch that is already final.
func leavesOf(entries []Entry) []hashsig.Digest {
	leaves := make([]hashsig.Digest, len(entries))
	for i := range entries {
		leaves[i] = leafOf(&entries[i])
	}
	return leaves
}

// outcome is how a transaction finished: the write set it committed, or
// nothing when it aborted.
type outcome struct {
	ws        kv.WriteSet
	committed bool
}

// settle is the result rule for transaction entry ei: its result is the
// digest of the write set it committed, zero if it aborted — set when
// minting (want nil), compared otherwise.
func settle(want *BatchHeader, ei int, e *Entry, o outcome) *Divergence {
	var got hashsig.Digest
	if o.committed {
		got = o.ws.Digest()
	}
	if want == nil {
		e.Result = got
	} else if got != e.Result {
		return diverge(want, ei, "Result", " entry %d: result digest mismatch", ei)
	}
	return nil
}

// marker is the checkpoint marker's structural rule. A correct proposer
// appends at most one marker per batch, last, labelled with the batch's
// own sequence number; anything else would desynchronize lastCkpt across
// honest replicas even if the digest itself happened to match. (Whether a
// marker is due at seq at all is the replica's CheckpointEvery, which an
// auditor is not told; that rule is ApplyBatch's.)
func (c *core) marker(seq uint64, entries []Entry, ei int, want *BatchHeader) *Divergence {
	if ei != len(entries)-1 {
		return diverge(want, ei, "Marker", " entry %d: unexpected checkpoint marker", ei)
	}
	if e := &entries[ei]; e.Seq != seq {
		return diverge(want, ei, "Seq", " entry %d: checkpoint labelled %d", ei, e.Seq)
	}
	return nil
}

// checkpoint is the marker's digest rule: marker e (entry ei) pins d_C of
// store as of all the batch's transactions — set when minting, compared
// otherwise, incrementally either way: only the trie paths written since
// the previous checkpoint re-hash. It becomes the digest later headers
// reference.
func (c *core) checkpoint(want *BatchHeader, ei int, e *Entry, store *kv.Store) *Divergence {
	d := store.CheckpointDigest()
	if want == nil {
		e.State = d
	} else if d != e.State {
		return diverge(want, ei, "State", ": checkpoint digest mismatch")
	}
	c.lastCkpt = d
	return nil
}

// receipts cuts one receipt per transaction entry of a retained batch, in
// ledger order, all carrying header, from the batch's leaf hashes: the
// batch tree G built over them, one leaf per entry in ledger order (its
// root is ¯G), then every leaf's audit path in it. Two arenas back
// every receipt in the batch: the one PathsAt allocates for the paths, and
// one for the defensive payload copies (a client mutating its receipt must
// not corrupt the ledger's retained stream). Each receipt gets a
// three-index sub-slice whose capacity ends at its own region, so
// appending to one receipt's path or payload reallocates instead of
// stomping the next receipt's.
func receipts(header *BatchHeader, entries []Entry, leaves []hashsig.Digest) []Receipt {
	var paths [][]hashsig.Digest
	if len(leaves) > 0 {
		g := merkle.New()
		for _, lh := range leaves {
			g.AppendLeafHash(lh)
		}
		var err error
		if paths, err = g.PathsAt(0, uint64(len(leaves))); err != nil {
			// A tree's own full range cannot be out of bounds.
			panic(err)
		}
	}
	n, payloadTotal := 0, 0
	for i := range entries {
		if entries[i].Kind == KindTransaction {
			n++
			payloadTotal += len(entries[i].Payload)
		}
	}
	receipts := make([]Receipt, 0, n)
	payloadArena := make([]byte, 0, payloadTotal)
	for i := range entries {
		if entries[i].Kind != KindTransaction {
			continue
		}
		e := entries[i]
		pStart := len(payloadArena)
		payloadArena = append(payloadArena, e.Payload...)
		e.Payload = payloadArena[pStart:len(payloadArena):len(payloadArena)]
		receipts = append(receipts, Receipt{Header: *header, Entry: e, Index: uint64(i), Path: paths[i]})
	}
	return receipts
}
