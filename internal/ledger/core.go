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
// set. With want non-nil the entries are final: every result, the marker,
// and then every header field is compared against want, and the first
// mismatch is returned. A caller that may have to undo the batch marks the
// ledger first.
//
// derive is the one derivation: the execution half (execute), then every
// check (check). Propose and apply compose the two inline on the calling
// goroutine; the audit runs the same two halves, check on a goroutine of
// its own a batch or more behind execute (replay.go).
func (c *core) derive(seq uint64, entries []Entry, want *BatchHeader) (BatchHeader, *Divergence) {
	return c.check(c.execute(seq, entries, want))
}

// checkJob is one batch as execution leaves it for check.
type checkJob struct {
	seq      uint64
	entries  []Entry      // the entries executed: a prefix when end is set
	want     *BatchHeader // nil when minting
	outcomes []outcome    // per entry; set for transactions
	snap     *kv.Store    // the store as of the batch's marker; nil without one
	end      *Divergence  // execution stopped at entries[len(entries)], with this verdict
	seqErr   error        // replay only: the batch is out of sequence, so none of it ran
}

// execute is the execution half, and the one execution loop: one kv
// transaction per transaction entry, strictly in ledger order, and the
// structural rules execution itself needs (a known Kind, the marker's
// placement and label). It settles nothing: each finished transaction's
// outcome and, at the marker, a snapshot of the store (Clone, O(1) once
// flushed) go into the job, and check does the rest. A structural
// divergence at entry i ends execution there: the job covers entries
// [0, i) and carries that verdict as end.
func (c *core) execute(seq uint64, entries []Entry, want *BatchHeader) *checkJob {
	j := &checkJob{seq: seq, entries: entries, want: want, outcomes: make([]outcome, len(entries))}
	for ei := range entries {
		e := &entries[ei]
		switch e.Kind {
		case KindTransaction:
			tx := c.store.Begin()
			if err := c.app.Execute(tx, e.Payload); err != nil {
				// Failed transactions are still recorded, with a zero result:
				// the ledger holds clients accountable for what they submitted,
				// not only for what succeeded.
				tx.Abort()
			} else {
				j.outcomes[ei] = outcome{ws: tx.Commit(), committed: true}
			}
		case KindGovernance:
			// Recorded, no state effect.
		case KindCheckpoint:
			if j.end = c.marker(seq, entries, ei, want); j.end != nil {
				j.entries = entries[:ei]
				return j
			}
			j.snap = c.store.Clone()
		default:
			j.entries, j.end = entries[:ei], diverge(want, ei, "Kind", " entry %d: unknown kind %d", ei, e.Kind)
			return j
		}
	}
	return j
}

// check is every check of one executed batch, in derivation order: each
// result (settle), then execution's own verdict if it stopped early, then
// the marker's d_C (checkpoint), the entries' leaf hashes, their M append
// and ¯G, folded from the same hashes without building G (merkle.RootOf),
// and, when want is given, the header. With want nil it sets what it
// would compare. Hashing reaches no verdict of its own, so where check
// runs does not move the first divergence.
func (c *core) check(j *checkJob) (BatchHeader, *Divergence) {
	for ei := range j.entries {
		if e := &j.entries[ei]; e.Kind == KindTransaction {
			if div := settle(j.want, ei, e, j.outcomes[ei]); div != nil {
				return BatchHeader{}, div
			}
		}
	}
	if j.end != nil {
		return BatchHeader{}, j.end
	}
	if j.snap != nil {
		last := len(j.entries) - 1
		if div := c.checkpoint(j.want, last, &j.entries[last], j.snap); div != nil {
			return BatchHeader{}, div
		}
	}
	leaves := leavesOf(j.entries)
	for _, lh := range leaves {
		c.hist.AppendLeafHash(lh)
	}
	got := BatchHeader{
		Seq:        j.seq,
		HistSize:   c.hist.Size(),
		MRoot:      c.hist.Root(),
		GRoot:      merkle.RootOf(leaves),
		GSize:      uint64(len(j.entries)),
		CkptDigest: c.lastCkpt,
	}
	if j.want != nil {
		if div := compareHeader(j.want, &got); div != nil {
			return BatchHeader{}, div
		}
	}
	return got, nil
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

// leavesOf hashes every entry of a batch that is already final: entry e's
// leaf in both trees, the history tree M and the batch tree G, is
// LeafHash(Digest(e)).
func leavesOf(entries []Entry) []hashsig.Digest {
	leaves := make([]hashsig.Digest, len(entries))
	for i := range entries {
		leaves[i] = merkle.LeafHash(entries[i].Digest())
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
// ledger order, all carrying header, from the batch's leaf hashes: every
// leaf's audit path in the batch tree G, against its root ¯G, with no
// tree built (merkle.PathsOf). Two arenas back every receipt in the
// batch: the one PathsOf allocates for the paths, and one for the
// defensive payload copies (a client mutating its receipt must not
// corrupt the ledger's retained stream; without the arena that is one
// allocation per receipt). Each receipt gets a three-index sub-slice
// whose capacity ends at its own region, so appending to one receipt's
// path or payload stays in its region or reallocates instead of stomping
// the next receipt's.
func receipts(header *BatchHeader, entries []Entry, leaves []hashsig.Digest) []Receipt {
	paths := merkle.PathsOf(leaves)
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
