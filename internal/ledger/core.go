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
	shards   uint32
	store    *kv.ShardedStore
	hist     *merkle.Tree
	lastCkpt hashsig.Digest // d_C of the latest checkpoint marker executed
	scratch  execScratch
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
// derive is two halves composed inline: the execution half (execute) with
// entry digesting pipelined beside it, then the commitment half (commit).
// The audit policy runs every check of both halves on a checker goroutine
// of its own, a batch behind execution (replay.go).
func (c *core) derive(seq uint64, entries []Entry, want *BatchHeader) (BatchHeader, *Divergence) {
	c.scratch.grow(len(entries), c.shards)
	if div := c.execute(seq, entries, want, nil); div != nil {
		return BatchHeader{}, div
	}
	got := c.header(seq, len(entries), c.commit(entries))
	if want != nil {
		if div := compareHeader(want, &got); div != nil {
			return BatchHeader{}, div
		}
	}
	return got, nil
}

// commit is the commitment half given the batch's leaf hashes in the
// scratch: the G_s/¯G roll-up, then every leaf appended to M.
func (c *core) commit(entries []Entry) hashsig.Digest {
	_, top := c.scratch.batchTrees(entries, c.scratch.leaves, c.shards)
	for _, lh := range c.scratch.leaves {
		c.hist.AppendLeafHash(lh)
	}
	return top.Root()
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
		Shards:     c.shards,
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
// (checkpoint), and every entry digest and leaf hash is left in the
// scratch, digested beside execution through the entry hasher — digesting
// hashes full payloads, for large batches comparable to execution itself,
// and the two overlap here. With job non-nil (the audit, want non-nil)
// execution only executes: each finished transaction's outcome and the
// store as of the marker go into job, and the checker does the rest.
func (c *core) execute(seq uint64, entries []Entry, want *BatchHeader, job *checkJob) *Divergence {
	// The deferred wait releases the workers even if the App panics.
	var hasher *entryHasher
	if job == nil {
		hasher = newEntryHasher(&c.scratch, len(entries))
	}
	defer hasher.wait()
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
		hasher.submit(ei, e)
	}
	hasher.wait()
	return nil
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
func (c *core) checkpoint(want *BatchHeader, ei int, e *Entry, store *kv.ShardedStore) *Divergence {
	d := store.CheckpointDigest()
	if want == nil {
		e.State = d
	} else if d != e.State {
		return diverge(want, ei, "State", ": checkpoint digest mismatch")
	}
	c.lastCkpt = d
	return nil
}

// execScratch is per-batch working storage handed batch to batch: the
// digest and leaf-hash vectors plus the per-shard grouping tables. Nothing
// stored here may escape derive's or Receipts' caller — every value a
// caller retains (entries, headers, receipt paths, payloads) is freshly
// allocated or arena-backed per batch. The core is single-writer, so reuse
// without synchronization is safe; the concurrent entry hasher writes
// disjoint indices and is joined before the slices are read or reused, and
// during an audit the checker is the scratch's only user.
type execScratch struct {
	digests  []hashsig.Digest   // entry digests, one per entry
	leaves   []hashsig.Digest   // merkle.LeafHash of each digest
	shardOf  []uint32           // shard assignment per entry
	leafPos  []uint64           // leaf index of each entry within its shard tree
	perShard [][]hashsig.Digest // leaf hashes grouped by shard (inner slices reused)
}

// grow sizes the scratch vectors for n entries and shards shard groups,
// reusing prior capacity.
func (s *execScratch) grow(n int, shards uint32) {
	s.digests = growSlice(s.digests, n)
	s.leaves = growSlice(s.leaves, n)
	s.shardOf = growSlice(s.shardOf, n)
	s.leafPos = growSlice(s.leafPos, n)
	if cap(s.perShard) < int(shards) {
		s.perShard = make([][]hashsig.Digest, shards)
	}
	s.perShard = s.perShard[:shards]
	for i := range s.perShard {
		s.perShard[i] = s.perShard[i][:0]
	}
}

func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// entryShard deterministically assigns a ledger entry to a per-shard batch
// tree G_s. Transactions and governance actions are routed by author — the
// request-routing analogue of the paper's key-space partitioning, chosen so
// an auditor can re-derive the placement from the entry alone (a write-set
// based placement would be undefined for aborted transactions). Checkpoint
// markers always live in shard 0.
func entryShard(e *Entry, shards uint32) uint32 {
	if shards <= 1 || e.Kind == KindCheckpoint {
		return 0
	}
	return kv.ShardOfKey(string(e.Author[:]), shards)
}

// batchTrees is the G_s/¯G roll-up over a batch's leaf hashes: it groups
// them by shard (recording each entry's shard and leaf position), builds
// the per-shard batch trees G_s, and the tree over their roots whose root
// is ¯G. Both G_s and M consume the hasher's leaf hashes directly, so no
// per-entry SHA work happens here beyond the interior nodes.
func (s *execScratch) batchTrees(entries []Entry, leaves []hashsig.Digest, shards uint32) (gs []*merkle.Tree, top *merkle.Tree) {
	for i := range entries {
		sh := entryShard(&entries[i], shards)
		s.shardOf[i] = sh
		s.leafPos[i] = uint64(len(s.perShard[sh]))
		s.perShard[sh] = append(s.perShard[sh], leaves[i])
	}
	gs, top = make([]*merkle.Tree, shards), merkle.New()
	for sh, group := range s.perShard {
		gs[sh] = merkle.New()
		for _, lh := range group {
			gs[sh].AppendLeafHash(lh)
		}
		top.Append(gs[sh].Root())
	}
	return gs, top
}

// allPaths returns the audit path of every leaf of a freshly built tree.
func allPaths(t *merkle.Tree) [][]hashsig.Digest {
	if t.Size() == 0 {
		return nil
	}
	paths, err := t.PathsAt(0, t.Size())
	if err != nil {
		// A tree's own full range cannot be out of bounds.
		panic(err)
	}
	return paths
}

// receipts cuts one receipt per transaction entry of a retained batch, in
// ledger order, all carrying header, from the batch's leaf hashes: the
// G_s/¯G roll-up again, then every leaf's audit path and every shard
// root's path within ¯G. Two arenas back every receipt in the batch:
// one for the combined shard+top audit paths, one for the defensive payload
// copies (a client mutating its receipt must not corrupt the ledger's
// retained stream). Each receipt gets a three-index sub-slice whose
// capacity ends at its own region, so appending to one receipt's path or
// payload reallocates instead of stomping the next receipt's. The per-shard
// top path is copied from the single slice the top tree produced —
// same-shard receipts do not each build their own.
func (s *execScratch) receipts(header *BatchHeader, entries []Entry, leaves []hashsig.Digest) []Receipt {
	s.grow(len(entries), header.Shards)
	gs, top := s.batchTrees(entries, leaves, header.Shards)
	shardPaths := make([][][]hashsig.Digest, len(gs))
	for sh, g := range gs {
		shardPaths[sh] = allPaths(g)
	}
	topPaths := allPaths(top)

	n, pathTotal, payloadTotal := 0, 0, 0
	for i := range entries {
		if entries[i].Kind != KindTransaction {
			continue
		}
		sh := s.shardOf[i]
		n++
		pathTotal += len(shardPaths[sh][s.leafPos[i]]) + len(topPaths[sh])
		payloadTotal += len(entries[i].Payload)
	}
	receipts := make([]Receipt, 0, n)
	pathArena := make([]hashsig.Digest, 0, pathTotal)
	payloadArena := make([]byte, 0, payloadTotal)
	for i := range entries {
		if entries[i].Kind != KindTransaction {
			continue
		}
		e := entries[i]
		pStart := len(payloadArena)
		payloadArena = append(payloadArena, e.Payload...)
		e.Payload = payloadArena[pStart:len(payloadArena):len(payloadArena)]
		sh := s.shardOf[i]
		aStart := len(pathArena)
		pathArena = append(pathArena, shardPaths[sh][s.leafPos[i]]...)
		pathArena = append(pathArena, topPaths[sh]...)
		receipts = append(receipts, Receipt{
			Header:    *header,
			Entry:     e,
			Shard:     sh,
			Index:     s.leafPos[i],
			ShardSize: uint64(len(s.perShard[sh])),
			Path:      pathArena[aStart:len(pathArena):len(pathArena)],
		})
	}
	return receipts
}
