package ledger

import (
	"fmt"
	"runtime"
	"sync"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/merkle"
	"iaccf/internal/par"
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

// batchProofs holds the audit paths of one derived batch: per shard, one
// path per leaf of G_s, and per shard the path of its root within ¯G.
type batchProofs struct {
	shardPaths [][][]hashsig.Digest
	topPaths   [][]hashsig.Digest
}

// derive runs batch seq through the core and returns the commitments this
// replica computes for it. With want nil (propose) the entries are being
// minted: transaction results and the checkpoint marker's state digest are
// set, and audit paths are built. With want non-nil the entries are final:
// every result, the marker, and then every header field is compared
// against want, and the first mismatch is returned. The store is marked at
// seq first, so whatever the outcome the caller can undo the batch.
//
// derive is two halves composed inline: the execution half (execute) with
// entry digesting pipelined beside it, then the commitment half (commit).
// The audit policy runs the same halves on two goroutines (reproduce).
func (c *core) derive(seq uint64, entries []Entry, want *BatchHeader) (BatchHeader, batchProofs, *Divergence) {
	c.store.Mark(seq)
	c.scratch.grow(len(entries), c.shards)
	if div := c.execute(seq, entries, want, true); div != nil {
		return BatchHeader{}, batchProofs{}, div
	}
	gRoot, proofs := c.commit(entries, want == nil)
	got := c.header(seq, len(entries), gRoot)
	if want != nil {
		if div := compareHeader(want, &got); div != nil {
			return BatchHeader{}, batchProofs{}, div
		}
	}
	return got, proofs, nil
}

// reproduce is derive for entries that are final (the audit policy): the
// same two halves and the same verdict, run on two goroutines when there is
// a second CPU and the batch is large enough for the entry hasher to
// pipeline (minPipelinedEntries), inline through derive otherwise. The
// execution half runs here; the commitment half — entry digests, leaf
// hashes, G_s/¯G, the M append — runs beside it over the same entries,
// which neither half writes. They join before the header is compared, so
// an execution divergence is still reported ahead of any header field.
func (c *core) reproduce(seq uint64, entries []Entry, want *BatchHeader) *Divergence {
	if len(entries) < minPipelinedEntries || runtime.GOMAXPROCS(0) <= 1 {
		_, _, div := c.derive(seq, entries, want)
		return div
	}
	c.store.Mark(seq)
	c.scratch.grow(len(entries), c.shards)
	var gRoot hashsig.Digest
	var lane sync.WaitGroup
	lane.Add(1)
	go func() {
		defer lane.Done()
		for i := range entries {
			c.scratch.hash(i, &entries[i])
		}
		gRoot, _ = c.commit(entries, false)
	}()
	// The deferred wait joins the lane even if the App panics.
	defer lane.Wait()
	div := c.execute(seq, entries, want, false)
	lane.Wait()
	if div != nil {
		return div
	}
	got := c.header(seq, len(entries), gRoot)
	return compareHeader(want, &got)
}

// commit is the commitment half given the batch's leaf hashes in the
// scratch: the G_s/¯G roll-up, then every leaf appended to M.
func (c *core) commit(entries []Entry, prove bool) (hashsig.Digest, batchProofs) {
	gRoot, proofs := c.scratch.batchTrees(entries, c.shards, prove)
	for _, lh := range c.scratch.leaves {
		c.hist.AppendLeafHash(lh)
	}
	return gRoot, proofs
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
// transaction per transaction entry, strictly in ledger order. With hash
// set it leaves every entry digest and leaf hash in the scratch, digesting
// entries beside execution through the hasher — digesting hashes full
// payloads, for large batches comparable to execution itself, and the two
// overlap here.
func (c *core) execute(seq uint64, entries []Entry, want *BatchHeader, hash bool) *Divergence {
	// The deferred wait releases the workers even if the App panics.
	var hasher *entryHasher
	if hash {
		hasher = newEntryHasher(&c.scratch, len(entries))
	}
	defer hasher.wait()
	for ei := range entries {
		e := &entries[ei]
		switch e.Kind {
		case KindTransaction:
			tx := c.store.Begin()
			var got hashsig.Digest
			if err := c.app.Execute(tx, e.Payload); err != nil {
				// Failed transactions are still recorded, with a zero result:
				// the ledger holds clients accountable for what they submitted,
				// not only for what succeeded.
				tx.Abort()
			} else {
				got = tx.WriteSetDigest()
				tx.Commit()
			}
			if want == nil {
				e.Result = got
			} else if got != e.Result {
				return diverge(want, ei, "Result", " entry %d: result digest mismatch", ei)
			}
		case KindGovernance:
			// Recorded, no state effect.
		case KindCheckpoint:
			if div := c.marker(seq, entries, ei, want); div != nil {
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

// marker is the checkpoint-marker rule. A correct proposer appends at most
// one marker per batch, last, labelled with the batch's own sequence
// number; anything else would desynchronize lastCkpt across honest
// replicas even if the digest itself happened to match. The marker pins
// d_C of the store as of all the batch's transactions: set when minting,
// compared otherwise — incrementally either way, only the trie paths
// written since the previous checkpoint re-hash. (Whether a marker is due
// at seq at all is the replica's CheckpointEvery, which an auditor is not
// told; that rule is ApplyBatch's.)
func (c *core) marker(seq uint64, entries []Entry, ei int, want *BatchHeader) *Divergence {
	e := &entries[ei]
	if ei != len(entries)-1 {
		return diverge(want, ei, "Marker", " entry %d: unexpected checkpoint marker", ei)
	}
	if e.Seq != seq {
		return diverge(want, ei, "Seq", " entry %d: checkpoint labelled %d", ei, e.Seq)
	}
	d := c.store.CheckpointDigest()
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
// stored here may escape derive's caller — every value a caller retains
// (entries, headers, receipt paths, payloads) is freshly allocated or
// arena-backed per batch. The core is single-writer, so reuse without
// synchronization is safe; the concurrent entry hasher writes disjoint
// indices and is joined before the slices are read or reused, and the
// audit's commitment lane is the scratch's only user until it is joined.
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

// minParallelShardLeaves gates parallel per-shard tree building: small
// batches build G_s faster inline than across goroutines.
const minParallelShardLeaves = 256

// batchTrees is the G_s/¯G roll-up: it groups the scratch's pre-computed
// leaf hashes by shard (recording each entry's shard and leaf position),
// builds the per-shard batch trees G_s — in parallel across shards when
// worthwhile — and combines their roots into ¯G. Both G_s and M consume
// the hasher's leaf hashes directly, so no per-entry SHA work happens here
// beyond the interior nodes. With prove set it also returns every leaf's
// audit path and every shard root's path within ¯G.
func (s *execScratch) batchTrees(entries []Entry, shards uint32, prove bool) (hashsig.Digest, batchProofs) {
	for i := range entries {
		sh := entryShard(&entries[i], shards)
		s.shardOf[i] = sh
		s.leafPos[i] = uint64(len(s.perShard[sh]))
		s.perShard[sh] = append(s.perShard[sh], s.leaves[i])
	}
	shardRoots := make([]hashsig.Digest, shards)
	var p batchProofs
	if prove {
		p.shardPaths = make([][][]hashsig.Digest, shards)
	}
	par.ForEach(int(shards), len(entries), minParallelShardLeaves, func(sh int) {
		g := merkle.New()
		for _, lh := range s.perShard[sh] {
			g.AppendLeafHash(lh)
		}
		shardRoots[sh] = g.Root()
		if prove {
			p.shardPaths[sh] = allPaths(g)
		}
	})
	top := merkle.New()
	for _, r := range shardRoots {
		top.Append(r)
	}
	if prove {
		p.topPaths = allPaths(top)
	}
	return top.Root(), p
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

// receipts builds one receipt per transaction entry of a derived batch,
// in ledger order, all carrying header. Two arenas back every receipt in
// the batch: one for the combined shard+top audit paths, one for the
// defensive payload copies (a client mutating its receipt must not corrupt
// the ledger's retained stream). Each receipt gets a three-index sub-slice
// whose capacity ends at its own region, so appending to one receipt's
// path or payload reallocates instead of stomping the next receipt's. The
// per-shard top path is copied from the single slice the top tree
// produced — same-shard receipts do not each build their own.
func (s *execScratch) receipts(header BatchHeader, entries []Entry, p batchProofs) []Receipt {
	n, pathTotal, payloadTotal := 0, 0, 0
	for i := range entries {
		if entries[i].Kind != KindTransaction {
			continue
		}
		sh := s.shardOf[i]
		n++
		pathTotal += len(p.shardPaths[sh][s.leafPos[i]]) + len(p.topPaths[sh])
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
		pathArena = append(pathArena, p.shardPaths[sh][s.leafPos[i]]...)
		pathArena = append(pathArena, p.topPaths[sh]...)
		receipts = append(receipts, Receipt{
			Header:    header,
			Entry:     e,
			Shard:     sh,
			Index:     s.leafPos[i],
			ShardSize: uint64(len(s.perShard[sh])),
			Path:      pathArena[aStart:len(pathArena):len(pathArena)],
		})
	}
	return receipts
}
