// ShardedStore partitions the key space across N champ-backed shards
// (paper §6): each key lives in exactly one shard, chosen by the
// cross-process-deterministic champ.ShardOf. The payoff is the checkpoint
// digest d_C: instead of re-hashing the whole store at every checkpoint
// (O(n)), the store tracks which shards were touched since the last
// checkpoint and recomputes only those shard digests, then combines the N
// cached digests into d_C (O(dirty) hashing, O(N) combining).
//
// Determinism invariants:
//
//   - identical contents + identical shard count ⇒ identical CheckpointDigest,
//     regardless of the operation history that produced the state;
//   - identical contents ⇒ identical Digest (the flat canonical digest),
//     regardless of shard count.
package kv

import (
	"fmt"
	"io"

	"iaccf/internal/champ"
	"iaccf/internal/hashsig"
	"iaccf/internal/par"
	"iaccf/internal/wire"
)

// ckptDomain domain-separates the combined sharded checkpoint digest from
// plain serialization digests.
var ckptDomain = []byte("iaccf-ckpt-shards:")

// MaxShards bounds the shard count accepted from configuration and from
// serialized checkpoints, so a hostile stream cannot drive allocation of
// millions of empty shards. It is the wire-level stream limit by
// definition: a store that cannot be framed on the wire must not be
// constructible, and vice versa.
const MaxShards = wire.MaxStreamShards

// ShardOfKey returns the shard owning key in a shards-way partition. It is
// champ's deterministic assignment, re-exported so layers above kv (the
// ledger's per-shard batch trees, request routing) agree with the store on
// placement without importing champ directly.
func ShardOfKey(key string, shards uint32) uint32 { return champ.ShardOf(key, shards) }

// ShardedStore is a transactional key-value store over a sharded key space.
// Transactions execute serially (the replica's execution loop is
// single-threaded, which is what makes the history strictly serializable);
// the store itself is not safe for concurrent mutation.
type ShardedStore struct {
	shards  []*champ.Map
	digests []hashsig.Digest // cached per-shard digests, valid where !dirty
	dirty   []bool           // shard touched since its digest was cached
	marks   []shardedMark
}

// shardedMark captures every shard head plus the digest cache at a batch
// boundary, so rollback restores both the contents and the incremental
// checkpoint state in lockstep.
type shardedMark struct {
	seq     uint64
	shards  []*champ.Map
	digests []hashsig.Digest
	dirty   []bool
}

// NewSharded returns an empty store partitioned into the given number of
// shards. Counts < 1 mean 1 (unsharded); counts above MaxShards panic, as a
// misconfiguration rather than hostile input.
func NewSharded(shards int) *ShardedStore {
	if shards < 1 {
		shards = 1
	}
	if shards > MaxShards {
		panic(fmt.Sprintf("kv: shard count %d exceeds limit %d", shards, MaxShards))
	}
	s := &ShardedStore{
		shards:  make([]*champ.Map, shards),
		digests: make([]hashsig.Digest, shards),
		dirty:   make([]bool, shards),
	}
	for i := range s.shards {
		s.shards[i] = champ.Empty()
		s.dirty[i] = true
	}
	return s
}

// ShardCount returns the number of shards in the partition.
func (s *ShardedStore) ShardCount() uint32 { return uint32(len(s.shards)) }

// shardFor returns the shard index owning key.
func (s *ShardedStore) shardFor(key string) int {
	return int(champ.ShardOf(key, uint32(len(s.shards))))
}

// Len returns the number of live keys across all shards.
func (s *ShardedStore) Len() int {
	n := 0
	for _, m := range s.shards {
		n += m.Len()
	}
	return n
}

// Get reads a key outside any transaction. The returned slice is a copy:
// the stored value is shared by every snapshot and mark referencing the same
// CHAMP node, so handing it out directly would let a caller silently corrupt
// history that rollback depends on.
func (s *ShardedStore) Get(key string) ([]byte, bool) {
	v, ok := s.shards[s.shardFor(key)].Get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Begin starts a transaction spanning all shards: reads see a consistent
// snapshot of every shard plus the transaction's own writes, and Commit
// applies the buffered effects to each owning shard atomically (the store
// is single-writer, so "atomic" means no reader observes a partial apply).
//
// The snapshot is the shard-head slice itself, captured by reference:
// apply never mutates that slice (copy-on-write below), so Begin — the
// hottest path, paid per transaction by both the primary and the auditor —
// is O(1) regardless of shard count.
func (s *ShardedStore) Begin() *Tx {
	return &Tx{store: s, base: s.shards, writes: map[string][]byte{}, deletes: map[string]bool{}}
}

// BeginTracked starts a transaction like Begin, additionally recording
// which shards every Get/Put/Delete touches (Tx.TouchedShards). The
// parallel batch executor runs transactions under tracking so an
// application's declared shard footprint can be checked against the shards
// it actually accessed — the safety net that lets a wrong Footprint
// implementation degrade to sequential re-execution instead of divergence.
func (s *ShardedStore) BeginTracked() *Tx {
	tx := s.Begin()
	tx.trackShards = uint32(len(s.shards))
	tx.touched = make([]uint64, (len(s.shards)+63)/64)
	return tx
}

// apply publishes the buffered effects copy-on-write: the current shard,
// digest, and dirty slices are never mutated in place — fresh slices
// replace them — so every snapshot captured by Begin, Mark, or Clone stays
// frozen for free. (The only in-place mutation anywhere is the digest
// cache fill in ShardDigest/CheckpointDigest, which is safe to share: it
// runs strictly between applies, when every live snapshot has the same
// shard heads the filled cache describes.)
func (s *ShardedStore) apply(writes map[string][]byte, deletes map[string]bool) {
	if len(writes) == 0 && len(deletes) == 0 {
		return
	}
	shards := append([]*champ.Map(nil), s.shards...)
	digests := append([]hashsig.Digest(nil), s.digests...)
	dirty := append([]bool(nil), s.dirty...)
	for k := range deletes {
		i := s.shardFor(k)
		shards[i] = shards[i].Delete(k)
		dirty[i] = true
	}
	for k, v := range writes {
		i := s.shardFor(k)
		shards[i] = shards[i].Set(k, v)
		dirty[i] = true
	}
	s.shards, s.digests, s.dirty = shards, digests, dirty
}

// Mark records a rollback point labelled seq, capturing the state before
// the batch with that sequence number executes. Marks are kept until
// PruneMarks. Thanks to copy-on-write applies a mark captures the three
// current slices by reference: O(1).
func (s *ShardedStore) Mark(seq uint64) {
	s.marks = append(s.marks, shardedMark{
		seq:     seq,
		shards:  s.shards,
		digests: s.digests,
		dirty:   s.dirty,
	})
}

// RollbackTo restores the state captured by Mark(seq) — contents and digest
// cache — and discards that mark and all later ones.
func (s *ShardedStore) RollbackTo(seq uint64) error {
	for i := len(s.marks) - 1; i >= 0; i-- {
		if s.marks[i].seq == seq {
			m := s.marks[i]
			s.shards, s.digests, s.dirty = m.shards, m.digests, m.dirty
			s.marks = s.marks[:i]
			return nil
		}
	}
	return fmt.Errorf("%w: %d", ErrNoMark, seq)
}

// PruneMarks drops marks with seq < before; batches that have committed can
// no longer be rolled back.
func (s *ShardedStore) PruneMarks(before uint64) {
	keep := s.marks[:0]
	for _, m := range s.marks {
		if m.seq >= before {
			keep = append(keep, m)
		}
	}
	s.marks = keep
}

// DirtyShards returns how many shards have been touched since their digest
// was last cached — the work CheckpointDigest will do.
func (s *ShardedStore) DirtyShards() int {
	n := 0
	for _, d := range s.dirty {
		if d {
			n++
		}
	}
	return n
}

// ShardDigest returns the canonical digest of one shard's contents,
// computing and caching it if the shard is dirty. It lets an auditor
// localize a checkpoint divergence to the shard that diverged instead of
// just observing that d_C differs.
func (s *ShardedStore) ShardDigest(i int) hashsig.Digest {
	if s.dirty[i] {
		s.digests[i] = digestOfMap(s.shards[i])
		s.dirty[i] = false
	}
	return s.digests[i]
}

// CheckpointDigest returns the sharded checkpoint digest d_C: the hash of
// the shard count and every per-shard digest, where each shard digest is
// the canonical serialization digest of that shard's contents. Only dirty
// shards are re-hashed; clean shards reuse their cached digest, which is
// what turns the per-checkpoint cost from O(keys) into O(keys in touched
// shards). The digest is deterministic: it depends only on contents and
// shard count, never on which shards happened to be cached.
//
// Dirty shards are re-hashed across a bounded worker pool when there is
// enough work to amortize the goroutines (paper §6 pairs sharded execution
// with parallel digesting). The workers write disjoint slice elements and
// are joined before the combine, so the single-writer discipline of the
// store is preserved.
func (s *ShardedStore) CheckpointDigest() hashsig.Digest {
	var dirtyIdx []int
	keys := 0
	for i, d := range s.dirty {
		if d {
			dirtyIdx = append(dirtyIdx, i)
			keys += s.shards[i].Len()
		}
	}
	par.ForEach(len(dirtyIdx), keys, minParallelDigestKeys, func(j int) {
		i := dirtyIdx[j]
		s.digests[i] = digestOfMap(s.shards[i])
		s.dirty[i] = false
	})
	return CombineShardDigests(s.digests)
}

// minParallelDigestKeys gates the parallel digest path: below this many
// keys across all dirty shards, goroutine startup costs more than the
// hashing it would spread.
const minParallelDigestKeys = 4096

// FullRescanDigest recomputes every shard digest from scratch, ignoring the
// cache. It must always equal CheckpointDigest; it exists as the oracle for
// tests and as the full-rescan baseline for benchmarks.
func (s *ShardedStore) FullRescanDigest() hashsig.Digest {
	digests := make([]hashsig.Digest, len(s.shards))
	for i, m := range s.shards {
		digests[i] = digestOfMap(m)
	}
	return CombineShardDigests(digests)
}

// CombineShardDigests hashes a shard digest vector into d_C. The shard
// count is included so the same contents under a different partition can
// never alias: d_C commits to the execution configuration the header's
// shard-count field declares. Exported as the verification half of chunked
// state transfer: a syncing replica that holds a signed header's CkptDigest
// and a claimed per-shard digest vector recomputes the combine to check the
// vector is the one the header certified — before fetching a single chunk.
func CombineShardDigests(digests []hashsig.Digest) hashsig.Digest {
	h := hashsig.BorrowHasher()
	h.Write(ckptDomain)
	var n [4]byte
	h.Write(wire.AppendUint32(n[:0], uint32(len(digests))))
	for i := range digests {
		h.Write(digests[i][:])
	}
	var out hashsig.Digest
	h.Sum(out[:0])
	hashsig.ReturnHasher(h)
	return out
}

// ShardDigests returns a copy of the full per-shard digest vector,
// computing any dirty entries. Element i is the digest of the byte stream
// SerializeShard(i) produces, so a state-transfer chunk verifies by
// hashing its bytes and comparing against this vector.
func (s *ShardedStore) ShardDigests() []hashsig.Digest {
	out := make([]hashsig.Digest, len(s.shards))
	for i := range s.shards {
		out[i] = s.ShardDigest(i)
	}
	return out
}

// Digest returns the flat canonical digest of the full contents: the hash
// of the key-sorted serialization, identical for identical contents under
// any shard count. It rescans everything (O(n)); checkpointing uses
// CheckpointDigest instead. It exists so stores can be compared for state
// equality independent of partitioning.
func (s *ShardedStore) Digest() hashsig.Digest {
	h := newDigestWriter()
	w := wire.NewWriter(h)
	s.encodeSortedFlat(w)
	if err := w.Flush(); err != nil {
		// digestWriter never fails.
		panic(err)
	}
	return h.sum()
}

// encodeSortedFlat streams the union of all shards in canonical flat form
// (count, then globally key-sorted pairs).
func (s *ShardedStore) encodeSortedFlat(w *wire.Writer) {
	entries := make([]sortedEntry, 0, s.Len())
	for _, m := range s.shards {
		entries = collectEntries(entries, m)
	}
	encodeEntriesSorted(w, entries)
}

// Serialize writes the sharded checkpoint: the shard count, then each
// shard's canonical stream in shard order. Shard placement and champ's
// canonical iteration order are both deterministic, so two stores with
// identical contents and shard count serialize identically — in one pass,
// with no per-shard sort.
func (s *ShardedStore) Serialize(w io.Writer) error {
	ww := wire.NewWriter(w)
	ww.Uint32(uint32(len(s.shards)))
	for _, m := range s.shards {
		encodeMapCanonical(ww, m)
	}
	return ww.Flush()
}

// SerializeShard writes one shard's canonical stream — the exact bytes
// whose hash is ShardDigest(i). This is the state-transfer chunk unit: a
// checkpoint travels as one chunk per shard, each independently verifiable
// against the signed d_C's per-shard digest vector.
func (s *ShardedStore) SerializeShard(i int, w io.Writer) error {
	ww := wire.NewWriter(w)
	encodeMapCanonical(ww, s.shards[i])
	return ww.Flush()
}

// RestoreSharded replaces a store with a stream produced by Serialize. Every
// key is checked against its declared shard: a stream that smuggles a key
// into the wrong shard is rejected, so distinct logical states can never
// restore to equal checkpoint digests.
func RestoreSharded(r io.Reader) (*ShardedStore, error) {
	return RestoreShardedFor(r, 0)
}

// RestoreShardedFor is RestoreSharded with the restoring replica's
// configured shard count enforced: a stream whose header declares a
// different partition than the store being restored is rejected up front,
// before any shard bytes are read. wantShards 0 accepts any valid count.
// On any error no store is returned — a partial restore is never
// observable.
func RestoreShardedFor(r io.Reader, wantShards uint32) (*ShardedStore, error) {
	rd := wire.NewReader(r)
	n := rd.Uint32()
	rd.Annotate("shard count header")
	if rd.Err() == nil && (n < 1 || n > MaxShards) {
		return nil, fmt.Errorf("kv: restore: %w: shard count %d", wire.ErrCorrupt, n)
	}
	if rd.Err() == nil && wantShards != 0 && n != wantShards {
		return nil, fmt.Errorf("kv: restore: %w: stream has %d shards, store configured for %d",
			wire.ErrCorrupt, n, wantShards)
	}
	if rd.Err() != nil {
		return nil, fmt.Errorf("kv: restore: %w", rd.Err())
	}
	s := NewSharded(int(n))
	for i := range s.shards {
		m, ok := readShardMap(rd, uint32(i), n)
		if !ok {
			break
		}
		s.shards[i] = m
	}
	rd.ExpectEOF()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("kv: restore: %w", err)
	}
	return s, nil
}

// readShardMap reads one shard's canonical stream and validates every key's
// placement against the declared partition. Failures are annotated with the
// shard index so a truncated multi-shard stream reports exactly where it
// broke.
func readShardMap(rd *wire.Reader, shard, shards uint32) (*champ.Map, bool) {
	m := readMap(rd)
	if rd.Err() != nil {
		rd.Annotate("shard %d of %d", shard, shards)
		return nil, false
	}
	ok := true
	m.Range(func(k string, _ []byte) bool {
		if champ.ShardOf(k, shards) != shard {
			rd.Fail(fmt.Errorf("%w: key %q in shard %d, belongs to %d", wire.ErrCorrupt, k, shard, champ.ShardOf(k, shards)))
			ok = false
			return false
		}
		return true
	})
	return m, ok
}

// NewShardedFromChunks assembles a store from per-shard state-transfer
// chunks, one chunk per shard in shard order — the receiving half of
// SerializeShard. Each chunk must decode exactly (trailing bytes rejected)
// and every key must belong to its chunk's shard. The caller is expected to
// have verified each chunk's bytes against the signed d_C's shard digest
// vector first; the placement check here makes a lying chunk that passes a
// stolen digest impossible to combine into a structurally valid store.
func NewShardedFromChunks(shards uint32, chunks [][]byte) (*ShardedStore, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("kv: restore: %w: shard count %d", wire.ErrCorrupt, shards)
	}
	if uint32(len(chunks)) != shards {
		return nil, fmt.Errorf("kv: restore: %w: %d chunks for %d shards", wire.ErrCorrupt, len(chunks), shards)
	}
	s := NewSharded(int(shards))
	for i, chunk := range chunks {
		rd := wire.NewBytesReader(chunk)
		m, ok := readShardMap(rd, uint32(i), shards)
		if ok {
			rd.ExpectEOF()
			rd.Annotate("shard %d of %d", i, shards)
		}
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("kv: restore: %w", err)
		}
		s.shards[i] = m
	}
	return s, nil
}

// Clone returns an independent store with the same contents and digest
// cache (O(shards)).
func (s *ShardedStore) Clone() *ShardedStore {
	return &ShardedStore{
		shards:  append([]*champ.Map(nil), s.shards...),
		digests: append([]hashsig.Digest(nil), s.digests...),
		dirty:   append([]bool(nil), s.dirty...),
	}
}

// ShardSnapshot returns the immutable map backing one shard, for replay
// comparisons and shard-level auditing.
func (s *ShardedStore) ShardSnapshot(i int) *champ.Map { return s.shards[i] }
