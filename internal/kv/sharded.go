// ShardedStore partitions the key space across N champ-backed shards
// (paper §6): each key lives in exactly one shard, chosen by the
// cross-process-deterministic champ.ShardOf. A shard is what state transfer
// ships as one chunk.
//
// The checkpoint digest d_C is the combination of the per-shard digests,
// and a shard's digest is H(domain ‖ key count ‖ Merkle root of its trie).
// The trie caches a hash in every node and a write path-copies exactly the
// nodes it passes through, so a checkpoint hashes the nodes written since
// the last one — about depth × keys written — and reads one cached root per
// untouched shard: O(keys written), not O(keys stored). Rollback to a mark
// and Clone reinstate old shard heads, whose nodes still carry their
// hashes, so the store keeps no digest cache of its own.
//
// What the store holds per key is bytes in a trie node's blob, not objects:
// champ copies a value in on Set and keeps no pointer per entry, so the
// live heap the collector walks grows with the number of nodes (well under
// one object per key; BenchmarkStoreInsert reports it) and not with the
// number of keys. Everything champ hands back — Get, the Range callbacks —
// is a view into a node shared by every snapshot and mark that holds it:
// Get copies before returning, and SerializeShard streams the views out
// without keeping them.
//
// The shard count is not what makes this cheap, and raising it would not:
// a digest that re-serialized the shards written to since the last
// checkpoint only helps while writes miss most shards, and a checkpoint
// interval of a few hundred uniformly hashed keys touches every one of 64.
// Writes have the grain of trie paths, so that is where the cache lives.
//
// Determinism invariants:
//
//   - identical contents + identical shard count ⇒ identical CheckpointDigest,
//     regardless of the operation history that produced the state;
//   - identical contents + identical shard count ⇒ identical SerializeShard
//     streams, shard by shard (champ's canonical order, no sort pass);
//   - a shard is installed (InstallShard) only from a stream that decodes
//     exactly, holds only keys of that shard and rebuilds to the expected
//     shard digest, so d_C cannot vouch for other contents.
package kv

import (
	"fmt"
	"io"

	"iaccf/internal/champ"
	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// ckptDomain and shardDomain domain-separate the combined checkpoint
// digest and a single shard's digest from each other and from every other
// hash in the system.
var (
	ckptDomain  = []byte("iaccf-ckpt-shards:")
	shardDomain = []byte("iaccf-ckpt-shard:")
)

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
	shards []*champ.Map
	marks  []shardedMark
}

// shardedMark captures every shard head at a batch boundary.
type shardedMark struct {
	seq    uint64
	shards []*champ.Map
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
	s := &ShardedStore{shards: make([]*champ.Map, shards)}
	for i := range s.shards {
		s.shards[i] = champ.Empty()
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
// the stored value is bytes of a CHAMP node shared by every snapshot and
// mark referencing it, so handing it out directly would let a caller
// silently corrupt history that rollback depends on.
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
	return &Tx{store: s, base: s.shards, writes: map[string][]byte{}}
}

// apply publishes the buffered effects copy-on-write: the shard-head slice
// is never mutated in place — a fresh slice replaces it — so every snapshot
// captured by Begin, Mark, or Clone stays frozen for free. (The only
// in-place mutation anywhere is champ filling in node hashes under
// ShardDigest/CheckpointDigest, which runs strictly between applies, on the
// goroutine that owns the store, and writes what any holder of the node
// would compute.)
func (s *ShardedStore) apply(writes map[string][]byte, deletes map[string]bool) {
	if len(writes) == 0 && len(deletes) == 0 {
		return
	}
	shards := append([]*champ.Map(nil), s.shards...)
	for k := range deletes {
		i := s.shardFor(k)
		shards[i] = shards[i].Delete(k)
	}
	for k, v := range writes {
		i := s.shardFor(k)
		shards[i] = shards[i].Set(k, v)
	}
	s.shards = shards
}

// Mark records a rollback point labelled seq, capturing the state before
// the batch with that sequence number executes. Marks are kept until
// PruneMarks. Thanks to copy-on-write applies a mark captures the current
// shard-head slice by reference: O(1).
func (s *ShardedStore) Mark(seq uint64) {
	s.marks = append(s.marks, shardedMark{seq: seq, shards: s.shards})
}

// RollbackTo restores the state captured by Mark(seq) and discards that
// mark and all later ones. The restored heads were hashed if a checkpoint
// was taken on them, and still are.
func (s *ShardedStore) RollbackTo(seq uint64) error {
	for i := len(s.marks) - 1; i >= 0; i-- {
		if s.marks[i].seq == seq {
			s.shards = s.marks[i].shards
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

// shardDigest is the digest of one shard: its key count and the Merkle
// root of its trie, under the shard domain tag.
func shardDigest(m *champ.Map) hashsig.Digest {
	root := m.Hash()
	var n [8]byte
	return hashsig.SumMany(shardDomain, wire.AppendUint64(n[:0], uint64(m.Len())), root[:])
}

// ShardDigest returns the digest of one shard's contents. It lets an
// auditor localize a checkpoint divergence to the shard that diverged
// instead of just observing that d_C differs.
func (s *ShardedStore) ShardDigest(i int) hashsig.Digest { return shardDigest(s.shards[i]) }

// CheckpointDigest returns the sharded checkpoint digest d_C: the hash of
// the shard count and every per-shard digest. It depends only on contents
// and shard count, never on the history that produced them, and costs the
// hashing of the trie nodes written since the previous call (see the file
// comment) plus one small hash per shard.
func (s *ShardedStore) CheckpointDigest() hashsig.Digest {
	return CombineShardDigests(s.ShardDigests())
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

// ShardDigests returns the per-shard digest vector d_C combines. Element i
// commits to the contents SerializeShard(i) streams, so a state-transfer
// chunk verifies by being decoded and rebuilt (InstallShard) and its digest
// compared against this vector.
func (s *ShardedStore) ShardDigests() []hashsig.Digest {
	out := make([]hashsig.Digest, len(s.shards))
	for i := range s.shards {
		out[i] = s.ShardDigest(i)
	}
	return out
}

// SerializeShard writes one shard's canonical stream. This is the
// state-transfer chunk unit: a checkpoint travels as one chunk per shard,
// each independently verifiable (InstallShard) against the signed d_C's
// per-shard digest vector.
func (s *ShardedStore) SerializeShard(i int, w io.Writer) error {
	ww := wire.NewWriter(w)
	encodeMapCanonical(ww, s.shards[i])
	return ww.Flush()
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

// InstallShard is the receiving half of SerializeShard: it decodes one
// state-transfer chunk, checks that it decodes exactly (trailing bytes
// rejected) and that every key belongs to shard i, rebuilds the shard, and
// installs it only if its digest is want — the element of the certified
// digest vector the chunk was fetched for. A chunk that decodes cleanly to
// the wrong contents is refused like one that does not decode; on any
// error the store is unchanged.
func (s *ShardedStore) InstallShard(i int, chunk []byte, want hashsig.Digest) error {
	n := uint32(len(s.shards))
	rd := wire.NewBytesReader(chunk)
	m, ok := readShardMap(rd, uint32(i), n)
	if ok {
		rd.ExpectEOF()
		rd.Annotate("shard %d of %d", i, n)
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("kv: restore: %w", err)
	}
	if shardDigest(m) != want {
		return fmt.Errorf("kv: restore: %w: shard %d of %d does not have the certified digest", wire.ErrCorrupt, i, n)
	}
	shards := append([]*champ.Map(nil), s.shards...)
	shards[i] = m
	s.shards = shards
	return nil
}

// Clone returns an independent store with the same contents (O(shards)).
// The tries, and the hashes cached in them, are shared.
func (s *ShardedStore) Clone() *ShardedStore {
	return &ShardedStore{shards: append([]*champ.Map(nil), s.shards...)}
}

// ShardSnapshot returns the immutable map backing one shard, for replay
// comparisons and shard-level auditing.
func (s *ShardedStore) ShardSnapshot(i int) *champ.Map { return s.shards[i] }
