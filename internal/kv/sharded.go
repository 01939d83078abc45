// ShardedStore partitions the key space across N champ-backed shards
// (paper §6): each key lives in exactly one shard, chosen by the
// cross-process-deterministic champ.ShardOf. A shard is what state transfer
// ships as one chunk.
//
// The checkpoint digest d_C is the combination of the per-shard digests,
// and a shard's digest is H(domain ‖ key count ‖ Merkle root of its trie).
// The trie caches a hash in every node and a flush path-copies exactly the
// nodes its writes pass through, so a checkpoint hashes the nodes written
// since the last one — at most depth × keys written — and reads one cached
// root per untouched shard: O(keys written), not O(keys stored). Rollback
// to a mark and Clone reinstate old shard heads, whose nodes still carry
// their hashes, so the store keeps no digest cache of its own.
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
//
// Committed writes reach the tries in bulk. Commit adds a transaction's ops
// to one overlay of pending writes (the latest value or a tombstone per
// key), and Get and Tx.Get read through it. The overlay is flushed — its
// deletes applied key by key, then each shard's puts in one
// champ.Map.SetAll — when something needs the tries: Mark, Clone,
// ShardSnapshot, the digests, SerializeShard, InstallShard and Len.
// RollbackTo drops it. The ledger marks the store before every batch and
// clones it at every checkpoint marker, so a write path-copies the trie once
// per batch on a replica and once per checkpoint interval on an audit, with
// every node on the written paths copied once.
//
// Two rules keep this right and cheap:
//
//   - An overlay a live transaction captured at Begin is never written in
//     place: a commit while another transaction is live copies it first.
//     The store counts the live transactions of the current overlay, so a
//     transaction abandoned by a panicking App costs one copy, not one per
//     later commit.
//   - A flush replaces the overlay, never clears it: clear walks a map's
//     whole capacity, which a checkpoint interval's writes grow far past
//     the handful a digest between two batches finds. The next overlay is
//     sized from the last flush's count.
type ShardedStore struct {
	shards  []*champ.Map
	marks   []shardedMark
	pending opLog  // committed writes the tries have not absorbed
	gen     uint64 // bumped whenever pending is replaced
	readers int    // live transactions that captured pending at gen
	hint    int    // ops in the last flush, to size the next overlay

	// flush's scratch: the puts grouped by shard, and each shard's offset.
	keys []string
	vals [][]byte
	at   []int
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
	s.flush()
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
	return read(&s.pending, s.shards, key)
}

// Begin starts a transaction spanning all shards: reads see a consistent
// snapshot of every shard plus the transaction's own writes, and Commit
// publishes the buffered effects atomically (the store is single-writer,
// so "atomic" means no reader observes a partial commit).
//
// The snapshot is the shard-head slice and the overlay, both captured by
// reference: neither is written in place while captured (flush builds a
// fresh slice, commit copies a captured overlay), so Begin — the hottest
// path, paid per transaction by both the primary and the auditor — is O(1)
// regardless of shard count and overlay size.
func (s *ShardedStore) Begin() *Tx {
	s.readers++
	t := &Tx{store: s, base: s.shards, pending: s.pending, gen: s.gen}
	t.writes.ops = t.first[:0]
	return t
}

// commit adds a committed transaction's ops to the overlay, copying it
// first if a live transaction still reads it.
func (s *ShardedStore) commit(ops []op) {
	if len(ops) == 0 {
		return
	}
	if s.readers > 0 {
		s.pending = s.pending.clone()
		s.gen++
		s.readers = 0
	}
	if s.pending.ops == nil {
		s.pending.ops = make([]op, 0, max(s.hint, len(ops)))
	}
	for _, o := range ops {
		s.pending.put(o, s.hint)
	}
}

// replacePending installs an empty overlay; transactions still reading
// the old one keep it.
func (s *ShardedStore) replacePending() {
	s.pending = opLog{}
	s.gen++
	s.readers = 0
}

// flush lands the overlay in the tries copy-on-write: the shard-head slice
// is never mutated in place — a fresh slice replaces it — so every snapshot
// captured by Begin, Mark, or Clone stays frozen for free. Deletes go key
// by key, then the puts in one SetAll per shard written, grouped by a
// counting sort into one key and one value vector.
// The overlay's order reaches no hash: the tries' shape, and so d_C, is a
// function of their contents.
//
// (The only in-place mutation anywhere is champ filling in node hashes
// under ShardDigest/CheckpointDigest, which writes what any holder of the
// node would compute, and touches nothing a flush reads: one goroutine may
// take the digest of a Clone while the owner goes on committing and
// flushing — see champ's concurrency contract — as long as one digest runs
// at a time.)
func (s *ShardedStore) flush() {
	ops := s.pending.ops
	if len(ops) == 0 {
		return
	}
	shards := append([]*champ.Map(nil), s.shards...)
	puts := 0
	for _, o := range ops {
		if o.del {
			i := s.shardFor(o.key)
			shards[i] = shards[i].Delete(o.key)
		} else {
			puts++
		}
	}
	if puts > 0 {
		s.setAllByShard(shards, ops, puts)
	}
	s.shards = shards
	s.hint = len(ops)
	s.replacePending()
}

// setAllByShard writes the puts among ops into their shards, one SetAll
// per shard written. The key, value and offset vectors are the store's
// scratch, reused from flush to flush (the store has one writer); the
// values are cleared afterwards so the scratch keeps none alive.
func (s *ShardedStore) setAllByShard(shards []*champ.Map, ops []op, puts int) {
	n := uint32(len(shards))
	keys, vals := grow(s.keys, puts), grow(s.vals, puts)
	// at[i] ends up where shard i's puts start, at[n] at puts.
	at := grow(s.at, int(n)+1)
	clear(at)
	for _, o := range ops {
		if !o.del {
			at[champ.ShardOf(o.key, n)]++
		}
	}
	for i := 1; i <= len(shards); i++ {
		at[i] += at[i-1]
	}
	for _, o := range ops {
		if !o.del {
			i := champ.ShardOf(o.key, n)
			at[i]--
			keys[at[i]], vals[at[i]] = o.key, o.val
		}
	}
	for i := range shards {
		if at[i] < at[i+1] {
			shards[i] = shards[i].SetAll(keys[at[i]:at[i+1]], vals[at[i]:at[i+1]])
		}
	}
	clear(keys)
	clear(vals)
	s.keys, s.vals, s.at = keys, vals, at
}

// grow returns buf resliced to length n, reallocated if its capacity is
// short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Mark records a rollback point labelled seq, capturing the state before
// the batch with that sequence number executes. Marks are kept until
// PruneMarks. It flushes the overlay, then captures the shard-head slice
// by reference: a flush never writes that slice in place.
func (s *ShardedStore) Mark(seq uint64) {
	s.flush()
	s.marks = append(s.marks, shardedMark{seq: seq, shards: s.shards})
}

// RollbackTo restores the state captured by Mark(seq) and discards that
// mark and all later ones, and the overlay, which holds only writes
// committed since the latest mark. The restored heads were hashed if a
// checkpoint was taken on them, and still are.
func (s *ShardedStore) RollbackTo(seq uint64) error {
	for i := len(s.marks) - 1; i >= 0; i-- {
		if s.marks[i].seq == seq {
			s.shards = s.marks[i].shards
			s.marks = s.marks[:i]
			s.replacePending()
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
func (s *ShardedStore) ShardDigest(i int) hashsig.Digest {
	s.flush()
	return shardDigest(s.shards[i])
}

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
	h := hashsig.NewHasher()
	h.Write(ckptDomain)
	var n [4]byte
	h.Write(wire.AppendUint32(n[:0], uint32(len(digests))))
	for i := range digests {
		h.Write(digests[i][:])
	}
	var out hashsig.Digest
	h.Sum(out[:0])
	return out
}

// ShardDigests returns the per-shard digest vector d_C combines. Element i
// commits to the contents SerializeShard(i) streams, so a state-transfer
// chunk verifies by being decoded and rebuilt (InstallShard) and its digest
// compared against this vector.
func (s *ShardedStore) ShardDigests() []hashsig.Digest {
	s.flush()
	out := make([]hashsig.Digest, len(s.shards))
	for i, m := range s.shards {
		out[i] = shardDigest(m)
	}
	return out
}

// SerializeShard writes one shard's canonical stream. This is the
// state-transfer chunk unit: a checkpoint travels as one chunk per shard,
// each independently verifiable (InstallShard) against the signed d_C's
// per-shard digest vector.
func (s *ShardedStore) SerializeShard(i int, w io.Writer) error {
	s.flush()
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
	s.flush() // pending writes to other shards stay; shard i's are replaced
	shards := append([]*champ.Map(nil), s.shards...)
	shards[i] = m
	s.shards = shards
	return nil
}

// Clone returns an independent store with the same contents (O(shards)
// once the overlay is flushed). The tries, and the hashes cached in them,
// are shared; the clone starts with no overlay, so it may be digested on
// another goroutine while this store goes on.
func (s *ShardedStore) Clone() *ShardedStore {
	s.flush()
	return &ShardedStore{shards: append([]*champ.Map(nil), s.shards...)}
}

// ShardSnapshot returns the immutable map backing one shard, for replay
// comparisons and shard-level auditing.
func (s *ShardedStore) ShardSnapshot(i int) *champ.Map {
	s.flush()
	return s.shards[i]
}
