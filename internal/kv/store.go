// Store is the replica's key-value state: one champ-backed trie plus an
// overlay of committed writes the trie has not absorbed yet. The whole
// store is what state transfer ships as one chunk.
//
// The checkpoint digest d_C is H(domain ‖ key count ‖ Merkle root of the
// trie). The trie caches a hash in every node and a flush path-copies
// exactly the nodes its writes pass through, so a checkpoint hashes the
// nodes written since the last one — at most depth × keys written — and
// not the whole state: O(keys written), not O(keys stored). A Clone keeps
// an old trie head, whose nodes still carry their hashes, so the store
// keeps no digest cache of its own, and a rollback (the ledger reinstating
// the clone it took at a batch boundary) needs none.
//
// What the store holds per key is bytes in a trie node's blob, not objects:
// champ copies a value in on Set and keeps no pointer per entry, so the
// live heap the collector walks grows with the number of nodes (well under
// one object per key; BenchmarkStoreInsert reports it) and not with the
// number of keys. Everything champ hands back — Get, the Range callbacks —
// is a view into a node shared by every snapshot and clone that holds it:
// Get copies before returning, and SerializeShard streams the views out
// without keeping them.
//
// Determinism invariants:
//
//   - identical contents ⇒ identical CheckpointDigest, regardless of the
//     operation history that produced the state;
//   - identical contents ⇒ identical SerializeShard streams (champ's
//     canonical order, no sort pass);
//   - a state is installed (InstallShard) only from a stream that decodes
//     exactly and rebuilds to the expected digest, so d_C cannot vouch for
//     other contents.
package kv

import (
	"fmt"
	"io"

	"iaccf/internal/champ"
	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// ckptDomain domain-separates the checkpoint digest from every other hash
// in the system.
var ckptDomain = []byte("iaccf-ckpt:")

// Store is a transactional key-value store. Transactions execute serially
// (the replica's execution loop is single-threaded, which is what makes
// the history strictly serializable); the store itself is not safe for
// concurrent mutation.
//
// Committed writes reach the trie in bulk. Commit adds a transaction's ops
// to one overlay of pending writes (the latest value or a tombstone per
// key), and Get and Tx.Get read through it. The overlay is flushed — its
// deletes applied key by key, then its puts in one champ.Map.SetAll — when
// something needs the trie: Clone, ShardSnapshot, CheckpointDigest,
// SerializeShard, InstallShard and Len. A clone starts without one. The
// ledger clones the store before every batch (its rollback record) and at
// every checkpoint marker, so a write path-copies the trie once per batch
// on a replica and once per checkpoint interval on an audit, with every
// node on the written paths copied once.
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
type Store struct {
	root    *champ.Map
	pending opLog  // committed writes the trie has not absorbed
	gen     uint64 // bumped whenever pending is replaced
	readers int    // live transactions that captured pending at gen
	hint    int    // ops in the last flush, to size the next overlay
}

// New returns an empty store.
func New() *Store { return &Store{root: champ.Empty()} }

// NewSharded is New under the name bench/ calls, bench/ only: 0 or 1. Any
// other count panics, as a misconfiguration; the store has no partition.
func NewSharded(shards int) *Store {
	if shards != 0 && shards != 1 {
		panic(fmt.Sprintf("kv: shard count %d: the store is one trie (0 or 1)", shards))
	}
	return New()
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.flush()
	return s.root.Len()
}

// Get reads a key outside any transaction. The returned slice is a copy:
// the stored value is bytes of a CHAMP node shared by every snapshot and
// clone referencing it, so handing it out directly would let a caller
// silently corrupt history that rollback depends on.
func (s *Store) Get(key string) ([]byte, bool) {
	return read(&s.pending, s.root, key)
}

// Begin starts a transaction: reads see a consistent snapshot of the store
// plus the transaction's own writes, and Commit publishes the buffered
// effects atomically (the store is single-writer, so "atomic" means no
// reader observes a partial commit).
//
// The snapshot is the trie head and the overlay, both captured by
// reference: the trie is immutable and a captured overlay is not written
// in place (commit copies it), so Begin — the hottest path, paid per
// transaction by both the primary and the auditor — is O(1) regardless of
// overlay size.
func (s *Store) Begin() *Tx {
	s.readers++
	t := &Tx{store: s, base: s.root, pending: s.pending, gen: s.gen}
	t.writes.ops = t.first[:0]
	return t
}

// commit adds a committed transaction's ops to the overlay, copying it
// first if a live transaction still reads it.
func (s *Store) commit(ops []op) {
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
func (s *Store) replacePending() {
	s.pending = opLog{}
	s.gen++
	s.readers = 0
}

// flush lands the overlay in the trie copy-on-write: the deletes key by
// key, then every put in one SetAll. Every snapshot captured
// by Begin or Clone holds an older head and stays frozen for free.
// The overlay's order reaches no hash: the trie's shape, and so d_C, is a
// function of its contents.
//
// (The only in-place mutation anywhere is champ filling in node hashes
// under CheckpointDigest, which writes what any holder of the node would
// compute, and touches nothing a flush reads: one goroutine may take the
// digest of a Clone while the owner goes on committing and flushing — see
// champ's concurrency contract — as long as one digest runs at a time.)
func (s *Store) flush() {
	ops := s.pending.ops
	if len(ops) == 0 {
		return
	}
	root := s.root
	ws := make([]champ.Write, 0, len(ops))
	for _, o := range ops {
		if o.del {
			root = root.Delete(o.key)
		} else {
			ws = append(ws, champ.Put(o.key, o.val))
		}
	}
	root = root.SetAll(ws)
	s.root = root
	s.hint = len(ops)
	s.replacePending()
}

// digestOf is d_C of a trie: its key count and Merkle root, under the
// checkpoint domain tag.
func digestOf(m *champ.Map) hashsig.Digest {
	root := m.Hash()
	var n [8]byte
	return hashsig.SumMany(ckptDomain, wire.AppendUint64(n[:0], uint64(m.Len())), root[:])
}

// CheckpointDigest returns the checkpoint digest d_C. It depends only on
// contents, never on the history that produced them, and costs the
// hashing of the trie nodes written since the previous call (see the file
// comment) plus one small hash.
func (s *Store) CheckpointDigest() hashsig.Digest {
	s.flush()
	return digestOf(s.root)
}

// SerializeShard writes the store's canonical stream. This is the
// state-transfer chunk: a checkpoint travels as one chunk, verifiable
// (InstallShard) against the signed d_C.
func (s *Store) SerializeShard(w io.Writer) error {
	s.flush()
	ww := wire.NewWriter(w)
	encodeMapCanonical(ww, s.root)
	return ww.Flush()
}

// InstallShard is the receiving half of SerializeShard: it decodes a
// state-transfer chunk, checks that it decodes exactly (trailing bytes
// rejected), rebuilds the trie, and installs it — replacing the store's
// contents and dropping its overlay — only if its digest is want, the
// certified d_C. A chunk that decodes cleanly to the wrong contents is
// refused like one that does not decode; on any error the store is
// unchanged.
func (s *Store) InstallShard(chunk []byte, want hashsig.Digest) error {
	rd := wire.NewBytesReader(chunk)
	m := readMap(rd)
	rd.ExpectEOF()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("kv: restore: %w", err)
	}
	if digestOf(m) != want {
		return fmt.Errorf("kv: restore: %w: state does not have the certified digest", wire.ErrCorrupt)
	}
	s.root = m
	s.replacePending()
	return nil
}

// Clone returns an independent store with the same contents (O(1) once
// the overlay is flushed). The trie, and the hashes cached in it, are
// shared; the clone starts with no overlay, so it may be digested on
// another goroutine while this store goes on.
func (s *Store) Clone() *Store {
	s.flush()
	return &Store{root: s.root}
}

// ShardSnapshot returns the immutable map backing the store, for replay
// comparisons and auditing.
func (s *Store) ShardSnapshot() *champ.Map {
	s.flush()
	return s.root
}
