// Package kv implements the strictly-serializable transactional key-value
// store that IA-CCF replicas execute transactions against (paper §2). It
// supports rollback at transaction granularity (abort) and at batch
// granularity (marks), as L-PBFT's early execution requires (Lemma 1), and
// deterministic checkpoint serialization with content digests (§3.4).
//
// There is one store, ShardedStore (sharded.go): the key space is
// partitioned across N persistent CHAMP maps (the state-transfer chunk
// unit), and NewSharded(1) is the unsharded case. Snapshots, marks and
// rollback are pointer copies, and the checkpoint digest d_C is read off
// the tries' cached Merkle roots. This file holds the transaction type and
// the canonical serialization helpers the store is built from.
package kv

import (
	"errors"
	"sort"

	"iaccf/internal/champ"
	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// ErrNoMark reports a rollback to a batch boundary that was never marked or
// has been pruned.
var ErrNoMark = errors.New("kv: no mark for sequence number")

// Tx is a single transaction: buffered writes over a snapshot. The ledger
// runs a batch's transactions one at a time, in ledger order, on the
// goroutine that owns the store, so a Tx records nothing beyond its own
// writes and deletes. A finished
// transaction (Commit or Abort) is dead: every further use panics, so a
// bug that retains a transaction past its batch is caught immediately
// instead of silently reading stale state or writing into the void.
type Tx struct {
	store   *ShardedStore
	base    []*champ.Map // shard heads at Begin (immutable once captured)
	writes  map[string][]byte
	deletes map[string]bool
	done    bool
}

// active panics if the transaction has already finished.
func (t *Tx) active(op string) {
	if t.done {
		panic("kv: " + op + " on finished transaction")
	}
}

// Get reads key, seeing the transaction's own writes first. Like
// ShardedStore.Get it returns a copy, both of snapshot values (views into a
// trie node shared with marks) and of buffered writes (mutating a buffered
// write through the returned slice would change what Commit publishes).
func (t *Tx) Get(key string) ([]byte, bool) {
	t.active("Get")
	if t.deletes[key] {
		return nil, false
	}
	v, ok := t.writes[key]
	if !ok {
		v, ok = t.base[champ.ShardOf(key, uint32(len(t.base)))].Get(key)
		if !ok {
			return nil, false
		}
	}
	return append([]byte(nil), v...), true
}

// Put buffers a write. The value is copied: the buffer outlives the call,
// and Commit hands it to champ, which copies it once more into a node.
func (t *Tx) Put(key string, val []byte) {
	t.active("Put")
	delete(t.deletes, key)
	t.writes[key] = append([]byte(nil), val...)
}

// Delete buffers a deletion. The deletes map is made here, not by Begin:
// most transactions only put, and every read of a nil map is already right.
func (t *Tx) Delete(key string) {
	t.active("Delete")
	delete(t.writes, key)
	if t.deletes == nil {
		t.deletes = map[string]bool{}
	}
	t.deletes[key] = true
}

// WriteSetDigest returns the digest of the transaction's write set so far
// (WriteSet.Digest), before it finishes.
func (t *Tx) WriteSetDigest() hashsig.Digest {
	t.active("WriteSetDigest")
	return WriteSet{writes: t.writes, deletes: t.deletes}.Digest()
}

// Commit applies the buffered effects to the store and returns them.
func (t *Tx) Commit() WriteSet {
	t.active("Commit")
	t.done = true
	t.store.apply(t.writes, t.deletes)
	return WriteSet{writes: t.writes, deletes: t.deletes}
}

// WriteSet is what a committed transaction published: its puts and its
// deletes. Nothing writes to it after Commit — the store copies every value
// it keeps, and the transaction is dead — so it may be digested later, on
// any goroutine.
type WriteSet struct {
	writes  map[string][]byte
	deletes map[string]bool
}

// Digest returns a deterministic digest of the write set (sorted puts and
// deletes). The paper stores this hash in each ledger transaction entry's
// result o (§3.1, Fig. 3) so auditors can compare replayed effects without
// serializing whole values into receipts.
func (w WriteSet) Digest() hashsig.Digest {
	keys := make([]string, 0, len(w.writes)+len(w.deletes))
	for k := range w.writes {
		keys = append(keys, k)
	}
	for k := range w.deletes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := wire.GetScratch(256)
	for _, k := range keys {
		h = wire.AppendString(h, k)
		if w.deletes[k] {
			h = append(h, 0x00)
		} else {
			h = append(h, 0x01)
			h = wire.AppendBytes(h, w.writes[k])
		}
	}
	d := hashsig.Sum(h)
	wire.PutScratch(h)
	return d
}

// Abort discards the transaction (rollback at transaction granularity).
func (t *Tx) Abort() {
	t.active("Abort")
	t.done = true
}

// encodeMapCanonical streams one map in the per-shard checkpoint form:
// count, then (key, value) pairs in champ's canonical iteration order. One
// pass over the trie, no intermediate collection and no sort.
func encodeMapCanonical(w *wire.Writer, m *champ.Map) {
	w.Uint64(uint64(m.Len()))
	m.RangeCanonical(func(k string, v []byte) bool {
		w.String(k)
		w.Bytes(v)
		return w.Err() == nil
	})
}

// readMap reads one canonical map stream (count + pairs) from rd. Errors
// stick in the reader; on error the partial map is returned and ignored by
// callers. Every frame boundary annotates a failure with its position, so
// a truncated or oversized stream reports exactly which frame broke — and
// no partially-read map is ever installed into a store (InstallShard only
// publishes a shard after a clean ExpectEOF).
func readMap(rd *wire.Reader) *champ.Map {
	n := rd.Uint64()
	rd.Annotate("entry count header")
	m := champ.Empty()
	for i := uint64(0); i < n && rd.Err() == nil; i++ {
		k := rd.String(wire.MaxKeyLen)
		if rd.Err() != nil {
			rd.Annotate("entry %d of %d: key", i, n)
			break
		}
		v := rd.BytesView(wire.MaxValueLen) // Set copies
		if rd.Err() != nil {
			rd.Annotate("entry %d of %d: value for key %q", i, n, k)
			break
		}
		m = m.Set(k, v)
	}
	return m
}
