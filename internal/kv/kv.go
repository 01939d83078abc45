// Package kv implements the strictly-serializable transactional key-value
// store that IA-CCF replicas execute transactions against (paper §2). It
// supports rollback at transaction granularity (abort) and at batch
// granularity (marks), as L-PBFT's early execution requires (Lemma 1), and
// deterministic checkpoint serialization with content digests (§3.4).
//
// There is one store, Store (store.go): one persistent CHAMP map — the
// state-transfer chunk — plus an overlay of committed writes. Snapshots,
// marks and rollback are pointer copies, and the checkpoint digest d_C is
// read off the trie's cached Merkle root.
//
// Writes reach the trie in bulk. A transaction buffers its ops in a
// slice; Commit adds them to the store's overlay of pending writes, which
// reads see through; and the overlay is flushed into the trie — one
// champ.Map.SetAll — only when something needs it: a mark, a clone, a
// digest, a snapshot, a chunk. A transaction reads the overlay it found at
// Begin, which nothing writes in place while it lives, and a flush
// replaces the overlay rather than clearing it (see Store).
//
// This file holds the transaction type and the canonical serialization
// helpers the store is built from.
package kv

import (
	"errors"
	"maps"
	"slices"
	"strings"

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
//
// The snapshot is the store as Begin found it: its trie head and its
// overlay of committed writes the trie has not absorbed yet (see Store).
// The transaction's own writes are an opLog whose first ops live in the
// Tx itself, so a transaction of a few writes allocates the Tx and nothing
// else.
type Tx struct {
	store   *Store
	base    *champ.Map // the trie head at Begin (immutable)
	pending opLog      // the store's overlay at Begin (never written while captured)
	gen     uint64     // which overlay pending is (Store.gen)
	writes  opLog
	first   [txInline]op // backs writes' first ops
	done    bool
}

// txInline is how many of a transaction's ops live in the Tx itself.
const txInline = 4

// op is one buffered write: a put of val, or a delete.
type op struct {
	key string
	val []byte
	del bool
}

// value returns what o leaves under its key: a copy of the value, or
// nothing. Ops are shared (with write sets, overlays and snapshots), so
// their bytes are never handed out.
func (o op) value() ([]byte, bool) {
	if o.del {
		return nil, false
	}
	return append([]byte(nil), o.val...), true
}

// opLog holds at most one op per key, the last one written, in the order
// the keys were first written: a transaction's writes, and the store's
// overlay. Up to indexAt ops it is searched; past that it keeps an index
// from key to position, so a transaction of KVApp's 65 536 ops, or an
// overlay of a checkpoint interval's, stays linear.
type opLog struct {
	ops   []op
	index map[string]int
}

// indexAt is the op count past which an opLog keeps an index.
const indexAt = 8

func (l *opLog) find(key string) (int, bool) {
	if l.index != nil {
		i, ok := l.index[key]
		return i, ok
	}
	for i := range l.ops {
		if l.ops[i].key == key {
			return i, true
		}
	}
	return 0, false
}

// get returns the op on key, if there is one.
func (l *opLog) get(key string) (op, bool) {
	if i, ok := l.find(key); ok {
		return l.ops[i], true
	}
	return op{}, false
}

// put records o, replacing the op on its key. hint sizes the index if this
// put builds it.
func (l *opLog) put(o op, hint int) {
	if i, ok := l.find(o.key); ok {
		l.ops[i] = o
		return
	}
	l.ops = append(l.ops, o)
	switch {
	case l.index != nil:
		l.index[o.key] = len(l.ops) - 1
	case len(l.ops) > indexAt:
		l.index = make(map[string]int, max(hint, 2*len(l.ops)))
		for i := range l.ops {
			l.index[l.ops[i].key] = i
		}
	}
}

// clone returns a copy of l that shares nothing it could write.
func (l *opLog) clone() opLog {
	return opLog{ops: slices.Clone(l.ops), index: maps.Clone(l.index)}
}

// read looks key up through an overlay into the trie head beneath it and
// returns a copy of the value: both are shared (trie nodes with marks and
// snapshots, overlay values with write sets), so handing out the stored
// bytes would let a caller change history.
func read(pending *opLog, m *champ.Map, key string) ([]byte, bool) {
	if o, ok := pending.get(key); ok {
		return o.value()
	}
	v, ok := m.Get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// active panics if the transaction has already finished.
func (t *Tx) active(op string) {
	if t.done {
		panic("kv: " + op + " on finished transaction")
	}
}

// Get reads key, seeing the transaction's own writes first, then the
// snapshot. Like Store.Get it returns a copy, of buffered writes too
// (mutating a buffered write through the returned slice would change what
// Commit publishes).
func (t *Tx) Get(key string) ([]byte, bool) {
	t.active("Get")
	if o, ok := t.writes.get(key); ok {
		return o.value()
	}
	return read(&t.pending, t.base, key)
}

// Put buffers a write and takes ownership of val: the caller must not
// write to it afterwards. The buffer outlives the call — it is what the
// write set digests and the store's overlay holds until a flush hands it
// to champ, which copies it into a node — so a caller that goes on using
// its bytes passes a copy.
func (t *Tx) Put(key string, val []byte) {
	t.active("Put")
	t.writes.put(op{key: key, val: val}, 0)
}

// Delete buffers a deletion.
func (t *Tx) Delete(key string) {
	t.active("Delete")
	t.writes.put(op{key: key, del: true}, 0)
}

// WriteSetDigest returns the digest of the transaction's write set so far
// (WriteSet.Digest), before it finishes.
func (t *Tx) WriteSetDigest() hashsig.Digest {
	t.active("WriteSetDigest")
	return WriteSet{ops: t.writes.ops}.Digest()
}

// Commit publishes the buffered effects to the store's overlay and returns
// them.
func (t *Tx) Commit() WriteSet {
	t.active("Commit")
	t.finish()
	t.store.commit(t.writes.ops)
	return WriteSet{ops: t.writes.ops}
}

// Abort discards the transaction (rollback at transaction granularity).
func (t *Tx) Abort() {
	t.active("Abort")
	t.finish()
}

// finish kills the transaction and releases its claim on the overlay it
// read, so the next commit may write that overlay in place.
func (t *Tx) finish() {
	t.done = true
	if t.gen == t.store.gen {
		t.store.readers--
	}
	t.base, t.pending = nil, opLog{}
}

// WriteSet is what a committed transaction published: one put or delete
// per key. Nothing writes to it after Commit — the overlay takes the ops
// by value and never writes a value's bytes, and the transaction is dead —
// so it may be digested later, on any goroutine.
type WriteSet struct {
	ops []op
}

// Digest returns a deterministic digest of the write set (puts and deletes
// sorted by key). The paper stores this hash in each ledger transaction
// entry's result o (§3.1, Fig. 3) so auditors can compare replayed effects
// without serializing whole values into receipts. It sorts a copy: the
// committed ops are shared with the store's overlay.
func (w WriteSet) Digest() hashsig.Digest {
	ops := w.ops
	if len(ops) > 1 {
		ops = slices.Clone(ops)
		slices.SortFunc(ops, func(a, b op) int { return strings.Compare(a.key, b.key) })
	}
	var buf [256]byte
	b := buf[:0]
	for _, o := range ops {
		b = wire.AppendString(b, o.key)
		if o.del {
			b = append(b, 0x00)
		} else {
			b = append(b, 0x01)
			b = wire.AppendBytes(b, o.val)
		}
	}
	return hashsig.Sum(b)
}

// encodeMapCanonical streams one map in the checkpoint form:
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
// publishes a map after a clean ExpectEOF).
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
		v := rd.Bytes(wire.MaxValueLen)
		if rd.Err() != nil {
			rd.Annotate("entry %d of %d: value for key %q", i, n, k)
			break
		}
		m = m.Set(k, v)
	}
	return m
}
