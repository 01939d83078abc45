// Package champ implements a persistent (immutable) hash-array-mapped
// prefix-tree map with structural sharing, after the CHAMP design of
// Steindorfer & Vinju that CCF's key-value store uses (paper §6.6).
//
// A Map value is immutable: Set and Delete return new maps sharing almost
// all structure with the original. This gives the IA-CCF key-value store
// O(1) snapshots, transaction-granularity rollback, and cheap batch undo
// (Lemma 1) — a snapshot is just a pointer.
//
// Access cost grows logarithmically (base 32) with the number of entries,
// which is the effect Fig. 7 measures when the SmallBank account count
// grows.
//
// # Merkle hash
//
// The trie is also a Merkle tree: every node caches the SHA-256 of its own
// contents, and Map.Hash returns the root's. With u32 big-endian integers
// and lp(x) = u32(len(x)) ‖ x, a node hashes
//
//	branch:    0x00 ‖ u32(dataMap) ‖ u32(nodeMap)
//	           ‖ lp(key) ‖ lp(value)  for each inline entry, in slot order
//	           ‖ hash(child)          for each child, in slot order
//	collision: 0x01 ‖ u32(count)
//	           ‖ lp(key) ‖ lp(value)  for each entry, in ascending key order
//
// The two bitmaps give the number of entries and children, so the encoding
// is injective. Hashes are lazy: Set and Delete build their path of fresh
// nodes without one (clone never copies it), every node off that
// path keeps the hash it had, and Hash fills in exactly the missing ones —
// O(nodes rewritten since the last Hash), not O(entries). An old Map value
// (a snapshot, a rollback target) keeps its nodes and so its hashes.
//
// A hash is written once, by Hash, into a node that no other Map value can
// have hashed differently (the hash is a function of the immutable
// contents).
//
// The root hash is a function of the contents only because the trie shape
// is: a key is inline at the shallowest node where no other key shares its
// chunk prefix, and every non-root node holds at least two keys in its
// subtree. Set and SetAll preserve that by construction; Delete restores
// it by hoisting a child left with a single inline entry (or a collision
// bucket left with one key) back into its parent, level by level.
//
// # Bulk writes
//
// SetAll writes many keys in one pass: it sorts them once by trie path
// (the hash's chunks, level 0 first, then the key, a collision bucket's
// order), so the writes under every node form one contiguous run, and it
// copies each node on the written paths once, where successive Sets copy
// the root and every shared interior node once per key. Its result is the
// trie successive Sets in any order build, node for node, so the order of
// its input reaches no hash. The kv store flushes its pending writes
// through it.
//
// # Concurrency
//
// Nothing but Hash reads or writes a node's hash fields, and clone copies
// neither. So one goroutine may Hash a map while another builds successors
// of it with Set, SetAll and Delete: the writer reads only the immutable
// fields of the nodes the two share, and the nodes it creates are its own
// until it hands a map over (through a channel, say). A replay checks d_C
// of a checkpoint this way, beside the execution that continues from it.
// At most one Hash may run at a time over maps that share unhashed nodes,
// since two would write the same node; the one node every map in the
// process shares, Empty's root, is hashed at package init.
// TestHashBesideSet holds this contract under the race detector.
//
// # Node layout
//
// Storage is the preimage. A node keeps its entries in one byte slice,
// back to back as lp(key) ‖ lp(value) in slot order (a bucket: in key
// order) — exactly the middle of what it hashes — so hashing a node is
// header ‖ blob ‖ child hashes with nothing re-encoded, and a node is a
// struct, a blob the collector never looks inside, and, for interior nodes,
// a child slice: no pointer per entry, whatever the map holds. Entry i is
// found by walking length prefixes from the start of the blob, at most 31
// steps and two to eight in a trie of any size; there is no offset table.
//
// Nothing reachable from a Map is ever written again (hashes apart), blobs
// included, which decides who copies what. A path copy below an unchanged
// entry set makes a new struct and child slice and shares the blob. The
// one node whose entries change builds its blob in a single allocation of
// the exact size and shares the child slice if that did not change. Set
// therefore copies the value it is given; Get and the Range functions hand
// out views into the blob — keys as string headers over it, values with
// capacity cut to length — which stay valid, and unchanged, for as long as
// the caller holds them, and which the caller must not write to.
//
// An entry whose encoding exceeds maxInline is the exception: the blob
// holds a four-byte mark in its slot and the node a reference to the key
// and value, spliced into the preimage when the node is hashed. This is a
// safety rule, not a tuning one — see maxInline — and it changes neither
// the hash nor the trie shape.
package champ

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"

	"iaccf/internal/hashsig"
)

const (
	branchBits = 5
	branchSize = 1 << branchBits // 32
	chunkMask  = branchSize - 1
	// maxLevel is the deepest level with hash bits left; below it keys with
	// fully colliding hashes go into collision nodes.
	maxLevel = 64 / branchBits
)

// hashKey places a key in the trie. It is deterministic across processes:
// trie placement — and therefore canonical iteration order (RangeCanonical)
// and the trie's Merkle root — is a pure function of the key, so two
// replicas holding the same contents stream and hash them in the same
// order without any sort pass. The mix is for the trie's shape: a level
// reads five bits from the bottom of the hash up, and FNV-1a's low bits
// depend only on the low bits of the key's bytes (its multiply carries
// upward only), so the raw value goes through a full-avalanche finalizer
// that lets every key bit reach every level's chunk.
func hashKey(key string) uint64 {
	return mix64(fnvOf(key))
}

// mix64 is the SplitMix64 finalizer: a cheap bijective full-avalanche mix.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// FNV-1a parameters (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvOf returns the 64-bit FNV-1a hash of key, the deterministic base of
// trie placement.
func fnvOf(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// Map is an immutable hash map from string keys to byte-slice values.
// Construct with Empty; the zero value is not usable.
type Map struct {
	root *node
	size int
}

// empty's root is the one node shared by every map in the process; it is
// hashed here so that no later Hash call ever writes to it.
var empty = func() *Map {
	m := &Map{root: &node{}}
	m.Hash()
	return m
}()

// Empty returns the empty map.
func Empty() *Map { return empty }

// Len returns the number of entries.
func (m *Map) Len() int { return m.size }

// Get returns the value stored under key: a view of the map's own bytes,
// shared by every map holding the same node, which the caller must not
// write to. Its capacity is its length, so appending to it copies.
func (m *Map) Get(key string) ([]byte, bool) {
	return m.root.get(key, hashKey(key), 0)
}

// Has reports whether key is present.
func (m *Map) Has(key string) bool {
	_, ok := m.Get(key)
	return ok
}

// Set returns a new map with key bound to val. The receiver is unchanged.
// The value is copied: the caller may reuse its slice.
func (m *Map) Set(key string, val []byte) *Map {
	e := entry{key, val}
	if e.byRef() {
		e.val = bytes.Clone(val) // an inline one is copied into the blob instead
	}
	root, added := m.root.set(e, hashKey(key), 0)
	size := m.size
	if added {
		size++
	}
	return &Map{root: root, size: size}
}

// SetAll returns a new map with every keys[i] bound to vals[i]: the map
// successive Sets in any order would build, where a key that repeats is
// bound to its last value. The receiver is unchanged and the values are
// copied, as by Set.
//
// It builds the successor in one pass. The writes are sorted once by trie
// path, so the writes under each node form one contiguous run, and every
// node on a written path is copied once however many writes pass through
// it, where n Sets would copy the root n times. The result does not depend
// on the order of keys: the trie shape is a function of the contents.
func (m *Map) SetAll(keys []string, vals [][]byte) *Map {
	if len(keys) != len(vals) {
		panic("champ: SetAll with unequal key and value counts")
	}
	if len(keys) == 0 {
		return m
	}
	wp := writePool.Get().(*[]write)
	// One allocation when the pooled vector is short (or the pool was
	// emptied by a collection), not a doubling chain: one flush per batch
	// hands over every write of the batch.
	ws := slices.Grow((*wp)[:0], len(keys))
	for i, k := range keys {
		ws = append(ws, newWrite(k, vals[i], hashKey(k), i))
	}
	root, added := m.root.setAll(sortWrites(ws), 0)
	clear(ws) // the pooled vector must not keep the values alive
	*wp = ws[:0]
	writePool.Put(wp)
	return &Map{root: root, size: m.size + added}
}

// Delete returns a new map without key. The receiver is unchanged.
func (m *Map) Delete(key string) *Map {
	root, removed := m.root.delete(key, hashKey(key), 0)
	if !removed {
		return m
	}
	return &Map{root: root, size: m.size - 1}
}

// Hash returns the Merkle root of the map (see the package comment): equal
// for equal contents whatever the history, different for different
// contents. It hashes the nodes written since the last call on this map or
// on any map this one was derived from; a second call is a field read.
func (m *Map) Hash() hashsig.Digest {
	if !m.root.hashed {
		buf := make([]byte, 0, 1024)
		m.root.fillHash(&buf)
	}
	return m.root.hash
}

// Range calls fn for every entry until fn returns false. Iteration order is
// raw trie order (data entries before children at each node): stable for a
// given map value but dependent on the construction history, so callers
// needing a deterministic order must use RangeCanonical.
func (m *Map) Range(fn func(key string, val []byte) bool) {
	m.root.rang(fn)
}

// RangeCanonical calls fn for every entry in canonical order until fn
// returns false. Canonical order is the in-order traversal of the trie —
// data entries and children interleaved by chunk slot, collision buckets in
// ascending key order — which makes each key's position a pure function of
// the key itself (its hash chunk sequence), independent of the construction
// history and of how deep the trie happens to hold it. Two maps with the
// same contents therefore always stream in the same order, on any process:
// this is the iterator that lets checkpoint serialization skip a
// collect-then-sort pass.
func (m *Map) RangeCanonical(fn func(key string, val []byte) bool) {
	m.root.rangCanonical(fn)
}

// node is a CHAMP trie node: dataMap marks chunks holding inline entries,
// nodeMap marks chunks holding children. ents holds the entries (see the
// package comment), big the ones ents only marks. A node with coll set is a
// collision bucket at max depth: no bitmaps, no children, entries in
// ascending key order. hash is the node's Merkle hash once hashed is set;
// everything else — the bytes of ents included — is immutable from the
// moment the node is reachable from a Map, which is what lets copies share
// ents, big and children whenever they do not change them.
type node struct {
	dataMap  uint32
	nodeMap  uint32
	ents     []byte
	big      []entry
	children []*node
	coll     bool
	hashed   bool
	hash     hashsig.Digest
}

// entry is a key and its value: what set, fresh and delete hand from node
// to node, and how a node holds an entry too large for its blob.
type entry struct {
	key string
	val []byte
}

// size is the length of e's encoding, lp(key) ‖ lp(value).
func (e entry) size() int { return 8 + len(e.key) + len(e.val) }

// byRef reports whether a node holds e by reference rather than in its blob.
func (e entry) byRef() bool { return e.size() > maxInline }

const (
	// maxInline is the largest encoding an entry may have and still live in
	// its node's blob. A write at a node copies the whole blob, so an inline
	// entry is copied again by every write to each of its up to 31
	// neighbours; without a cap, one 16 MiB value (wire.MaxValueLen; a key
	// may be 1 MiB) would be moved by every write that lands beside it. An
	// entry held by reference is never moved, at the price of one more heap
	// object with pointers to trace. The cap is a bound, not a crossover:
	// with 400-byte values over 100 k keys a Set costs 7.6 µs inline and
	// 9.2 µs by reference, and inline stays the faster to a few KiB; what
	// grows is what a write allocates (3.0 KiB against 1.9 KiB per Set at
	// 400 B, 14 KiB against 5 KiB at 3 200 B). At 512 no rebuilt blob
	// exceeds 32 × 512 B = 16 KiB whatever is stored, and every entry of the
	// named workloads (≈ 10-byte key, 32-byte value) is a tenth of it.
	// Which way an entry is held depends on the entry alone, so the trie
	// shape stays a function of the contents; the hash cannot tell.
	maxInline = 512

	// bigMark stands in ents for an entry held in big. No inline entry
	// begins with it: that would be a key of 4 GiB.
	bigMark = 0xFFFFFFFF
)

// appendEntry appends lp(key) ‖ lp(value).
func appendEntry(b []byte, e entry) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.key)))
	b = append(b, e.key...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.val)))
	return append(b, e.val...)
}

// cursor is a position in a node's entries: the offset of the next one in
// ents and how many entries before it are held in big.
type cursor struct{ off, big int }

// more reports whether n has an entry at c.
func (c cursor) more(n *node) bool { return c.off < len(n.ents) }

// next returns the entry at c and moves past it. This is the one place an
// entry is read, wherever it is held. The key is a string header over the
// blob, legitimate because the blob never changes and cheap because ranges
// hand out every key of a checkpoint; the value is capped at its length so
// that an append by the caller reallocates.
func (c *cursor) next(n *node) entry {
	b := n.ents
	kl := binary.BigEndian.Uint32(b[c.off:])
	if kl == bigMark {
		e := n.big[c.big]
		c.off += 4
		c.big++
		return entry{e.key, e.val[:len(e.val):len(e.val)]}
	}
	ks := c.off + 4
	ke := ks + int(kl)
	vs := ke + 4
	ve := vs + int(binary.BigEndian.Uint32(b[ke:]))
	c.off = ve
	return entry{unsafe.String(unsafe.SliceData(b[ks:ke]), ke-ks), b[vs:ve:ve]}
}

// seek returns the position of the entry in compressed slot i: a walk over
// i pairs of length prefixes, which is all the index a blob has.
func (n *node) seek(i int) cursor { return cursor{}.skip(n, i) }

// skip returns the position i entries past c.
func (c cursor) skip(n *node, i int) cursor {
	b := n.ents
	for ; i > 0; i-- {
		kl := binary.BigEndian.Uint32(b[c.off:])
		if kl == bigMark {
			c.off += 4
			c.big++
			continue
		}
		c.off += 4 + int(kl)
		c.off += 4 + int(binary.BigEndian.Uint32(b[c.off:]))
	}
	return c
}

// find locates key in a collision bucket: its entry spans c to to if it is
// there, and if not, c == to is where it would go to keep the keys sorted.
func (n *node) find(key string) (c, to cursor, found bool) {
	for c.more(n) {
		to = c
		switch k := to.next(n).key; {
		case k == key:
			return c, to, true
		case k > key:
			return c, c, false
		}
		c = to
	}
	return c, c, false
}

// spliced returns a copy of n with one edit applied (edited): a fresh
// blob of exactly the size needed and, only if an entry held by reference
// comes or goes, a fresh reference list. Bitmaps and children are n's, for
// the caller to adjust.
func (n *node) spliced(e edit) *node {
	out := n.clone()
	out.ents, out.big = n.edited([]edit{e})
	return out
}

// edit replaces the entries of a node from c up to to with put, if has.
type edit struct {
	c, to cursor
	put   entry
	has   bool
}

// edited returns n's blob and reference list with edits applied, in
// order, each new list built in one allocation of the exact size and the
// reference list shared if no edit touches it. What lies between the edits
// is copied as it is.
func (n *node) edited(edits []edit) ([]byte, []entry) {
	size, refs, refsChanged := len(n.ents), len(n.big), false
	for _, e := range edits {
		size -= e.to.off - e.c.off
		if gone := e.to.big - e.c.big; gone > 0 {
			refs -= gone
			refsChanged = true
		}
		switch {
		case !e.has:
		case e.put.byRef():
			size += 4
			refs++
			refsChanged = true
		default:
			size += e.put.size()
		}
	}
	ents := make([]byte, 0, size)
	big := n.big
	if refsChanged {
		big = nil
		if refs > 0 {
			big = make([]entry, 0, refs)
		}
	}
	var at cursor
	for _, e := range edits {
		ents = append(ents, n.ents[at.off:e.c.off]...)
		if refsChanged {
			big = append(big, n.big[at.big:e.c.big]...)
		}
		if e.has {
			if e.put.byRef() {
				ents = binary.BigEndian.AppendUint32(ents, bigMark)
				big = append(big, e.put)
			} else {
				ents = appendEntry(ents, e.put)
			}
		}
		at = e.to
	}
	ents = append(ents, n.ents[at.off:]...)
	if refsChanged {
		big = append(big, n.big[at.big:]...)
	}
	return ents, big
}

// pack lays entries out, in slot order, as a node holds them: one blob of
// exactly the size needed and, if any entry is over maxInline, the list of
// those held by reference.
func pack(es []entry) ([]byte, []entry) {
	if len(es) == 0 {
		return nil, nil
	}
	size, refs := 0, 0
	for _, e := range es {
		if e.byRef() {
			size += 4
			refs++
		} else {
			size += e.size()
		}
	}
	ents := make([]byte, 0, size)
	var big []entry
	if refs > 0 {
		big = make([]entry, 0, refs)
	}
	for _, e := range es {
		if e.byRef() {
			ents = binary.BigEndian.AppendUint32(ents, bigMark)
			big = append(big, e)
		} else {
			ents = appendEntry(ents, e)
		}
	}
	return ents, big
}

// Node kinds, the first byte of a node's hash preimage.
const (
	kindBranch    = 0x00
	kindCollision = 0x01
)

// fillHash computes n's hash, first filling in any child that lacks one.
// buf is scratch shared by the whole walk: children are done with it before
// their parent assembles its own preimage.
func (n *node) fillHash(buf *[]byte) {
	for _, c := range n.children {
		if !c.hashed {
			c.fillHash(buf)
		}
	}
	b := (*buf)[:0]
	if n.coll {
		b = append(b, kindCollision)
		b = binary.BigEndian.AppendUint32(b, uint32(n.entries()))
	} else {
		b = append(b, kindBranch)
		b = binary.BigEndian.AppendUint32(b, n.dataMap)
		b = binary.BigEndian.AppendUint32(b, n.nodeMap)
	}
	if len(n.big) == 0 {
		b = append(b, n.ents...)
	} else {
		for c := (cursor{}); c.more(n); {
			b = appendEntry(b, c.next(n))
		}
	}
	for _, c := range n.children {
		b = append(b, c.hash[:]...)
	}
	n.hash = hashsig.Sum(b)
	n.hashed = true
	*buf = b
}

func chunk(h uint64, level int) uint32 {
	return uint32(h>>(uint(level)*branchBits)) & chunkMask
}

// dataIndex returns the compressed slot of a data entry for bit.
func (n *node) dataIndex(bit uint32) int {
	return bits.OnesCount32(n.dataMap & (bit - 1))
}

// nodeIndex returns the compressed slot of a child for bit.
func (n *node) nodeIndex(bit uint32) int {
	return bits.OnesCount32(n.nodeMap & (bit - 1))
}

// entries returns the number of entries n holds itself.
func (n *node) entries() int {
	if !n.coll {
		return bits.OnesCount32(n.dataMap)
	}
	count := 0
	for c := (cursor{}); c.more(n); c.next(n) {
		count++
	}
	return count
}

func (n *node) get(key string, h uint64, level int) ([]byte, bool) {
	if n.coll {
		c, _, found := n.find(key)
		if !found {
			return nil, false
		}
		return c.next(n).val, true
	}
	bit := uint32(1) << chunk(h, level)
	if n.dataMap&bit != 0 {
		c := n.seek(n.dataIndex(bit))
		if e := c.next(n); e.key == key {
			return e.val, true
		}
		return nil, false
	}
	if n.nodeMap&bit != 0 {
		return n.children[n.nodeIndex(bit)].get(key, h, level+1)
	}
	return nil, false
}

// set returns the updated node and whether a new key was added.
func (n *node) set(e entry, h uint64, level int) (*node, bool) {
	if n.coll {
		c, to, found := n.find(e.key)
		return n.spliced(edit{c: c, to: to, put: e, has: true}), !found
	}
	bit := uint32(1) << chunk(h, level)
	switch {
	case n.dataMap&bit != 0:
		c := n.seek(n.dataIndex(bit))
		to := c
		old := to.next(n)
		if old.key == e.key {
			return n.spliced(edit{c: c, to: to, put: e, has: true}), false
		}
		// Two distinct keys share this chunk: push both one level down.
		child := fresh([]write{{entry: e, h: h}}, &write{entry: old, h: hashKey(old.key)}, level+1)
		out := n.spliced(edit{c: c, to: to})
		out.dataMap &^= bit
		i := n.nodeIndex(bit)
		out.children = slices.Concat(n.children[:i], []*node{child}, n.children[i:])
		out.nodeMap |= bit
		return out, true
	case n.nodeMap&bit != 0:
		i := n.nodeIndex(bit)
		child, added := n.children[i].set(e, h, level+1)
		return n.withChild(i, child), added
	default:
		c := n.seek(n.dataIndex(bit))
		out := n.spliced(edit{c: c, to: c, put: e, has: true})
		out.dataMap |= bit
		return out, true
	}
}

// delete returns the updated node and whether the key was present. The
// result is in canonical form: a child left with a single entry is replaced
// by that entry inline, and since the caller applies the same rule to what
// it gets back, a chain of single-child nodes collapses all the way up to
// the level where the survivor has a neighbour (or to the root).
func (n *node) delete(key string, h uint64, level int) (*node, bool) {
	if n.coll {
		c, to, found := n.find(key)
		if !found {
			return n, false
		}
		return n.spliced(edit{c: c, to: to}), true
	}
	bit := uint32(1) << chunk(h, level)
	if n.dataMap&bit != 0 {
		c := n.seek(n.dataIndex(bit))
		to := c
		if to.next(n).key != key {
			return n, false
		}
		out := n.spliced(edit{c: c, to: to})
		out.dataMap &^= bit
		return out, true
	}
	if n.nodeMap&bit != 0 {
		i := n.nodeIndex(bit)
		child, removed := n.children[i].delete(key, h, level+1)
		if !removed {
			return n, false
		}
		if !child.isSingleton() {
			return n.withChild(i, child), true
		}
		var only cursor
		c := n.seek(n.dataIndex(bit))
		out := n.spliced(edit{c: c, to: c, put: only.next(child), has: true})
		out.dataMap |= bit
		out.children = slices.Concat(n.children[:i], n.children[i+1:])
		out.nodeMap &^= bit
		return out, true
	}
	return n, false
}

// isSingleton reports whether n holds exactly one entry and no children —
// the one shape a non-root node may not keep.
func (n *node) isSingleton() bool {
	return len(n.children) == 0 && n.entries() == 1
}

func (n *node) rang(fn func(string, []byte) bool) bool {
	for c := (cursor{}); c.more(n); {
		if e := c.next(n); !fn(e.key, e.val) {
			return false
		}
	}
	for _, c := range n.children {
		if !c.rang(fn) {
			return false
		}
	}
	return true
}

// rangCanonical visits entries in canonical order: chunk slots ascending,
// with a slot's inline entry or child visited in slot position (CHAMP keeps
// each slot exclusively data or child, so the interleave is well defined).
// The resulting sequence sorts keys by their hash chunk sequence, which is
// independent of how the trie was built: an entry inlined at level L in one
// map and pushed deeper in another still appears at the same rank, because
// every deeper placement keeps the same level-L chunk. Collision buckets
// hold keys sorted (fresh and set maintain this), closing the one case
// where the hash alone cannot order entries.
func (n *node) rangCanonical(fn func(string, []byte) bool) bool {
	if n.coll {
		return n.rang(fn)
	}
	var c cursor
	child := 0
	for rest := n.dataMap | n.nodeMap; rest != 0; rest &= rest - 1 {
		if bit := rest & -rest; n.dataMap&bit != 0 {
			if e := c.next(n); !fn(e.key, e.val) {
				return false
			}
		} else {
			if !n.children[child].rangCanonical(fn) {
				return false
			}
			child++
		}
	}
	return true
}

// clone copies everything but the hash: the copy is about to differ from
// n. It shares n's blob, reference list and child slice, so the caller
// replaces, never writes into, the ones it changes.
func (n *node) clone() *node {
	return &node{
		dataMap:  n.dataMap,
		nodeMap:  n.nodeMap,
		ents:     n.ents,
		big:      n.big,
		children: n.children,
		coll:     n.coll,
	}
}

// withChild is the path copy below an unchanged entry set: a copy of n
// whose i-th child is child.
func (n *node) withChild(i int, child *node) *node {
	out := n.clone()
	out.children = slices.Clone(n.children)
	out.children[i] = child
	return out
}
