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
// nodes without one (cloneShallow never copies it), every node off that
// path keeps the hash it had, and Hash fills in exactly the missing ones —
// O(nodes rewritten since the last Hash), not O(entries). An old Map value
// (a snapshot, a rollback target) keeps its nodes and so its hashes.
//
// A hash is written once, by Hash, into a node that no other Map value can
// have hashed differently (the hash is a function of the immutable
// contents). Hash is therefore safe for the single writer that owns the map
// and its snapshots, and not for concurrent callers sharing unhashed nodes;
// the one node every map in the process shares, Empty's root, is hashed at
// package init.
//
// The root hash is a function of the contents only because the trie shape
// is: a key is inline at the shallowest node where no other key shares its
// chunk prefix, and every non-root node holds at least two keys in its
// subtree. Set preserves that by construction; Delete restores it by
// hoisting a child left with a single inline entry (or a collision bucket
// left with one key) back into its parent, level by level.
package champ

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"

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
// — is a pure function of the key, so two replicas holding the same
// contents stream them in the same order without any sort pass. The raw
// FNV value is passed through a full-avalanche finalizer so trie placement
// is statistically independent of shard placement (ShardOf uses the raw
// value mod the shard count; without the mix, every key in one shard would
// share its low chunk bits and the per-shard tries would degenerate into
// single-child chains).
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

// fnvOf returns the 64-bit FNV-1a hash of key, the shared deterministic
// base for both shard placement and (after mixing) trie placement.
func fnvOf(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// ShardOf returns the shard index of key in a partition of the key space
// into shards parts (paper §6: partitioned stores). The assignment is
// deterministic across processes and depends only on the key and the shard
// count, so replicas, auditors, and restored checkpoints all agree on
// placement. shards must be >= 1; ShardOf(key, 1) is always 0.
func ShardOf(key string, shards uint32) uint32 {
	if shards <= 1 {
		return 0
	}
	return uint32(fnvOf(key) % uint64(shards))
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

// Get returns the value stored under key.
func (m *Map) Get(key string) ([]byte, bool) {
	return m.root.get(key, hashKey(key), 0)
}

// Has reports whether key is present.
func (m *Map) Has(key string) bool {
	_, ok := m.Get(key)
	return ok
}

// Set returns a new map with key bound to val. The receiver is unchanged.
// The value slice is stored as-is; callers must not mutate it afterwards.
func (m *Map) Set(key string, val []byte) *Map {
	root, added := m.root.set(key, val, hashKey(key), 0)
	size := m.size
	if added {
		size++
	}
	return &Map{root: root, size: size}
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

// RangeSorted calls fn for every entry in ascending key order until fn
// returns false. It walks the trie once, gathering (key, value) references
// into a sort index, then streams entries in order — values are never
// copied and there are no per-key trie lookups, so checkpoint serialization
// over a large store touches each node exactly once (paper §3.4).
func (m *Map) RangeSorted(fn func(key string, val []byte) bool) {
	type entry struct {
		key string
		val []byte
	}
	entries := make([]entry, 0, m.size)
	m.root.rang(func(k string, v []byte) bool {
		entries = append(entries, entry{key: k, val: v})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, e := range entries {
		if !fn(e.key, e.val) {
			return
		}
	}
}

// node is a CHAMP trie node: dataMap marks chunks holding inline entries,
// nodeMap marks chunks holding children. A node with coll set is a
// collision bucket at max depth and uses only the slices. hash is the
// node's Merkle hash once hashed is set; everything else is immutable from
// the moment the node is reachable from a Map.
type node struct {
	dataMap  uint32
	nodeMap  uint32
	keys     []string
	vals     [][]byte
	children []*node
	coll     bool
	hashed   bool
	hash     hashsig.Digest
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
		b = binary.BigEndian.AppendUint32(b, uint32(len(n.keys)))
	} else {
		b = append(b, kindBranch)
		b = binary.BigEndian.AppendUint32(b, n.dataMap)
		b = binary.BigEndian.AppendUint32(b, n.nodeMap)
	}
	for i, k := range n.keys {
		b = binary.BigEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(n.vals[i])))
		b = append(b, n.vals[i]...)
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

func (n *node) get(key string, h uint64, level int) ([]byte, bool) {
	if n.coll {
		for i, k := range n.keys {
			if k == key {
				return n.vals[i], true
			}
		}
		return nil, false
	}
	bit := uint32(1) << chunk(h, level)
	if n.dataMap&bit != 0 {
		i := n.dataIndex(bit)
		if n.keys[i] == key {
			return n.vals[i], true
		}
		return nil, false
	}
	if n.nodeMap&bit != 0 {
		return n.children[n.nodeIndex(bit)].get(key, h, level+1)
	}
	return nil, false
}

// set returns the updated node and whether a new key was added.
func (n *node) set(key string, val []byte, h uint64, level int) (*node, bool) {
	if n.coll {
		for i, k := range n.keys {
			if k == key {
				c := n.cloneShallow()
				c.vals[i] = val
				return c, false
			}
		}
		c := n.cloneShallow()
		i := sort.SearchStrings(c.keys, key)
		c.keys = append(c.keys[:i], append([]string{key}, c.keys[i:]...)...)
		c.vals = append(c.vals[:i], append([][]byte{val}, c.vals[i:]...)...)
		return c, true
	}
	bit := uint32(1) << chunk(h, level)
	switch {
	case n.dataMap&bit != 0:
		i := n.dataIndex(bit)
		if n.keys[i] == key {
			c := n.cloneShallow()
			c.vals[i] = val
			return c, false
		}
		// Two distinct keys share this chunk: push both one level down.
		child := merge(n.keys[i], n.vals[i], hashKey(n.keys[i]), key, val, h, level+1)
		c := n.cloneShallow()
		c.removeData(bit)
		c.insertChild(bit, child)
		return c, true
	case n.nodeMap&bit != 0:
		i := n.nodeIndex(bit)
		child, added := n.children[i].set(key, val, h, level+1)
		c := n.cloneShallow()
		c.children[i] = child
		return c, added
	default:
		c := n.cloneShallow()
		c.insertData(bit, key, val)
		return c, true
	}
}

// merge builds the subtree holding two keys that collide at a chunk.
func merge(k1 string, v1 []byte, h1 uint64, k2 string, v2 []byte, h2 uint64, level int) *node {
	if level >= maxLevel {
		// Collision buckets keep keys sorted so canonical order is defined
		// even where hashes cannot distinguish entries.
		if k2 < k1 {
			k1, k2 = k2, k1
			v1, v2 = v2, v1
		}
		return &node{coll: true, keys: []string{k1, k2}, vals: [][]byte{v1, v2}}
	}
	c1, c2 := chunk(h1, level), chunk(h2, level)
	if c1 == c2 {
		child := merge(k1, v1, h1, k2, v2, h2, level+1)
		return &node{nodeMap: 1 << c1, children: []*node{child}}
	}
	n := &node{}
	if c1 < c2 {
		n.dataMap = 1<<c1 | 1<<c2
		n.keys = []string{k1, k2}
		n.vals = [][]byte{v1, v2}
	} else {
		n.dataMap = 1<<c1 | 1<<c2
		n.keys = []string{k2, k1}
		n.vals = [][]byte{v2, v1}
	}
	return n
}

// delete returns the updated node and whether the key was present. The
// result is in canonical form: a child left with a single entry is replaced
// by that entry inline, and since the caller applies the same rule to what
// it gets back, a chain of single-child nodes collapses all the way up to
// the level where the survivor has a neighbour (or to the root).
func (n *node) delete(key string, h uint64, level int) (*node, bool) {
	if n.coll {
		for i, k := range n.keys {
			if k == key {
				c := n.cloneShallow()
				c.keys = append(append([]string{}, n.keys[:i]...), n.keys[i+1:]...)
				c.vals = append(append([][]byte{}, n.vals[:i]...), n.vals[i+1:]...)
				return c, true
			}
		}
		return n, false
	}
	bit := uint32(1) << chunk(h, level)
	if n.dataMap&bit != 0 {
		i := n.dataIndex(bit)
		if n.keys[i] != key {
			return n, false
		}
		c := n.cloneShallow()
		c.removeData(bit)
		return c, true
	}
	if n.nodeMap&bit != 0 {
		i := n.nodeIndex(bit)
		child, removed := n.children[i].delete(key, h, level+1)
		if !removed {
			return n, false
		}
		c := n.cloneShallow()
		if child.isSingleton() {
			c.removeChild(bit)
			c.insertData(bit, child.keys[0], child.vals[0])
		} else {
			c.children[i] = child
		}
		return c, true
	}
	return n, false
}

// isSingleton reports whether n holds exactly one entry and no children —
// the one shape a non-root node may not keep.
func (n *node) isSingleton() bool {
	return len(n.keys) == 1 && len(n.children) == 0
}

func (n *node) rang(fn func(string, []byte) bool) bool {
	for i, k := range n.keys {
		if !fn(k, n.vals[i]) {
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
// hold keys sorted (merge and set maintain this), closing the one case
// where the hash alone cannot order entries.
func (n *node) rangCanonical(fn func(string, []byte) bool) bool {
	if n.coll {
		for i, k := range n.keys {
			if !fn(k, n.vals[i]) {
				return false
			}
		}
		return true
	}
	for rest := n.dataMap | n.nodeMap; rest != 0; rest &= rest - 1 {
		bit := rest & -rest
		if n.dataMap&bit != 0 {
			i := n.dataIndex(bit)
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		} else if !n.children[n.nodeIndex(bit)].rangCanonical(fn) {
			return false
		}
	}
	return true
}

// cloneShallow copies everything but the hash: the clone is about to
// differ from n.
func (n *node) cloneShallow() *node {
	return &node{
		dataMap:  n.dataMap,
		nodeMap:  n.nodeMap,
		keys:     append([]string(nil), n.keys...),
		vals:     append([][]byte(nil), n.vals...),
		children: append([]*node(nil), n.children...),
		coll:     n.coll,
	}
}

func (n *node) insertData(bit uint32, key string, val []byte) {
	i := bits.OnesCount32(n.dataMap & (bit - 1))
	n.keys = slices.Insert(n.keys, i, key)
	n.vals = slices.Insert(n.vals, i, val)
	n.dataMap |= bit
}

func (n *node) removeData(bit uint32) {
	i := bits.OnesCount32(n.dataMap & (bit - 1))
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.dataMap &^= bit
}

func (n *node) insertChild(bit uint32, child *node) {
	i := bits.OnesCount32(n.nodeMap & (bit - 1))
	n.children = slices.Insert(n.children, i, child)
	n.nodeMap |= bit
}

func (n *node) removeChild(bit uint32) {
	i := bits.OnesCount32(n.nodeMap & (bit - 1))
	n.children = append(n.children[:i], n.children[i+1:]...)
	n.nodeMap &^= bit
}
