package champ

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
)

// Write is one put of a SetAll. Put builds it from a key and a value; SetAll
// fills in, in place, its placement hash, the hash's chunks with level 0
// most significant — sorting by path puts the writes under every node next
// to each other, in slot order — and its position in the input, so that the
// last of a repeated key wins.
type Write struct {
	entry
	h    uint64
	path uint64
	ord  int
}

// Put is the write that binds key to val.
func Put(key string, val []byte) Write { return Write{entry: entry{key, val}} }

// place fills in w's placement under hash h as write number ord, and takes
// its own copy of a value held by reference (an inline one is copied into
// a blob instead).
func (w *Write) place(h uint64, ord int) {
	if w.byRef() {
		w.val = bytes.Clone(w.val)
	}
	var path uint64
	for level := 0; level < maxLevel; level++ {
		path = path<<branchBits | uint64(chunk(h, level))
	}
	w.h, w.path, w.ord = h, path, ord
}

// sortWrites sorts ws by path, then key (a collision bucket's order), and
// drops every write a later one to the same key overrides.
func sortWrites(ws []Write) []Write {
	slices.SortFunc(ws, func(a, b Write) int {
		if c := cmp.Compare(a.path, b.path); c != 0 {
			return c
		}
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	out := ws[:0]
	for i := range ws {
		if i+1 < len(ws) && ws[i+1].key == ws[i].key {
			continue
		}
		out = append(out, ws[i])
	}
	return out
}

// setAll returns n with ws written and the number of keys that were new.
// ws is sorted (sortWrites) and every write in it shares the chunks above
// level with n. It visits only the slots ws writes, in slot order: a child
// with writes below it recurses, a write to its own key or to an empty slot
// becomes an edit of the blob, and writes that meet an inline entry of
// another key go down into a fresh subtree with it. The blob and the child
// slice are rebuilt once, at their exact size, and only if they change;
// what lies between the written slots is copied as it is.
func (n *node) setAll(ws []Write, level int) (*node, int) {
	if n.coll {
		return n.bucketWith(ws)
	}
	var edits [branchSize]edit
	var kids [branchSize]*node
	ne, nk, added := 0, 0, 0
	out := &node{dataMap: n.dataMap, nodeMap: n.nodeMap}
	kidsChanged := false
	var c cursor // at n's entry number passed
	passed := 0  // n's entries before c
	copied := 0  // n's children already in kids
	for i := 0; i < len(ws); {
		s := chunk(ws[i].h, level)
		j := i + 1
		for j < len(ws) && chunk(ws[j].h, level) == s {
			j++
		}
		run := ws[i:j]
		i = j
		bit := uint32(1) << s
		if n.dataMap&bit != 0 || len(run) == 1 && n.nodeMap&bit == 0 {
			at := n.dataIndex(bit)
			c = c.skip(n, at-passed)
			passed = at
		}
		switch {
		case n.dataMap&bit != 0:
			to := c
			old := to.next(n)
			passed++
			if len(run) == 1 && run[0].key == old.key {
				edits[ne], ne = edit{c: c, to: to, put: run[0].entry, has: true}, ne+1
				c = to
				continue
			}
			// Writes meet an entry of another key (or several keys meet):
			// all of them go one level down.
			edits[ne], ne = edit{c: c, to: to}, ne+1
			c = to
			extra := &Write{entry: old, h: hashKey(old.key)}
			added += len(run)
			for _, w := range run {
				if w.key == old.key {
					extra = nil
					added--
					break
				}
			}
			ci := n.nodeIndex(bit)
			nk += copy(kids[nk:], n.children[copied:ci])
			copied = ci
			kids[nk], nk = fresh(run, extra, level+1), nk+1
			kidsChanged = true
			out.dataMap &^= bit
			out.nodeMap |= bit
		case n.nodeMap&bit != 0:
			ci := n.nodeIndex(bit)
			nk += copy(kids[nk:], n.children[copied:ci])
			copied = ci + 1
			kid, add := n.children[ci].setAll(run, level+1)
			kids[nk], nk = kid, nk+1
			added += add
			kidsChanged = true
		case len(run) == 1:
			edits[ne], ne = edit{c: c, to: c, put: run[0].entry, has: true}, ne+1
			out.dataMap |= bit
			added++
		default:
			ci := n.nodeIndex(bit)
			nk += copy(kids[nk:], n.children[copied:ci])
			copied = ci
			kids[nk], nk = fresh(run, nil, level+1), nk+1
			kidsChanged = true
			out.nodeMap |= bit
			added += len(run)
		}
	}
	out.ents, out.big = n.ents, n.big
	if ne > 0 {
		out.ents, out.big = n.edited(edits[:ne])
	}
	out.children = n.children
	if kidsChanged {
		nk += copy(kids[nk:], n.children[copied:])
		out.children = slices.Clone(kids[:nk])
	}
	return out, added
}

// fresh builds the subtree at level holding ws and, if extra is not nil,
// one more entry of a key ws does not hold: at least two keys, all sharing
// the chunks above level.
func fresh(ws []Write, extra *Write, level int) *node {
	if level >= maxLevel {
		es := make([]entry, 0, len(ws)+1)
		for _, w := range ws {
			if extra != nil && extra.key < w.key {
				es, extra = append(es, extra.entry), nil
			}
			es = append(es, w.entry)
		}
		if extra != nil {
			es = append(es, extra.entry)
		}
		out := &node{coll: true}
		out.ents, out.big = pack(es)
		return out
	}
	var ents [branchSize]entry
	var kids [branchSize]*node
	ne, nk := 0, 0
	out := &node{}
	for s, i := uint32(0), 0; s < branchSize; s++ {
		j := i
		for j < len(ws) && chunk(ws[j].h, level) == s {
			j++
		}
		run := ws[i:j]
		i = j
		var here *Write
		if extra != nil && chunk(extra.h, level) == s {
			here = extra
		}
		switch count := len(run); {
		case here != nil && count == 0:
			ents[ne], ne = here.entry, ne+1
		case here == nil && count == 1:
			ents[ne], ne = run[0].entry, ne+1
		case count > 0:
			kids[nk], nk = fresh(run, here, level+1), nk+1
			out.nodeMap |= 1 << s
			continue
		default:
			continue
		}
		out.dataMap |= 1 << s
	}
	out.ents, out.big = pack(ents[:ne])
	if nk > 0 {
		out.children = slices.Clone(kids[:nk])
	}
	return out
}

// bucketWith returns collision bucket n with ws written, and the number of
// keys that were new: the two key-sorted lists merged, a write replacing
// the entry of its key.
func (n *node) bucketWith(ws []Write) (*node, int) {
	es := make([]entry, 0, len(ws)+n.entries())
	var c cursor
	for _, w := range ws {
		for c.more(n) {
			at := c
			old := at.next(n)
			if old.key > w.key {
				break
			}
			c = at
			if old.key != w.key {
				es = append(es, old)
			}
		}
		es = append(es, w.entry)
	}
	for c.more(n) {
		es = append(es, c.next(n))
	}
	out := &node{coll: true}
	out.ents, out.big = pack(es)
	return out, len(es) - n.entries()
}
