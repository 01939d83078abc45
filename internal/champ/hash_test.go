package champ

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"iaccf/internal/hashsig"
)

// trie drives a subtree the way Map drives its root, but at any level and
// under any placement function. Level maxLevel-1 with a placement that
// spreads keys over a few slots is how these tests reach collision buckets:
// every slot shared by two keys there becomes a bucket, whereas real keys
// agreeing on 60 hash bits cannot be found by search.
type trie struct {
	root  *node
	level int
	place func(string) uint64
}

func mapTrie() trie { return trie{root: &node{}, level: 0, place: hashKey} }

// bucketTrie places a key by its first byte, four slots wide, one level
// above the collision buckets.
func bucketTrie() trie {
	return trie{root: &node{}, level: maxLevel - 1, place: func(k string) uint64 {
		return uint64(k[0]%4) << ((maxLevel - 1) * branchBits)
	}}
}

func (t trie) set(k string, v []byte) trie {
	t.root, _ = t.root.set(k, v, t.place(k), t.level)
	return t
}

func (t trie) del(k string) trie {
	t.root, _ = t.root.delete(k, t.place(k), t.level)
	return t
}

func (t trie) hash() hashsig.Digest { return (&Map{root: t.root}).Hash() }

func (t trie) empty() trie { t.root = &node{}; return t }

// pairs returns the contents in canonical order.
func (t trie) pairs() (keys []string, vals [][]byte) {
	t.root.rangCanonical(func(k string, v []byte) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	return keys, vals
}

// build returns a fresh trie holding model, inserted in the given key order.
func (t trie) build(model map[string][]byte, order []string) trie {
	out := t.empty()
	for _, k := range order {
		out = out.set(k, model[k])
	}
	return out
}

func sortedKeys(model map[string][]byte) []string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sameShape reports whether two subtrees are node-for-node identical.
func sameShape(a, b *node) bool {
	if a.coll != b.coll || a.dataMap != b.dataMap || a.nodeMap != b.nodeMap ||
		len(a.keys) != len(b.keys) || len(a.children) != len(b.children) {
		return false
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || !bytes.Equal(a.vals[i], b.vals[i]) {
			return false
		}
	}
	for i := range a.children {
		if !sameShape(a.children[i], b.children[i]) {
			return false
		}
	}
	return true
}

// same fails the test unless got and want agree in root hash and in shape.
func same(t testing.TB, what string, got, want trie) {
	t.Helper()
	if !sameShape(got.root, want.root) {
		t.Fatalf("%s: trie shape depends on history", what)
	}
	if got.hash() != want.hash() {
		t.Fatalf("%s: root hash depends on history", what)
	}
}

// hashOp is one step of an operation sequence over a key alphabet.
type hashOp struct {
	del bool
	key string
	val []byte
}

// checkHistoryIndependent is the oracle shared by the property test and
// the fuzz target. It applies ops to an initially empty trie and after
// every step holds the incrementally maintained root (old hashes kept, the
// rewritten path filled in) to the root and shape of a trie rebuilt from
// scratch. The final contents are then reached four more ways — shuffled
// insertion, insertion with extra keys added and deleted along the way,
// deletion down from a superset, and a rebuild from RangeCanonical's output
// — and each must land on the same root and shape.
func checkHistoryIndependent(t testing.TB, fresh trie, ops []hashOp, extras []string, rng *rand.Rand) {
	t.Helper()
	model := map[string][]byte{}
	cur := fresh
	for i, op := range ops {
		if op.del {
			cur = cur.del(op.key)
			delete(model, op.key)
		} else {
			cur = cur.set(op.key, op.val)
			model[op.key] = op.val
		}
		same(t, fmt.Sprintf("step %d", i), cur, fresh.build(model, sortedKeys(model)))
	}
	keys := sortedKeys(model)

	shuffled := append([]string(nil), keys...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	same(t, "shuffled insertion", fresh.build(model, shuffled), cur)

	detour := fresh
	for _, k := range shuffled {
		x := extras[rng.Intn(len(extras))]
		if _, live := model[x]; !live {
			detour = detour.set(x, []byte("extra")).set(k, model[k]).del(x)
		} else {
			detour = detour.set(k, model[k])
		}
	}
	same(t, "insert-then-delete detour", detour, cur)

	super := fresh.build(model, keys)
	for _, x := range extras {
		if _, live := model[x]; !live {
			super = super.set(x, []byte("extra"))
		}
	}
	for _, x := range extras {
		if _, live := model[x]; !live {
			super = super.del(x)
		}
	}
	same(t, "deletion from a superset", super, cur)

	ck, cv := cur.pairs()
	canon := fresh
	for i := range ck {
		canon = canon.set(ck[i], cv[i])
	}
	same(t, "rebuild from RangeCanonical", canon, cur)
}

// randomOps draws n operations over alphabet: mostly fresh inserts and
// overwrites, one in three a delete (of a possibly absent key).
func randomOps(rng *rand.Rand, alphabet []string, n int) []hashOp {
	ops := make([]hashOp, n)
	for i := range ops {
		ops[i] = hashOp{
			del: rng.Intn(3) == 0,
			key: alphabet[rng.Intn(len(alphabet))],
			val: []byte(fmt.Sprintf("v%d", rng.Intn(4))),
		}
	}
	return ops
}

func alphabet(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// TestHashHistoryIndependent is the property d_C rests on: the root hash,
// and the node shape it is computed over, are a function of the contents
// alone. The map-level runs use enough keys for three trie levels, so
// deletes collapse chains; the bucket-level runs put 24 keys into four
// slots, so buckets grow, shrink to one key (hoisted back inline) and
// reappear.
func TestHashHistoryIndependent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := alphabet("key-", 300)
		checkHistoryIndependent(t, mapTrie(), randomOps(rng, keys, 500), alphabet("extra-", 200), rng)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// First bytes a..x: six keys per slot under bucketTrie's placement.
		keys := make([]string, 24)
		for i := range keys {
			keys[i] = fmt.Sprintf("%c-key", 'a'+i)
		}
		extras := []string{"A-extra", "B-extra", "C-extra", "D-extra", "E-extra"}
		checkHistoryIndependent(t, bucketTrie(), randomOps(rng, keys, 200), extras, rng)
	}
}

// TestDeleteHoistsLoneBucketKey pins the bucket-shrinks-to-one-key case by
// hand: the survivor must sit inline in the parent, as if its neighbour had
// never existed.
func TestDeleteHoistsLoneBucketKey(t *testing.T) {
	two := bucketTrie().set("a1", []byte("x")).set("a2", []byte("y"))
	if two.root.nodeMap == 0 || !two.root.children[0].coll {
		t.Fatal("two keys in one slot did not form a collision bucket")
	}
	one := two.del("a2")
	if one.root.nodeMap != 0 || len(one.root.keys) != 1 || one.root.keys[0] != "a1" {
		t.Fatalf("lone bucket key not hoisted: dataMap=%b nodeMap=%b keys=%v", one.root.dataMap, one.root.nodeMap, one.root.keys)
	}
	same(t, "bucket shrunk to one key", one, bucketTrie().set("a1", []byte("x")))
}

// TestHashDistinguishesContents is the negative half: one value, one key,
// or one key's owner changed, and the root moves.
func TestHashDistinguishesContents(t *testing.T) {
	for _, fresh := range []trie{mapTrie(), bucketTrie()} {
		model := map[string][]byte{}
		for i := 0; i < 40; i++ {
			model[fmt.Sprintf("%c-key-%d", 'a'+i%8, i)] = []byte{byte(i)}
		}
		keys := sortedKeys(model)
		base := fresh.build(model, keys)
		seen := map[hashsig.Digest]string{base.hash(): "base"}
		note := func(what string, tr trie) {
			t.Helper()
			if prev, dup := seen[tr.hash()]; dup {
				t.Fatalf("%s hashes like %s", what, prev)
			}
			seen[tr.hash()] = what
		}
		for _, k := range keys {
			note("value of "+k+" changed", base.set(k, []byte("other")))
			note(k+" removed", base.del(k))
			note(k+" renamed", base.del(k).set(k+"'", model[k]))
		}
		// Two maps that differ in who holds one key: moving it changes both.
		k := keys[0]
		a, b := base, base.del(k)
		a2, b2 := a.del(k), b.set(k, model[k])
		if a2.hash() == a.hash() || b2.hash() == b.hash() {
			t.Fatal("moving a key between two maps left a root unchanged")
		}
		if a2.hash() != b.hash() || b2.hash() != a.hash() {
			t.Fatal("moving a key did not swap the two roots")
		}
	}
	// An entry's bytes cannot slide between key and value.
	x := Empty().Set("ab", []byte("c"))
	y := Empty().Set("a", []byte("bc"))
	if x.Hash() == y.Hash() {
		t.Fatal("key/value boundary not committed")
	}
}

// TestHashSurvivesOnOldHeads checks laziness: a snapshot hashed before
// later writes still answers from its cache (no node of it was touched),
// and the derived map's root is what a rebuild gives.
func TestHashSurvivesOnOldHeads(t *testing.T) {
	m := Empty()
	for i := 0; i < 500; i++ {
		m = m.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	before := m.Hash()
	next := m.Set("k7", []byte("w")).Delete("k8")
	if next.Hash() == before {
		t.Fatal("write invisible to the root")
	}
	if !m.root.hashed || m.Hash() != before {
		t.Fatal("old head lost its hash")
	}
	if back := next.Set("k7", []byte("v")).Set("k8", []byte("v")); back.Hash() != before {
		t.Fatal("same contents, different root")
	}
	// Only the rewritten paths lost their hashes: every child of the new
	// root that the two writes did not pass through is the old node itself.
	old1 := map[*node]bool{}
	for _, c := range m.root.children {
		old1[c] = true
	}
	fresh := 0
	for _, c := range next.root.children {
		if !old1[c] {
			fresh++
		}
	}
	if fresh > 2 {
		t.Fatalf("%d of %d root children rewritten by two writes", fresh, len(next.root.children))
	}
}

// TestEmptyHashedAtInit: the process-wide empty root must never be written
// after package init, or in-process replicas race on it.
func TestEmptyHashedAtInit(t *testing.T) {
	if !empty.root.hashed {
		t.Fatal("Empty()'s root is not hashed at init")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := Empty()
			if m.Hash() != empty.root.hash {
				t.Error("empty hash unstable")
			}
			for i := 0; i < 200; i++ {
				m = m.Set(fmt.Sprintf("g%d-%d", g, i), []byte("v"))
				m.Hash()
			}
		}(g)
	}
	wg.Wait()
}

// FuzzHashHistoryIndependent feeds checkHistoryIndependent op sequences
// over a 16-key alphabet, at map level and at bucket level: two bytes per
// op, the first choosing set-a / set-b / delete, the second the key.
func FuzzHashHistoryIndependent(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 2, 0, 2, 4})
	f.Add([]byte{0, 1, 0, 5, 0, 9, 2, 5, 2, 9, 1, 1})
	f.Add([]byte{0, 3, 1, 3, 2, 3, 0, 3})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("%c%d", 'a'+i%4, i)
	}
	extras := []string{"a-x", "b-x", "c-x", "e-x"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		ops := make([]hashOp, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			ops = append(ops, hashOp{
				del: data[i]%3 == 2,
				key: keys[data[i+1]%16],
				val: []byte{data[i] % 3},
			})
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkHistoryIndependent(t, mapTrie(), ops, extras, rng)
		checkHistoryIndependent(t, bucketTrie(), ops, extras, rng)
	})
}
