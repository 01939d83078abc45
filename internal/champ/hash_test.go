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
	t.root, _ = t.root.set(entry{k, v}, t.place(k), t.level)
	return t
}

// setAll writes keys and vals in one pass, as Map.SetAll does.
func (t trie) setAll(keys []string, vals [][]byte) trie {
	ws := puts(keys, vals)
	for i := range ws {
		ws[i].place(t.place(ws[i].key), i)
	}
	t.root, _ = t.root.setAll(sortWrites(ws), t.level)
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

// specHash computes the root hash of a trie holding model from the package
// comment's specification alone — placement, the shape rule, the preimage —
// sharing no code with node: no blob, no cursor, no splice. keys are the
// ones under this node, level its depth.
func specHash(model map[string][]byte, keys []string, level int, place func(string) uint64) hashsig.Digest {
	lp := func(b []byte, x string) []byte {
		b = append(b, byte(len(x)>>24), byte(len(x)>>16), byte(len(x)>>8), byte(len(x)))
		return append(b, x...)
	}
	if level >= maxLevel {
		sort.Strings(keys)
		b := []byte{0x01, byte(len(keys) >> 24), byte(len(keys) >> 16), byte(len(keys) >> 8), byte(len(keys))}
		for _, k := range keys {
			b = lp(lp(b, k), string(model[k]))
		}
		return hashsig.Sum(b)
	}
	var slots [branchSize][]string
	for _, k := range keys {
		c := place(k) >> (level * branchBits) & chunkMask
		slots[c] = append(slots[c], k)
	}
	var dataMap, nodeMap uint32
	var ents, kids []byte
	for c, in := range slots {
		switch {
		case len(in) == 1:
			dataMap |= 1 << c
			ents = lp(lp(ents, in[0]), string(model[in[0]]))
		case len(in) > 1:
			nodeMap |= 1 << c
			h := specHash(model, in, level+1, place)
			kids = append(kids, h[:]...)
		}
	}
	b := []byte{0x00,
		byte(dataMap >> 24), byte(dataMap >> 16), byte(dataMap >> 8), byte(dataMap),
		byte(nodeMap >> 24), byte(nodeMap >> 16), byte(nodeMap >> 8), byte(nodeMap)}
	return hashsig.Sum(append(append(b, ents...), kids...))
}

// sized returns a value that makes key's entry encode to exactly size
// bytes, filled with fill. Sizes around maxInline put the same key in its
// node's blob or behind a reference.
func sized(key string, size int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, size-8-len(key))
}

// straddle is the entry sizes the property tests draw from besides tiny
// ones: the last two that stay in the blob, the first that does not, and
// one well past it.
var straddle = []int{maxInline - 1, maxInline, maxInline + 1, 3 * maxInline}

// bigCount returns how many entries the subtree holds by reference.
func bigCount(n *node) int {
	count := len(n.big)
	for _, c := range n.children {
		count += bigCount(c)
	}
	return count
}

// nodeKeys returns the keys n holds itself, in slot order.
func nodeKeys(n *node) []string {
	var keys []string
	for c := (cursor{}); c.more(n); {
		keys = append(keys, c.next(n).key)
	}
	return keys
}

// sameShape reports whether two subtrees are node-for-node identical, down
// to which entries sit in the blob and which are held by reference.
func sameShape(a, b *node) bool {
	if a.coll != b.coll || a.dataMap != b.dataMap || a.nodeMap != b.nodeMap ||
		!bytes.Equal(a.ents, b.ents) || len(a.big) != len(b.big) || len(a.children) != len(b.children) {
		return false
	}
	for i := range a.big {
		if a.big[i].key != b.big[i].key || !bytes.Equal(a.big[i].val, b.big[i].val) {
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

// hashOp is one step of an operation sequence over a key alphabet. A run of
// puts marked bulk is applied as one setAll.
type hashOp struct {
	del  bool
	bulk bool
	key  string
	val  []byte
}

// checkHistoryIndependent is the oracle shared by the property test and
// the fuzz target. It applies ops to an initially empty trie and after
// every step holds the incrementally maintained root (old hashes kept, the
// rewritten path filled in) to the root and shape of a trie rebuilt from
// scratch. The final root must be the one specHash derives from the
// contents, with exactly the oversized entries held by reference. The
// final contents are then reached four more ways — shuffled
// insertion, insertion with extra keys added and deleted along the way,
// deletion down from a superset, and a rebuild from RangeCanonical's output
// — and each must land on the same root and shape.
func checkHistoryIndependent(t testing.TB, fresh trie, ops []hashOp, extras []string, rng *rand.Rand) {
	t.Helper()
	model := map[string][]byte{}
	cur := fresh
	for i := 0; i < len(ops); i++ {
		switch op := ops[i]; {
		case op.del:
			cur = cur.del(op.key)
			delete(model, op.key)
		case op.bulk:
			var keys []string
			var vals [][]byte
			for ; i < len(ops) && ops[i].bulk && !ops[i].del; i++ {
				keys, vals = append(keys, ops[i].key), append(vals, ops[i].val)
				model[ops[i].key] = ops[i].val
			}
			i--
			cur = cur.setAll(keys, vals)
		default:
			cur = cur.set(op.key, op.val)
			model[op.key] = op.val
		}
		same(t, fmt.Sprintf("step %d", i), cur, fresh.build(model, sortedKeys(model)))
	}
	keys := sortedKeys(model)
	if cur.hash() != specHash(model, sortedKeys(model), fresh.level, fresh.place) {
		t.Fatal("root hash is not the one the package comment specifies")
	}
	want := 0
	for k, v := range model {
		if (entry{k, v}).byRef() {
			want++
		}
	}
	if got := bigCount(cur.root); got != want {
		t.Fatalf("%d entries held by reference, %d are over maxInline", got, want)
	}

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

	vals := make([][]byte, len(shuffled))
	for i, k := range shuffled {
		vals[i] = model[k]
	}
	same(t, "one setAll of shuffled contents", fresh.setAll(shuffled, vals), cur)
}

// randomOps draws n operations over alphabet: mostly fresh inserts and
// overwrites, one in three a delete (of a possibly absent key). One value
// in four has a size from straddle, so keys move between the blob and the
// reference list as they are overwritten.
func randomOps(rng *rand.Rand, alphabet []string, n int) []hashOp {
	ops := make([]hashOp, n)
	for i := range ops {
		op := hashOp{
			del: rng.Intn(3) == 0,
			key: alphabet[rng.Intn(len(alphabet))],
			val: []byte(fmt.Sprintf("v%d", rng.Intn(4))),
		}
		if rng.Intn(4) == 0 {
			op.val = sized(op.key, straddle[rng.Intn(len(straddle))], byte(rng.Intn(2)))
		}
		ops[i] = op
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
// never existed. A survivor held by reference moves up as the reference it
// was: same bytes, not a copy of them.
func TestDeleteHoistsLoneBucketKey(t *testing.T) {
	for _, x := range [][]byte{[]byte("x"), sized("a1", maxInline+1, 'x')} {
		two := bucketTrie().set("a1", x).set("a2", []byte("y"))
		if two.root.nodeMap == 0 || !two.root.children[0].coll {
			t.Fatal("two keys in one slot did not form a collision bucket")
		}
		one := two.del("a2")
		if keys := nodeKeys(one.root); one.root.nodeMap != 0 || len(keys) != 1 || keys[0] != "a1" {
			t.Fatalf("lone bucket key not hoisted: dataMap=%b nodeMap=%b keys=%v", one.root.dataMap, one.root.nodeMap, keys)
		}
		same(t, "bucket shrunk to one key", one, bucketTrie().set("a1", x))
		if len(x) > 1 && &one.root.big[0].val[0] != &two.root.children[0].big[0].val[0] {
			t.Fatal("large survivor was copied on its way up")
		}
	}
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
	// A thousand writes that each rebuild the blob k7 lives in: the old
	// head shares none of the rebuilt ones, so its entries and the hashes
	// computed over them stand.
	for i := 0; i < 1000; i++ {
		next = next.Set("k7", []byte(fmt.Sprint(i)))
		if i%100 == 0 {
			next.Hash()
		}
	}
	if v, _ := m.Get("k7"); string(v) != "v" || m.Hash() != before {
		t.Fatal("old head changed under later writes")
	}
	rebuilt := Empty()
	m.Range(func(k string, v []byte) bool { rebuilt = rebuilt.Set(k, v); return true })
	if rebuilt.Hash() != before {
		t.Fatal("old head's cached hash no longer matches its contents")
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

// putsWithout drops key's puts from a pending SetAll.
func putsWithout(keys []string, vals [][]byte, key string) ([]string, [][]byte) {
	ok, ov := keys[:0], vals[:0]
	for i, k := range keys {
		if k != key {
			ok, ov = append(ok, k), append(ov, vals[i])
		}
	}
	return ok, ov
}

// FuzzHashHistoryIndependent feeds checkHistoryIndependent op sequences
// over a 16-key alphabet, at map level and at bucket level: two bytes per
// op, the second the key, the first choosing delete or set and, for a set,
// one of ten values — two of a single byte, then two fills of each size in
// straddle — so an overwrite can move an entry across maxInline either way.
func FuzzHashHistoryIndependent(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 2, 0, 2, 4})
	f.Add([]byte{0, 1, 0, 5, 0, 9, 2, 5, 2, 9, 1, 1})
	f.Add([]byte{0, 3, 1, 3, 2, 3, 0, 3})
	// a0 over maxInline, far over, at it and over again beside a small a4,
	// then alone; a bucket of two oversized keys that loses one, regains it
	// and loses the other.
	f.Add([]byte{9, 0, 0, 4, 12, 0, 6, 0, 10, 0, 2, 4})
	f.Add([]byte{12, 1, 25, 5, 2, 1, 13, 1, 2, 5})
	// Second bytes with bit 16 set are puts of one setAll: a run that
	// overwrites, pushes an inline key down beside a new one, and holds a
	// key twice; a delete ends it, and an oversized value starts the next.
	f.Add([]byte{0, 0, 0, 4, 0, 20, 1, 16, 0, 24, 1, 20, 2, 0, 12, 17, 0, 21})
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
			op := hashOp{del: data[i]%3 == 2, bulk: data[i+1]&16 != 0, key: keys[data[i+1]%16], val: []byte{data[i] % 3}}
			if v := int(data[i]) / 3 % (1 + len(straddle)); v > 0 {
				op.val = sized(op.key, straddle[v-1], data[i]%3)
			}
			ops = append(ops, op)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkHistoryIndependent(t, mapTrie(), ops, extras, rng)
		checkHistoryIndependent(t, bucketTrie(), ops, extras, rng)
	})
}

// TestHashBesideSet holds the concurrency contract of the package comment:
// one goroutine may Hash a snapshot while another builds successors of it
// with Set, SetAll and Delete. A writer derives snapshots S_1 … S_m from
// S_0, a few hundred writes apart — overwrites, inserts that push entries
// down, deletes that hoist them back; every other step's puts land in one
// SetAll — and hands every fourth to a hasher
// goroutine as soon as it exists, then goes on writing from it; it hashes
// nothing itself. Every root the hasher reads must be the one a map
// rebuilt from that snapshot's contents, alone, gives. Run it under -race:
// a field both sides touch shows up there even when the roots agree.
func TestHashBesideSet(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	model := map[string][]byte{}
	m := Empty()
	for i := 0; i < 2000; i++ {
		k, v := fmt.Sprintf("k%d", i), []byte(fmt.Sprint(i))
		model[k], m = v, m.Set(k, v)
	}
	m.Hash() // S_0 hashed, as a store is after its first checkpoint
	type snap struct {
		m     *Map
		model map[string][]byte
	}
	const steps, every = 40, 4
	queue := make(chan snap)
	// One slot per snapshot: the hasher never waits for the reader, which
	// reads only once it has joined the hasher.
	roots := make(chan hashsig.Digest, steps/every)
	var hasher sync.WaitGroup
	hasher.Add(1)
	go func() {
		defer hasher.Done()
		for s := range queue {
			roots <- s.m.Hash()
		}
		close(roots)
	}()
	var sent []snap
	for step := 1; step <= steps; step++ {
		// Odd steps write key by key; even ones, as a store flushes, delete
		// key by key and put the rest in one SetAll.
		bulk := step%2 == 0
		var keys []string
		var vals [][]byte
		for w := 0; w < 300; w++ {
			k := fmt.Sprintf("k%d", rng.Intn(3000))
			var v []byte
			switch rng.Intn(4) {
			case 0:
				delete(model, k)
				m = m.Delete(k)
				if bulk {
					keys, vals = putsWithout(keys, vals, k)
				}
				continue
			case 1:
				v = sized(k, straddle[rng.Intn(len(straddle))], byte(step))
			default:
				v = []byte(fmt.Sprint(step, w))
			}
			model[k] = v
			if bulk {
				keys, vals = append(keys, k), append(vals, v)
			} else {
				m = m.Set(k, v)
			}
		}
		m = m.SetAll(puts(keys, vals))
		if step%every == 0 {
			s := snap{m: m, model: make(map[string][]byte, len(model))}
			for k, v := range model {
				s.model[k] = v
			}
			sent = append(sent, s)
			queue <- s
		}
	}
	close(queue)
	hasher.Wait()
	i := 0
	for got := range roots {
		rebuilt := Empty()
		for _, k := range sortedKeys(sent[i].model) {
			rebuilt = rebuilt.Set(k, sent[i].model[k])
		}
		if want := rebuilt.Hash(); got != want {
			t.Fatalf("snapshot %d hashed beside later writes: root %v, rebuilt %v", i, got, want)
		}
		i++
	}
	if i != len(sent) {
		t.Fatalf("%d roots for %d snapshots", i, len(sent))
	}
}
