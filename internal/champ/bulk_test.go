package champ

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// canonicalPairs returns m's contents in canonical order.
func canonicalPairs(m *Map) (keys []string, vals [][]byte) {
	m.RangeCanonical(func(k string, v []byte) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	return keys, vals
}

// puts pairs keys with vals as SetAll's writes.
func puts(keys []string, vals [][]byte) []Write {
	ws := make([]Write, len(keys))
	for i := range keys {
		ws[i] = Put(keys[i], vals[i])
	}
	return ws
}

// sameMap fails the test unless got and want agree in Len, canonical
// contents, node shape and root hash.
func sameMap(t *testing.T, what string, got, want *Map) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, successive Sets give %d", what, got.Len(), want.Len())
	}
	gk, gv := canonicalPairs(got)
	wk, wv := canonicalPairs(want)
	for i := range wk {
		if gk[i] != wk[i] || !bytes.Equal(gv[i], wv[i]) {
			t.Fatalf("%s: canonical entry %d is %q, successive Sets give %q", what, i, gk[i], wk[i])
		}
	}
	if !sameShape(got.root, want.root) {
		t.Fatalf("%s: trie shape differs from successive Sets'", what)
	}
	if got.Hash() != want.Hash() {
		t.Fatalf("%s: root hash differs from successive Sets'", what)
	}
}

// TestSetAllMatchesSet holds SetAll to the map successive Sets build, over
// random bases (hashed and not) and write sets that overwrite, add keys
// that push inline entries down, straddle maxInline and, in one case, name
// a key twice. The writes go in shuffled, since the order must not matter;
// the base must come out unchanged.
func TestSetAllMatchesSet(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := Empty()
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(4000))
			base = base.Set(k, []byte(fmt.Sprint(i)))
		}
		if seed%2 == 0 {
			base.Hash()
		}
		baseKeys, baseVals := canonicalPairs(base)
		baseRoot := base.Hash()

		seen := map[string]bool{}
		var keys []string
		var vals [][]byte
		for i, n := 0, 1+rng.Intn(1500); i < n; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(5000))
			if seen[k] {
				continue
			}
			seen[k] = true
			v := []byte(fmt.Sprint("w", i))
			if rng.Intn(5) == 0 {
				v = sized(k, straddle[rng.Intn(len(straddle))], byte(i))
			}
			keys, vals = append(keys, k), append(vals, v)
		}
		want := base
		for i := range keys {
			want = want.Set(keys[i], vals[i])
		}
		rng.Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		got := base.SetAll(puts(keys, vals))
		sameMap(t, fmt.Sprintf("seed %d", seed), got, want)

		// A key named twice is bound to its last value.
		twice := append(append([]string(nil), keys...), keys[0])
		last := append(append([][]byte(nil), vals...), []byte("last"))
		sameMap(t, fmt.Sprintf("seed %d, repeated key", seed), base.SetAll(puts(twice, last)), got.Set(keys[0], []byte("last")))

		// SetAll copied what it was given and wrote nothing of the base.
		for i := range vals {
			clear(vals[i])
		}
		sameMap(t, fmt.Sprintf("seed %d, after scribbling", seed), got, want)
		if k, v := canonicalPairs(base); len(k) != len(baseKeys) || base.Hash() != baseRoot {
			t.Fatalf("seed %d: SetAll changed its receiver", seed)
		} else {
			for i := range k {
				if k[i] != baseKeys[i] || !bytes.Equal(v[i], baseVals[i]) {
					t.Fatalf("seed %d: SetAll changed its receiver's entry %q", seed, k[i])
				}
			}
		}
	}
	if m := Empty().SetAll(nil); m != Empty() {
		t.Fatal("an empty SetAll built a new map")
	}
}

// TestSetAllCollisionBuckets drives SetAll into collision buckets the way
// TestCollisionNodePaths drives Set: one level above the buckets, under a
// placement that spreads keys over four slots, so that every slot two keys
// share becomes a bucket. Writes join buckets, overwrite their keys, push
// an inline key down into a new bucket, and straddle maxInline.
func TestSetAllCollisionBuckets(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := bucketTrie()
		for i := 0; i < rng.Intn(12); i++ {
			k := fmt.Sprintf("%c-key", 'a'+rng.Intn(24))
			base = base.set(k, []byte(fmt.Sprint(i)))
		}
		seen := map[string]bool{}
		var keys []string
		var vals [][]byte
		for i := 0; i < 1+rng.Intn(16); i++ {
			k := fmt.Sprintf("%c-key", 'a'+rng.Intn(24))
			if seen[k] {
				continue
			}
			seen[k] = true
			v := []byte(fmt.Sprint("w", i))
			if rng.Intn(3) == 0 {
				v = sized(k, straddle[rng.Intn(len(straddle))], byte(i))
			}
			keys, vals = append(keys, k), append(vals, v)
		}
		want := base
		for i := range keys {
			want = want.set(keys[i], vals[i])
		}
		rng.Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		same(t, fmt.Sprintf("seed %d", seed), base.setAll(keys, vals), want)
	}
}

// BenchmarkSetAll prices a flush of 256 overwrites into 8 192 keys — the
// audit's checkpoint interval over its key space — in one SetAll, the
// write vector a flush builds included, and as 256 Sets.
func BenchmarkSetAll(b *testing.B) {
	m := benchMap(8192)
	m.Hash()
	keys := make([]string, 256)
	vals := make([][]byte, 256)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("account_%08d", i*31%8192), []byte("0000000200")
	}
	b.Run("SetAll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.SetAll(puts(keys, vals))
		}
	})
	b.Run("Set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := m
			for j := range keys {
				out = out.Set(keys[j], vals[j])
			}
		}
	})
}
