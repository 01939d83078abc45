package champ

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// canonicalKeys returns the canonical iteration order of m's keys.
func canonicalKeys(m *Map) []string {
	keys := make([]string, 0, m.Len())
	m.RangeCanonical(func(k string, _ []byte) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// chunkLess is the specification of canonical order: lexicographic on the
// hash chunk sequence, ties (full 64-bit collisions) broken by key. The
// iterator must produce exactly this order without ever computing it.
func chunkLess(a, b string) bool {
	ha, hb := hashKey(a), hashKey(b)
	for level := 0; level <= maxLevel; level++ {
		ca, cb := chunk(ha, level), chunk(hb, level)
		if ca != cb {
			return ca < cb
		}
	}
	return a < b
}

func TestRangeCanonicalEmpty(t *testing.T) {
	Empty().RangeCanonical(func(string, []byte) bool {
		t.Fatal("callback on empty map")
		return true
	})
}

func TestRangeCanonicalSingle(t *testing.T) {
	m := Empty().Set("only", []byte("v"))
	got := canonicalKeys(m)
	if len(got) != 1 || got[0] != "only" {
		t.Fatalf("single-key canonical order = %v", got)
	}
}

func TestRangeCanonicalMatchesSpec(t *testing.T) {
	m := Empty()
	want := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("account_%08d", i)
		m = m.Set(k, []byte{byte(i)})
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return chunkLess(want[i], want[j]) })
	got := canonicalKeys(m)
	if len(got) != len(want) {
		t.Fatalf("canonical visited %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestRangeCanonicalEarlyStop(t *testing.T) {
	m := Empty()
	for i := 0; i < 100; i++ {
		m = m.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	n := 0
	m.RangeCanonical(func(string, []byte) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestRangeCanonicalHistoryIndependent is the property the checkpoint paths
// rely on: two maps holding identical contents stream identically, no matter
// the insertion order or any insert/delete detours taken along the way.
func TestRangeCanonicalHistoryIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		keys := make([]string, n)
		a := Empty()
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d-%d", rng.Intn(1000), i)
			a = a.Set(keys[i], []byte{byte(i)})
		}
		// Build b with the same final contents through a scrambled insertion
		// order, plus inserted-then-deleted extras along the way.
		perm := rng.Perm(n)
		b := Empty()
		for _, i := range perm {
			if rng.Intn(3) == 0 {
				extra := fmt.Sprintf("extra-%d", rng.Int())
				b = b.Set(extra, []byte("x"))
				b = b.Delete(extra)
			}
			b = b.Set(keys[i], []byte{byte(i)})
		}
		ka, kb := canonicalKeys(a), canonicalKeys(b)
		if len(ka) != len(kb) || len(ka) != n {
			return false
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeCanonicalCollisions drives the collision-bucket branch directly
// at max depth (all keys share hash 0) and checks keys stream sorted no
// matter the order they arrived in.
func TestRangeCanonicalCollisions(t *testing.T) {
	n := fresh([]Write{{entry: entry{"delta", []byte("4")}}}, &Write{entry: entry{"bravo", []byte("2")}}, maxLevel)
	if !n.coll {
		t.Fatal("expected collision node at max level")
	}
	for _, k := range []string{"echo", "alpha", "charlie"} {
		n, _ = n.set(entry{k, []byte(k)}, 0, maxLevel)
	}
	if !sort.StringsAreSorted(nodeKeys(n)) {
		t.Fatalf("collision bucket not sorted: %v", nodeKeys(n))
	}
	var got []string
	n.rangCanonical(func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	if len(got) != len(want) {
		t.Fatalf("collision canonical visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collision order %v, want %v", got, want)
		}
	}
	// Delete keeps the remaining bucket sorted; overwrite keeps position.
	n, removed := n.delete("charlie", 0, maxLevel)
	if !removed || !sort.StringsAreSorted(nodeKeys(n)) {
		t.Fatalf("bucket after delete: %v", nodeKeys(n))
	}
	n, added := n.set(entry{"bravo", []byte("new")}, 0, maxLevel)
	if added || !sort.StringsAreSorted(nodeKeys(n)) {
		t.Fatalf("bucket after overwrite: %v (added=%v)", nodeKeys(n), added)
	}
	// Early stop inside a bucket.
	count := 0
	n.rangCanonical(func(string, []byte) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop in bucket visited %d", count)
	}
}

// BenchmarkRangeCanonical measures the streaming iterator on the
// checkpoint-serialization shape.
func BenchmarkRangeCanonical(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		m := Empty()
		for i := 0; i < n; i++ {
			m = m.Set(fmt.Sprintf("account_%08d", i), []byte("0000000100"))
		}
		b.Run(fmt.Sprintf("canonical/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.RangeCanonical(func(string, []byte) bool { return true })
			}
		})
	}
}
