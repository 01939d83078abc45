package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// commitOps commits one transaction of puts (val non-nil) and deletes (val
// nil) in the given order.
func commitOps(s *ShardedStore, ops ...op) {
	tx := s.Begin()
	for _, o := range ops {
		if o.del {
			tx.Delete(o.key)
		} else {
			tx.Put(o.key, o.val)
		}
	}
	tx.Commit()
}

func put(k, v string) op { return op{key: k, val: []byte(v)} }
func del(k string) op    { return op{key: k, del: true} }

// overlayScenario is a history that leaves writes pending: a flushed base
// of 40 keys, then transactions that overwrite, add, delete, put then
// delete and delete then put within one interval. Puts of pending count
// puts reach the overlay: a few take the key-by-key flush, many the SetAll
// one.
func overlayScenario(shards, pending int) *ShardedStore {
	s := NewSharded(shards)
	for i := 0; i < 40; i++ {
		commitOps(s, put(fmt.Sprint("base", i), fmt.Sprint("b", i)))
	}
	s.Mark(1)
	for i := 0; i < pending; i++ {
		commitOps(s, put(fmt.Sprint("base", i*3%40), fmt.Sprint("over", i)), put(fmt.Sprint("new", i), "n"))
	}
	commitOps(s, put("gone", "x"))
	commitOps(s, del("gone"))                     // put then delete, across transactions
	commitOps(s, del("base7"), put("base7", "7")) // delete then put, in one
	commitOps(s, del("base8"))
	commitOps(s, put("base8", "8")) // delete then put, across transactions
	commitOps(s, del("base9"))
	return s
}

// overlayModel is overlayScenario's contents, from a plain map.
func overlayModel(pending int) map[string]string {
	m := map[string]string{}
	for i := 0; i < 40; i++ {
		m[fmt.Sprint("base", i)] = fmt.Sprint("b", i)
	}
	for i := 0; i < pending; i++ {
		m[fmt.Sprint("base", i*3%40)] = fmt.Sprint("over", i)
		m[fmt.Sprint("new", i)] = "n"
	}
	m["base7"], m["base8"] = "7", "8"
	delete(m, "base9")
	return m
}

// modelStore builds a store holding model, one flushed transaction per key
// in sorted order: a history that shares nothing with overlayScenario's.
func modelStore(shards int, model map[string]string) *ShardedStore {
	s := NewSharded(shards)
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		commitOps(s, put(k, model[k]))
		s.flush()
	}
	return s
}

// TestOverlay covers the store's pending writes: every way to read the
// store, taken as the first call after writes are left pending (so each
// lands the overlay itself), must agree with a store that held the same
// contents in its tries all along.
func TestOverlay(t *testing.T) {
	reads := []struct {
		name string
		read func(t *testing.T, s *ShardedStore) any
	}{
		{"Get", func(t *testing.T, s *ShardedStore) any {
			var out []string
			for _, k := range []string{"base0", "base7", "base8", "base9", "gone", "new0", "new5", "absent"} {
				v, ok := s.Get(k)
				out = append(out, fmt.Sprint(k, ok, string(v)))
			}
			return out
		}},
		{"Tx.Get", func(t *testing.T, s *ShardedStore) any {
			tx := s.Begin()
			defer tx.Abort()
			var out []string
			for _, k := range []string{"base0", "base7", "base8", "base9", "gone", "new0", "new5", "absent"} {
				v, ok := tx.Get(k)
				out = append(out, fmt.Sprint(k, ok, string(v)))
			}
			return out
		}},
		{"Len", func(t *testing.T, s *ShardedStore) any { return s.Len() }},
		{"CheckpointDigest", func(t *testing.T, s *ShardedStore) any { return s.CheckpointDigest() }},
		{"ShardDigests", func(t *testing.T, s *ShardedStore) any { return s.ShardDigests() }},
		{"ShardDigest", func(t *testing.T, s *ShardedStore) any {
			return s.ShardDigest(int(s.ShardCount()) - 1)
		}},
		{"ShardSnapshot", func(t *testing.T, s *ShardedStore) any {
			var out []hashsig.Digest
			for i := 0; i < int(s.ShardCount()); i++ {
				out = append(out, s.ShardSnapshot(i).Hash())
			}
			return out
		}},
		{"Clone", func(t *testing.T, s *ShardedStore) any {
			c := s.Clone()
			commitOps(s, put("after-clone", "x")) // the clone must not see it
			return c.CheckpointDigest()
		}},
		{"SerializeShard", func(t *testing.T, s *ShardedStore) any {
			var out [][]byte
			for i := 0; i < int(s.ShardCount()); i++ {
				var b bytes.Buffer
				if err := s.SerializeShard(i, &b); err != nil {
					t.Fatal(err)
				}
				out = append(out, b.Bytes())
			}
			return out
		}},
		{"Mark", func(t *testing.T, s *ShardedStore) any {
			s.Mark(2)
			commitOps(s, put("after-mark", "x"))
			if err := s.RollbackTo(2); err != nil {
				t.Fatal(err)
			}
			return s.CheckpointDigest()
		}},
	}
	for _, shards := range []int{1, 4} {
		for _, pending := range []int{2, 200} {
			model := overlayModel(pending)
			for _, r := range reads {
				t.Run(fmt.Sprintf("shards=%d/pending=%d/%s", shards, pending, r.name), func(t *testing.T) {
					s := overlayScenario(shards, pending)
					if len(s.pending.ops) == 0 {
						t.Fatal("scenario left nothing pending")
					}
					got := r.read(t, s)
					want := r.read(t, modelStore(shards, model))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("with writes pending:\n got %v\nwant %v", got, want)
					}
				})
			}
		}
	}
}

// TestOverlayInstallShard: installing one shard's certified contents over
// a store whose pending writes span every shard replaces that shard and
// keeps the other shards' pending writes.
func TestOverlayInstallShard(t *testing.T) {
	for _, pending := range []int{2, 200} {
		s := overlayScenario(4, pending)
		ref := modelStore(4, overlayModel(pending))
		var chunk bytes.Buffer
		if err := ref.SerializeShard(0, &chunk); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallShard(0, chunk.Bytes(), ref.ShardDigest(0)); err != nil {
			t.Fatal(err)
		}
		if s.CheckpointDigest() != ref.CheckpointDigest() {
			t.Fatalf("pending=%d: InstallShard lost pending writes to the other shards", pending)
		}
	}
}

// TestOverlayRollbackDropsPending: RollbackTo restores the mark's tries and
// drops the overlay, whose writes all came after it; a failed rollback
// keeps both.
func TestOverlayRollbackDropsPending(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := overlayScenario(shards, 200)
		if err := s.RollbackTo(99); err == nil {
			t.Fatal("rollback to an unknown mark succeeded")
		}
		if _, ok := s.Get("new0"); !ok {
			t.Fatal("a failed rollback dropped pending writes")
		}
		if err := s.RollbackTo(1); err != nil {
			t.Fatal(err)
		}
		base := map[string]string{}
		for i := 0; i < 40; i++ {
			base[fmt.Sprint("base", i)] = fmt.Sprint("b", i)
		}
		if _, ok := s.Get("new0"); ok {
			t.Fatal("rollback kept a pending write")
		}
		if v, _ := s.Get("base9"); string(v) != "b9" {
			t.Fatal("rollback kept a pending delete")
		}
		if s.CheckpointDigest() != modelStore(shards, base).CheckpointDigest() {
			t.Fatal("rollback did not restore the mark's digest")
		}
	}
}

// TestOverlaySnapshotAcrossFlush: a transaction reads the store as of its
// Begin — shard heads and overlay — through a flush and a later commit into
// the next overlay, and its commit still lands on the current state.
func TestOverlaySnapshotAcrossFlush(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := NewSharded(shards)
		commitOps(s, put("k", "v1"), put("j", "j1"))
		s.Mark(1)
		commitOps(s, put("k", "v2")) // pending
		reader := s.Begin()
		commitOps(s, put("k", "v3"), del("j")) // copies the overlay reader holds
		s.CheckpointDigest()                   // flush
		commitOps(s, put("k", "v4"))           // into the next overlay
		if v, _ := reader.Get("k"); string(v) != "v2" {
			t.Fatalf("shards=%d: reader saw %q, want its snapshot's v2", shards, v)
		}
		if v, _ := reader.Get("j"); string(v) != "j1" {
			t.Fatalf("shards=%d: reader saw a later delete", shards)
		}
		reader.Put("r", []byte("r"))
		reader.Commit()
		for k, want := range map[string]string{"k": "v4", "r": "r"} {
			if v, _ := s.Get(k); string(v) != want {
				t.Fatalf("shards=%d: %s is %q, want %q", shards, k, v, want)
			}
		}
		if _, ok := s.Get("j"); ok {
			t.Fatalf("shards=%d: delete lost", shards)
		}
	}
}

// TestOverlayAbandonedTx: a transaction nobody finishes (an App that
// panicked) makes the next commit copy the overlay it captured, once;
// every later commit writes in place again.
func TestOverlayAbandonedTx(t *testing.T) {
	s := NewSharded(1)
	commitOps(s, put("a", "1"))
	abandoned := s.Begin()
	abandoned.Put("a", []byte("x"))
	commitOps(s, put("b", "2")) // copies: abandoned still holds the overlay
	gen := s.gen
	for i := 0; i < 10; i++ {
		commitOps(s, put(fmt.Sprint("c", i), "3"))
	}
	if s.gen != gen {
		t.Fatalf("%d more overlay copies after the first", s.gen-gen)
	}
	if v, _ := abandoned.Get("a"); string(v) != "x" {
		t.Fatal("abandoned transaction lost its own write")
	}
	if _, ok := abandoned.Get("b"); ok {
		t.Fatal("abandoned transaction sees a later commit")
	}
}

// TestTxLargeMatchesMap: a transaction of KVApp's cap, 65 536 distinct
// puts, then overwrites and deletes of some of them (and deletes of keys
// it never put), must read, digest and commit as a map-based reference
// kept here says.
func TestTxLargeMatchesMap(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(48))
	s := NewSharded(4)
	commitOps(s, put("k17", "before"), put("outside", "o"))
	ref := map[string][]byte{} // nil: deleted
	tx := s.Begin()
	for i := 0; i < n; i++ {
		k, v := fmt.Sprint("k", i), []byte(fmt.Sprint("v", i))
		tx.Put(k, v)
		ref[k] = v
	}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprint("k", rng.Intn(n+100))
		if rng.Intn(2) == 0 {
			tx.Delete(k)
			ref[k] = nil
		} else {
			v := []byte(fmt.Sprint("w", i))
			tx.Put(k, v)
			ref[k] = v
		}
	}
	for _, k := range []string{"k0", "k17", fmt.Sprint("k", n-1), fmt.Sprint("k", n+50), "outside"} {
		want, touched := ref[k]
		if !touched && k == "outside" {
			want = []byte("o")
		}
		got, ok := tx.Get(k)
		if ok != (want != nil) || !bytes.Equal(got, want) {
			t.Fatalf("Tx.Get(%q) = %q, reference %q", k, got, want)
		}
	}
	// The reference digest, written from WriteSet.Digest's specification.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var pre []byte
	for _, k := range keys {
		pre = wire.AppendString(pre, k)
		if ref[k] == nil {
			pre = append(pre, 0x00)
		} else {
			pre = wire.AppendBytes(append(pre, 0x01), ref[k])
		}
	}
	if tx.WriteSetDigest() != hashsig.Sum(pre) {
		t.Fatal("write-set digest differs from the reference")
	}
	if tx.Commit().Digest() != hashsig.Sum(pre) {
		t.Fatal("committed write set's digest differs from the reference")
	}
	model := map[string]string{"outside": "o"}
	for k, v := range ref {
		if v != nil {
			model[k] = string(v)
		}
	}
	if s.CheckpointDigest() != modelStore(4, model).CheckpointDigest() {
		t.Fatal("store after the large commit differs from the reference")
	}
}
