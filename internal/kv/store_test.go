package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// The tests named Sharded build their store with NewSharded(1), the
// constructor bench/ calls, so the store it hands out is held to the same
// properties as New's. The store is one trie, the one shard that name
// still counts.

func TestShardedBasic(t *testing.T) {
	s := NewSharded(1)
	tx := s.Begin()
	tx.Put("alice", []byte("100"))
	tx.Put("bob", []byte("50"))
	if v, ok := tx.Get("alice"); !ok || string(v) != "100" {
		t.Fatal("tx does not see own write")
	}
	if _, ok := s.Get("alice"); ok {
		t.Fatal("uncommitted write visible")
	}
	tx.Commit()
	if v, ok := s.Get("alice"); !ok || string(v) != "100" {
		t.Fatal("committed write not visible")
	}
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	tx = s.Begin()
	tx.Delete("alice")
	tx.Commit()
	if _, ok := s.Get("alice"); ok {
		t.Fatal("deleted key visible")
	}
	if s.Len() != 1 {
		t.Fatalf("len %d after delete", s.Len())
	}
}

func TestShardedSnapshotIsolation(t *testing.T) {
	s := NewSharded(1)
	tx := s.Begin()
	tx.Put("k", []byte("v1"))
	tx.Commit()

	// A transaction begun now must not see writes committed after it began.
	reader := s.Begin()
	writer := s.Begin()
	writer.Put("k", []byte("v2"))
	writer.Commit()
	if v, _ := reader.Get("k"); string(v) != "v1" {
		t.Fatalf("snapshot read %q, want v1", v)
	}
	reader.Abort()
	if v, _ := s.Get("k"); string(v) != "v2" {
		t.Fatal("later commit lost")
	}
}

// kvPair is one (key, value) of a store, for comparing contents.
type kvPair struct {
	key string
	val []byte
}

// sortedContents lists s's contents in ascending key order: two stores
// hold the same contents iff their lists are equal.
func sortedContents(s *Store) []kvPair {
	var out []kvPair
	s.ShardSnapshot().Range(func(k string, v []byte) bool {
		out = append(out, kvPair{k, v})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func sameContents(a, b []kvPair) bool {
	return slices.EqualFunc(a, b, func(x, y kvPair) bool { return x.key == y.key && bytes.Equal(x.val, y.val) })
}

// restoreByChunk rebuilds s in a fresh store through SerializeShard and
// InstallShard — the state-transfer path, the one way a store is restored
// from bytes.
func restoreByChunk(t testing.TB, s *Store) *Store {
	t.Helper()
	var chunk bytes.Buffer
	if err := s.SerializeShard(&chunk); err != nil {
		t.Fatal(err)
	}
	out := New()
	if err := out.InstallShard(chunk.Bytes(), s.CheckpointDigest()); err != nil {
		t.Fatal(err)
	}
	return out
}

// scratchDigest is the oracle for the incremental checkpoint digest: d_C of
// a store rebuilt from nothing — a fresh trie, no cached hash anywhere —
// holding s's contents, inserted in key order (not the order, or the
// history, that built s).
func scratchDigest(s *Store) [32]byte {
	fresh := New()
	for _, e := range sortedContents(s) {
		tx := fresh.Begin()
		tx.Put(e.key, e.val)
		tx.Commit()
	}
	return fresh.CheckpointDigest()
}

// applyRandom drives the same pseudo-random workload against every store.
func applyRandom(rng *rand.Rand, ops int, stores ...*Store) {
	for i := 0; i < ops; i++ {
		txs := make([]*Tx, len(stores))
		for j, s := range stores {
			txs[j] = s.Begin()
		}
		for k := 0; k < 1+rng.Intn(4); k++ {
			key := fmt.Sprintf("key-%d", rng.Intn(200))
			if rng.Intn(5) == 0 {
				for _, tx := range txs {
					tx.Delete(key)
				}
			} else {
				val := []byte(fmt.Sprintf("val-%d", rng.Int()))
				for _, tx := range txs {
					tx.Put(key, val)
				}
			}
		}
		for _, tx := range txs {
			tx.Commit()
		}
	}
}

// TestShardedIncrementalDigestMatchesRebuild holds the incremental d_C — old
// node hashes kept, only rewritten paths hashed — to the rebuild oracle
// after every step of a workload with overwrites and deletes, with a
// checkpoint taken at every step so each one starts from a hashed trie,
// and a restored copy of every tenth step to the same digest.
func TestShardedIncrementalDigestMatchesRebuild(t *testing.T) {
	s := NewSharded(1)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 300; step++ {
		applyRandom(rng, 1+rng.Intn(3), s)
		d := s.CheckpointDigest()
		if d != scratchDigest(s) {
			t.Fatalf("step %d: incremental d_C != rebuild from scratch", step)
		}
		if s.CheckpointDigest() != d {
			t.Fatalf("step %d: d_C unstable with no writes", step)
		}
		if step%10 == 0 && restoreByChunk(t, s).CheckpointDigest() != d {
			t.Fatalf("step %d: restored checkpoint digest diverges", step)
		}
	}
}

// TestShardedDigestConcurrentStores digests independent stores from several
// goroutines at once, as in-process replicas do. The stores start from one
// shared trie node — champ's empty root, which every new store points at —
// and under -race this fails if digesting writes to it.
func TestShardedDigestConcurrentStores(t *testing.T) {
	const workers = 8
	digests := make([][32]byte, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSharded(1)
			s.CheckpointDigest() // the shared empty root
			for i := 0; i < 50; i++ {
				tx := s.Begin()
				tx.Put(fmt.Sprintf("key-%d", i%5), []byte{byte(i)})
				tx.Commit()
				digests[g] = s.CheckpointDigest()
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		if digests[g] != digests[0] {
			t.Fatalf("worker %d reached a different d_C for the same contents", g)
		}
	}
}

// TestShardedMarksRollbackRestoresDigestCache: the ledger's rollback mark
// is a clone, and reinstating it restores the digested state: the clone
// keeps the trie head, whose nodes still carry their hashes, while the
// store it was taken from is rewritten.
func TestShardedMarksRollbackRestoresDigestCache(t *testing.T) {
	s := NewSharded(1)
	for i := 0; i < 50; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("k%d", i), []byte("v"))
		tx.Commit()
	}
	d1 := s.CheckpointDigest()
	mark := s.Clone()
	for i := 0; i < 50; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("k%d", i), []byte("other"))
		tx.Commit()
	}
	if s.CheckpointDigest() == d1 {
		t.Fatal("mutated store kept the old digest")
	}
	if got := mark.CheckpointDigest(); got != d1 {
		t.Fatal("the mark lost the checkpoint digest")
	}
	if mark.CheckpointDigest() != scratchDigest(mark) {
		t.Fatal("the mark's digest is inconsistent with its contents")
	}
}

// TestRestoreShardedRejectsCorrupt: restoring a store from a chunk refuses an
// empty chunk and trailing data — even when the chunk's digest is the one
// expected — and a refused chunk changes nothing.
func TestRestoreShardedRejectsCorrupt(t *testing.T) {
	s := NewSharded(1)
	if err := s.InstallShard(nil, s.CheckpointDigest()); err == nil {
		t.Fatal("empty chunk installed")
	}
	tx := s.Begin()
	tx.Put("some-key", []byte("v"))
	tx.Commit()
	var chunk bytes.Buffer
	if err := s.SerializeShard(&chunk); err != nil {
		t.Fatal(err)
	}
	got := NewSharded(1)
	before := got.CheckpointDigest()
	if err := got.InstallShard(append(bytes.Clone(chunk.Bytes()), 0x00), s.CheckpointDigest()); err == nil {
		t.Fatal("trailing data accepted")
	}
	if got.CheckpointDigest() != before {
		t.Fatal("a refused chunk changed the store")
	}
}

// TestShardedSerializeRestore: a store restored from its chunk holds the
// same contents and d_C, and serializes to the same bytes again.
func TestShardedSerializeRestore(t *testing.T) {
	s := NewSharded(1)
	for i := 0; i < 300; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, i%16))
		tx.Commit()
	}
	restored := restoreByChunk(t, s)
	if restored.Len() != s.Len() || restored.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("restored store differs in size or d_C")
	}
	if !sameContents(sortedContents(restored), sortedContents(s)) {
		t.Fatal("restored contents differ")
	}
	var first, again bytes.Buffer
	if err := s.SerializeShard(&first); err != nil {
		t.Fatal(err)
	}
	if err := restored.SerializeShard(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("serialize -> install -> serialize not byte-identical")
	}
}

func TestShardedClone(t *testing.T) {
	s := NewSharded(1)
	tx := s.Begin()
	tx.Put("a", []byte("1"))
	tx.Commit()
	c := s.Clone()
	tx = c.Begin()
	tx.Put("a", []byte("2"))
	tx.Commit()
	if v, _ := s.Get("a"); string(v) != "1" {
		t.Fatal("clone mutation leaked into original")
	}
	if v, _ := c.Get("a"); string(v) != "2" {
		t.Fatal("clone did not take write")
	}
	if s.CheckpointDigest() == c.CheckpointDigest() {
		t.Fatal("diverged clones share a digest")
	}
}

func TestShardedGetReturnsDefensiveCopy(t *testing.T) {
	s := NewSharded(1)
	tx := s.Begin()
	tx.Put("k", []byte("original"))
	tx.Commit()
	before := s.CheckpointDigest()
	v, _ := s.Get("k")
	copy(v, "CLOBBER!")
	if got, _ := s.Get("k"); string(got) != "original" {
		t.Fatal("mutating Get result corrupted the store")
	}
	if scratchDigest(s) != before {
		t.Fatal("mutating Get result changed the digest")
	}
}

// TestQuickShardedMatchesUnsharded: a NewSharded(1) store and a New one
// fed identical random workloads hold identical contents and d_C, the
// incremental d_C equals a rebuild from scratch, and the same contents
// reached by another history (a restore) digest alike.
func TestQuickShardedMatchesUnsharded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flat, sharded := New(), NewSharded(1)
		applyRandom(rng, 40, flat, sharded)
		if sharded.Len() != flat.Len() || !sameContents(sortedContents(sharded), sortedContents(flat)) {
			t.Log("contents diverge")
			return false
		}
		d := sharded.CheckpointDigest()
		if d != flat.CheckpointDigest() || d != scratchDigest(sharded) {
			t.Log("d_C diverges from the other store or from a rebuild from scratch")
			return false
		}
		if restoreByChunk(t, sharded).CheckpointDigest() != d {
			t.Log("restored checkpoint digest diverges")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestShardDigestCrossAudit: an auditor's replayed store and the
// replica's agree on the digest of their one shard, d_C, and a divergence
// in one key shows in it.
func TestShardDigestCrossAudit(t *testing.T) {
	auditor, replica := NewSharded(1), NewSharded(1)
	rng := rand.New(rand.NewSource(7))
	applyRandom(rng, 30, auditor, replica)
	if auditor.CheckpointDigest() != replica.CheckpointDigest() {
		t.Fatal("digest diverges between the two views")
	}
	tx := replica.Begin()
	tx.Put("poisoned", []byte("x"))
	tx.Commit()
	if auditor.CheckpointDigest() == replica.CheckpointDigest() {
		t.Fatal("divergent store not detected")
	}
}

// TestNewShardedBounds: NewSharded is the name bench/ builds its store
// under, with 0 or 1; any other count is a misconfiguration and panics.
func TestNewShardedBounds(t *testing.T) {
	for _, n := range []int{0, 1} {
		if got := NewSharded(n).CheckpointDigest(); got != New().CheckpointDigest() {
			t.Fatalf("NewSharded(%d) is not an empty store", n)
		}
	}
	for _, n := range []int{2, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSharded(%d) did not panic", n)
				}
			}()
			NewSharded(n)
		}()
	}
}
