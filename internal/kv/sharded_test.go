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

	"iaccf/internal/champ"
)

func TestShardedBasic(t *testing.T) {
	s := NewSharded(8)
	if s.ShardCount() != 8 {
		t.Fatalf("shard count %d", s.ShardCount())
	}
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
	s := NewSharded(4)
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

// sortedContents lists s's contents in ascending key order, whatever its
// partition: two stores hold the same contents iff their lists are equal.
func sortedContents(s *ShardedStore) []kvPair {
	var out []kvPair
	for i := 0; i < int(s.ShardCount()); i++ {
		s.ShardSnapshot(i).Range(func(k string, v []byte) bool {
			out = append(out, kvPair{k, v})
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func sameContents(a, b []kvPair) bool {
	return slices.EqualFunc(a, b, func(x, y kvPair) bool { return x.key == y.key && bytes.Equal(x.val, y.val) })
}

// restoreByChunks rebuilds s in a fresh store of the same partition, shard
// by shard through SerializeShard and InstallShard — the state-transfer
// path, the one way a store is restored from bytes.
func restoreByChunks(t testing.TB, s *ShardedStore) *ShardedStore {
	t.Helper()
	out := NewSharded(int(s.ShardCount()))
	for i := 0; i < int(s.ShardCount()); i++ {
		var chunk bytes.Buffer
		if err := s.SerializeShard(i, &chunk); err != nil {
			t.Fatal(err)
		}
		if err := out.InstallShard(i, chunk.Bytes(), s.ShardDigest(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// scratchDigest is the oracle for the incremental checkpoint digest: d_C of
// a store rebuilt from nothing — fresh tries, no cached hash anywhere —
// holding s's contents, inserted in flat key order (not the order, or the
// history, that built s).
func scratchDigest(s *ShardedStore) [32]byte {
	fresh := NewSharded(int(s.ShardCount()))
	for _, e := range sortedContents(s) {
		tx := fresh.Begin()
		tx.Put(e.key, e.val)
		tx.Commit()
	}
	return fresh.CheckpointDigest()
}

// applyRandom drives the same pseudo-random workload against every store.
func applyRandom(rng *rand.Rand, ops int, stores ...*ShardedStore) {
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

// Partition independence: a one-shard store and N-shard stores fed
// identical random workloads hold identical contents, and the incremental
// checkpoint digest always equals a from-scratch recomputation.
func TestQuickShardedMatchesUnsharded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flat := NewSharded(1)
		counts := []int{1, 2, 7, 16}
		sharded := make([]*ShardedStore, len(counts))
		stores := []*ShardedStore{flat}
		for i, n := range counts {
			sharded[i] = NewSharded(n)
			stores = append(stores, sharded[i])
		}
		applyRandom(rng, 40, stores...)

		want := sortedContents(flat)
		for i, s := range sharded {
			if s.Len() != flat.Len() {
				t.Logf("shards=%d: len %d != %d", counts[i], s.Len(), flat.Len())
				return false
			}
			if !sameContents(sortedContents(s), want) {
				t.Logf("shards=%d: contents diverge from the unsharded store", counts[i])
				return false
			}
			// Incremental == rebuilt from scratch.
			if s.CheckpointDigest() != scratchDigest(s) {
				t.Logf("shards=%d: incremental checkpoint digest != rebuild from scratch", counts[i])
				return false
			}
			// Identical state reached by a different history (restore) gives
			// an identical checkpoint digest.
			if restoreByChunks(t, s).CheckpointDigest() != s.CheckpointDigest() {
				t.Logf("shards=%d: restored checkpoint digest diverges", counts[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedCheckpointDigestBindsShardCount(t *testing.T) {
	a, b := NewSharded(4), NewSharded(8)
	for _, s := range []*ShardedStore{a, b} {
		tx := s.Begin()
		tx.Put("k", []byte("v"))
		tx.Commit()
	}
	if !sameContents(sortedContents(a), sortedContents(b)) {
		t.Fatal("equal contents must not depend on shard count")
	}
	if a.CheckpointDigest() == b.CheckpointDigest() {
		t.Fatal("checkpoint digest must commit to the shard count")
	}
}

// TestShardedIncrementalDigestMatchesRebuild holds the incremental d_C —
// old node hashes kept, only rewritten paths hashed — to the rebuild oracle
// after every step of a workload with overwrites and deletes, with a
// checkpoint taken at every step so each one starts from a hashed trie.
func TestShardedIncrementalDigestMatchesRebuild(t *testing.T) {
	for _, shards := range []int{1, 16} {
		s := NewSharded(shards)
		rng := rand.New(rand.NewSource(int64(shards)))
		for step := 0; step < 150; step++ {
			applyRandom(rng, 1+rng.Intn(3), s)
			d := s.CheckpointDigest()
			if d != scratchDigest(s) {
				t.Fatalf("shards=%d step %d: incremental d_C != rebuild from scratch", shards, step)
			}
			if s.CheckpointDigest() != d {
				t.Fatalf("shards=%d step %d: d_C unstable with no writes", shards, step)
			}
		}
	}
}

// TestShardedDigestConcurrentStores digests independent stores from
// several goroutines at once, as in-process replicas do. The stores share
// exactly one trie node — champ's empty root, which every untouched shard
// of every store points at — and under -race this fails if digesting
// writes to it.
func TestShardedDigestConcurrentStores(t *testing.T) {
	const workers = 8
	digests := make([][32]byte, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSharded(16)
			s.CheckpointDigest() // all sixteen shards still empty
			for i := 0; i < 50; i++ {
				tx := s.Begin()
				tx.Put(fmt.Sprintf("key-%d", i%5), []byte{byte(i)}) // most shards stay empty
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

func TestShardedMarksRollbackRestoresDigestCache(t *testing.T) {
	s := NewSharded(8)
	for i := 0; i < 50; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("k%d", i), []byte("v"))
		tx.Commit()
	}
	d1 := s.CheckpointDigest()
	s.Mark(10)
	for i := 0; i < 50; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("k%d", i), []byte("other"))
		tx.Commit()
	}
	if s.CheckpointDigest() == d1 {
		t.Fatal("mutated store kept the old digest")
	}
	if err := s.RollbackTo(10); err != nil {
		t.Fatal(err)
	}
	if got := s.CheckpointDigest(); got != d1 {
		t.Fatal("rollback did not restore the checkpoint digest")
	}
	if s.CheckpointDigest() != scratchDigest(s) {
		t.Fatal("post-rollback digest inconsistent with contents")
	}
	if err := s.RollbackTo(10); err == nil {
		t.Fatal("consumed mark usable")
	}
}

// Rollback across checkpoint boundaries interacting with PruneMarks: marks
// before the prune point die, later marks stay usable, and the digest cache
// survives the round trip (satellite of the sharded-execution issue).
func TestShardedRollbackAcrossCheckpointsWithPrune(t *testing.T) {
	s := NewSharded(4)
	digests := map[uint64][32]byte{}
	for seq := uint64(1); seq <= 6; seq++ {
		s.Mark(seq)
		tx := s.Begin()
		tx.Put(fmt.Sprintf("batch-%d", seq), []byte("x"))
		tx.Commit()
		if seq%2 == 0 { // checkpoint boundary every 2 batches
			digests[seq] = s.CheckpointDigest()
		}
	}
	s.PruneMarks(3)
	if err := s.RollbackTo(2); err == nil {
		t.Fatal("pruned mark usable")
	}
	if err := s.RollbackTo(5); err != nil {
		t.Fatal(err)
	}
	// State is now "just before batch 5", i.e. right after the seq-4
	// checkpoint: recomputing must reproduce that checkpoint's digest.
	if got := s.CheckpointDigest(); got != digests[4] {
		t.Fatal("rollback across checkpoint boundary lost the checkpointed state")
	}
	if err := s.RollbackTo(3); err != nil {
		t.Fatal(err)
	}
	if got, want := s.CheckpointDigest(), scratchDigest(s); got != want {
		t.Fatal("digest inconsistent with contents after prune+rollback")
	}
}

func TestShardedSerializeRestore(t *testing.T) {
	s := NewSharded(8)
	for i := 0; i < 300; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, i%16))
		tx.Commit()
	}
	restored := restoreByChunks(t, s)
	if restored.Len() != s.Len() || restored.ShardCount() != s.ShardCount() {
		t.Fatal("restored shape differs")
	}
	if restored.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("restored checkpoint digest differs")
	}
	if !sameContents(sortedContents(restored), sortedContents(s)) {
		t.Fatal("restored contents differ")
	}
	// Round trip is canonical, shard by shard.
	for i := 0; i < int(s.ShardCount()); i++ {
		var first, again bytes.Buffer
		if err := s.SerializeShard(i, &first); err != nil {
			t.Fatal(err)
		}
		if err := restored.SerializeShard(i, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("shard %d: serialize -> install -> serialize not byte-identical", i)
		}
	}
}

// TestRestoreShardedRejectsCorrupt: restoring a sharded store chunk by
// chunk refuses an empty chunk, trailing data, and a key smuggled into a
// shard it does not hash to — even when the chunk's digest is the one
// expected — and a refused chunk changes nothing.
func TestRestoreShardedRejectsCorrupt(t *testing.T) {
	s := NewSharded(2)
	empty := s.ShardDigest(0)
	if err := s.InstallShard(0, nil, empty); err == nil {
		t.Fatal("empty chunk installed")
	}
	tx := s.Begin()
	tx.Put("some-key", []byte("v"))
	tx.Commit()
	home := int(champ.ShardOf("some-key", 2))
	var chunk bytes.Buffer
	if err := s.SerializeShard(home, &chunk); err != nil {
		t.Fatal(err)
	}
	got := NewSharded(2)
	before := got.CheckpointDigest()
	if err := got.InstallShard(home, append(bytes.Clone(chunk.Bytes()), 0x00), s.ShardDigest(home)); err == nil {
		t.Fatal("trailing data accepted")
	}
	// The same well-formed chunk, with its own digest, offered for the
	// other shard: the key does not belong there.
	if err := got.InstallShard(1-home, chunk.Bytes(), s.ShardDigest(home)); err == nil {
		t.Fatal("key smuggled into the wrong shard accepted")
	}
	if got.CheckpointDigest() != before {
		t.Fatal("a refused chunk changed the store")
	}
}

func TestShardedClone(t *testing.T) {
	s := NewSharded(4)
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
	s := NewSharded(4)
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

func TestNewShardedBounds(t *testing.T) {
	if got := NewSharded(0).ShardCount(); got != 1 {
		t.Fatalf("NewSharded(0) has %d shards", got)
	}
	if got := NewSharded(-3).ShardCount(); got != 1 {
		t.Fatalf("NewSharded(-3) has %d shards", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized shard count did not panic")
		}
	}()
	NewSharded(MaxShards + 1)
}

// Shard-level cross-auditing: an auditor's replayed store and the replica's
// agree shard digest by shard digest, and a divergence is localized to the
// shard that caused it.
func TestShardDigestCrossAudit(t *testing.T) {
	flat := NewSharded(8)
	sharded := NewSharded(8)
	rng := rand.New(rand.NewSource(7))
	applyRandom(rng, 30, flat, sharded)
	for i := 0; i < 8; i++ {
		if flat.ShardDigest(i) != sharded.ShardDigest(i) {
			t.Fatalf("shard %d digest diverges between the two views", i)
		}
	}
	// Diverge one key; exactly its owning shard's digest must differ.
	tx := sharded.Begin()
	tx.Put("poisoned", []byte("x"))
	tx.Commit()
	bad := int(ShardOfKey("poisoned", 8))
	for i := 0; i < 8; i++ {
		same := flat.ShardDigest(i) == sharded.ShardDigest(i)
		if i == bad && same {
			t.Fatal("divergent shard not detected")
		}
		if i != bad && !same {
			t.Fatalf("clean shard %d flagged as divergent", i)
		}
	}
}
