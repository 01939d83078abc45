package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicTx(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Put("alice", []byte("100"))
	tx.Put("bob", []byte("50"))
	if v, ok := tx.Get("alice"); !ok || string(v) != "100" {
		t.Fatal("tx does not see own write")
	}
	if _, ok := s.Get("alice"); ok {
		t.Fatal("uncommitted write visible in store")
	}
	tx.Commit()
	if v, ok := s.Get("alice"); !ok || string(v) != "100" {
		t.Fatal("committed write not visible")
	}
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestAbort(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Put("k", []byte("v"))
	tx.Abort()
	if _, ok := s.Get("k"); ok {
		t.Fatal("aborted write visible")
	}
}

func TestTxDeleteSemantics(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Put("k", []byte("v"))
	tx.Commit()

	tx = s.Begin()
	tx.Delete("k")
	if _, ok := tx.Get("k"); ok {
		t.Fatal("tx sees key it deleted")
	}
	tx.Put("k", []byte("v2"))
	if v, ok := tx.Get("k"); !ok || string(v) != "v2" {
		t.Fatal("put after delete not visible")
	}
	tx.Delete("k")
	tx.Commit()
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key visible after commit")
	}
}

func TestTxFinishedPanics(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("double finish did not panic")
		}
	}()
	tx.Abort()
}

func TestWriteSetDigestDeterministic(t *testing.T) {
	s := New()
	tx1 := s.Begin()
	tx1.Put("b", []byte("2"))
	tx1.Put("a", []byte("1"))
	tx1.Delete("c")

	tx2 := s.Begin()
	tx2.Delete("c")
	tx2.Put("a", []byte("1"))
	tx2.Put("b", []byte("2"))

	if tx1.WriteSetDigest() != tx2.WriteSetDigest() {
		t.Fatal("write-set digest depends on operation order")
	}

	tx3 := s.Begin()
	tx3.Put("a", []byte("1"))
	tx3.Put("b", []byte("3")) // different value
	tx3.Delete("c")
	if tx1.WriteSetDigest() == tx3.WriteSetDigest() {
		t.Fatal("different write sets share a digest")
	}

	tx4 := s.Begin()
	tx4.Put("a", []byte("1"))
	tx4.Put("b", []byte("2"))
	tx4.Put("c", []byte{}) // put of empty vs delete must differ
	if tx1.WriteSetDigest() == tx4.WriteSetDigest() {
		t.Fatal("delete and empty put share a digest")
	}
	tx1.Abort()
	tx2.Abort()
	tx3.Abort()
	tx4.Abort()
}

// TestDigestsAllocateNothing: a one-op write set's digest (a write set of
// more ops sorts a copy, its one allocation) and d_C of a hashed trie
// hash their preimages on the stack.
func TestDigestsAllocateNothing(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Put("k", make([]byte, 32))
	ws := tx.Commit()
	s.CheckpointDigest()
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"WriteSet.Digest", func() { ws.Digest() }},
		{"CheckpointDigest", func() { s.CheckpointDigest() }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", c.name, got)
		}
	}
}

// TestCheckpointDigestAllocs pins BenchmarkCheckpointDigest's incremental
// rows at n = 10 000 as counts: the heap objects of one commit of 6 and of
// 256 writes and the d_C after it, on a store the previous d_C hashed. Each
// bound is the count measured plus half an object.
func TestCheckpointDigestAllocs(t *testing.T) {
	const n = 10000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("account_%08d", i)
	}
	val := []byte("0000000200")
	for _, c := range []struct {
		writes   int
		measured float64
	}{{6, 35}, {256, 692}} {
		s := benchStore(n)
		s.CheckpointDigest()
		i := 0
		got := testing.AllocsPerRun(100, func() {
			tx := s.Begin()
			for j := 0; j < c.writes; j++ {
				tx.Put(keys[(i*c.writes+j)%n], val)
			}
			tx.Commit()
			s.CheckpointDigest()
			i++
		})
		t.Logf("writes=%d: %.1f allocs", c.writes, got)
		if bound := c.measured + 0.5; got > bound {
			t.Errorf("writes=%d: %.1f allocs per commit and d_C, bound %.1f", c.writes, got, bound)
		}
	}
}

func TestDigestDeterminism(t *testing.T) {
	a, b := New(), New()
	// Apply the same logical content in different orders/histories.
	for i := 0; i < 200; i++ {
		tx := a.Begin()
		tx.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
		tx.Commit()
	}
	for i := 199; i >= 0; i-- {
		tx := b.Begin()
		tx.Put(fmt.Sprintf("k%d", i), []byte("tmp"))
		tx.Commit()
	}
	for i := 0; i < 200; i++ {
		tx := b.Begin()
		tx.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
		tx.Commit()
	}
	if a.CheckpointDigest() != b.CheckpointDigest() {
		t.Fatal("equal contents, different digests")
	}
	tx := b.Begin()
	tx.Put("k0", []byte("changed"))
	tx.Commit()
	if a.CheckpointDigest() == b.CheckpointDigest() {
		t.Fatal("different contents, same digest")
	}
}

func TestSerializeRestore(t *testing.T) {
	s := New()
	for i := 0; i < 500; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, i%32))
		tx.Commit()
	}
	restored := restoreByChunk(t, s)
	if restored.Len() != s.Len() {
		t.Fatalf("restored len %d != %d", restored.Len(), s.Len())
	}
	if restored.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("restored digest differs")
	}
	for i := 0; i < 500; i += 37 {
		k := fmt.Sprintf("key-%04d", i)
		v, ok := restored.Get(k)
		if !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, i%32)) {
			t.Fatalf("restored %s wrong", k)
		}
	}
}

func TestClone(t *testing.T) {
	s := New()
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
}

// Regression: Get used to return the slice stored inside the CHAMP map, so
// mutating the result corrupted every snapshot and clone sharing that node.
func TestGetReturnsDefensiveCopy(t *testing.T) {
	s := New()
	tx := s.Begin()
	tx.Put("k", []byte("original"))
	tx.Commit()
	mark := s.Clone()
	before := s.CheckpointDigest()

	v, _ := s.Get("k")
	copy(v, "CLOBBER!")
	if got, _ := s.Get("k"); string(got) != "original" {
		t.Fatal("mutating Get result corrupted the store")
	}
	if scratchDigest(s) != before {
		t.Fatal("mutating Get result changed the store digest")
	}

	tx = s.Begin()
	v, _ = tx.Get("k")
	copy(v, "CLOBBER!")
	if got, _ := tx.Get("k"); string(got) != "original" {
		t.Fatal("mutating Tx.Get snapshot result corrupted the snapshot")
	}
	tx.Put("pending", []byte("buffered"))
	v, _ = tx.Get("pending")
	copy(v, "CLOBBER!")
	tx.Commit()
	if got, _ := s.Get("pending"); string(got) != "buffered" {
		t.Fatal("mutating Tx.Get result corrupted the buffered write")
	}

	if got, _ := mark.Get("k"); string(got) != "original" {
		t.Fatal("a clone was corrupted through a Get result")
	}
}

// Round trip through the chunk codec preserves contents, digest, and the
// serialized byte stream itself.
func TestWireRoundTripCanonical(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(i)}, i%17))
		tx.Commit()
	}
	var first bytes.Buffer
	if err := s.SerializeShard(&first); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.InstallShard(first.Bytes(), s.CheckpointDigest()); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := restored.SerializeShard(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("serialize -> install -> serialize is not byte-identical")
	}
	if restored.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("round trip changed the digest")
	}
}

// Property: a clone taken before a random batch of transactions — the
// ledger's rollback record — still has the exact prior digest after it.
func TestQuickRollbackRestoresDigest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < 50; i++ {
			tx := s.Begin()
			tx.Put(fmt.Sprintf("k%d", rng.Intn(30)), []byte{byte(rng.Int())})
			tx.Commit()
		}
		before := s.CheckpointDigest()
		mark := s.Clone()
		for i := 0; i < 30; i++ {
			tx := s.Begin()
			k := fmt.Sprintf("k%d", rng.Intn(40))
			if rng.Intn(4) == 0 {
				tx.Delete(k)
			} else {
				tx.Put(k, []byte{byte(rng.Int())})
			}
			tx.Commit()
		}
		return mark.CheckpointDigest() == before && before == scratchDigest(mark)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: Get/Put/Delete/WriteSetDigest used to silently
// operate on a finished transaction while only Commit/Abort panicked. All
// post-finish use now panics consistently.
func TestTxUseAfterFinishPanics(t *testing.T) {
	ops := map[string]func(tx *Tx){
		"Get":            func(tx *Tx) { tx.Get("k") },
		"Put":            func(tx *Tx) { tx.Put("k", []byte("v")) },
		"Delete":         func(tx *Tx) { tx.Delete("k") },
		"WriteSetDigest": func(tx *Tx) { tx.WriteSetDigest() },
		"Commit":         func(tx *Tx) { tx.Commit() },
		"Abort":          func(tx *Tx) { tx.Abort() },
	}
	for name, op := range ops {
		for _, finish := range []string{"Commit", "Abort"} {
			t.Run(name+"-after-"+finish, func(t *testing.T) {
				tx := New().Begin()
				tx.Put("seed", []byte("x"))
				if finish == "Commit" {
					tx.Commit()
				} else {
					tx.Abort()
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s after %s did not panic", name, finish)
						}
					}()
					op(tx)
				}()
			})
		}
	}
}
