package kv

import (
	"fmt"
	"io"
	"runtime"
	"testing"
)

// benchStore returns a store holding n accounts.
func benchStore(n int) *Store {
	s := New()
	for i := 0; i < n; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("account_%08d", i), []byte("0000000100"))
		tx.Commit()
	}
	return s
}

// BenchmarkCommit measures one transaction (SmallBank-style: read-modify-
// write of two keys) committing against stores of increasing size. The
// commits land in the overlay; a flush comes with the next Clone or digest.
//
// The ops=… rows price a transaction of that many distinct puts — one, a
// few, and KVApp's cap — into a 100 000-key store, with the Clone that
// flushes it, as a replica's ledger clones the store before every batch.
// ns/put must stay flat: a transaction's writes and the overlay are linear
// in their ops.
func BenchmarkCommit(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				src := fmt.Sprintf("account_%08d", i%n)
				dst := fmt.Sprintf("account_%08d", (i+1)%n)
				v, _ := tx.Get(src)
				tx.Put(src, v)
				tx.Put(dst, []byte("0000000200"))
				tx.Commit()
			}
		})
	}
	const n = 100000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("account_%08d", i)
	}
	for _, ops := range []int{1, 16, 65536} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			s := benchStore(n)
			s.Clone()
			val := []byte("0000000200")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				for j := 0; j < ops; j++ {
					tx.Put(keys[(i*ops+j)%n], val)
				}
				tx.Commit()
				s.Clone()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/put")
		})
	}
}

// BenchmarkSerialize measures streaming the store's checkpoint stream, the
// state-transfer chunk.
func BenchmarkSerialize(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SerializeShard(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteSetDigest measures the per-transaction result digest o.
func BenchmarkWriteSetDigest(b *testing.B) {
	s := New()
	tx := s.Begin()
	for i := 0; i < 8; i++ {
		tx.Put(fmt.Sprintf("k%d", i), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.WriteSetDigest()
	}
	b.StopTimer()
	tx.Abort()
}

// BenchmarkCheckpointDigest prices d_C in steady state: each iteration
// commits some writes and takes a checkpoint, on a store whose every node
// was hashed by the previous one. The cost is the trie paths the writes
// rewrote, so it follows the writes per checkpoint and (logarithmically)
// the store size:
//
//   - incremental/n=…: 6 writes per checkpoint;
//   - incremental/writes=256/n=…: 256 writes per checkpoint — four
//     64-entry batches at cmd/node's checkpoint interval. The repository
//     benchmark's saturated batches carry ≈ 116 entries, so its
//     checkpoints see about twice as many writes.
//
// TestCheckpointDigestAllocs pins both shapes' allocations at n = 10 000.
func BenchmarkCheckpointDigest(b *testing.B) {
	run := func(b *testing.B, s *Store, n, writes int) {
		s.CheckpointDigest() // steady state starts fully hashed
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := s.Begin()
			for j := 0; j < writes; j++ {
				tx.Put(fmt.Sprintf("account_%08d", (i*writes+j)%n), []byte("0000000200"))
			}
			tx.Commit()
			s.CheckpointDigest()
		}
	}
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			run(b, benchStore(n), n, 6)
		})
	}
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("incremental/writes=256/n=%d", n), func(b *testing.B) {
			run(b, benchStore(n), n, 256)
		})
	}
}

// liveObjects returns the number of heap objects that survive a collection.
func liveObjects() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}

// storeWriter returns put(i): one transaction writing key(i) as a 32-byte
// value into s, and d_C every 256 of them (four 64-entry batches, cmd/node's
// checkpoint interval) — the store's share of a committed request,
// isolated.
func storeWriter(s *Store, key func(i int) string) (put func(i int)) {
	val := make([]byte, 32)
	return func(i int) {
		tx := s.Begin()
		tx.Put(key(i), val)
		tx.Commit()
		if i%256 == 255 {
			s.CheckpointDigest()
		}
	}
}

// benchStoreWrites prices storeWriter's puts. The first warm puts are setup,
// so live-objects/key — heap objects the store keeps alive per key it
// holds, which is what every mark phase walks — is taken over at least that
// many keys whatever b.N is.
func benchStoreWrites(b *testing.B, warm int, key func(i int) string) {
	base := liveObjects()
	s := New()
	put := storeWriter(s, key)
	for i := 0; i < warm; i++ {
		put(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(warm + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(liveObjects()-base)/float64(s.Len()), "live-objects/key")
	runtime.KeepAlive(s)
}

// insertKey names put i as submit4.insert512's 512 callers name theirs:
// every key is new.
func insertKey(i int) string { return fmt.Sprintf("i%d/%d", i%512, i/512) }

// BenchmarkStoreInsert is submit4.insert512's store: every put is a key
// never seen before, so the state and the live heap grow with b.N.
func BenchmarkStoreInsert(b *testing.B) {
	benchStoreWrites(b, 8192, insertKey)
}

// TestLiveObjectsPerKey holds the store under one live heap object per key
// it holds — the trie stores bytes, and a pointer per entry is what would
// break it — after 8 192 + 16 384 of BenchmarkStoreInsert's puts. It reads
// 0.62.
func TestLiveObjectsPerKey(t *testing.T) {
	base := liveObjects()
	s := New()
	put := storeWriter(s, insertKey)
	for i := 0; i < 8192+16384; i++ {
		put(i)
	}
	perKey := float64(liveObjects()-base) / float64(s.Len())
	t.Logf("%.3f live objects per key", perKey)
	if perKey > 1 {
		t.Errorf("%.3f live heap objects per key, cap 1", perKey)
	}
	runtime.KeepAlive(s)
}

// BenchmarkStoreOverwrite8k is submit4.sat512's: puts over a fixed set of
// 8192 keys, so the state is constant and every put rewrites a trie path.
func BenchmarkStoreOverwrite8k(b *testing.B) {
	benchStoreWrites(b, 8192, func(i int) string { return fmt.Sprintf("k%d", i*7919%8192) })
}
