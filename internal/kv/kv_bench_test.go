package kv

import (
	"fmt"
	"io"
	"testing"
)

func benchStore(n int) *ShardedStore { return benchShardedStore(n, 1) }

// BenchmarkCommit measures one transaction (SmallBank-style: read-modify-
// write of two keys) committing against stores of increasing size.
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
}

// BenchmarkDigest measures the flat key-sorted digest over the full store:
// what every checkpoint cost before the store was sharded.
func BenchmarkDigest(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Digest()
			}
		})
	}
}

// BenchmarkSerialize measures streaming checkpoint serialization.
func BenchmarkSerialize(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Serialize(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteSetDigest measures the per-transaction result digest o.
func BenchmarkWriteSetDigest(b *testing.B) {
	s := NewSharded(1)
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

func benchShardedStore(n, shards int) *ShardedStore {
	s := NewSharded(shards)
	for i := 0; i < n; i++ {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("account_%08d", i), []byte("0000000100"))
		tx.Commit()
	}
	return s
}

// BenchmarkCheckpointDigest is the perf target of the sharded refactor:
// checkpoint digest computation when only a small fraction of shards was
// touched since the last checkpoint. Each iteration commits writes into at
// most dirtyWrites shards (≤10% of 64) and recomputes d_C. The incremental
// path re-hashes only the touched shards; the full-rescan baselines re-hash
// everything, which is what the unsharded store did at every checkpoint.
func BenchmarkCheckpointDigest(b *testing.B) {
	const shards = 64
	const dirtyWrites = 6 // ≤ 6/64 ≈ 9.4% of shards dirty per checkpoint
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			s := benchShardedStore(n, shards)
			s.CheckpointDigest() // warm the cache; steady state starts clean
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				for j := 0; j < dirtyWrites; j++ {
					tx.Put(fmt.Sprintf("account_%08d", (i*dirtyWrites+j)%n), []byte("0000000200"))
				}
				tx.Commit()
				s.CheckpointDigest()
			}
		})
		b.Run(fmt.Sprintf("fullrescan-sharded/n=%d", n), func(b *testing.B) {
			s := benchShardedStore(n, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				for j := 0; j < dirtyWrites; j++ {
					tx.Put(fmt.Sprintf("account_%08d", (i*dirtyWrites+j)%n), []byte("0000000200"))
				}
				tx.Commit()
				s.FullRescanDigest()
			}
		})
		b.Run(fmt.Sprintf("fullrescan-flat/n=%d", n), func(b *testing.B) {
			s := benchStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				for j := 0; j < dirtyWrites; j++ {
					tx.Put(fmt.Sprintf("account_%08d", (i*dirtyWrites+j)%n), []byte("0000000200"))
				}
				tx.Commit()
				s.Digest()
			}
		})
	}
}
