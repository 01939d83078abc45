package hashsig

import (
	"fmt"
	"testing"
)

func benchTasks(n int) []VerifyTask {
	key := GenerateKeyFromSeed("bench-signer")
	pub := key.Public()
	tasks := make([]VerifyTask, n)
	for i := range tasks {
		d := Sum([]byte(fmt.Sprintf("message-%d", i)))
		tasks[i] = VerifyTask{Key: pub, Digest: d, Sig: key.MustSign(d)}
	}
	return tasks
}

// BenchmarkVerifyAll measures pool throughput at replay-sized signature
// batches across worker counts (workers=0 selects GOMAXPROCS).
func BenchmarkVerifyAll(b *testing.B) {
	for _, workers := range []int{1, 4, 0} {
		for _, n := range []int{16, 256} {
			b.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(b *testing.B) {
				pool := NewVerifierPool(workers)
				defer pool.Close()
				tasks := benchTasks(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, ok := range pool.VerifyAll(tasks) {
						if !ok {
							b.Fatal("valid signature rejected")
						}
					}
				}
			})
		}
	}
}

// BenchmarkSign is the baseline cost the header signer pays per batch.
func BenchmarkSign(b *testing.B) {
	key := GenerateKeyFromSeed("bench-signer")
	d := Sum([]byte("header"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.MustSign(d)
	}
}

// BenchmarkVerify is one Ed25519 check: what a VerifiedSet miss costs and a
// hit saves (ledger's BenchmarkReceiptVerify/cold is this, a statement
// digest and a path).
func BenchmarkVerify(b *testing.B) {
	t := benchTasks(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !t.Key.Verify(t.Digest, t.Sig) {
			b.Fatal("valid signature rejected")
		}
	}
}

// BenchmarkVerifyFirst is a key's first check: decoding the key and
// building its table, then one verification. Later checks under the same
// key cost BenchmarkVerify.
func BenchmarkVerifyFirst(b *testing.B) {
	t := benchTasks(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !newPublicKey(t.Key.key).Verify(t.Digest, t.Sig) {
			b.Fatal("valid signature rejected")
		}
	}
}
