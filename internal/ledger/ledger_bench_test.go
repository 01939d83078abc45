package ledger

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
)

func benchRequests(batch, txPerBatch int) []Request {
	reqs := make([]Request, txPerBatch)
	for i := range reqs {
		reqs[i] = Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("client-%d", i%8))),
			ReqNo:  uint64(batch),
			Body: EncodeOps([]Op{
				{Key: fmt.Sprintf("account_%06d", (batch*txPerBatch+i)%1000), Val: []byte("balance")},
			}),
		}
	}
	return reqs
}

// BenchmarkExecuteBatch is the end-to-end hot path: execute a batch of
// transactions through the execution/hashing pipeline, build the per-shard
// trees G_s with receipts, extend M, sign the header. Shard counts 1/4/16
// measure what partitioning costs (and buys) at the batch level; the
// checkpoint interval exercises the incremental d_C path.
func BenchmarkExecuteBatch(b *testing.B) {
	for _, shards := range []uint32{1, 4, 16} {
		for _, txs := range []int{16, 128} {
			b.Run(fmt.Sprintf("shards=%d/txs=%d", shards, txs), func(b *testing.B) {
				l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 10, Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := l.ExecuteBatch(benchRequests(i, txs)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReplay measures the auditor's throughput with pooled signature
// verification.
func BenchmarkReplay(b *testing.B) {
	const batches = 32
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 8})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if _, _, err := l.ExecuteBatch(benchRequests(i, 16)); err != nil {
			b.Fatal(err)
		}
	}
	stream := l.Batches()
	pub := testKey.Public()
	pool := hashsig.NewVerifierPool(0)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(stream, pub, KVApp{}, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// coldSeq numbers the headers BenchmarkReceiptVerify/cold signs and never
// repeats within the process: signatures are deterministic, so a Seq signed
// in an earlier b.N round would be a set hit in a later one and the row
// would silently read warm.
var coldSeq uint64 = 1

// BenchmarkReceiptVerify is the client-side cost of checking one receipt,
// on both sides of the verified-header set. warm is the shape a client
// with many requests outstanding sees: the 64 receipts of one batch, whose
// shared header was checked once before the timer — StatementDigest, the set
// probe and the audit path, no signature check and no allocation. cold gives
// every iteration a header this process has never seen — the same receipts
// re-signed under another Seq before the timer starts, so the path is the
// same length: one pub.Verify (hashsig's BenchmarkVerify) plus warm.
func BenchmarkReceiptVerify(b *testing.B) {
	l, err := New(Config{Key: testKey, App: KVApp{}})
	if err != nil {
		b.Fatal(err)
	}
	_, receipts, err := l.ExecuteBatch(benchRequests(0, 64))
	if err != nil {
		b.Fatal(err)
	}
	pub := testKey.Public()
	b.Run("warm", func(b *testing.B) {
		if !receipts[0].Verify(pub) {
			b.Fatal("receipt rejected")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !receipts[i%len(receipts)].Verify(pub) {
				b.Fatal("receipt rejected")
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		fresh := make([]Receipt, b.N)
		for i := range fresh {
			fresh[i] = receipts[i%len(receipts)]
			coldSeq++
			fresh[i].Header.Seq = coldSeq
			fresh[i].Header.Sig = testKey.MustSign(fresh[i].Header.StatementDigest())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range fresh {
			if !fresh[i].Verify(pub) {
				b.Fatal("receipt rejected")
			}
		}
	})
}
