package ledger

import (
	"fmt"
	"math/rand"
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
// transactions and hash their entries, build the batch tree G, extend M,
// sign the header, then cut the receipts from the batch's leaves in M. The
// checkpoint interval exercises the incremental d_C path.
func BenchmarkExecuteBatch(b *testing.B) {
	for _, txs := range []int{16, 128} {
		b.Run(fmt.Sprintf("txs=%d", txs), func(b *testing.B) {
			l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 10})
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

// BenchmarkReplay is the auditor's throughput in the shape of the
// repository benchmark's audit.replay: 64-entry batches, one 32-byte put
// per request over 8 192 keys, a checkpoint every 4 batches,
// headers verified through DefaultPool. Replay is a pipeline (execution
// lane and checker, core.replay); `-cpu 1,2` prices it with the checker
// sharing the lane's CPU and with one of its own.
func BenchmarkReplay(b *testing.B) {
	const batches, batchSize, keys = 256, 64, 8192
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	entries := 0
	for i := 0; i < batches; i++ {
		reqs := make([]Request, batchSize)
		for j := range reqs {
			val := make([]byte, 32)
			rng.Read(val)
			reqs[j] = Request{
				Author: hashsig.Sum([]byte(fmt.Sprintf("author-%d", j))),
				ReqNo:  uint64(i + 1),
				Body:   EncodeOps([]Op{{Key: fmt.Sprintf("k%d", rng.Intn(keys)), Val: val}}),
			}
		}
		batch, _, err := l.ExecuteBatch(reqs)
		if err != nil {
			b.Fatal(err)
		}
		entries += len(batch.Entries)
	}
	stream := l.Batches()
	pub := testKey.Public()
	pool := hashsig.DefaultPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(stream, pub, KVApp{}, pool); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*entries)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkReceipts is the cost of cutting every receipt of one committed
// batch (Ledger.Receipts, what a replica does at commit): the audit paths
// in G from the batch's leaf hashes, and the defensive payload copies.
func BenchmarkReceipts(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			l := receiptLedger(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Receipts(1)
			}
		})
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
// shared header was checked once before the timer — a set probe that
// compares the header, then the audit path: no StatementDigest, no
// signature check and no allocation (TestReceiptVerifyWarmIsAComparison
// holds it at 0). cold gives every iteration a header this process has never
// seen — the same receipts re-signed under another Seq before the timer
// starts, so the path is the same length: StatementDigest, one pub.Verify
// (hashsig's BenchmarkVerify) and the new member's allocation, plus warm.
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
