package consensus

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// BenchmarkConsensusCommit measures full L-PBFT commit rounds — propose,
// pre-prepare, prepares, nonce-revealing commits, all message codec work
// included — across 3f+1 = 4 replicas with f = 1, per batch size and
// proposal window. One iteration commits `window` consecutive batches: the
// primary fills its window before any traffic is delivered, so with W > 1
// every replica receives several instances' messages per round, one Handle
// call per message as the node's run loop makes them. window=1 is the serial
// baseline the pipelined runs must beat.
// The metric that matters is entries/sec: how much ledger throughput the
// consensus pipeline sustains.
func BenchmarkConsensusCommit(b *testing.B) {
	for _, batchSize := range []int{128, 1024} {
		for _, window := range []int{1, DefaultWindow} {
			b.Run(fmt.Sprintf("entries=%d/window=%d", batchSize, window), func(b *testing.B) {
				benchCommit(b, batchSize, window)
			})
		}
	}
}

// BenchmarkConsensusCommitCrossShard is the G_s-grouping workload: 16
// shards, requests authored by many distinct clients, so entries spread
// evenly across the per-shard batch trees G_s (which route by author), each
// request writing several keys drawn from a wide pool. Transactions execute
// one at a time; what extra CPUs take on is entry hashing and signature
// checks, so -cpu 1,4 shows how much of a commit that is.
func BenchmarkConsensusCommitCrossShard(b *testing.B) {
	benchCommitKeyed(b, 1024, DefaultWindow, 16, func(seq uint64, i int) ledger.Request {
		ops := make([]ledger.Op, 3)
		for o := range ops {
			ops[o] = ledger.Op{
				Key: fmt.Sprintf("key-%d", (i*3+o)%8192),
				Val: []byte(fmt.Sprintf("val-%d-%d-%d", seq, i, o)),
			}
		}
		return ledger.Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("client-%d", i%64))),
			ReqNo:  seq*100000 + uint64(i),
			Body:   ledger.EncodeOps(ops),
		}
	})
}

// BenchmarkConsensusCommitSkewed is the load-imbalance twin of CrossShard:
// same 16-shard configuration and key pool, but ~90% of requests are
// authored by one hot client, so nine tenths of every batch lands in a
// single per-shard batch tree G_s (entries route to shards by author), so
// the skew stresses shard grouping.
func BenchmarkConsensusCommitSkewed(b *testing.B) {
	hot := hashsig.Sum([]byte("hot-client"))
	benchCommitKeyed(b, 1024, DefaultWindow, 16, func(seq uint64, i int) ledger.Request {
		ops := make([]ledger.Op, 3)
		for o := range ops {
			ops[o] = ledger.Op{
				Key: fmt.Sprintf("key-%d", (i*3+o)%8192),
				Val: []byte(fmt.Sprintf("val-%d-%d-%d", seq, i, o)),
			}
		}
		author := hot
		if i%10 == 0 {
			author = hashsig.Sum([]byte(fmt.Sprintf("client-%d", i%64)))
		}
		return ledger.Request{
			Author: author,
			ReqNo:  seq*100000 + uint64(i),
			Body:   ledger.EncodeOps(ops),
		}
	})
}

func benchCommit(b *testing.B, batchSize, window int) {
	author := hashsig.Sum([]byte("bench-client"))
	benchCommitKeyed(b, batchSize, window, 4, func(seq uint64, i int) ledger.Request {
		return ledger.Request{
			Author: author,
			ReqNo:  seq*100000 + uint64(i),
			Body: ledger.EncodeOps([]ledger.Op{{
				Key: fmt.Sprintf("key-%d", i%512),
				Val: []byte(fmt.Sprintf("val-%d-%d", seq, i)),
			}}),
		}
	})
}

func benchCommitKeyed(b *testing.B, batchSize, window int, shards uint32, mkReq func(seq uint64, i int) ledger.Request) {
	const n = 4
	keys := make([]*hashsig.PrivateKey, n)
	peers := make([]*hashsig.PublicKey, n)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("bench-%d", i))
		peers[i] = keys[i].Public()
	}
	replicas := make([]*Replica, n)
	for i := range replicas {
		r, err := New(Config{
			ID:              ReplicaID(i),
			Key:             keys[i],
			Peers:           peers,
			App:             ledger.KVApp{},
			CheckpointEvery: 4,
			Shards:          shards,
			Window:          window,
		})
		if err != nil {
			b.Fatal(err)
		}
		replicas[i] = r
	}
	reqsFor := func(seq uint64) []ledger.Request {
		reqs := make([]ledger.Request, batchSize)
		for i := range reqs {
			reqs[i] = mkReq(seq, i)
		}
		return reqs
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fill the window: W proposals before any delivery happens.
		base := uint64(i * window)
		frames := make([][]byte, 0, window)
		for w := 0; w < window; w++ {
			pp, _, err := replicas[0].Propose(reqsFor(base + uint64(w) + 1))
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, EncodeMessage(pp))
		}
		// Flood-deliver encoded frames until quiescent, like the harness
		// but with no loss: each round every replica gets every in-flight
		// frame, the steady state a pipelining transport produces.
		for len(frames) > 0 {
			msgs := make([]Message, len(frames))
			for j, frame := range frames {
				m, err := DecodeMessage(frame)
				if err != nil {
					b.Fatal(err)
				}
				msgs[j] = m
			}
			frames = frames[:0]
			for _, r := range replicas {
				for _, m := range msgs {
					out, _ := r.Handle(m)
					for _, o := range out {
						frames = append(frames, EncodeMessage(o.Msg))
					}
				}
			}
		}
		want := base + uint64(window)
		for _, r := range replicas {
			if r.Committed() != want {
				b.Fatalf("replica %d at seq %d, want %d", r.ID(), r.Committed(), want)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batchSize)*float64(window)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
}

// BenchmarkConsensusBoundedMemory is the bounded-memory gate's workload: a
// long committed history (b.N scales it) with checkpointing and pruning
// active. What it reports is not throughput but residency — the maximum
// batches and encoded batch bytes any replica retained at any point. With
// the commit-path prune the bound is window + checkpoint interval,
// independent of how many batches the run commits; benchcmp's
// `-max ...:retained-bytes:...` cap turns an O(history) leak into a CI
// failure instead of an OOM on a long-lived cluster.
func BenchmarkConsensusBoundedMemory(b *testing.B) {
	const n = 4
	keys := make([]*hashsig.PrivateKey, n)
	peers := make([]*hashsig.PublicKey, n)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("bench-%d", i))
		peers[i] = keys[i].Public()
	}
	replicas := make([]*Replica, n)
	for i := range replicas {
		r, err := New(Config{
			ID:              ReplicaID(i),
			Key:             keys[i],
			Peers:           peers,
			App:             ledger.KVApp{},
			CheckpointEvery: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		replicas[i] = r
	}
	author := hashsig.Sum([]byte("bench-client"))
	reqsFor := func(seq uint64) []ledger.Request {
		reqs := make([]ledger.Request, 32)
		for i := range reqs {
			reqs[i] = ledger.Request{
				Author: author,
				ReqNo:  seq*100000 + uint64(i),
				Body: ledger.EncodeOps([]ledger.Op{{
					Key: fmt.Sprintf("key-%d", i%512),
					Val: []byte(fmt.Sprintf("val-%d-%d", seq, i)),
				}}),
			}
		}
		return reqs
	}
	retained := func() (batches int, bytes int) {
		for _, r := range replicas {
			got := r.Ledger().RetainedBatches()
			if got > batches {
				batches = got
			}
			total := 0
			for _, batch := range r.Ledger().Batches() {
				total += len(encodeBatchChunk(batch))
			}
			if total > bytes {
				bytes = total
			}
		}
		return
	}

	maxBatches, maxBytes := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i) + 1
		pp, _, err := replicas[0].Propose(reqsFor(seq))
		if err != nil {
			b.Fatal(err)
		}
		frames := [][]byte{EncodeMessage(pp)}
		for len(frames) > 0 {
			msgs := make([]Message, len(frames))
			for j, frame := range frames {
				m, err := DecodeMessage(frame)
				if err != nil {
					b.Fatal(err)
				}
				msgs[j] = m
			}
			frames = frames[:0]
			for _, r := range replicas {
				for _, m := range msgs {
					out, _ := r.Handle(m)
					for _, o := range out {
						frames = append(frames, EncodeMessage(o.Msg))
					}
				}
			}
		}
		if replicas[0].Committed() != seq {
			b.Fatalf("stuck at %d, want %d", replicas[0].Committed(), seq)
		}
		if batches, bytes := retained(); true {
			if batches > maxBatches {
				maxBatches = batches
			}
			if bytes > maxBytes {
				maxBytes = bytes
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(maxBatches), "retained-batches")
	b.ReportMetric(float64(maxBytes), "retained-bytes")
}
