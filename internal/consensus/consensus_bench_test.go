package consensus

import (
	"fmt"
	"runtime"
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
// baseline. The metric that matters is entries/sec: how much ledger
// throughput the consensus pipeline sustains. TestAllocsPerCommit pins the
// rows' allocations and protocol counts.
func BenchmarkConsensusCommit(b *testing.B) {
	for _, batchSize := range []int{128, 1024} {
		for _, window := range []int{1, DefaultWindow} {
			b.Run(fmt.Sprintf("entries=%d/window=%d", batchSize, window), func(b *testing.B) {
				benchCommit(b, batchSize, window, oneAuthor)
			})
		}
	}
}

// BenchmarkConsensusCommitCrossShard is the many-authors workload: 1024-entry
// batches authored by 64 distinct clients, each request a 3-key write
// drawn from an 8 192-key pool, so a checkpoint re-hashes trie paths all
// over the store. (The name dates from the partitioned store; the nightly
// job profiles it under it.) Transactions execute one
// at a time; what extra CPUs take on is entry hashing and signature
// checks, so -cpu 1,4 shows how much of a commit that is.
func BenchmarkConsensusCommitCrossShard(b *testing.B) {
	benchCommit(b, 1024, DefaultWindow, func(seq uint64, i int) ledger.Request {
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

// BenchmarkConsensusCommitSkewed is CrossShard with one hot author: the
// same 3-key writes over the same 8 192-key pool, but nine requests in ten
// come from one client, the shape a single busy client gives a batch.
func BenchmarkConsensusCommitSkewed(b *testing.B) {
	hot := hashsig.Sum([]byte("hot-client"))
	benchCommit(b, 1024, DefaultWindow, func(seq uint64, i int) ledger.Request {
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

var benchAuthor = hashsig.Sum([]byte("bench-client"))

// oneAuthor is request i of batch seq in BenchmarkConsensusCommit's shape:
// one client writing one of 512 keys.
func oneAuthor(seq uint64, i int) ledger.Request {
	return ledger.Request{
		Author: benchAuthor,
		ReqNo:  seq*100000 + uint64(i),
		Body: ledger.EncodeOps([]ledger.Op{{
			Key: fmt.Sprintf("key-%d", i%512),
			Val: []byte(fmt.Sprintf("val-%d-%d", seq, i)),
		}}),
	}
}

func benchCommit(b *testing.B, batchSize, window int, mkReq func(seq uint64, i int) ledger.Request) {
	replicas := benchCluster(b, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitRound(b, replicas, uint64(i*window), window, batchSize, mkReq)
	}
	b.StopTimer()
	b.ReportMetric(float64(batchSize)*float64(window)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
}

// benchCluster is the flood harness's cluster: n = 4 replicas, f = 1, a
// checkpoint every 4 batches and proposal window W = window.
func benchCluster(tb testing.TB, window int) []*Replica {
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
			Window:          window,
		})
		if err != nil {
			tb.Fatal(err)
		}
		replicas[i] = r
	}
	return replicas
}

// commitRound has replica 0 propose batches base+1 … base+proposals of size
// requests each before any delivery happens, then flood-delivers encoded
// frames until quiescent: each round every replica, the sender included,
// gets every in-flight frame, the steady state a pipelining transport
// produces, with no loss. Every replica must have committed the last batch.
// It returns the frames sent and their bytes.
func commitRound(tb testing.TB, replicas []*Replica, base uint64, proposals, size int, mkReq func(seq uint64, i int) ledger.Request) (frames, bytes int) {
	inFlight := make([][]byte, 0, proposals)
	for w := 1; w <= proposals; w++ {
		reqs := make([]ledger.Request, size)
		for i := range reqs {
			reqs[i] = mkReq(base+uint64(w), i)
		}
		pp, _, err := replicas[0].Propose(reqs)
		if err != nil {
			tb.Fatal(err)
		}
		inFlight = append(inFlight, EncodeMessage(pp))
	}
	for len(inFlight) > 0 {
		msgs := make([]Message, len(inFlight))
		for j, frame := range inFlight {
			frames, bytes = frames+1, bytes+len(frame)
			m, err := DecodeMessage(frame)
			if err != nil {
				tb.Fatal(err)
			}
			msgs[j] = m
		}
		inFlight = inFlight[:0]
		for _, r := range replicas {
			for _, m := range msgs {
				out, _ := r.Handle(m)
				for _, o := range out {
					inFlight = append(inFlight, EncodeMessage(o.Msg))
				}
			}
		}
	}
	want := base + uint64(proposals)
	for _, r := range replicas {
		if r.Committed() != want {
			tb.Fatalf("replica %d at seq %d, want %d", r.ID(), r.Committed(), want)
		}
	}
	return frames, bytes
}

// TestBoundedMemory commits 200 batches of 32 entries with checkpointing
// and pruning active and, after every commit, holds each replica's retained
// batches to window + checkpoint interval (8) and their encoded bytes to
// 64 KiB, however long the history: a pruning leak grows with the run.
func TestBoundedMemory(t *testing.T) {
	replicas := benchCluster(t, DefaultWindow)
	for seq := uint64(1); seq <= 200; seq++ {
		commitRound(t, replicas, seq-1, 1, 32, oneAuthor)
		for _, r := range replicas {
			total := 0
			for _, b := range r.Ledger().Batches() {
				total += len(encodeBatchChunk(b))
			}
			if got := r.Ledger().RetainedBatches(); got > 8 || total > 65536 {
				t.Fatalf("seq %d: replica %d retains %d batches, %d B; caps 8 and 65536", seq, r.ID(), got, total)
			}
		}
	}
}

// TestAllocsPerCommit pins BenchmarkConsensusCommit's rows as counts, which
// do not drift with the machine as its ns/op does. Objects and bytes per
// committed entry are bounded by the value measured plus TestAllocsPerEntry's
// slack: half an object, and 10 % of the bytes (the race build reads up to
// 3 % more). Signs, verifies and frames per batch, and the frame bytes of
// the whole run, are exact: 4 signs, 8 frames and 15 verifies, which is
// TestSignaturesPerBatch's 12 plus each backup's own prepare, which the
// flood hands back to it. The per-batch counts do not depend on W:
// pipelining adds no protocol cost per batch.
func TestAllocsPerCommit(t *testing.T) {
	const runs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun runs
	for _, c := range []struct {
		entries, window int
		objects, bytes  float64 // measured per entry
		frameBytes      int
	}{
		{128, 1, 18.45, 3102, 139338},
		{128, 4, 18.34, 3112, 560853},
		{1024, 1, 15.39, 2441, 1025604},
		{1024, 4, 15.38, 2471, 4130109},
	} {
		// The requests are made up front: what is measured is the cluster's
		// share, not fmt's.
		reqs := make([][]ledger.Request, (2*runs+1)*c.window)
		for b := range reqs {
			for i := 0; i < c.entries; i++ {
				reqs[b] = append(reqs[b], oneAuthor(uint64(b+1), i))
			}
		}
		made := func(seq uint64, i int) ledger.Request { return reqs[seq-1][i] }
		replicas := benchCluster(t, c.window)
		var seq uint64
		var frames, frameBytes int
		run := func() {
			f, b := commitRound(t, replicas, seq, c.window, c.entries, made)
			seq, frames, frameBytes = seq+uint64(c.window), frames+f, frameBytes+b
		}
		signs, verifies := hashsig.Counts()
		perEntry := float64(c.entries * c.window)
		objects := testing.AllocsPerRun(runs, run) / perEntry
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / perEntry
		s, v := hashsig.Counts()
		name := fmt.Sprintf("entries=%d/window=%d", c.entries, c.window)
		t.Logf("%s: %.2f allocs, %.0f B per entry; %d signs, %d verifies, %d frames, %d frame bytes", name, objects, bytes, s-signs, v-verifies, frames, frameBytes)
		if bound := c.objects + 0.5; objects > bound {
			t.Errorf("%s: %.2f allocs per entry, bound %.2f", name, objects, bound)
		}
		if bound := c.bytes * 1.1; bytes > bound {
			t.Errorf("%s: %.0f B per entry, bound %.0f", name, bytes, bound)
		}
		if s-signs != 4*seq || v-verifies != 15*seq || frames != 8*int(seq) || frameBytes != c.frameBytes {
			t.Errorf("%s: %d batches cost %d signs, %d verifies, %d frames of %d B; want 4, 15 and 8 per batch and %d B",
				name, seq, s-signs, v-verifies, frames, frameBytes, c.frameBytes)
		}
	}
}
