package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
	"iaccf/internal/merkle"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
)

// The isolated benchmarks: one layer at a time, nothing else running, each
// through the layer's public functions only. They are part of a traced run
// and do not depend on the workload; their job is to price the rows of the
// budget table.

// layerBudget is how long each isolated benchmark measures.
const layerBudget = 250 * time.Millisecond

// timeRounds calls op (which does `per` units of work per call) for about d,
// in five rounds, and returns the median round's microseconds per unit and
// the number of calls made.
func timeRounds(d time.Duration, per int, op func()) (usPerUnit float64, calls int) {
	var rounds []float64
	for r := 0; r < 5; r++ {
		start, n := time.Now(), 0
		for n == 0 || time.Since(start) < d/5 {
			op()
			n++
		}
		rounds = append(rounds, float64(time.Since(start))/1e3/float64(n*per))
		calls += n
	}
	return median(rounds), calls
}

func measureLayers(res *runResult, cfg runConfig) error {
	d := layerBudget
	treeLeaves, bigStore := 100_000, 60_000
	if cfg.small {
		d, treeLeaves, bigStore = 10*time.Millisecond, 2_000, 9_000
	}
	layerHashsig(res, d)
	layerKV(res, d, "kv.checkpoint_digest_us_8k", 8_000)
	layerKV(res, d, "kv.checkpoint_digest_us_60k", bigStore)
	if err := layerMerkle(res, d, treeLeaves); err != nil {
		return fmt.Errorf("merkle layer: %w", err)
	}
	if err := layerLedger(res, d); err != nil {
		return fmt.Errorf("ledger layer: %w", err)
	}
	if err := layerTxpool(res, d); err != nil {
		return fmt.Errorf("txpool layer: %w", err)
	}
	pp, prep, err := layerConsensus(res, d, 64, "consensus.inproc_us_per_entry_b64")
	if err == nil {
		_, _, err = layerConsensus(res, d, 1, "consensus.inproc_us_per_entry_b1")
	}
	if err != nil {
		return fmt.Errorf("consensus layer: %w", err)
	}
	if err := layerWire(res, d, pp, prep); err != nil {
		return fmt.Errorf("wire layer: %w", err)
	}
	for _, f := range []struct {
		size int
		name string
	}{{256, "transport.tcp_frames_per_s_256"}, {8 << 10, "transport.tcp_frames_per_s_8k"}} {
		if err := layerTransport(res, d, f.size, f.name); err != nil {
			return fmt.Errorf("transport layer: %w", err)
		}
	}
	return nil
}

func layerHashsig(res *runResult, d time.Duration) {
	key := hashsig.GenerateKeyFromSeed("bench/layer")
	pub := key.Public()
	digest := hashsig.Sum([]byte("bench/layer/digest"))
	sig := key.MustSign(digest)
	us, n := timeRounds(d, 1, func() { key.MustSign(digest) })
	res.set("hashsig.sign_us", us, "us", n)
	us, n = timeRounds(d, 1, func() { pub.Verify(digest, sig) })
	res.set("hashsig.verify_us", us, "us", n)
	tasks := make([]hashsig.VerifyTask, 64)
	for i := range tasks {
		tasks[i] = hashsig.VerifyTask{Key: pub, Digest: digest, Sig: sig}
	}
	pool := hashsig.DefaultPool()
	us, n = timeRounds(d, len(tasks), func() { pool.VerifyAll(tasks) })
	res.set("hashsig.verify_pool_us", us, "us", n*len(tasks))
}

// layerMerkle does per batch what the ledger does with its trees: build a
// fresh 64-leaf batch tree G with an audit path per leaf, and append the
// same 64 leaves to a history tree M that already holds `leaves` leaves,
// taking its root.
func layerMerkle(res *runResult, d time.Duration, leaves int) error {
	hist := merkle.New()
	for i := 0; i < leaves; i++ {
		hist.Append(hashsig.Sum([]byte{byte(i), byte(i >> 8), byte(i >> 16)}))
	}
	batch := make([]hashsig.Digest, 64)
	for i := range batch {
		batch[i] = hashsig.Sum([]byte{byte(i), 0xff})
	}
	var err error
	us, n := timeRounds(d, len(batch), func() {
		if _, _, _, e := merkle.New().AppendAndProve(batch); e != nil {
			err = e
		}
		for _, leaf := range batch {
			hist.Append(leaf)
		}
		hist.Root()
	})
	res.set("merkle.append_prove_us_per_leaf", us, "us", n*len(batch))
	return err
}

// layerKV prices the checkpoint digest d_C of a one-shard store holding
// `keys` keys after one of them changed: with Shards=1 the whole state is
// the dirty shard, so every checkpoint rescans it.
func layerKV(res *runResult, d time.Duration, name string, keys int) {
	s := kv.NewSharded(1)
	val := make([]byte, valueLen)
	tx := s.Begin()
	for i := 0; i < keys; i++ {
		tx.Put(fmt.Sprintf("i0/%d", i), val)
	}
	tx.Commit()
	s.CheckpointDigest()
	i := 0
	var spent time.Duration
	_, n := timeRounds(d, 1, func() {
		tx := s.Begin()
		tx.Put(fmt.Sprintf("i0/%d", i%keys), val)
		tx.Commit()
		i++
		start := time.Now()
		s.CheckpointDigest()
		spent += time.Since(start)
	})
	res.set(name, float64(spent)/1e3/float64(n), "us", n)
}

// layerLedger runs the proposer path (ExecuteBatch), the backup path
// (ApplyBatch on a second ledger) and the auditor path (ReadBatches, then
// Replay, of what was produced) on full 64-entry batches under the
// cluster's ledger settings.
func layerLedger(res *runResult, d time.Duration) error {
	mk := func(seed string) (*ledger.Ledger, error) {
		return ledger.New(ledger.Config{Key: hashsig.GenerateKeyFromSeed(seed), App: ledger.KVApp{}, CheckpointEvery: 4, Shards: 1})
	}
	primary, err := mk("bench/layer/primary")
	if err != nil {
		return err
	}
	backup, err := mk("bench/layer/backup")
	if err != nil {
		return err
	}
	gens := genStreams(0, 64)
	var execNs, applyNs time.Duration
	entries := 0
	for start := time.Now(); time.Since(start) < 2*d || entries == 0; {
		reqs := nextBatch(gens)
		t0 := time.Now()
		b, _, err := primary.ExecuteBatch(reqs)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := backup.ApplyBatch(b); err != nil {
			return err
		}
		applyNs += time.Since(t1)
		execNs += t1.Sub(t0)
		entries += len(reqs)
	}
	res.set("ledger.execute_us_per_entry", float64(execNs)/1e3/float64(entries), "us", entries)
	res.set("ledger.apply_us_per_entry", float64(applyNs)/1e3/float64(entries), "us", entries)
	batches := primary.Batches()
	pub := hashsig.GenerateKeyFromSeed("bench/layer/primary").Public()
	us, n := timeRounds(d, entries, func() {
		if _, e := ledger.Replay(batches, pub, ledger.KVApp{}, hashsig.DefaultPool()); e != nil {
			err = e
		}
	})
	res.set("ledger.replay_us_per_entry", us, "us", n*entries)
	if err != nil {
		return err
	}
	var stream bytes.Buffer
	if err := ledger.WriteBatches(&stream, batches); err != nil {
		return err
	}
	us, n = timeRounds(d, entries, func() {
		if _, e := ledger.ReadBatches(bytes.NewReader(stream.Bytes())); e != nil {
			err = e
		}
	})
	res.set("wire.read_batches_us_per_entry", us, "us", n*entries)
	return err
}

func layerTxpool(res *runResult, d time.Duration) error {
	gens := genStreams(0, openAuthors)
	const fill = 2048
	var addNs, nextNs time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < d || n == 0; {
		p := txpool.New(txpool.Config{})
		reqs := make([]ledger.Request, fill)
		for i := range reqs {
			reqs[i] = gens[i%len(gens)].next()
		}
		t0 := time.Now()
		for i := range reqs {
			if err := p.Add(reqs[i]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for len(p.NextBatch(64)) > 0 {
		}
		nextNs += time.Since(t1)
		addNs += t1.Sub(t0)
		n += fill
	}
	res.set("txpool.add_us", float64(addNs)/1e3/float64(n), "us", n)
	res.set("txpool.nextbatch_us_per_req", float64(nextNs)/1e3/float64(n), "us", n)
	return nil
}

// layerConsensus commits batches of batchSize across four replicas wired
// to each other in this goroutine: every envelope is encoded, decoded and
// handed to its destinations' Handle at once, as node.route and
// node.onFrame would, with no network and no tick in between. That is the
// protocol's whole CPU cost — execution, signing, verification and codec
// on the primary and all three backups — and nothing else. It returns one
// pre-prepare and one prepare for the wire benchmark.
func layerConsensus(res *runResult, d time.Duration, batchSize int, name string) (pp *consensus.PrePrepare, prep *consensus.Prepare, err error) {
	keys := make([]*hashsig.PrivateKey, replicas)
	pubs := make([]*hashsig.PublicKey, replicas)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("bench/layer/%d", i))
		pubs[i] = keys[i].Public()
	}
	reps := make([]*consensus.Replica, replicas)
	for i := range reps {
		r, err := consensus.New(consensus.Config{ID: consensus.ReplicaID(i), Key: keys[i], Peers: pubs,
			App: ledger.KVApp{}, CheckpointEvery: 4, Shards: 1})
		if err != nil {
			return nil, nil, err
		}
		reps[i] = r
	}
	type envelope struct {
		from  int
		dest  consensus.ReplicaID
		frame []byte
	}
	gens := genStreams(0, batchSize)
	entries := 0
	start := time.Now()
	for time.Since(start) < 2*d || entries == 0 {
		var queue []envelope
		for reps[0].CanPropose() {
			p, _, err := reps[0].Propose(nextBatch(gens))
			if err != nil {
				return nil, nil, err
			}
			pp = p
			queue = append(queue, envelope{0, consensus.Broadcast, consensus.EncodeMessage(p)})
			entries += batchSize
		}
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			for i, r := range reps {
				if i == e.from || (e.dest != consensus.Broadcast && e.dest != consensus.ReplicaID(i)) {
					continue
				}
				m, err := consensus.DecodeMessage(e.frame)
				if err != nil {
					return nil, nil, err
				}
				if p, ok := m.(*consensus.Prepare); ok {
					prep = p
				}
				outs, _ := r.Handle(m)
				for _, o := range outs {
					queue = append(queue, envelope{i, o.Dest, consensus.EncodeMessage(o.Msg)})
				}
			}
		}
	}
	elapsed := time.Since(start)
	for _, r := range reps {
		if r.Committed() != reps[0].Committed() || r.InFlight() != 0 {
			return nil, nil, fmt.Errorf("in-process replicas did not all commit: %s", r.DebugState())
		}
	}
	res.set(name, float64(elapsed)/1e3/float64(entries), "us", entries)
	return pp, prep, nil
}

// layerWire prices one encode plus one decode of the two messages that
// make up nearly all cluster traffic.
func layerWire(res *runResult, d time.Duration, pp *consensus.PrePrepare, prep *consensus.Prepare) error {
	for _, c := range []struct {
		name string
		msg  consensus.Message
	}{{"wire.codec_us_per_msg_preprepare", pp}, {"wire.codec_us_per_msg_prepare", prep}} {
		var err error
		us, n := timeRounds(d, 1, func() {
			if _, e := consensus.DecodeMessage(consensus.EncodeMessage(c.msg)); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		res.set(c.name, us, "us", n)
	}
	return nil
}

// layerTransport pushes frames of one size from one TCP transport to
// another over loopback and counts arrivals per second. Send never blocks
// and drops on a full queue, so the sender keeps at most half a queue
// outstanding.
func layerTransport(res *runResult, d time.Duration, size int, name string) error {
	addrs, err := reserveAddrs(2)
	if err != nil {
		return err
	}
	var got atomic.Int64
	recv, err := transport.ListenTCP(transport.TCPConfig{Self: 1, Addrs: addrs,
		Handler: func(transport.NodeID, []byte) { got.Add(1) }})
	if err != nil {
		return err
	}
	defer recv.Close()
	send, err := transport.ListenTCP(transport.TCPConfig{Self: 0, Addrs: addrs,
		Handler: func(transport.NodeID, []byte) {}})
	if err != nil {
		return err
	}
	defer send.Close()
	frame := make([]byte, size)
	sent := int64(0)
	pump := func(until func() bool) {
		for !until() {
			if sent-got.Load() < 512 {
				send.Send(1, frame)
				sent++
			} else {
				runtime.Gosched()
			}
		}
	}
	// Let the connection come up before timing.
	deadline := time.Now().Add(2 * time.Second)
	pump(func() bool { return got.Load() > 0 || time.Now().After(deadline) })
	base, start := got.Load(), time.Now()
	pump(func() bool { return time.Since(start) >= d })
	n := got.Load() - base
	res.set(name, float64(n)/time.Since(start).Seconds(), "1/s", int(n))
	return nil
}
