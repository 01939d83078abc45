package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

const (
	auditBatches   = 2048
	auditBatchSize = 64
	auditReceipts  = 32768
	// auditSetupRepeats is how often a run builds the ledger; setup_s is the
	// median. A build takes seconds, so three is what a run can afford.
	auditSetupRepeats = 3
)

// auditInput is what set-up hands the auditor: the serialized ledger, the
// signer's key, a sample of receipts, and what a faithful replay must find.
type auditInput struct {
	stream   []byte
	pub      *hashsig.PublicKey
	receipts []ledger.Receipt
	entries  int
	histSize uint64
	histRoot hashsig.Digest
}

// buildAuditLedger executes batches of batchSize one-Op requests (one per
// author stream, keys from the fixed key space) and serializes the result,
// keeping a seeded sample of the receipts.
func buildAuditLedger(seed int64, batches, batchSize, sample int) (*auditInput, error) {
	key := hashsig.GenerateKeyFromSeed(fmt.Sprintf("bench-%d/audit", seed))
	l, err := ledger.New(ledger.Config{Key: key, App: ledger.KVApp{}, CheckpointEvery: 4, Shards: 1})
	if err != nil {
		return nil, err
	}
	gens := genStreams(seed, batchSize)
	keep := make([]bool, batches*batchSize)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(keep))[:min(sample, len(keep))] {
		keep[i] = true
	}
	in := &auditInput{pub: key.Public()}
	for b := 0; b < batches; b++ {
		batch, rcs, err := l.ExecuteBatch(nextBatch(gens))
		if err != nil {
			return nil, err
		}
		if len(rcs) != batchSize {
			return nil, fmt.Errorf("batch %d: %d receipts for %d requests", b, len(rcs), batchSize)
		}
		in.entries += len(batch.Entries)
		for i := range rcs {
			if keep[b*batchSize+i] {
				in.receipts = append(in.receipts, rcs[i])
			}
		}
	}
	var buf bytes.Buffer
	if err := ledger.WriteBatches(&buf, l.Batches()); err != nil {
		return nil, err
	}
	in.stream, in.histSize, in.histRoot = buf.Bytes(), l.HistSize(), l.HistRoot()
	return in, nil
}

// runAudit is the audit.replay workload: no cluster. The first half of the
// measured interval replays the serialized ledger from genesis, pass after
// pass; the second half checks receipts one at a time.
func runAudit(name string, cfg runConfig) (*runResult, error) {
	res := newResult(name, cfg)
	batches, sample := auditBatches, auditReceipts
	if cfg.small {
		batches, sample = 32, 512
	}
	var (
		in     *auditInput
		setups []float64
	)
	for i := 0; i < auditSetupRepeats; i++ {
		start := time.Now()
		var err error
		if in, err = buildAuditLedger(cfg.seed, batches, auditBatchSize, sample); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var app ledger.App = ledger.KVApp{}
	var timed *timedApp
	if cfg.traced {
		timed = &timedApp{}
		app = timed
	}
	pool := hashsig.DefaultPool()
	var spans []span
	runtime.GC() // start every run from a collected heap, whatever set-up left
	start := time.Now()
	sinceUs := func() float64 { return float64(time.Since(start)) / 1e3 }

	var passEps []float64
	replayed := 0
	for pass := uint64(1); pass == 1 || time.Since(start) < cfg.duration()/2; pass++ {
		t0 := sinceUs()
		bs, err := ledger.ReadBatches(bytes.NewReader(in.stream))
		if err != nil {
			return nil, fmt.Errorf("read ledger: %w", err)
		}
		t1 := sinceUs()
		rr, err := ledger.Replay(bs, in.pub, app, pool)
		t2 := sinceUs()
		if err != nil {
			res.fail("replay of an untampered ledger failed: %v", err)
			break
		}
		if rr.Entries != in.entries || rr.HistSize != in.histSize || rr.HistRoot != in.histRoot {
			res.fail("replay found %d entries, history %d; the ledger has %d, %d (roots equal: %v)",
				rr.Entries, rr.HistSize, in.entries, in.histSize, rr.HistRoot == in.histRoot)
		}
		replayed += rr.Entries
		passEps = append(passEps, float64(rr.Entries)/((t2-t0)/1e6))
		spans = append(spans,
			span{ID: pass, Name: "audit.pass", StartUs: t0, EndUs: t2},
			span{ID: pass, Name: "wire.read_batches", Parent: "audit.pass", StartUs: t0, EndUs: t1},
			span{ID: pass, Name: "ledger.replay", Parent: "audit.pass", StartUs: t1, EndUs: t2})
	}

	var verifyMs []float64
	bad := 0
	verifyStart := sinceUs()
	for i := 0; time.Since(start) < cfg.duration() || i == 0; i++ {
		rc := &in.receipts[i%len(in.receipts)]
		t0 := time.Now()
		ok := rc.Verify(in.pub)
		verifyMs = append(verifyMs, float64(time.Since(t0))/1e6)
		if !ok {
			bad++
		}
	}
	spans = append(spans, span{ID: uint64(len(passEps)) + 1, Name: "audit.verify_receipts", StartUs: verifyStart, EndUs: sinceUs()})
	if bad > 0 {
		res.fail("%d receipts did not verify", bad)
	}

	// A ledger with one byte changed must not pass the audit.
	tampered := append([]byte(nil), in.stream...)
	tampered[len(tampered)/8] ^= 0x01
	if bs, err := ledger.ReadBatches(bytes.NewReader(tampered)); err == nil {
		if _, err := ledger.Replay(bs, in.pub, ledger.KVApp{}, pool); err == nil {
			res.fail("a ledger with one byte flipped passed the audit")
		}
	}

	// The checks ran back to back, so equal runs of them are equal windows
	// of time for windowP99.
	windows := make([][]float64, windowCount(len(verifyMs)))
	for i := range windows {
		windows[i] = append([]float64(nil), verifyMs[i*len(verifyMs)/len(windows):(i+1)*len(verifyMs)/len(windows)]...)
	}
	sort.Float64s(verifyMs)
	p50, p99 := percentile(verifyMs, 50), windowP99(windows)
	res.Attempted = replayed + len(verifyMs)
	res.Failed = bad
	res.set("latency_p50_ms", p50, "ms", len(verifyMs))
	res.set("latency_p99_ms", p99, "ms", len(verifyMs))
	res.set("throughput_eps", median(passEps), "1/s", len(passEps))
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("peak_rss_mb", peakRSSMB(), "MB", 0)
	// The generator's own cost is the same call the latency metric times.
	res.set("client.verify_us", p50*1e3, "us", len(verifyMs))
	// This workload has no cluster: the layers it never enters report the
	// zero work they did, which is the claim BENCHMARK.json makes for it.
	for name, unit := range clusterOnlyUnits {
		res.set(name, 0, unit, 0)
	}
	if cfg.traced {
		res.set("trace.throughput_eps", median(passEps), "1/s", len(passEps))
		res.set("kv.app_execute_us", timed.meanMicros(), "us", int(timed.calls.Load()))
		path, err := writeSpans(res.Workload, spans)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("  wrote %d spans to %s\n", len(spans), path)
		if err := measureLayers(res, cfg); err != nil {
			return nil, err
		}
		printBudget(res, auditBudget(res))
	}
	return res, nil
}

// clusterOnlyUnits names the metrics only a cluster can produce, with their
// units: audit.replay reports them as zero.
var clusterOnlyUnits = map[string]string{
	"setup_retries": "count", "gen_lag_p99_ms": "ms", "txpool.busy_rejects": "count",
	"transport.dropped": "count", "node.entries_per_batch": "count", "node.tick_wait_share": "ratio",
	"transport.frames_per_entry": "count", "transport.bytes_per_entry": "B", "transport.send_us": "us",
	"node.leader_changes": "count", "txpool.depth_p50": "count",
}
