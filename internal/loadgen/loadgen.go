// Package loadgen drives a running cluster through the client submission
// RPC and measures committed throughput. It is both the library behind
// cmd/loadgen and the workload driver for the CI acceptance job: workers
// submit ordered request streams, follow leader hints, verify every
// receipt client-side, and the run reports committed entries/sec and the
// median submit→verified-receipt latency.
package loadgen

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/rpc"
)

// Config parameterizes one load run.
type Config struct {
	// Addrs lists the cluster's RPC addresses, indexed by node ID. The
	// NotPrimary leader hint is an index into this slice.
	Addrs []string
	// Pubs are the replica public keys, indexed by replica ID: a receipt
	// must verify under the key of the primary its header names.
	// Empty disables client-side verification.
	Pubs []*hashsig.PublicKey
	// Workers is the number of concurrent submitters, each with its own
	// author identity and ReqNo stream. Default 4.
	Workers int
	// Requests is the per-worker request count. Default 32.
	Requests int
	// Seed derives worker author identities, so re-runs against a fresh
	// cluster are reproducible. Default "loadgen".
	Seed string
	// Timeout bounds each submission exchange. Default 15s.
	Timeout time.Duration
	// ValueLen sizes each request's op value. Default 32.
	ValueLen int
}

// Result summarizes a load run.
type Result struct {
	Committed     int
	Duplicates    int
	Failures      int
	Elapsed       time.Duration
	EntriesPerSec float64
	// MedianLatency is the median, over committed requests, of the time
	// from a worker's first submission of the request to its receipt
	// verifying — leader redirects and busy back-offs included.
	MedianLatency time.Duration
}

func (r *Result) String() string {
	return fmt.Sprintf("committed %d (dup %d, failed %d) in %.2fs: %.1f entries/sec, median latency %.2f ms",
		r.Committed, r.Duplicates, r.Failures, r.Elapsed.Seconds(), r.EntriesPerSec,
		float64(r.MedianLatency)/float64(time.Millisecond))
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Requests <= 0 {
		c.Requests = 32
	}
	if c.Seed == "" {
		c.Seed = "loadgen"
	}
	if c.Timeout <= 0 {
		c.Timeout = 15 * time.Second
	}
	if c.ValueLen <= 0 {
		c.ValueLen = 32
	}
}

// Run executes the configured workload and blocks until every worker
// finishes. The first hard error (no address reachable, receipt that
// fails verification) aborts the run.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no RPC addresses")
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      Result
		lats     []time.Duration
		firstErr error
	)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerLats, dups, fails, err := runWorker(&cfg, w)
			mu.Lock()
			defer mu.Unlock()
			res.Committed += len(workerLats)
			lats = append(lats, workerLats...)
			res.Duplicates += dups
			res.Failures += fails
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Elapsed = time.Since(start)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.EntriesPerSec = float64(res.Committed) / s
	}
	if len(lats) > 0 {
		slices.Sort(lats)
		res.MedianLatency = lats[len(lats)/2]
	}
	return &res, nil
}

// worker is one submission stream: a distinct author, strictly increasing
// ReqNos, and a sticky connection that follows NotPrimary leader hints.
type worker struct {
	cfg    *Config
	author hashsig.Digest
	target int // index into cfg.Addrs
	cl     *rpc.Client
}

// runWorker returns one latency per committed request.
func runWorker(cfg *Config, idx int) (lats []time.Duration, dups, fails int, err error) {
	wk := &worker{
		cfg:    cfg,
		author: hashsig.Sum([]byte(fmt.Sprintf("%s/worker/%d", cfg.Seed, idx))),
		target: idx % len(cfg.Addrs),
	}
	defer wk.disconnect()
	val := make([]byte, cfg.ValueLen)
	for i := 0; i < cfg.Requests; i++ {
		rq := ledger.Request{
			Author: wk.author,
			ReqNo:  uint64(i + 1),
			Body: ledger.EncodeOps([]ledger.Op{{
				Key: fmt.Sprintf("w%d/k%d", idx, i+1),
				Val: val,
			}}),
		}
		start := time.Now()
		st, rerr := wk.submit(&rq)
		switch {
		case rerr != nil:
			return lats, dups, fails, rerr
		case st == rpc.StatusCommitted:
			lats = append(lats, time.Since(start))
		case st == rpc.StatusDuplicate:
			// A retry after a lost response raced an already-committed
			// request: the entry is on the ledger, just not re-receipted.
			dups++
		default:
			fails++
		}
	}
	return lats, dups, fails, nil
}

// submit pushes one request until a terminal verdict, rotating through
// leader hints and (on connection failure) the remaining nodes.
func (wk *worker) submit(rq *ledger.Request) (rpc.Status, error) {
	deadline := time.Now().Add(wk.cfg.Timeout * 4)
	var lastErr error
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		if wk.cl == nil {
			cl, err := rpc.Dial(wk.cfg.Addrs[wk.target], wk.cfg.Timeout)
			if err != nil {
				lastErr = err
				wk.target = (wk.target + 1) % len(wk.cfg.Addrs)
				time.Sleep(50 * time.Millisecond)
				continue
			}
			wk.cl = cl
		}
		res, err := wk.cl.Submit(rq, wk.cfg.Timeout)
		if err != nil {
			lastErr = err
			wk.disconnect()
			wk.target = (wk.target + 1) % len(wk.cfg.Addrs)
			continue
		}
		switch res.Status {
		case rpc.StatusCommitted:
			if len(wk.cfg.Pubs) > 0 {
				if err := VerifyReceipt(wk.cfg.Pubs, rq, res.Receipt); err != nil {
					return res.Status, err
				}
			}
			return res.Status, nil
		case rpc.StatusNotPrimary:
			// Follow the hint; a stale hint just round-trips again.
			next := int(res.Leader)
			if next < 0 || next >= len(wk.cfg.Addrs) || next == wk.target {
				next = (wk.target + 1) % len(wk.cfg.Addrs)
			}
			wk.disconnect()
			wk.target = next
		case rpc.StatusBusy, rpc.StatusTimeout:
			// Transient: pool backpressure or a slow view — back off and
			// resubmit the same request (dedup makes this safe).
			time.Sleep(100 * time.Millisecond)
		default:
			return res.Status, nil
		}
	}
	return 0, fmt.Errorf("loadgen: reqno %d gave up across %d nodes: %v", rq.ReqNo, len(wk.cfg.Addrs), lastErr)
}

// VerifyReceipt checks that rc proves rq committed — a transaction entry
// with its author, reqno and body — under the key of the primary its header
// names (which must lead the view it names): the client-side audit step the
// paper's receipts exist for. Every client path that accepts a
// StatusCommitted result calls it: the load generator and the simulation.
// While requests are unsigned, the body is what stops a primary from
// receipting other words under the client's ⟨author, reqno⟩.
func VerifyReceipt(pubs []*hashsig.PublicKey, rq *ledger.Request, rc *ledger.Receipt) error {
	if rc == nil {
		return fmt.Errorf("loadgen: committed without receipt (reqno %d)", rq.ReqNo)
	}
	if e := &rc.Entry; e.Kind != ledger.KindTransaction || e.ReqNo != rq.ReqNo || e.Author != rq.Author || !bytes.Equal(e.Payload, rq.Body) {
		return fmt.Errorf("loadgen: receipt is for a %v entry by author %x reqno %d (%d-byte body), want reqno %d (%d bytes)",
			e.Kind, e.Author[:4], e.ReqNo, len(e.Payload), rq.ReqNo, len(rq.Body))
	}
	if key := ledger.StatementKey(pubs)(&rc.Header); key == nil || !rc.Verify(key) {
		return fmt.Errorf("loadgen: receipt for reqno %d does not verify under the key of view %d's primary %d",
			rq.ReqNo, rc.Header.View, rc.Header.Primary)
	}
	return nil
}

func (wk *worker) disconnect() {
	if wk.cl != nil {
		wk.cl.Close()
		wk.cl = nil
	}
}
