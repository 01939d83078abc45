package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/txpool"
)

// metric is one named measurement. Samples is how many observations stand
// behind the value (0 where that has no meaning, as for a ratio of totals).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists every failed correctness check; empty when Correct.
	Problems []string `json:"problems,omitempty"`
}

func (r *runResult) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runConfig is what every workload is handed.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// small shrinks the fixed-size inputs (audit ledger, isolated layer
	// benchmarks) for the smoke tests; measured runs never set it.
	small bool
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// clusterSetupRepeats is how many times a cluster run boots and warms a
// cluster; setup_s is the median, which is what keeps a figure of a tenth
// of a second steady between runs.
const clusterSetupRepeats = 5

// clusterLoad is the part of a cluster workload that differs: how load is
// generated once the cluster is warm.
type clusterLoad struct {
	// rpcConns > 0: that many RPC connections, closed loop.
	rpcConns int
	// callers > 0: that many parked Node.Submit callers, closed loop.
	callers int
	// rate > 0: open loop at this many requests per second.
	rate float64
	// fresh: every request writes a never-seen key.
	fresh bool
}

const (
	openAuthors     = 256
	openOutstanding = 2048
	rpcTimeout      = 5 * time.Second
)

var workloads = []struct {
	name string
	run  func(name string, cfg runConfig) (*runResult, error)
}{
	{"rpc4.closed2", clusterLoad{rpcConns: min(runtime.NumCPU(), 2)}.run},
	{"submit4.open3k", clusterLoad{rate: 3000}.run},
	{"submit4.sat512", clusterLoad{callers: 512}.run},
	{"submit4.insert512", clusterLoad{callers: 512, fresh: true}.run},
	{"audit.replay", runAudit},
}

func newResult(name string, cfg runConfig) *runResult {
	return &runResult{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Correct: true, Metrics: map[string]metric{}}
}

// counters is a snapshot of the cluster's cumulative counts, so a measured
// interval can be reported as a difference.
type counters struct {
	entries, seqs                   uint64
	frames, bytes, calls, callNanos int64
	newViews                        int64
	appCalls, appNanos              int64
}

func snapshot(c *cluster) counters {
	s := counters{entries: c.primary().CommittedEntries(), seqs: c.primary().CommittedSeqs()}
	for _, t := range c.taps {
		s.frames += t.frames.Load()
		s.bytes += t.bytes.Load()
		s.calls += t.calls.Load()
		s.callNanos += t.callNanos.Load()
		s.newViews += t.newViews.Load()
	}
	if c.app != nil {
		s.appCalls, s.appNanos = c.app.calls.Load(), c.app.nanos.Load()
	}
	return s
}

// samplePoolDepth samples the pool's Len every millisecond until the
// returned function is called, which hands back the samples.
func samplePoolDepth(p *txpool.Pool) (stop func() []float64) {
	var depths []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				depths = append(depths, float64(p.Len()))
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return depths
	}
}

// run boots a cluster, drives this load against it for the measured
// interval, checks the outcome and scores it.
func (load clusterLoad) run(name string, cfg runConfig) (*runResult, error) {
	res := newResult(name, cfg)

	// Set-up: boot and warm a cluster several times, keep the last.
	var (
		c       *cluster
		warm    *warmup
		retries int
		setups  []float64
	)
	for i := 0; i < clusterSetupRepeats; i++ {
		if c != nil {
			warm.finish()
			c.close()
		}
		start := time.Now()
		var r int
		var err error
		c, warm, r, err = setupCluster(cfg.seed, cfg.traced)
		retries += r
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()

	var submits []submitFunc
	for i := 0; i < load.rpcConns; i++ {
		cl, err := node.DialRPC(c.rpcs[0].Addr().String(), rpcTimeout)
		if err != nil {
			warm.finish()
			return nil, fmt.Errorf("dial rpc: %w", err)
		}
		defer cl.Close()
		submits = append(submits, func(rq *ledger.Request) (node.SubmitResult, error) {
			return cl.Submit(rq, rpcTimeout)
		})
	}
	direct := func(rq *ledger.Request) (node.SubmitResult, error) {
		return c.primary().Submit(*rq), nil
	}
	for i := 0; i < load.callers; i++ {
		submits = append(submits, direct)
	}

	// Hand over from warm-up to the measured load without a gap in work:
	// the warm-up's last request resolves within a tick, and the load's
	// first request follows at once.
	runtime.GC() // start every run from a collected heap, whatever set-up left
	warmed := warm.finish()
	before := snapshot(c)
	stopSampling := func() []float64 { return nil }
	if cfg.traced {
		stopSampling = samplePoolDepth(c.pools[0])
	}
	elapsed := cfg.duration()
	var lr loadResult
	if load.rate > 0 {
		lr = runOpen(cfg.seed, direct, c.pubs, load.rate, openAuthors, openOutstanding, elapsed)
	} else {
		lr = runClosed(cfg.seed, submits, c.pubs, load.fresh, elapsed)
	}
	depths := stopSampling()

	// Score the client side. A request that resolved after the interval
	// closed counts as verified but not toward latency or throughput.
	verified, busy := 0, 0
	for _, r := range lr.records {
		if r.busy {
			busy++
		}
		if r.verified != 0 {
			verified++
		}
	}
	windows := make([][]float64, windowCount(verified))
	winLen := int64(elapsed) / int64(len(windows))
	var latMs, lagMs, verifyUs []float64
	for _, r := range lr.records {
		if r.verified == 0 {
			continue
		}
		lagMs = append(lagMs, float64(r.sent-r.due)/1e6)
		verifyUs = append(verifyUs, float64(r.verified-r.replied)/1e3)
		if w := int(r.verified / winLen); w < len(windows) {
			lat := float64(r.verified-r.due) / 1e6
			latMs = append(latMs, lat)
			windows[w] = append(windows[w], lat)
		}
	}
	sort.Float64s(latMs)
	sort.Float64s(lagMs)
	p50 := percentile(latMs, 50)
	throughput := float64(len(latMs)) / elapsed.Seconds()
	res.Attempted = len(lr.records) + lr.shed
	res.Failed = res.Attempted - verified

	// Output check: nothing acknowledged may be lost, no replica may diverge.
	entries, err := c.converged(2 * time.Second)
	if err != nil {
		res.fail("%v", err)
	} else if want := uint64(warmed) + uint64(verified); entries < want {
		res.fail("replicas hold %d entries, fewer than the %d acknowledged (warm-up %d + verified %d)",
			entries, want, warmed, verified)
	}
	if res.Failed > 0 {
		res.fail("%d of %d requests failed (busy %d, shed %d)", res.Failed, res.Attempted, busy, lr.shed)
	}
	after := snapshot(c)

	res.set("latency_p50_ms", p50, "ms", len(latMs))
	res.set("latency_p99_ms", windowP99(windows), "ms", len(latMs))
	res.set("throughput_eps", throughput, "1/s", len(latMs))
	res.set("setup_s", median(setups), "s", len(setups))

	// Diagnostics that cost nothing to take, traced or not.
	res.set("setup_retries", float64(retries), "count", 0)
	res.set("peak_rss_mb", peakRSSMB(), "MB", 0)
	res.set("gen_lag_p99_ms", percentile(lagMs, 99), "ms", len(lagMs))
	res.set("client.verify_us", median(verifyUs), "us", len(verifyUs))
	res.set("txpool.busy_rejects", float64(busy), "count", 0)
	res.set("transport.dropped", float64(c.dropped()), "count", 0)
	dEntries, dSeqs := float64(after.entries-before.entries), float64(after.seqs-before.seqs)
	res.set("node.entries_per_batch", ratio(dEntries, dSeqs), "count", int(dSeqs))
	res.set("node.tick_wait_share", p50/(float64(tick)/1e6), "ratio", len(latMs))

	if cfg.traced {
		res.set("trace.throughput_eps", throughput, "1/s", len(latMs))
		res.set("transport.frames_per_entry", ratio(float64(after.frames-before.frames), dEntries), "count", int(dEntries))
		res.set("transport.bytes_per_entry", ratio(float64(after.bytes-before.bytes), dEntries), "B", int(dEntries))
		res.set("transport.send_us", ratio(float64(after.callNanos-before.callNanos)/1e3, float64(after.calls-before.calls)), "us", int(after.calls-before.calls))
		res.set("node.leader_changes", float64(after.newViews-before.newViews), "count", 0)
		res.set("kv.app_execute_us", ratio(float64(after.appNanos-before.appNanos)/1e3, float64(after.appCalls-before.appCalls)), "us", int(after.appCalls-before.appCalls))
		res.set("txpool.depth_p50", median(depths), "count", len(depths))
		var spans []span
		for _, r := range lr.records {
			spans = append(spans, requestSpans(r)...)
		}
		path, err := writeSpans(name, spans)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("  wrote %d spans to %s\n", len(spans), path)
		// The isolated benchmarks want the machine to themselves.
		c.close()
		if err := measureLayers(res, cfg); err != nil {
			return nil, err
		}
		grownKeys := 0.0
		if load.fresh {
			grownKeys = float64(verified) / 2 // state size at mid-run
		}
		printBudget(res, clusterBudget(res, grownKeys))
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set from /proc; where there
// is no /proc it falls back to what the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
