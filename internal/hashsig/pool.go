package hashsig

import (
	"runtime"
	"sync"
)

// VerifyTask is one signature check submitted to a VerifierPool.
type VerifyTask struct {
	Key    *PublicKey
	Digest Digest
	Sig    Signature
}

// VerifierPool verifies signatures in parallel across a fixed set of worker
// goroutines. The paper parallelizes verification of client and replica
// signatures to keep replicas compute-bound on useful work (§3.4); the pool
// is shared by the replica hot path and the auditor's replay.
//
// The zero value is not usable; construct with NewVerifierPool.
type VerifierPool struct {
	workers int
	tasks   chan poolBatch
	wg      sync.WaitGroup
	once    sync.Once
}

type poolBatch struct {
	tasks   []VerifyTask
	results []bool
	from    int
	done    *sync.WaitGroup
}

// DefaultPool returns a process-wide pool sized to GOMAXPROCS *at the time
// of the call*, not at first use: `go test -cpu 1,4` runs and processes
// whose CPU quota changes get a pool matching the current parallelism
// instead of whichever setting happened to be live when the first caller
// arrived. Pools are cached per size; a pool handed out earlier stays valid
// (and is never closed), so callers may hold one across a GOMAXPROCS
// change without risk — they just stop sharing with new callers.
func DefaultPool() *VerifierPool {
	n := runtime.GOMAXPROCS(0)
	defaultPoolsMu.Lock()
	defer defaultPoolsMu.Unlock()
	if defaultPools == nil {
		defaultPools = make(map[int]*VerifierPool)
	}
	p, ok := defaultPools[n]
	if !ok {
		p = NewVerifierPool(n)
		defaultPools[n] = p
	}
	return p
}

var (
	defaultPoolsMu sync.Mutex
	defaultPools   map[int]*VerifierPool
)

// Workers returns the pool's worker count. Callers use it to decide
// whether handing off a small batch is worth the channel round-trip (a
// one-worker pool can never verify in parallel).
func (p *VerifierPool) Workers() int { return p.workers }

// NewVerifierPool creates a pool with the given number of workers.
// workers <= 0 selects GOMAXPROCS.
func NewVerifierPool(workers int) *VerifierPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &VerifierPool{
		workers: workers,
		tasks:   make(chan poolBatch, workers*2),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *VerifierPool) worker() {
	defer p.wg.Done()
	for b := range p.tasks {
		for i, t := range b.tasks {
			b.results[b.from+i] = t.Key.Verify(t.Digest, t.Sig)
		}
		b.done.Done()
	}
}

// VerifyAll checks every task and returns a parallel slice of results.
func (p *VerifierPool) VerifyAll(tasks []VerifyTask) []bool {
	results := make([]bool, len(tasks))
	if len(tasks) == 0 {
		return results
	}
	// Shard tasks across workers in contiguous chunks.
	chunk := (len(tasks) + p.workers - 1) / p.workers
	var done sync.WaitGroup
	for from := 0; from < len(tasks); from += chunk {
		to := from + chunk
		if to > len(tasks) {
			to = len(tasks)
		}
		done.Add(1)
		p.tasks <- poolBatch{tasks: tasks[from:to], results: results, from: from, done: &done}
	}
	done.Wait()
	return results
}

// Close shuts the pool down. Pending VerifyAll calls complete first.
func (p *VerifierPool) Close() {
	p.once.Do(func() {
		close(p.tasks)
	})
	p.wg.Wait()
}
