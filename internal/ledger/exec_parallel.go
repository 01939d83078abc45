// Conflict-aware parallel batch execution (paper §6): transactions whose
// shard footprints are disjoint run concurrently; transactions that
// conflict keep batch order. The executor is speculative but never trusts a
// declared footprint — every transaction runs under shard-access tracking,
// and any access outside the declaration aborts the speculation and re-runs
// the whole batch through the sequential loop, so results, receipts, and
// signed headers are byte-identical to sequential execution in every case.
// It serves all three policies: a proposal's results are set, a backup's or
// an auditor's are compared, by the same waves.
//
// # Why waves preserve sequential semantics
//
// Transactions are planned in batch order. A transaction's wave is one past
// the highest wave of any earlier one whose footprint intersects its own
// (lastWave below); a transaction with an unknown footprint is a barrier
// that conflicts with everything before and after it. Two facts follow:
//
//  1. Conflicting transactions always execute in batch order, in different
//     waves, with the later one beginning after the earlier one committed.
//  2. A transaction can only be scheduled at or before an earlier-indexed
//     one's wave when their footprints are disjoint — the planner's
//     recurrence would otherwise have pushed it later. Transactions over
//     disjoint shard sets touch disjoint keys, so their effects and results
//     commute: executing them out of batch order, or concurrently against
//     the same pre-wave snapshot, produces the same post-state and the
//     same per-transaction write-set digests as the sequential loop.
//
// Within a wave every transaction begins against the same snapshot (the
// store after the previous wave), executes on a worker, and is validated
// and committed on the owning goroutine in batch order — the store stays
// single-writer throughout. Commutativity is exactly what the validation
// step makes trustworthy: it holds for the declared footprints by
// construction, and tracking proves the declarations covered every actual
// access before any of the wave's effects are kept.
package ledger

import (
	"math/bits"
	"runtime"
	"sync"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
)

// minParallelBatch gates the parallel executor: below this many entries,
// wave planning and worker hand-off cost more than one core's loop.
const minParallelBatch = 64

// parallelExec returns the app's Footprinter when this core and batch size
// can profit from parallel execution: a multi-shard store, more than one
// CPU to run on, enough entries to amortize planning, and an app that can
// declare footprints at all.
func (c *core) parallelExec(n int) (Footprinter, bool) {
	if n < minParallelBatch || c.shards <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		return nil, false
	}
	f, ok := c.app.(Footprinter)
	return f, ok
}

// shardSet is a bitset over shard indices; nil means unknown (barrier).
type shardSet []uint64

func newShardSet(shards uint32) shardSet {
	return make(shardSet, (shards+63)/64)
}

func (s shardSet) add(shard uint32) { s[shard>>6] |= 1 << (shard & 63) }

// covers reports whether every bit of other is set in s. A nil other
// (untracked) is never covered; a nil s covers nothing.
func (s shardSet) covers(other []uint64) bool {
	if s == nil || other == nil {
		return false
	}
	for w, bits := range other {
		if bits&^s[w] != 0 {
			return false
		}
	}
	return true
}

// footprintOf resolves one transaction payload to its declared shard set.
func footprintOf(f Footprinter, body []byte, shards uint32) shardSet {
	keys, ok := f.Footprint(body)
	if !ok {
		return nil
	}
	fp := newShardSet(shards)
	for _, k := range keys {
		fp.add(kv.ShardOfKey(k, shards))
	}
	return fp
}

// planWaves groups the transaction indices of entries into conflict-free
// waves. fps[i] is entry i's declared shard set (nil = barrier); entries of
// any other kind never execute and are not scheduled. Returned waves hold
// entry indices in batch order.
func planWaves(entries []Entry, fps []shardSet, shards uint32) [][]int {
	lastWave := make([]int, shards)
	barrier := 0 // wave of the most recent barrier; floors every transaction after it
	maxWave := 0
	waveOf := make([]int, len(entries))
	for i := range entries {
		if entries[i].Kind != KindTransaction {
			continue
		}
		fp := fps[i]
		if fp == nil {
			w := maxWave + 1
			barrier, maxWave, waveOf[i] = w, w, w
			continue
		}
		w := barrier
		for word, set := range fp {
			for ; set != 0; set &= set - 1 {
				s := word*64 + bits.TrailingZeros64(set)
				if lastWave[s] > w {
					w = lastWave[s]
				}
			}
		}
		w++
		for word, set := range fp {
			for ; set != 0; set &= set - 1 {
				lastWave[word*64+bits.TrailingZeros64(set)] = w
			}
		}
		if w > maxWave {
			maxWave = w
		}
		waveOf[i] = w
	}
	waves := make([][]int, maxWave)
	for i := range entries {
		if w := waveOf[i]; w > 0 {
			waves[w-1] = append(waves[w-1], i)
		}
	}
	return waves
}

// waveJob is one transaction handed to a wave worker: the worker runs the
// app and computes the write-set digest; the owning goroutine validates,
// commits or aborts, and reads the outcome only after the wave joins.
type waveJob struct {
	tx       *kv.Tx
	body     []byte
	res      hashsig.Digest
	err      error
	panicked any
	done     *sync.WaitGroup
}

// waveRunner is a batch-scoped worker pool executing wave jobs. Workers
// persist across waves (a batch can have hundreds) and exit when the jobs
// channel closes.
type waveRunner struct {
	app  App
	jobs chan *waveJob
	wg   sync.WaitGroup
}

func newWaveRunner(app App, queue int) *waveRunner {
	r := &waveRunner{app: app, jobs: make(chan *waveJob, queue)}
	workers := runtime.GOMAXPROCS(0)
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			for j := range r.jobs {
				r.run(j)
			}
		}()
	}
	return r
}

// run executes one job, trapping panics so a buggy App cannot kill the
// process from a worker goroutine; the owning goroutine re-panics with the
// original value, preserving the recover-then-RollbackTo contract callers
// of ExecuteBatch and ApplyBatch rely on.
func (r *waveRunner) run(j *waveJob) {
	defer j.done.Done()
	defer func() {
		if p := recover(); p != nil {
			j.panicked = p
		}
	}()
	if j.err = r.app.Execute(j.tx, j.body); j.err == nil {
		j.res = j.tx.WriteSetDigest()
	}
}

// close joins the workers. Safe to call once, after the last wave.
func (r *waveRunner) close() {
	close(r.jobs)
	r.wg.Wait()
}

// runWaves is the speculative fast path of execute: it runs the batch's
// transactions in conflict-free waves and leaves the store, the entries,
// c.lastCkpt and (with hash set) the scratch's digests exactly as
// runSequential would. It returns false — leaving execute to discard the
// store's partial effects and re-run sequentially — on any anomaly at all:
// a violated footprint, a result or checkpoint digest that does not
// compare, a malformed marker, an unknown kind. Entries are hashed only
// once final, but a declined speculation may already have hashed results a
// sequential run would not produce, so the re-run hashes everything again.
func (c *core) runWaves(f Footprinter, seq uint64, entries []Entry, want *BatchHeader, hash bool) bool {
	hasher := c.newHasher(hash, len(entries))
	defer hasher.wait()
	last := len(entries) - 1
	fps := make([]shardSet, len(entries))
	for ei := range entries {
		e := &entries[ei]
		switch e.Kind {
		case KindTransaction:
			fps[ei] = footprintOf(f, e.Payload, c.shards)
		case KindGovernance:
			// Governance entries never change: hash them immediately.
			hasher.submit(ei, e)
		case KindCheckpoint:
			// A trailing marker is settled after the last wave, below.
			if ei != last {
				return false
			}
		default:
			return false
		}
	}

	waves := planWaves(entries, fps, c.shards)
	runner := newWaveRunner(c.app, len(entries))
	defer runner.close()

	jobs := make([]*waveJob, len(entries))
	for _, wave := range waves {
		var done sync.WaitGroup
		done.Add(len(wave))
		// Begin on the owning goroutine: every transaction of the wave sees
		// the same snapshot, the store after the previous wave's commits.
		for _, i := range wave {
			j := &waveJob{tx: c.store.BeginTracked(), body: entries[i].Payload, done: &done}
			jobs[i] = j
			runner.jobs <- j
		}
		done.Wait()
		// Validate and commit in batch order on the owning goroutine.
		for _, i := range wave {
			j := jobs[i]
			if j.panicked != nil {
				panic(j.panicked)
			}
			if !fps[i].covers(j.tx.TouchedShards()) {
				// The declaration missed an access: the wave's snapshot
				// reasoning no longer holds. Abandon the speculation.
				return false
			}
			// j.res is zero when the app failed, as a recorded abort is.
			if want == nil {
				entries[i].Result = j.res
			} else if j.res != entries[i].Result {
				return false
			}
			if j.err != nil {
				j.tx.Abort()
			} else {
				j.tx.Commit()
			}
			hasher.submit(i, &entries[i])
		}
	}
	if last >= 0 && entries[last].Kind == KindCheckpoint {
		if c.marker(seq, entries, last, want) != nil {
			return false
		}
		hasher.submit(last, &entries[last])
	}
	hasher.wait()
	return true
}
