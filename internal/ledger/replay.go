package ledger

import (
	"errors"
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/merkle"
)

// ErrReplay reports a batch stream that does not reproduce its own signed
// commitments: a tampered entry, a forged result, an inconsistent root
// (each also a *Divergence carrying the signed header, see errors.As), or
// an invalid header signature. This is the auditor's evidence of
// misbehaviour (paper §5).
var ErrReplay = errors.New("ledger: replay divergence")

// ReplayResult summarizes a successful replay.
type ReplayResult struct {
	Batches     int
	Entries     int
	HistSize    uint64
	HistRoot    hashsig.Digest // ¯M after the last batch
	StateDigest hashsig.Digest // store digest after the last batch
	CkptDigest  hashsig.Digest // d_C of the last checkpoint taken
}

// KeyOf names the key a header's signature must verify under, or nil when
// no acceptable signer exists for it. A ledger that lived through a view
// change has one signer per view: under consensus the key is
// peers[h.Primary], given that h.Primary leads h.View (StatementKey). Reconfiguration will make it a function of
// h.Seq as well; the seam is here so the audit need not change shape.
type KeyOf func(h *BatchHeader) *hashsig.PublicKey

// singleKey is the KeyOf of a single-writer ledger: every header must verify
// under pub.
func singleKey(pub *hashsig.PublicKey) KeyOf {
	return func(*BatchHeader) *hashsig.PublicKey { return pub }
}

// Replay is ReplayKeyed for a single-writer ledger: every header must
// verify under pub.
func Replay(batches []*Batch, pub *hashsig.PublicKey, app App, pool *hashsig.VerifierPool) (*ReplayResult, error) {
	return ReplayKeyed(batches, singleKey(pub), app, pool)
}

// ReplayKeyed is the audit policy: it drives a batch stream from genesis
// through a fresh core and checks every signed commitment against the
// recomputed state: header signatures, each under the key keyOf names for
// it (verified batch-parallel through pool when provided), per-entry
// results, batch tree roots ¯G, history tree roots ¯M, and checkpoint
// digests d_C. app must be the same deterministic application
// the primaries ran. A nil error means the stream is exactly reproducible —
// the replicas that signed it executed it faithfully. Nothing is signed and
// nothing retained: the batches are only read.
//
// The signatures are checked beside the replay, not before it, and an
// invalid one is the verdict whatever the replay found; every goroutine
// Replay starts has exited by the time it returns or panics.
func ReplayKeyed(batches []*Batch, keyOf KeyOf, app App, pool *hashsig.VerifierPool) (*ReplayResult, error) {
	if app == nil {
		return nil, ErrConfig
	}
	return audit(batches, keyOf, pool, func() (*ReplayResult, error) {
		var wantSeq uint64
		if len(batches) > 0 {
			wantSeq = batches[0].Header.Seq
		}
		c := &core{app: app, store: kv.New(), hist: merkle.New()}
		return c.replay(wantSeq, batches)
	})
}

// ReplayFrom re-executes a batch suffix resuming from a verified
// checkpoint instead of genesis: the store starts as the checkpoint
// snapshot and the history tree is restored from the frontier, so every
// per-batch check — ¯G, ¯M, d_C, results, signatures — is exactly the one
// a full-stream replay performs over the same suffix. The first batch must
// have sequence number ck.Seq+1. The checkpoint itself is re-verified: its
// snapshot
// must hash to its claimed d_C, so a corrupted checkpoint record cannot
// vouch for a suffix. The caller remains responsible for binding ck.Digest
// to a signed header (paper §3.4); given that binding, a successful
// ReplayFrom is equivalent evidence to a full replay.
func ReplayFrom(ck *Checkpoint, batches []*Batch, pub *hashsig.PublicKey, app App, pool *hashsig.VerifierPool) (*ReplayResult, error) {
	if app == nil || ck == nil {
		return nil, ErrConfig
	}
	return audit(batches, singleKey(pub), pool, func() (*ReplayResult, error) {
		store := ck.Store.Clone()
		if got := store.CheckpointDigest(); got != ck.Digest {
			return nil, fmt.Errorf("%w: checkpoint %d: snapshot digest mismatch", ErrReplay, ck.Seq)
		}
		hist, err := merkle.FromFrontier(ck.Frontier)
		if err != nil {
			return nil, fmt.Errorf("%w: checkpoint %d: %v", ErrReplay, ck.Seq, err)
		}
		c := &core{app: app, store: store, hist: hist, lastCkpt: ck.Digest}
		return c.replay(ck.Seq+1, batches)
	})
}

// audit runs replay with every header signature of batches checked beside
// it (checkHeaders), each under the key keyOf names for it. The signatures
// are joined on every exit, a panic included, and a bad one wins over
// anything replay found.
func audit(batches []*Batch, keyOf KeyOf, pool *hashsig.VerifierPool, replay func() (*ReplayResult, error)) (res *ReplayResult, err error) {
	sigs := checkHeaders(batches, keyOf, pool)
	defer func() {
		if bad := sigs(); bad != nil {
			res, err = nil, bad
		}
	}()
	return replay()
}

// checkHeaders starts verifying every header signature of the stream, each
// under the key keyOf names for it, as one parallel batch through pool
// when given — replay is the verification-heavy path the paper
// parallelizes (§3.4) — on a goroutine of its own beside the replay. The
// returned wait joins it and names the first batch whose signature failed.
func checkHeaders(batches []*Batch, keyOf KeyOf, pool *hashsig.VerifierPool) (wait func() error) {
	done := make(chan struct{})
	var oks []bool
	go func() {
		defer close(done)
		tasks := make([]hashsig.VerifyTask, len(batches))
		for i, b := range batches {
			tasks[i] = hashsig.VerifyTask{Key: keyOf(&b.Header), Digest: b.Header.StatementDigest(), Sig: b.Header.Sig}
		}
		if pool != nil {
			oks = pool.VerifyAll(tasks)
			return
		}
		oks = make([]bool, len(tasks))
		for i, t := range tasks {
			oks[i] = t.Key.Verify(t.Digest, t.Sig)
		}
	}()
	return func() error {
		<-done
		for i, ok := range oks {
			if !ok {
				return fmt.Errorf("%w: batch %d: invalid header signature", ErrReplay, batches[i].Header.Seq)
			}
		}
		return nil
	}
}

// replay drives batches through the core (fresh at genesis, or
// checkpoint-seeded) exactly as a backup would, minus everything a backup
// keeps: no batch is retained and no rollback mark taken, since a replay
// that diverges is over. wantSeq pins the first batch's sequence number.
//
// Replay is derive as a pipeline: this goroutine is the execution lane and
// runs core.execute, while a checker goroutine, fed through a small
// bounded queue, runs core.check on each batch in order a batch or more
// behind it. The checker owns the history tree and lastCkpt; the lane owns
// the store, and the snapshot execute takes at each marker (Clone, O(1))
// is what the checker hashes while the lane builds its successors (see
// champ's concurrency contract). The verdict is the one derive would
// reach, since it is derive's own two halves: the first divergence in
// derivation order — batch, then entry, then header field. A structural
// divergence ends the stream at that entry, and the checker reports it
// only if nothing before it diverged; a divergence the checker finds
// stops the lane at its next batch.
func (c *core) replay(wantSeq uint64, batches []*Batch) (*ReplayResult, error) {
	k := c.startChecker()
	// Joined on every exit, an App panic included.
	defer k.join()
	entries := 0
	for _, b := range batches {
		if !k.submit(c.replayLane(wantSeq, b)) {
			break
		}
		wantSeq++
		entries += len(b.Entries)
	}
	if err := k.join(); err != nil {
		return nil, err
	}
	return &ReplayResult{
		Batches:     len(batches),
		Entries:     entries,
		HistSize:    c.hist.Size(),
		HistRoot:    c.hist.Root(),
		StateDigest: c.store.CheckpointDigest(),
		CkptDigest:  c.lastCkpt,
	}, nil
}

// replayLane executes batch b, expected at wantSeq, and returns the
// checker's share of it: a batch out of sequence is not executed, and its
// job carries only that verdict.
func (c *core) replayLane(wantSeq uint64, b *Batch) *checkJob {
	if seq := b.Header.Seq; seq != wantSeq {
		return &checkJob{seq: seq, seqErr: fmt.Errorf("%w: batch %d: expected sequence %d", ErrReplay, seq, wantSeq)}
	}
	return c.execute(wantSeq, b.Entries, &b.Header)
}

// verdict is check as the checker runs it: a batch out of sequence fails
// as such, and a divergence is wrapped in ErrReplay.
func (c *core) verdict(j *checkJob) error {
	if j.seqErr != nil {
		return j.seqErr
	}
	if _, div := c.check(j); div != nil {
		return fmt.Errorf("%w: %w", ErrReplay, div)
	}
	return nil
}

// checkerDepth bounds the batches the lane may run ahead of the checker.
// A few batches absorb the checker's burst at each marker, when it hashes
// every trie path written since the last one.
const checkerDepth = 8

// checker is the goroutine that runs core.verdict over the jobs of one
// replay, in order, until the first one fails.
type checker struct {
	jobs   chan *checkJob
	failed chan struct{} // closed once err is set
	done   chan struct{} // closed when the goroutine exits
	closed bool
	err    error
}

// startChecker starts c's checker.
func (c *core) startChecker() *checker {
	k := &checker{jobs: make(chan *checkJob, checkerDepth), failed: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(k.done)
		for j := range k.jobs {
			if k.err = c.verdict(j); k.err != nil {
				close(k.failed)
				return
			}
		}
	}()
	return k
}

// submit queues j and reports whether the lane should go on: not once j
// ends the stream, nor once the checker has failed, since every later
// batch comes after its verdict.
func (k *checker) submit(j *checkJob) bool {
	select {
	case k.jobs <- j:
		return j.end == nil && j.seqErr == nil
	case <-k.failed:
		return false
	}
}

// join ends the job stream and waits for the checker, returning its
// verdict. It is idempotent.
func (k *checker) join() error {
	if !k.closed {
		k.closed = true
		close(k.jobs)
	}
	<-k.done
	return k.err
}
