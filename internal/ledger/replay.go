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
	Shards      uint32 // execution shard count the stream declared
	HistSize    uint64
	HistRoot    hashsig.Digest // ¯M after the last batch
	StateDigest hashsig.Digest // sharded store digest after the last batch
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
// results, per-shard batch tree roots combined into ¯G, history tree roots
// ¯M, and sharded checkpoint digests d_C. The auditor rebuilds a sharded
// store with the shard count the signed headers declare, so a replica that
// executed under a different partition than it claims is caught by the
// first checkpoint digest. app must be the same deterministic application
// the primaries ran. A nil error means the stream is exactly reproducible —
// the replicas that signed it executed it faithfully. Nothing is signed and
// nothing retained: the batches are only read.
//
// The signatures are checked beside the replay, not before it, and an
// invalid one is the verdict whatever the replay found; every goroutine
// Replay starts has exited by the time it returns or panics.
func ReplayKeyed(batches []*Batch, keyOf KeyOf, app App, pool *hashsig.VerifierPool) (res *ReplayResult, err error) {
	if app == nil {
		return nil, ErrConfig
	}
	shards, err := streamShards(batches, 0)
	if err != nil {
		return nil, err
	}
	sigs := checkHeaders(batches, keyOf, pool)
	defer func() {
		// Joined on every exit, a panic included; a bad signature wins
		// over anything the replay found.
		if bad := sigs(); bad != nil {
			res, err = nil, bad
		}
	}()
	var wantSeq uint64
	if len(batches) > 0 {
		wantSeq = batches[0].Header.Seq
	}
	c := &core{app: app, shards: shards, store: kv.NewSharded(int(shards)), hist: merkle.New()}
	return c.replay(wantSeq, batches)
}

// ReplayFrom re-executes a batch suffix resuming from a verified
// checkpoint instead of genesis: the store starts as the checkpoint
// snapshot and the history tree is restored from the frontier, so every
// per-batch check — ¯G, ¯M, d_C, results, signatures — is exactly the one
// a full-stream replay performs over the same suffix. The first batch must
// have sequence number ck.Seq+1 and the stream's shard count must match
// the checkpoint's. The checkpoint itself is re-verified: its snapshot
// must hash to its claimed d_C, so a corrupted checkpoint record cannot
// vouch for a suffix. The caller remains responsible for binding ck.Digest
// to a signed header (paper §3.4); given that binding, a successful
// ReplayFrom is equivalent evidence to a full replay.
func ReplayFrom(ck *Checkpoint, batches []*Batch, pub *hashsig.PublicKey, app App, pool *hashsig.VerifierPool) (res *ReplayResult, err error) {
	if app == nil || ck == nil {
		return nil, ErrConfig
	}
	shards, err := streamShards(batches, ck.Store.ShardCount())
	if err != nil {
		return nil, err
	}
	sigs := checkHeaders(batches, singleKey(pub), pool)
	defer func() {
		// Joined on every exit, a panic included; a bad signature wins
		// over anything the replay found.
		if bad := sigs(); bad != nil {
			res, err = nil, bad
		}
	}()
	store := ck.Store.Clone()
	if got := store.CheckpointDigest(); got != ck.Digest {
		return nil, fmt.Errorf("%w: checkpoint %d: snapshot digest mismatch", ErrReplay, ck.Seq)
	}
	hist, err := merkle.FromFrontier(ck.Frontier)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint %d: %v", ErrReplay, ck.Seq, err)
	}
	c := &core{app: app, shards: shards, store: store, hist: hist, lastCkpt: ck.Digest}
	return c.replay(ck.Seq+1, batches)
}

// streamShards checks the stream's structural coherence — one shard count,
// declared by every header, within the store's limit, and matching
// wantShards when non-zero — and returns that count.
func streamShards(batches []*Batch, wantShards uint32) (uint32, error) {
	shards := wantShards
	if shards == 0 {
		shards = 1
	}
	for i, b := range batches {
		if i == 0 && wantShards == 0 {
			shards = b.Header.Shards
			if shards < 1 || shards > kv.MaxShards {
				return 0, fmt.Errorf("%w: batch %d: shard count %d", ErrReplay, b.Header.Seq, shards)
			}
		} else if b.Header.Shards != shards {
			return 0, fmt.Errorf("%w: batch %d: shard count %d, stream expects %d",
				ErrReplay, b.Header.Seq, b.Header.Shards, shards)
		}
	}
	return shards, nil
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
// keeps: each batch's rollback mark is dropped as soon as the batch
// reproduces. wantSeq pins the first batch's sequence number.
func (c *core) replay(wantSeq uint64, batches []*Batch) (*ReplayResult, error) {
	res := &ReplayResult{Shards: c.shards}
	for _, b := range batches {
		seq := b.Header.Seq
		if seq != wantSeq {
			return nil, fmt.Errorf("%w: batch %d: expected sequence %d", ErrReplay, seq, wantSeq)
		}
		wantSeq++
		if div := c.reproduce(seq, b.Entries, &b.Header); div != nil {
			return nil, fmt.Errorf("%w: %w", ErrReplay, div)
		}
		c.store.PruneMarks(seq + 1)
		res.Entries += len(b.Entries)
		res.Batches++
	}
	res.HistSize = c.hist.Size()
	res.HistRoot = c.hist.Root()
	res.StateDigest = c.store.CheckpointDigest()
	res.CkptDigest = c.lastCkpt
	return res, nil
}
