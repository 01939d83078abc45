package consensus

import (
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// maxSigCache bounds a replica's own hashsig.VerifiedSet; eviction only
// re-imposes verification costs on the buffered-message drain, never
// correctness.
const maxSigCache = 1 << 16

// verifyTasks checks every task, consulting the set first and routing the
// remainder through the verifier pool (paper §3.4: protocol signature
// verification is pooled so replicas stay compute-bound on useful work).
// Single leftovers — and every task when the pool cannot actually run
// checks concurrently — verify inline: the pool round-trip only pays for
// itself when there is parallelism to buy.
func (r *Replica) verifyTasks(tasks []hashsig.VerifyTask) bool {
	pending := tasks[:0:0]
	var keys []hashsig.Digest
	for _, t := range tasks {
		k := t.MemoKey()
		if r.sigOK.Has(k) {
			continue
		}
		pending = append(pending, t)
		keys = append(keys, k)
	}
	if len(pending) == 0 {
		return true
	}
	if len(pending) == 1 || r.pool == nil || r.pool.Workers() <= 1 {
		ok := true
		for i, t := range pending {
			if t.Key.Verify(t.Digest, t.Sig) {
				r.sigOK.Add(keys[i])
			} else {
				ok = false
			}
		}
		return ok
	}
	results := r.pool.VerifyAll(pending)
	ok := true
	for i, res := range results {
		if res {
			r.sigOK.Add(keys[i])
		} else {
			ok = false
		}
	}
	return ok
}

// statementTask is the one signature check a pre-prepare statement owes:
// the header's signature under the key of the primary it names. A header
// whose primary does not lead its view gets a nil key, which never verifies.
func (r *Replica) statementTask(h *ledger.BatchHeader) hashsig.VerifyTask {
	return hashsig.VerifyTask{Key: r.keyOf(h), Digest: h.StatementDigest(), Sig: h.Sig}
}

// prepareTasks returns a prepare's two checks: the carried statement's and
// the backup's own signature (p.Replica already range-checked).
func (r *Replica) prepareTasks(p *Prepare) []hashsig.VerifyTask {
	return []hashsig.VerifyTask{
		r.statementTask(&p.Header),
		{Key: r.cfg.Peers[p.Replica], Digest: p.SigningDigest(), Sig: p.Sig},
	}
}
