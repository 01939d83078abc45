package consensus

import (
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// maxSigCache bounds each replica's hashsig.VerifiedSet; eviction only
// re-imposes verification costs on the buffered-message drain, never
// correctness. The set is per replica and never shared: replicas built
// from the same key objects in one process must not vouch for each other's
// checks — no multi-process deployment could.
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

// prepareTasks appends a prepare's two checks: the carried statement's and
// the backup's own signature.
func (r *Replica) prepareTasks(p *Prepare, tasks []hashsig.VerifyTask) []hashsig.VerifyTask {
	tasks = append(tasks, r.statementTask(&p.Header))
	if int(p.Replica) < r.n {
		tasks = append(tasks, hashsig.VerifyTask{Key: r.cfg.Peers[p.Replica], Digest: p.SigningDigest(), Sig: p.Sig})
	}
	return tasks
}

// messageTasks appends every signature check message m will require when
// handled, using the identities the message itself claims (all bounds
// checked; invalid claims simply contribute no task and fail later in the
// serial path).
func (r *Replica) messageTasks(m Message, tasks []hashsig.VerifyTask) []hashsig.VerifyTask {
	switch msg := m.(type) {
	case *PrePrepare:
		tasks = append(tasks, r.statementTask(&msg.Header))
	case *Prepare:
		tasks = r.prepareTasks(msg, tasks)
	case *ViewChange:
		tasks = r.viewChangeMsgTasks(msg, tasks)
	case *NewView:
		if int(msg.Replica) < r.n {
			tasks = append(tasks, hashsig.VerifyTask{
				Key: r.cfg.Peers[msg.Replica], Digest: msg.SigningDigest(), Sig: msg.Sig})
		}
		for i := range msg.VCs {
			tasks = r.viewChangeMsgTasks(&msg.VCs[i], tasks)
		}
	}
	return tasks
}

func (r *Replica) viewChangeMsgTasks(vc *ViewChange, tasks []hashsig.VerifyTask) []hashsig.VerifyTask {
	if int(vc.Replica) < r.n {
		tasks = append(tasks, hashsig.VerifyTask{
			Key: r.cfg.Peers[vc.Replica], Digest: vc.SigningDigest(), Sig: vc.Sig})
	}
	if vc.CommitProof != nil {
		if ts, ok := vc.CommitProof.structure(r.cfg.Peers, r.quorum); ok {
			tasks = append(tasks, ts...)
		}
	}
	for i := range vc.Prepared {
		claim := &vc.Prepared[i]
		tasks = append(tasks, r.statementTask(&claim.PP.Header))
		for j := range claim.Prepares {
			p := &claim.Prepares[j]
			if int(p.Replica) < r.n {
				tasks = append(tasks, hashsig.VerifyTask{
					Key: r.cfg.Peers[p.Replica], Digest: p.SigningDigest(), Sig: p.Sig})
			}
		}
	}
	return tasks
}

// prewarm batch-verifies every signature the given messages will need and
// seeds the set with the successes, so the serial Handle pass afterwards
// hits the set instead of verifying one signature at a time. Failures are
// not recorded; the serial path re-verifies and rejects them with a proper
// error. With a proposal window above one there are several instances'
// worth of traffic in flight at once, which is what gives the pool real
// batches to spread across workers.
func (r *Replica) prewarm(msgs []Message) {
	if r.pool == nil || r.pool.Workers() <= 1 {
		return // nothing to parallelize; the serial path records as it goes
	}
	var tasks []hashsig.VerifyTask
	var keys []hashsig.Digest
	seen := make(map[hashsig.Digest]bool)
	for _, m := range msgs {
		for _, t := range r.messageTasks(m, nil) {
			k := t.MemoKey()
			if seen[k] || r.sigOK.Has(k) {
				continue
			}
			seen[k] = true
			tasks = append(tasks, t)
			keys = append(keys, k)
		}
	}
	if len(tasks) < 2 {
		return
	}
	for i, res := range r.pool.VerifyAll(tasks) {
		if res {
			r.sigOK.Add(keys[i])
		}
	}
}

// HandleAll processes a batch of messages: one pooled signature prewarm
// over everything the batch carries, then the usual serial state-machine
// pass. Output envelopes are concatenated in order; per-message errors are
// dropped (invalid messages are the sender's fault and change no state), so
// callers that care about individual verdicts should use Handle.
func (r *Replica) HandleAll(msgs []Message) []Outbound {
	r.prewarm(msgs)
	var out []Outbound
	for _, m := range msgs {
		o, _ := r.Handle(m)
		out = append(out, o...)
	}
	return out
}
