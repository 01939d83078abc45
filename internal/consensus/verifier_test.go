package consensus

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// sharedKeyReplicas builds replicas 0..count-1 of a four-replica cluster
// from ONE []*hashsig.PublicKey, the way the benchmark's in-process cluster
// does.
func sharedKeyReplicas(t *testing.T, seed string, count int) []*Replica {
	t.Helper()
	keys := make([]*hashsig.PrivateKey, 4)
	pubs := make([]*hashsig.PublicKey, 4)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("%s-%d", seed, i))
		pubs[i] = keys[i].Public()
	}
	rs := make([]*Replica, count)
	for i := range rs {
		r, err := New(Config{ID: ReplicaID(i), Key: keys[i], Peers: pubs, App: ledger.KVApp{}, CheckpointEvery: 4, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	return rs
}

func resident(r *Replica, tasks []hashsig.VerifyTask) int {
	n := 0
	for _, t := range tasks {
		if r.sigOK.Has(t.MemoKey()) {
			n++
		}
	}
	return n
}

// TestPrimaryRecordsOwnSignatures: the statement signature a primary has
// just produced is in its set, so the prepares that carry the statement
// back leave verifyTasks nothing pending for it.
func TestPrimaryRecordsOwnSignatures(t *testing.T) {
	primary := sharedKeyReplicas(t, "own-sigs", 1)[0]
	pp, _, err := primary.Propose([]ledger.Request{})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []hashsig.VerifyTask{primary.statementTask(&pp.Header)}
	if got := resident(primary, tasks); got != 1 {
		t.Fatal("own statement signature not resident after Propose")
	}
	before := primary.sigOK.Len()
	if !primary.verifyTasks(tasks) || primary.sigOK.Len() != before {
		t.Fatal("own proposal went back through verification")
	}
}

// TestReplicasShareNoVerificationState: replicas built from the same key
// objects in one process must each make their own checks — what replica 1
// verified is not in replica 2's set.
func TestReplicasShareNoVerificationState(t *testing.T) {
	rs := sharedKeyReplicas(t, "no-share", 3)
	pp, _, err := rs[0].Propose([]ledger.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs[1].Handle(pp); err != nil {
		t.Fatalf("valid pre-prepare rejected: %v", err)
	}
	tasks := []hashsig.VerifyTask{rs[1].statementTask(&pp.Header)}
	if got := resident(rs[1], tasks); got != len(tasks) {
		t.Fatalf("verifying replica holds %d of %d checks", got, len(tasks))
	}
	if got := resident(rs[2], []hashsig.VerifyTask{rs[2].statementTask(&pp.Header)}); got != 0 {
		t.Fatalf("replica 2 holds %d checks only replica 1 made", got)
	}
	if rs[2].sigOK.Len() != 0 {
		t.Fatalf("replica 2's set has %d members before it handled anything", rs[2].sigOK.Len())
	}
}
