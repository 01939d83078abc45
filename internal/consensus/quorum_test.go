package consensus

import (
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// assertNoFork fails the test if two replicas committed different batches
// at seq.
func (c *cluster) assertNoFork(seq uint64) {
	c.t.Helper()
	got := map[int]hashsig.Digest{}
	for i, r := range c.replicas {
		if r.Committed() < seq {
			continue
		}
		got[i] = r.Ledger().BatchAt(seq).Header.ContentDigest()
		for j, d := range got {
			if d != got[i] {
				c.t.Fatalf("fork at seq %d: replicas %d and %d committed different batches", seq, j, i)
			}
		}
	}
	c.t.Logf("seq %d committed on %d of %d replicas", seq, len(got), len(c.replicas))
}

// TestEquivocatorSplitCannotForkAtFive plays the split schedule at n = 5
// (f = 1): primary 0 signs batch A for seq 1, rolls back, signs batch B for
// seq 1, and sends each half of the backups one batch together with the
// commit opening its nonce — {1, 2} get A, {3, 4} get B, and no traffic
// crosses. Under a quorum of 2f+1 = 3 each half plus the primary's opening
// is a quorum, and the halves commit different batches. Two quorums of
// ledger.Quorum(5) = 4 share 3 replicas, at least two of them honest, so
// neither half commits alone.
func TestEquivocatorSplitCannotForkAtFive(t *testing.T) {
	c := newCluster(t, 5)
	author := hashsig.Sum([]byte("client"))
	led := c.replicas[0].Ledger()
	sign := func(base uint64) (*ledger.Batch, hashsig.Nonce) {
		var nonce hashsig.Nonce
		b, err := led.ExecuteBatchAs(func(content hashsig.Digest) ledger.Envelope {
			nonce = c.keys[0].Nonce(0, 1, content)
			return ledger.Envelope{View: 0, Primary: 0, NonceCommit: nonce.Commit()}
		}, reqs(author, base, 2))
		if err != nil {
			t.Fatal(err)
		}
		return b, nonce
	}
	batchA, nonceA := sign(10)
	if err := led.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	batchB, nonceB := sign(99)
	for _, half := range []struct {
		batch *ledger.Batch
		nonce hashsig.Nonce
		skip  []ReplicaID
	}{
		{batchA, nonceA, []ReplicaID{0, 3, 4}},
		{batchB, nonceB, []ReplicaID{0, 1, 2}},
	} {
		h := half.batch.Header
		c.queue = append(c.queue,
			&PrePrepare{Header: h, Entries: half.batch.Entries},
			&Commit{View: 0, Replica: 0, Seq: 1, Statement: h.StatementDigest(), Nonce: half.nonce})
		c.flood(half.skip...)
	}
	c.assertNoFork(1)
}

// TestPartitionCannotForkAtSix plays a partition at n = 6 (f = 1) with no
// faulty replica: {0, 1, 2} | {3, 4, 5}. The first side commits batch A in
// view 0 under its primary. The second side times out three times, so its
// view changes target views 1, 2 and 3, and replica 3 leads view 3 on its
// side's three view-changes, then proposes batch B for seq 1. Under a
// quorum of 2f+1 = 3 both sides commit seq 1, and no replica signed
// anything false, so nobody could be blamed. Two quorums of
// ledger.Quorum(6) = 4 share 2 replicas, so neither side alone has one.
func TestPartitionCannotForkAtSix(t *testing.T) {
	c := newCluster(t, 6)
	author := hashsig.Sum([]byte("client"))
	c.propose(0, reqs(author, 10, 2))
	c.flood(3, 4, 5)
	for round := 0; round < 3; round++ {
		for _, id := range []int{3, 4, 5} {
			c.queue = append(c.queue, outMsgs(c.replicas[id].OnTimeout())...)
		}
		c.flood(0, 1, 2)
	}
	if lead := c.replicas[3]; lead.IsPrimary() && lead.CanPropose() {
		c.propose(3, reqs(author, 20, 2))
		c.flood(0, 1, 2)
	}
	c.assertNoFork(1)
}
