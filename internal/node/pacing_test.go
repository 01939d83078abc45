package node

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
	"iaccf/internal/wire"
)

// directNet is an in-memory transport for hand-clocked clusters: a frame
// goes straight into the destination node's inbound queue, unless the
// test's hold rule parks it until release. It counts the frames and the
// view-change votes that cross it.
type directNet struct {
	handlers    []transport.Handler
	sent        atomic.Int64
	viewChanges atomic.Int64

	mu     sync.Mutex
	hold   func(to transport.NodeID, m consensus.Message) bool
	parked []parkedFrame
}

type parkedFrame struct {
	from, to transport.NodeID
	frame    []byte
}

// holdAll is the hold rule that parks every frame.
func holdAll(transport.NodeID, consensus.Message) bool { return true }

// setHold installs the rule deciding which frames are parked (nil: none).
func (d *directNet) setHold(hold func(to transport.NodeID, m consensus.Message) bool) {
	d.mu.Lock()
	d.hold = hold
	d.mu.Unlock()
}

// release lifts the hold rule and delivers everything parked, in order.
func (d *directNet) release() {
	d.mu.Lock()
	d.hold = nil
	parked := d.parked
	d.parked = nil
	d.mu.Unlock()
	for _, p := range parked {
		d.handlers[p.to](p.from, p.frame)
	}
}

type directEndpoint struct {
	net  *directNet
	self transport.NodeID
}

func (e directEndpoint) Send(to transport.NodeID, frame []byte) error {
	if to == e.self {
		return nil
	}
	d := e.net
	d.sent.Add(1)
	m, err := consensus.DecodeMessage(frame)
	if err != nil {
		return err
	}
	if _, ok := m.(*consensus.ViewChange); ok {
		d.viewChanges.Add(1)
	}
	d.mu.Lock()
	if d.hold != nil && d.hold(to, m) {
		d.parked = append(d.parked, parkedFrame{from: e.self, to: to, frame: append([]byte(nil), frame...)})
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	d.handlers[to](e.self, frame)
	return nil
}

func (e directEndpoint) Broadcast(frame []byte) error {
	for to := range e.net.handlers {
		e.Send(transport.NodeID(to), frame)
	}
	return nil
}

func (directEndpoint) Close() error { return nil }

// manualCluster is four started nodes over a directNet, each on its own
// ManualClock: nothing happens in it that the test did not cause, so the
// Stats counts it asserts on repeat exactly.
type manualCluster struct {
	net    *directNet
	nodes  []*Node
	clocks []*ManualClock
	pools  []*txpool.Pool
}

const manualClusterSize = 4

// barrierRq is a request every pool of a manualCluster has been told is
// already committed: submitting it gets an immediate verdict from any
// node (duplicate on the primary, not-primary on a backup) and changes
// nothing, so its round trip through the run loop is a barrier.
var barrierRq = kvRequest("barrier", 1)

func kvRequest(author string, reqNo uint64) ledger.Request {
	return ledger.Request{
		Author: hashsig.Sum([]byte(author)),
		ReqNo:  reqNo,
		Body:   ledger.EncodeOps([]ledger.Op{{Key: fmt.Sprintf("%s/%d", author, reqNo), Val: []byte("v")}}),
	}
}

func startManualCluster(t *testing.T, seed string, tune func(*Config)) *manualCluster {
	t.Helper()
	keys, pubs := clusterKeys(seed, manualClusterSize)
	c := &manualCluster{net: &directNet{handlers: make([]transport.Handler, manualClusterSize)}}
	for i := 0; i < manualClusterSize; i++ {
		pool := txpool.New(txpool.Config{})
		pool.Observe(txpool.Hash(&barrierRq))
		clk := NewManualClock()
		cfg := Config{
			Consensus: consensus.Config{
				ID:              consensus.ReplicaID(i),
				Key:             keys[i],
				Peers:           pubs,
				App:             ledger.KVApp{},
				CheckpointEvery: 4,
			},
			Transport: directEndpoint{net: c.net, self: transport.NodeID(i)},
			Clock:     clk,
			Pool:      pool,
		}
		if tune != nil {
			tune(&cfg)
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.net.handlers[i] = nd.InboundHandler()
		c.nodes = append(c.nodes, nd)
		c.clocks = append(c.clocks, clk)
		c.pools = append(c.pools, pool)
	}
	for i := range c.nodes {
		c.nodes[i].Start()
		t.Cleanup(c.nodes[i].Stop)
		t.Cleanup(c.clocks[i].Stop)
	}
	return c
}

// await spins (no sleeping: the condition is an event, not a duration)
// until cond holds; the deadline only turns a hang into a failure.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// settle returns once the cluster is quiescent: every inbound queue is
// empty, every run loop has finished the turn that emptied it, and no
// frame was sent while checking.
func (c *manualCluster) settle(t *testing.T) {
	t.Helper()
	for {
		before := c.net.sent.Load()
		for _, nd := range c.nodes {
			await(t, "an inbound queue to drain", func() bool { return len(nd.frames) == 0 })
			nd.Submit(barrierRq)
		}
		if c.net.sent.Load() == before {
			return
		}
	}
}

// submitAsync submits from its own goroutine, as an RPC handler would.
func submitAsync(nd *Node, rq ledger.Request) <-chan rpc.Result {
	done := make(chan rpc.Result, 1)
	go func() { done <- nd.Submit(rq) }()
	return done
}

// submitQueued queues rq on nd's run loop from the test goroutine and
// returns the channel its verdict will arrive on. The request is queued
// ahead of anything submitted after the call, so a barrier Submit that
// follows returns only after rq's turn has run.
func submitQueued(nd *Node, rq ledger.Request) <-chan rpc.Result {
	resp := make(chan rpc.Result, 1)
	nd.submits <- submission{rq: rq, resp: resp}
	return resp
}

func wantCommitted(t *testing.T, what string, done <-chan rpc.Result) *ledger.Receipt {
	t.Helper()
	select {
	case res := <-done:
		if res.Status != rpc.StatusCommitted || res.Receipt == nil {
			t.Fatalf("%s: status %v, receipt %v", what, res.Status, res.Receipt != nil)
		}
		return res.Receipt
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: did not commit", what)
		return nil
	}
}

// wantProposals asserts how many batches a node proposed, by turn kind,
// and how many entries they carried.
func wantProposals(t *testing.T, nd *Node, onSubmit, onFrame, onTick, entries uint64) {
	t.Helper()
	s := nd.Stats()
	if s.ProposedOnSubmit != onSubmit || s.ProposedOnFrame != onFrame || s.ProposedOnTick != onTick ||
		s.EntriesProposed != entries || s.ProposeFailures != 0 {
		t.Fatalf("proposals submit/frame/tick = %d/%d/%d carrying %d entries (%d failures), want %d/%d/%d carrying %d",
			s.ProposedOnSubmit, s.ProposedOnFrame, s.ProposedOnTick, s.EntriesProposed, s.ProposeFailures,
			onSubmit, onFrame, onTick, entries)
	}
}

// TestIdleGapDoesNotArmStallTimer is the idle-arm regression: the stall
// timer used to advance only on commit, so after any idle gap of StallTicks
// or more the primary's first proposal found the timer already expired and
// its next tick voted a view change against a healthy view. Since the
// submit turn proposes by itself, a request after an idle gap commits with
// no tick at all, and the stall timer is only ever consulted by a tick that
// lands while the proposal is still in flight — the second half holds the
// network to make that tick happen.
func TestIdleGapDoesNotArmStallTimer(t *testing.T) {
	const stallTicks = 4
	c := startManualCluster(t, "idle-arm", func(cfg *Config) { cfg.StallTicks = stallTicks })
	idle := func() {
		for _, clk := range c.clocks {
			clk.Advance(stallTicks + 1)
		}
	}

	// Idle past the stall threshold, then submit: the protocol is
	// message-driven from the submit turn on, so the request commits with
	// zero further ticks on any node.
	idle()
	wantCommitted(t, "request after an idle gap", submitAsync(c.nodes[0], kvRequest("idle-client", 1)))
	wantProposals(t, c.nodes[0], 1, 0, 0, 1)

	// Idle again, then let one tick reach the primary while its proposal
	// is in flight. Had the idle ticks not re-armed the stall timer, this
	// tick would find it expired.
	c.settle(t)
	idle()
	c.net.setHold(holdAll)
	done := submitAsync(c.nodes[0], kvRequest("idle-client", 2))
	await(t, "the second proposal", func() bool { return c.nodes[0].Stats().Batches() == 2 })
	c.clocks[0].Advance(1)
	c.settle(t)
	if v := c.net.viewChanges.Load(); v != 0 {
		t.Fatalf("%d view-change votes after an idle gap, want 0", v)
	}
	c.net.release()
	wantCommitted(t, "request in flight across a tick", done)
	wantProposals(t, c.nodes[0], 2, 0, 0, 2)
}

// TestPacing pins the proposing rule — while primary and CanPropose, cut a
// batch iff nothing is in flight or a full BatchMax is pooled — turn kind
// by turn kind. No tick is delivered unless the case is about ticks, so
// every proposal below is attributed to the submit or frame turn that
// caused it.
func TestPacing(t *testing.T) {
	t.Run("idle submit commits with no tick", func(t *testing.T) {
		c := startManualCluster(t, "pace-idle", nil)
		rc := wantCommitted(t, "lone request", submitAsync(c.nodes[0], kvRequest("a", 1)))
		if rc.Header.Seq != 1 {
			t.Fatalf("lone request committed at seq %d, want 1", rc.Header.Seq)
		}
		wantProposals(t, c.nodes[0], 1, 0, 0, 1)
	})

	t.Run("requests gather behind an instance in flight", func(t *testing.T) {
		const k = 5 // < BatchMax
		c := startManualCluster(t, "pace-gather", nil)
		primary := c.nodes[0]
		c.net.setHold(holdAll)
		first := submitAsync(primary, kvRequest("first", 1))
		await(t, "the first proposal", func() bool { return primary.Stats().Batches() == 1 })
		var rest []<-chan rpc.Result
		for i := 0; i < k; i++ {
			rest = append(rest, submitAsync(primary, kvRequest(fmt.Sprintf("gather-%d", i), 1)))
		}
		await(t, "the followers to pool", func() bool { return c.pools[0].Len() == k })
		c.settle(t)
		wantProposals(t, primary, 1, 0, 0, 1) // gathered, not proposed

		c.net.release()
		wantCommitted(t, "first request", first)
		for i, done := range rest {
			rc := wantCommitted(t, fmt.Sprintf("follower %d", i), done)
			if rc.Header.Seq != 2 {
				t.Fatalf("follower %d committed at seq %d, want all %d in batch 2", i, rc.Header.Seq, k)
			}
		}
		// One follow-up batch, cut by the frame turn that landed the commit.
		wantProposals(t, primary, 1, 1, 0, 1+k)
	})

	t.Run("full batches fill the window and no further", func(t *testing.T) {
		const batchMax = 4
		c := startManualCluster(t, "pace-full", func(cfg *Config) { cfg.BatchMax = batchMax })
		primary := c.nodes[0]
		window := consensus.DefaultWindow
		c.net.setHold(holdAll) // nothing commits: in flight == batches proposed
		// One lone request opens the window; then full batches are cut the
		// moment their last request pools, until the window is full; the
		// rest (a full batch and a half) must wait for a commit.
		var all []<-chan rpc.Result
		submit := func(count int) {
			for i := 0; i < count; i++ {
				all = append(all, submitAsync(primary, kvRequest(fmt.Sprintf("full-%d", len(all)), 1)))
			}
		}
		submit(1)
		await(t, "the opening proposal", func() bool { return primary.Stats().Batches() == 1 })
		for b := 2; b <= window; b++ {
			submit(batchMax)
			await(t, "a full batch to be proposed", func() bool { return primary.Stats().Batches() == uint64(b) })
			if l := c.pools[0].Len(); l != 0 {
				t.Fatalf("batch %d left %d requests pooled", b, l)
			}
		}
		const waiting = batchMax + batchMax/2
		submit(waiting)
		await(t, "the overflow to pool", func() bool { return c.pools[0].Len() == waiting })
		c.settle(t)
		inWindow := uint64(1 + (window-1)*batchMax)
		wantProposals(t, primary, uint64(window), 0, 0, inWindow)

		// Commits free slots: the first frees one and the pooled full batch
		// takes it at once; the half batch goes when the pipeline drains.
		c.net.release()
		for i, done := range all {
			wantCommitted(t, fmt.Sprintf("request %d", i), done)
		}
		wantProposals(t, primary, uint64(window), 2, 0, inWindow+waiting)
	})

	t.Run("large bodies end a batch before BatchMax does", func(t *testing.T) {
		const batchMax = 4
		c := startManualCluster(t, "pace-large", func(cfg *Config) { cfg.BatchMax = batchMax })
		primary := c.nodes[0]
		c.net.setHold(holdAll)
		submitQueued(primary, kvRequest("opener", 1)) // opens the window
		// A full batch by count of maximal bodies would not fit one sync
		// chunk: the cut the last of them triggers takes what fits, one, and
		// the rest wait for BatchMax pooled again or for a commit.
		body := make([]byte, ledger.MaxRequestLen)
		for i := 1; i <= batchMax; i++ {
			submitQueued(primary, ledger.Request{Author: hashsig.Sum([]byte("large")), ReqNo: uint64(i), Body: body})
		}
		primary.Submit(barrierRq)
		wantProposals(t, primary, 2, 0, 0, 2)
		if l := c.pools[0].Len(); l != batchMax-1 {
			t.Fatalf("%d large requests pooled after the cut, want %d", l, batchMax-1)
		}
		c.net.mu.Lock()
		defer c.net.mu.Unlock()
		for _, p := range c.net.parked {
			if len(p.frame) > wire.MaxChunkLen {
				t.Fatalf("a %d-byte frame: a batch must fit one %d-byte sync chunk", len(p.frame), wire.MaxChunkLen)
			}
		}
	})

	t.Run("the zero Config cuts batches of 128", func(t *testing.T) {
		if got := unstartedNode(t, "pace-zero").cfg.BatchMax; got != 128 {
			t.Fatalf("the zero Config's BatchMax is %d, want 128", got)
		}
	})

	t.Run("a request pooled under an obligation goes when a frame clears it", func(t *testing.T) {
		const stallTicks = 4 // < RetransmitEvery: the stall ticks below retransmit nothing
		c := startManualCluster(t, "pace-floor", func(cfg *Config) { cfg.StallTicks = stallTicks })
		isVote := func(m consensus.Message) bool {
			switch m.(type) {
			case *consensus.Prepare, *consensus.Commit:
				return true
			}
			return false
		}
		// Seq 1 commits everywhere but on node 1, which sees the
		// pre-prepare and none of the votes.
		c.net.setHold(func(to transport.NodeID, m consensus.Message) bool { return to == 1 && isVote(m) })
		wantCommitted(t, "seq 1", submitAsync(c.nodes[0], kvRequest("floor", 1)))
		c.settle(t)
		// Seq 2 is pre-prepared everywhere and prepared nowhere, so every
		// replica has work in flight and a view that makes no progress.
		c.net.setHold(func(to transport.NodeID, m consensus.Message) bool { return isVote(m) })
		submitAsync(c.nodes[0], kvRequest("floor", 2)) // resolved by node shutdown
		await(t, "seq 2's proposal", func() bool { return c.nodes[0].Stats().Batches() == 2 })
		c.settle(t)
		// Nodes 0 and 2 time out and vote, f+1 votes make the others join,
		// and node 1 enters view 1 as its primary one commit behind the
		// certificate: primary, but barred from proposing until it catches
		// up. (No third node is ticked: already voting, it would escalate.)
		for _, i := range []int{0, 2} {
			c.clocks[i].Advance(stallTicks)
		}
		c.settle(t)
		if res := c.nodes[0].Submit(barrierRq); res.Status != rpc.StatusNotPrimary || res.Leader != 1 {
			t.Fatalf("after the view change node 0 answers %v leader %d, want not-primary leader 1", res.Status, res.Leader)
		}
		done := submitAsync(c.nodes[1], kvRequest("floor", 3))
		await(t, "the request to pool on the new primary", func() bool { return c.pools[1].Len() == 1 })
		c.settle(t)
		wantProposals(t, c.nodes[1], 0, 0, 0, 0)

		// The parked votes are about a view node 1 has left: released, they
		// clear nothing. The certificate told it seq 1 committed, so after
		// three ticks (consensus' syncPatience) without it node 1 asks a
		// peer; the frame turn that delivers the fetched batch commits it
		// and proposes the pooled request. No tick turn proposed anything.
		c.net.release()
		c.settle(t)
		wantProposals(t, c.nodes[1], 0, 0, 0, 0)
		c.clocks[1].Advance(3)
		rc := wantCommitted(t, "request pooled under the obligation", done)
		if _, pubs := clusterKeys("pace-floor", manualClusterSize); rc.Header.Seq != 2 || !rc.Verify(pubs[1]) {
			t.Fatalf("committed at seq %d, want seq 2 under node 1's signature", rc.Header.Seq)
		}
		wantProposals(t, c.nodes[1], 0, 1, 0, 1)
	})

	t.Run("a backup answers not-primary and proposes nothing", func(t *testing.T) {
		c := startManualCluster(t, "pace-backup", nil)
		res := c.nodes[2].Submit(kvRequest("b", 1))
		if res.Status != rpc.StatusNotPrimary || res.Leader != 0 {
			t.Fatalf("backup answered %v leader %d, want not-primary leader 0", res.Status, res.Leader)
		}
		c.clocks[2].Advance(1)
		c.settle(t)
		wantProposals(t, c.nodes[2], 0, 0, 0, 0)
		if l, sent := c.pools[2].Len(), c.net.sent.Load(); l != 0 || sent != 0 {
			t.Fatalf("backup pooled %d requests and the cluster sent %d frames, want 0 and 0", l, sent)
		}
	})
}

// unstartedNode builds node 0 of a four-replica cluster from a Config that
// sets only what New requires, and never starts it: the test owns its
// run-loop state.
func unstartedNode(t *testing.T, seed string) *Node {
	t.Helper()
	keys, pubs := clusterKeys(seed, manualClusterSize)
	net := &directNet{handlers: make([]transport.Handler, manualClusterSize)}
	nd, err := New(Config{
		Consensus: consensus.Config{Key: keys[0], Peers: pubs, App: ledger.KVApp{}, CheckpointEvery: 4},
		Transport: directEndpoint{net: net},
		Clock:     NewManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestFailBatchAnswersWaiters covers the branch nothing public reaches: a
// drained batch the replica refuses is counted and its submitters are told
// at once, including several parked on one request. The busy answer asks
// for a resubmission, so the pool forgets the drained requests: a
// resubmission pools again and waits for its commit instead of being
// answered duplicate.
func TestFailBatchAnswersWaiters(t *testing.T) {
	nd := unstartedNode(t, "fail-batch")
	for _, rq := range []ledger.Request{kvRequest("x", 1), kvRequest("y", 1)} {
		if err := nd.pool.Add(rq); err != nil {
			t.Fatal(err)
		}
	}
	batch := nd.pool.NextBatch(2) // drained: the pool's memo holds them now
	bystander := kvRequest("z", 1)
	resps := make(chan rpc.Result, 3)
	park := func(pr txpool.Pooled, count int) {
		for i := 0; i < count; i++ {
			nd.waiters[pr.Hash] = append(nd.waiters[pr.Hash], waiter{resp: resps})
		}
	}
	park(batch[0], 2)
	park(batch[1], 1)
	unanswered := make(chan rpc.Result, 1)
	nd.waiters[txpool.Hash(&bystander)] = []waiter{{resp: unanswered}}

	nd.failBatch(batch)

	for i := 0; i < 3; i++ {
		select {
		case res := <-resps:
			if res.Status != rpc.StatusBusy {
				t.Fatalf("waiter answered %v, want busy", res.Status)
			}
		default:
			t.Fatalf("only %d of 3 waiters answered", i)
		}
	}
	if len(unanswered) != 0 || len(nd.waiters) != 1 {
		t.Fatalf("a request outside the batch was disturbed: %d answers, %d waiter sets left", len(unanswered), len(nd.waiters))
	}
	if got := nd.Stats().ProposeFailures; got != 1 {
		t.Fatalf("ProposeFailures = %d, want 1", got)
	}

	resubmit := make(chan rpc.Result, 1)
	nd.onSubmit(submission{rq: batch[0].Req, resp: resubmit})
	h := batch[0].Hash
	if len(resubmit) != 0 || len(nd.waiters[h]) != 1 || !nd.pool.Pooled(h) {
		t.Fatalf("resubmission after busy: %d answers, %d waiters, pooled %v; want it pooled and waiting",
			len(resubmit), len(nd.waiters[h]), nd.pool.Pooled(h))
	}
}

// TestDeliverPrunedSeq covers delivery of a proposal whose batch a commit
// jump (state transfer) already pruned, so no receipt can be cut from it.
// In the view it was proposed in, the batch that committed at its seq can
// only be this one: its waiters hear rpc.StatusDuplicate, committed with no
// receipt. In another view it may have been replaced: nobody is answered,
// and the pool forgets the requests so a retry pools again.
func TestDeliverPrunedSeq(t *testing.T) {
	for _, sameView := range []bool{true, false} {
		nd := unstartedNode(t, "deliver-pruned")
		for _, rq := range []ledger.Request{kvRequest("x", 1), kvRequest("y", 1)} {
			if err := nd.pool.Add(rq); err != nil {
				t.Fatal(err)
			}
		}
		drained := nd.pool.NextBatch(2)
		pb := pendingBatch{view: nd.rep.View()}
		if !sameView {
			pb.view++
		}
		resps := make(chan rpc.Result, len(drained))
		for _, pr := range drained {
			pb.subs = append(pb.subs, pr.Hash)
			nd.waiters[pr.Hash] = []waiter{{resp: resps}}
		}
		const seq = 5 // never executed here, so BatchAt(seq) is nil, as after a prune
		nd.pending[seq] = pb

		nd.deliverSeq(seq)

		if _, ok := nd.pending[seq]; ok {
			t.Fatalf("same view %v: the delivered proposal is still parked", sameView)
		}
		if !sameView {
			if len(resps) != 0 || len(nd.waiters) != len(drained) {
				t.Fatalf("replaced batch: %d answers, %d waiter sets left; want none answered", len(resps), len(nd.waiters))
			}
			for _, pr := range drained {
				if err := nd.pool.Add(pr.Req); err != nil {
					t.Fatalf("retry of a replaced batch's request: %v", err)
				}
			}
			continue
		}
		for range drained {
			select {
			case res := <-resps:
				if res.Status != rpc.StatusDuplicate || res.Receipt != nil {
					t.Fatalf("pruned batch: waiter answered %v (receipt %v), want duplicate without one", res.Status, res.Receipt != nil)
				}
			default:
				t.Fatal("pruned batch: a waiter was not answered")
			}
		}
		if len(nd.waiters) != 0 {
			t.Fatalf("pruned batch: %d waiter sets left", len(nd.waiters))
		}
	}
}

// TestObservePathsAgree: a committed batch feeds the pool's duplicate
// filter from the hashes the primary drained with its proposal, and on a
// backup from the batch's entries. The two must leave the same verdict for
// every request in the batch: a transaction stays refused even after a
// Forget, a governance request (whose entry drops its request number) is
// pooled again. A primary whose proposal at a seq was replaced by another
// batch observes what committed there, not what it proposed.
func TestObservePathsAgree(t *testing.T) {
	c := startManualCluster(t, "observe-paths", nil)
	primary := c.nodes[0]
	gov := kvRequest("gov", 1)
	gov.Governance = true
	batch := []ledger.Request{gov, kvRequest("observe", 1), kvRequest("observe", 2)}
	c.net.setHold(holdAll)
	opener := submitQueued(primary, kvRequest("opener", 1)) // seq 1; the batch gathers behind it
	var done []<-chan rpc.Result
	for _, rq := range batch {
		done = append(done, submitQueued(primary, rq))
	}
	primary.Submit(barrierRq)
	wantProposals(t, primary, 1, 0, 0, 1)
	c.net.release()
	wantCommitted(t, "opener", opener)
	if res := <-done[0]; res.Status != rpc.StatusCommitted {
		t.Fatalf("governance request answered %v, want committed", res.Status)
	}
	for i, ch := range done[1:] {
		if rc := wantCommitted(t, fmt.Sprintf("transaction %d", i), ch); rc.Header.Seq != 2 {
			t.Fatalf("transaction %d committed at seq %d, want 2", i, rc.Header.Seq)
		}
	}
	c.settle(t)
	for i, nd := range c.nodes {
		if got := nd.CommittedSeqs(); got != 2 {
			t.Fatalf("node %d committed %d seqs, want 2", i, got)
		}
	}
	for j := range batch {
		rq := batch[j]
		want := txpool.ErrDuplicate
		if rq.Governance {
			want = nil
		}
		for i, pool := range c.pools {
			pool.Forget(txpool.Hash(&rq))
			if err := pool.Add(rq); err != want {
				t.Fatalf("node %d, request %d of the batch: Add after Forget %v, want %v", i, j, err, want)
			}
		}
	}

	nd := unstartedNode(t, "observe-replaced")
	proposed := []ledger.Request{kvRequest("x", 1), kvRequest("y", 1)}
	for _, rq := range proposed {
		if err := nd.pool.Add(rq); err != nil {
			t.Fatal(err)
		}
	}
	pb := pendingBatch{view: nd.rep.View(), content: hashsig.Sum([]byte("a batch that did not commit"))}
	for _, pr := range nd.pool.NextBatch(len(proposed)) {
		pb.subs = append(pb.subs, pr.Hash)
	}
	committed := kvRequest("z", 1)
	if _, _, err := nd.rep.Propose([]ledger.Request{committed}); err != nil {
		t.Fatal(err)
	}
	nd.pending[1] = pb

	nd.deliverSeq(1)

	if err := nd.pool.Add(committed); err != txpool.ErrDuplicate {
		t.Fatalf("the request that committed in the replacing batch: Add %v, want duplicate", err)
	}
	for i, rq := range proposed {
		if err := nd.pool.Add(rq); err != nil {
			t.Fatalf("request %d of the replaced proposal: Add %v, want it pooled again", i, err)
		}
	}
}

// TestStatsReportLaggardSync: a replica cut off while the other three
// commit, then ticked, catches up by state transfer, and the node's Stats
// show it — Syncs rises, Syncing settles back to false, View stays where
// the cluster is — all read off the run loop's published copy.
func TestStatsReportLaggardSync(t *testing.T) {
	c := startManualCluster(t, "stats-sync", nil)
	const laggard = 3
	c.net.setHold(func(to transport.NodeID, _ consensus.Message) bool { return to == laggard })
	for i := uint64(1); i <= 6; i++ {
		wantCommitted(t, "request while the laggard is cut off", submitAsync(c.nodes[0], kvRequest("sync-client", i)))
	}
	c.settle(t)
	// The laggard never hears what it missed: the parked frames are lost.
	c.net.mu.Lock()
	c.net.hold, c.net.parked = nil, nil
	c.net.mu.Unlock()

	lag := c.nodes[laggard]
	if s := lag.Stats(); s.Syncs != 0 || s.Syncing || lag.CommittedSeqs() != 0 {
		t.Fatalf("laggard before ticking: %+v, committed %d", s, lag.CommittedSeqs())
	}
	want := c.nodes[0].CommittedSeqs()
	for ticks := 0; lag.CommittedSeqs() < want; ticks++ {
		if ticks > 1024 {
			t.Fatalf("laggard still at seq %d of %d after %d ticks", lag.CommittedSeqs(), want, ticks)
		}
		c.clocks[laggard].Advance(1)
		c.settle(t)
	}
	s := lag.Stats()
	if s.Syncs == 0 || s.Syncing || s.View != c.nodes[0].Stats().View {
		t.Fatalf("laggard after catching up: %+v, want Syncs > 0, not syncing, view %d", s, c.nodes[0].Stats().View)
	}
	for i, nd := range c.nodes[:laggard] {
		if s := nd.Stats(); s.Syncs != 0 || s.Syncing {
			t.Fatalf("node %d synced without lagging: %+v", i, s)
		}
	}
}

// TestRetryAfterTimeoutGetsItsReceipt: a submission that runs out of
// patience leaves its request where it is — proposed and not yet committed,
// or pooled behind that proposal — so the client's retry must wait for the
// commit and get the receipt, not be told the request is a duplicate.
func TestRetryAfterTimeoutGetsItsReceipt(t *testing.T) {
	// Below StallTicks, RetransmitEvery and consensus' sync patience: the
	// ticks here expire submissions and do nothing else.
	const patience = 4
	c := startManualCluster(t, "retry-timeout", func(cfg *Config) { cfg.SubmitPatienceTicks = patience })
	primary := c.nodes[0]
	proposed, pooled := kvRequest("retry", 1), kvRequest("retry", 2)
	c.net.setHold(holdAll)
	first := submitQueued(primary, proposed)
	second := submitQueued(primary, pooled)
	primary.Submit(barrierRq)
	wantProposals(t, primary, 1, 0, 0, 1)
	if l := c.pools[0].Len(); l != 1 {
		t.Fatalf("%d requests pooled behind the proposal, want 1", l)
	}

	c.clocks[0].Advance(patience)
	for what, done := range map[string]<-chan rpc.Result{"proposed": first, "pooled": second} {
		select {
		case res := <-done:
			if res.Status != rpc.StatusTimeout {
				t.Fatalf("%s request answered %v after its patience, want timeout", what, res.Status)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s request not answered after its patience", what)
		}
	}
	retries := []<-chan rpc.Result{submitQueued(primary, proposed), submitQueued(primary, pooled)}
	primary.Submit(barrierRq)
	c.net.release()
	for i, rq := range []ledger.Request{proposed, pooled} {
		rc := wantCommitted(t, fmt.Sprintf("retry %d", i), retries[i])
		if e := rc.Entry; e.Author != rq.Author || e.ReqNo != rq.ReqNo || !bytes.Equal(e.Payload, rq.Body) {
			t.Fatalf("retry %d got a receipt for another request", i)
		}
	}
}
