package node

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
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
				Shards:          1,
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
func submitAsync(nd *Node, rq ledger.Request) <-chan SubmitResult {
	done := make(chan SubmitResult, 1)
	go func() { done <- nd.Submit(rq) }()
	return done
}

func wantCommitted(t *testing.T, what string, done <-chan SubmitResult) *ledger.Receipt {
	t.Helper()
	select {
	case res := <-done:
		if res.Status != StatusCommitted || res.Receipt == nil {
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
		var rest []<-chan SubmitResult
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
		var all []<-chan SubmitResult
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
		if res := c.nodes[0].Submit(barrierRq); res.Status != StatusNotPrimary || res.Leader != 1 {
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
		if res.Status != StatusNotPrimary || res.Leader != 0 {
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

// TestFailBatchAnswersWaiters covers the branch nothing public reaches: a
// drained batch the replica refuses is counted and its submitters are told
// at once, including several parked on one request.
func TestFailBatchAnswersWaiters(t *testing.T) {
	keys, pubs := clusterKeys("fail-batch", manualClusterSize)
	net := &directNet{handlers: make([]transport.Handler, manualClusterSize)}
	nd, err := New(Config{
		Consensus: consensus.Config{Key: keys[0], Peers: pubs, App: ledger.KVApp{}, CheckpointEvery: 4, Shards: 1},
		Transport: directEndpoint{net: net},
		Clock:     NewManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := []ledger.Request{kvRequest("x", 1), kvRequest("y", 1)}
	bystander := kvRequest("z", 1)
	resps := make(chan SubmitResult, 3)
	park := func(rq *ledger.Request, count int) {
		for i := 0; i < count; i++ {
			h := txpool.Hash(rq)
			nd.waiters[h] = append(nd.waiters[h], waiter{resp: resps})
		}
	}
	park(&batch[0], 2)
	park(&batch[1], 1)
	unanswered := make(chan SubmitResult, 1)
	nd.waiters[txpool.Hash(&bystander)] = []waiter{{resp: unanswered}}

	nd.failBatch(batch)

	for i := 0; i < 3; i++ {
		select {
		case res := <-resps:
			if res.Status != StatusBusy {
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
