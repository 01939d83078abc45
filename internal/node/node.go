// Package node is the runtime that turns a deterministic consensus
// replica into a networked cluster member. It owns everything the
// consensus package deliberately does not: the wall clock (through the
// Clock seam), the transport, the transaction pool feeding the primary,
// and the client submission path with receipt delivery.
//
// One goroutine — the run loop — owns the consensus.Replica. Transport
// handlers and RPC submissions communicate with it only through channels,
// so replica state remains a pure function of the sequence of messages
// and ticks the loop consumed, the property the detsource analyzer
// enforces on the layers below. Each input is one turn (step); a
// deterministic driver (internal/sim) runs the same turns on a node it
// never Started, through the Step methods.
//
// # Pacing
//
// Batches are cut by the proposal window, not by the clock. Every turn of
// the run loop — a submission, an inbound frame, a tick — ends with the
// same two steps, afterProgress then pace, and pace is the only code that
// proposes: while this node is primary and the replica CanPropose, it cuts
// a batch iff nothing is in flight or a full BatchMax is pooled. That is
// Nagle's rule on the proposal window. An idle pipeline proposes a lone
// request in the turn that pooled it; a busy one lets requests gather
// until the window drains or a full batch exists; a saturated one always
// has full batches and keeps the window full.
//
// Batching pays because a batch costs the cluster the same bill however few
// entries it carries: 4 Ed25519 signs and 12 verifies for four replicas
// (TestSignaturesPerBatch) and ≈ 26 frames. In-process on two cores that
// is ≈ 0.9 ms per entry in one-entry batches against ≈ 34 µs in 64-entry
// ones. Proposing greedily — whenever the window has room and the pool is
// non-empty — pays the bill per request and was measured and rejected.
// BatchMax defaults to 128: against 64, a saturated four-replica cluster
// on two cores cut ≈ 116-entry batches and committed more per second,
// while the lightly loaded workloads, whose window drains long before 64
// requests pool, cut the batches they cut before. The price is at loads in
// between: a primary owing more than one batch but fewer than W full ones
// keeps fewer instances in flight than it did at 64; no benchmark workload
// runs at that load. A rule that grew the batch with the requests the primary
// owes was measured against the fixed 128 and lost on the saturated
// workloads.
//
// Ticks drive timers only: sync, retransmission, the stall timer and
// submission patience. The tick interval is their granularity and is not
// on the commit path.
package node

import (
	"fmt"
	"net"
	"sync/atomic"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
)

// Config parameterizes a Node.
type Config struct {
	// Consensus configures the replica this node runs. Required.
	Consensus consensus.Config
	// Transport moves frames between cluster nodes. Required. The node
	// registers no handler itself — wire InboundHandler() as the
	// transport's Handler.
	Transport transport.Transport
	// Clock drives ticks. Required.
	Clock Clock
	// Pool is the transaction pool. Nil means a default-capacity pool.
	Pool *txpool.Pool
	// BatchMax bounds requests per proposed batch; with an instance in
	// flight the primary waits for that many pooled. The pool may end a
	// batch sooner when its bodies are large. 0 means 128.
	BatchMax int
	// RetransmitEvery is the tick cadence of Retransmit. 0 means 8.
	RetransmitEvery int
	// StallTicks is how many ticks without commit progress (with work in
	// flight) the node tolerates before voting for a view change.
	// 0 means 32.
	StallTicks int
	// SubmitPatienceTicks bounds how long a pending submission waits for
	// its commit before rpc.StatusTimeout. 0 means 128.
	SubmitPatienceTicks int
}

// Stats counts what the run loop decided and what it dropped, since the
// node was built, and reports where its replica stood at the end of the
// last run-loop turn. Counts and states only — no clock is read — so a
// hand-clocked cluster repeats them exactly.
type Stats struct {
	// Batches proposed, by the kind of run-loop turn whose pace cut them.
	ProposedOnSubmit uint64
	ProposedOnFrame  uint64
	ProposedOnTick   uint64
	// EntriesProposed is the requests those batches carried.
	EntriesProposed uint64
	// ProposeFailures counts drained batches the replica refused; their
	// waiters were answered rpc.StatusBusy.
	ProposeFailures uint64
	// FramesDropped counts inbound frames discarded because the run loop's
	// queue was full.
	FramesDropped uint64
	// DecodeErrors counts inbound frames that were not a consensus message.
	DecodeErrors uint64
	// HandleErrors counts decoded messages the replica rejected.
	HandleErrors uint64
	// SendErrors counts outbound frames the transport refused: a Send or
	// Broadcast that returned an error (a closed transport, an unknown
	// peer). A refused broadcast counts once.
	SendErrors uint64
	// View is the replica's current view.
	View uint64
	// Syncs counts state transfers the replica adopted, checkpoint or
	// suffix-only; it rises when a restarted or lagging replica catches up.
	Syncs uint64
	// Syncing reports a state transfer in progress.
	Syncing bool
}

// Batches is the number of batches proposed, over all turn kinds.
func (s Stats) Batches() uint64 {
	return s.ProposedOnSubmit + s.ProposedOnFrame + s.ProposedOnTick
}

// turn names the event a run-loop turn handled.
type turn uint8

const (
	turnSubmit turn = iota
	turnFrame
	turnTick
	numTurns
)

type inFrame struct {
	from  transport.NodeID
	frame []byte
}

type submission struct {
	rq   ledger.Request
	resp chan rpc.Result
}

type waiter struct {
	resp     chan rpc.Result
	deadline uint64 // tick number
}

// pendingSub links one proposed request to its receipt slot: rcIdx indexes
// the batch's receipts for transactions, -1 for governance actions (which
// get no receipt — the ledger records them without execution).
type pendingSub struct {
	hash  hashsig.Digest
	rcIdx int
}

// pendingBatch parks a speculative proposal's delivery material until its
// sequence commits. content is the speculative header's content digest:
// delivery compares it against the batch that actually committed at that
// sequence, so a view change that replaced the batch can never hand a
// client a receipt for content that did not commit — while the same batch
// re-proposed under a later view's statement still delivers.
type pendingBatch struct {
	view    uint64
	content hashsig.Digest
	rcs     []ledger.Receipt
	subs    []pendingSub
}

// Node runs one cluster member: replica, pool, and delivery bookkeeping.
type Node struct {
	cfg  Config
	rep  *consensus.Replica
	pool *txpool.Pool

	frames  chan inFrame
	submits chan submission
	stop    chan struct{}
	stopped chan struct{}

	// Run-loop-owned state (no locks: single consumer).
	ticks            uint64
	lastCommitted    uint64
	lastProgressTick uint64
	pending          map[uint64]pendingBatch
	waiters          map[hashsig.Digest][]waiter

	// Published by the run loop after every turn, so nothing off the loop
	// reads the replica.
	committedSeqs    atomic.Uint64
	committedEntries atomic.Uint64
	view             atomic.Uint64
	syncs            atomic.Uint64
	syncing          atomic.Bool

	// Stats counters: written by the run loop (framesDropped by transport
	// goroutines), read by anyone.
	proposed        [numTurns]atomic.Uint64
	entriesProposed atomic.Uint64
	proposeFailures atomic.Uint64
	framesDropped   atomic.Uint64
	decodeErrors    atomic.Uint64
	handleErrors    atomic.Uint64
	sendErrors      atomic.Uint64
}

// New builds a node (replica included) but does not start it.
func New(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("node: nil transport")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("node: nil clock")
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 128
	}
	if cfg.RetransmitEvery <= 0 {
		cfg.RetransmitEvery = 8
	}
	if cfg.StallTicks <= 0 {
		cfg.StallTicks = 32
	}
	if cfg.SubmitPatienceTicks <= 0 {
		cfg.SubmitPatienceTicks = 128
	}
	rep, err := consensus.New(cfg.Consensus)
	if err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		pool = txpool.New(txpool.Config{})
	}
	return &Node{
		cfg:     cfg,
		rep:     rep,
		pool:    pool,
		frames:  make(chan inFrame, 1024),
		submits: make(chan submission, 256),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		pending: make(map[uint64]pendingBatch),
		waiters: make(map[hashsig.Digest][]waiter),
	}, nil
}

// InboundHandler returns the transport.Handler feeding this node. The
// frame is copied (the transport reuses its buffer); a full inbound queue
// drops the frame (counted in Stats), which retransmission covers.
func (n *Node) InboundHandler() transport.Handler {
	return func(from transport.NodeID, frame []byte) {
		f := inFrame{from: from, frame: append([]byte(nil), frame...)}
		select {
		case n.frames <- f:
		case <-n.stop:
		default:
			n.framesDropped.Add(1)
		}
	}
}

// Start launches the run loop.
func (n *Node) Start() { go n.run() }

// Stop halts the run loop and fails pending submissions with
// rpc.StatusShutdown. It does not close the transport or the clock — the
// caller owns both.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.stopped
}

// CommittedSeqs reports the committed sequence watermark.
func (n *Node) CommittedSeqs() uint64 { return n.committedSeqs.Load() }

// CommittedEntries reports committed ledger entries across all batches —
// the throughput numerator for entries/sec.
func (n *Node) CommittedEntries() uint64 { return n.committedEntries.Load() }

// Stats snapshots the run loop's counters.
func (n *Node) Stats() Stats {
	return Stats{
		ProposedOnSubmit: n.proposed[turnSubmit].Load(),
		ProposedOnFrame:  n.proposed[turnFrame].Load(),
		ProposedOnTick:   n.proposed[turnTick].Load(),
		EntriesProposed:  n.entriesProposed.Load(),
		ProposeFailures:  n.proposeFailures.Load(),
		FramesDropped:    n.framesDropped.Load(),
		DecodeErrors:     n.decodeErrors.Load(),
		HandleErrors:     n.handleErrors.Load(),
		SendErrors:       n.sendErrors.Load(),
		View:             n.view.Load(),
		Syncs:            n.syncs.Load(),
		Syncing:          n.syncing.Load(),
	}
}

// Submit hands one client request to the node and blocks until it
// commits (receipt attached), fails fast (not primary / busy / too
// large / duplicate), times out, or the node stops.
func (n *Node) Submit(rq ledger.Request) rpc.Result {
	s := submission{rq: rq, resp: make(chan rpc.Result, 1)}
	select {
	case n.submits <- s:
	case <-n.stop:
		return rpc.Result{Status: rpc.StatusShutdown}
	}
	select {
	case r := <-s.resp:
		return r
	case <-n.stopped:
		return rpc.Result{Status: rpc.StatusShutdown}
	}
}

func (n *Node) run() {
	defer close(n.stopped)
	for {
		select {
		case <-n.stop:
			for h, ws := range n.waiters {
				for _, w := range ws {
					w.resp <- rpc.Result{Status: rpc.StatusShutdown}
				}
				delete(n.waiters, h)
			}
			return
		case f := <-n.frames:
			n.step(turnFrame, func() { n.onFrame(f) })
		case <-n.cfg.Clock.C():
			n.step(turnTick, n.onTick)
		case s := <-n.submits:
			n.step(turnSubmit, func() { n.onSubmit(s) })
		}
	}
}

// step runs one turn: handle its input, then end as every turn does —
// reconcile what committed, let the window decide whether to cut a batch,
// publish what Stats reports.
func (n *Node) step(t turn, handle func()) {
	handle()
	n.afterProgress()
	n.pace(t)
	n.publish()
}

// StepFrame runs the turn for one inbound frame, which it does not retain.
// The Step methods are for a driver that owns every input of a node it
// never Started, and calls them from one goroutine.
func (n *Node) StepFrame(from transport.NodeID, frame []byte) {
	n.step(turnFrame, func() { n.onFrame(inFrame{from: from, frame: frame}) })
}

// StepTick runs the turn for one clock tick.
func (n *Node) StepTick() { n.step(turnTick, n.onTick) }

// StepSubmit runs the turn for one client submission. Its verdict arrives
// on the returned channel in this turn or a later one.
func (n *Node) StepSubmit(rq ledger.Request) <-chan rpc.Result {
	resp := make(chan rpc.Result, 1)
	n.step(turnSubmit, func() { n.onSubmit(submission{rq: rq, resp: resp}) })
	return resp
}

// StepStall runs a tick turn in which the stall rule fires, whatever is in
// flight. A backup with nothing in flight never fires it on its own, so
// without this a cluster whose primary dies while idle never changes view.
func (n *Node) StepStall() { n.step(turnTick, n.stall) }

// Replica is the node's replica, for the driver of a node it never
// Started: between turns, nothing else touches it.
func (n *Node) Replica() *consensus.Replica { return n.rep }

// publish copies the replica state Stats reports into the node's atomics.
func (n *Node) publish() {
	n.view.Store(n.rep.View())
	n.syncs.Store(uint64(n.rep.Syncs()))
	n.syncing.Store(n.rep.Syncing())
}

// route encodes and ships consensus envelopes: broadcast sentinel to all
// peers, addressed envelopes to exactly their destination. This is where
// the Outbound API pays off — a sync ask and the push answering it leave on
// one lane instead of n-1. A frame the transport refuses is counted
// (Stats.SendErrors), not retried: retransmission and sync cover a lost
// frame, and the count says one was lost.
func (n *Node) route(outs []consensus.Outbound) {
	for _, o := range outs {
		frame := consensus.EncodeMessage(o.Msg)
		var err error
		if o.IsBroadcast() {
			err = n.cfg.Transport.Broadcast(frame)
		} else {
			err = n.cfg.Transport.Send(transport.NodeID(o.Dest), frame)
		}
		if err != nil {
			n.sendErrors.Add(1)
		}
	}
}

func (n *Node) onFrame(f inFrame) {
	m, err := consensus.DecodeMessage(f.frame)
	if err != nil {
		n.decodeErrors.Add(1) // malformed frame: the sender's problem
		return
	}
	outs, err := n.rep.Handle(m)
	if err != nil {
		// A rejected message may still have produced output (blame, a
		// buffered message drained before it); route it regardless.
		n.handleErrors.Add(1)
	}
	n.route(outs)
}

// onTick advances the node's timers — sync, retransmission, the stall
// timer, submission patience. It proposes nothing: see pace.
func (n *Node) onTick() {
	n.ticks++
	if n.rep.InFlight() == 0 {
		// The stall timer runs only while work is in flight. Without this
		// re-arm it would keep counting through idle gaps, and the first
		// proposal after one would find it already expired.
		n.lastProgressTick = n.ticks
	}
	n.route(n.rep.SyncTick())
	if n.ticks%uint64(n.cfg.RetransmitEvery) == 0 {
		n.route(n.rep.Retransmit())
	}
	if n.rep.InFlight() > 0 && n.ticks-n.lastProgressTick >= uint64(n.cfg.StallTicks) {
		n.stall()
	}
	n.expireWaiters()
}

// stall is the stall rule's action: vote to leave the view, and re-arm
// rather than fire again every tick.
func (n *Node) stall() {
	n.route(n.rep.OnTimeout())
	n.lastProgressTick = n.ticks
}

// pace is the node's one proposing rule, run at the end of every turn:
// while this node may propose, cut a batch iff nothing is in flight or a
// full batch is pooled. The package doc says why it is not greedier.
func (n *Node) pace(t turn) {
	for n.rep.IsPrimary() && n.rep.CanPropose() {
		pooled := n.pool.Len()
		if pooled == 0 || (n.rep.InFlight() > 0 && pooled < n.cfg.BatchMax) {
			return
		}
		entries := n.proposeFromPool()
		if entries == 0 {
			return
		}
		n.proposed[t].Add(1)
		n.entriesProposed.Add(uint64(entries))
	}
}

// proposeFromPool drains one batch from the pool into a proposal and
// reports how many requests it carried, 0 if nothing was proposed.
// Receipts from Propose are speculative until the sequence commits; they
// are parked per seq and delivered by afterProgress.
func (n *Node) proposeFromPool() int {
	batch := n.pool.NextBatch(n.cfg.BatchMax)
	if len(batch) == 0 {
		return 0
	}
	pp, rcs, err := n.rep.Propose(batch)
	if err != nil {
		n.failBatch(batch)
		return 0
	}
	pb := pendingBatch{
		view:    n.rep.View(),
		content: pp.Header.ContentDigest(),
		rcs:     rcs,
	}
	ti := 0
	for i := range batch {
		idx := -1
		if !batch[i].Governance {
			idx = ti
			ti++
		}
		pb.subs = append(pb.subs, pendingSub{hash: txpool.Hash(&batch[i]), rcIdx: idx})
	}
	if old, ok := n.pending[pp.Header.Seq]; ok {
		n.forget(old) // a view change abandoned this node's earlier batch here
	}
	n.pending[pp.Header.Seq] = pb
	n.route([]consensus.Outbound{{Dest: consensus.Broadcast, Msg: pp}})
	return len(batch)
}

// failBatch resolves a drained batch the replica refused to propose. The
// requests are gone from the pool, so their submitters are told at once
// (rpc.StatusBusy: back off and resubmit) rather than left to run out their
// patience. Nothing reachable makes Propose fail — the pool caps body size
// and pace checked CanPropose in this same turn — so there is no requeue.
func (n *Node) failBatch(batch []ledger.Request) {
	n.proposeFailures.Add(1)
	for i := range batch {
		h := txpool.Hash(&batch[i])
		for _, w := range n.waiters[h] {
			w.resp <- rpc.Result{Status: rpc.StatusBusy}
		}
		delete(n.waiters, h)
	}
}

// afterProgress reconciles the committed watermark: counts throughput,
// delivers parked receipts to their waiters, and feeds committed request
// hashes back to the pool's duplicate filter.
func (n *Node) afterProgress() {
	c := n.rep.Committed()
	if c <= n.lastCommitted {
		return
	}
	for seq := n.lastCommitted + 1; seq <= c; seq++ {
		n.deliverSeq(seq)
	}
	// The committed entry count comes from the watermark batch's signed
	// header: HistSize is cumulative, so the counter stays exact even when
	// a checkpoint install (sync) or an aggressive prune removed the
	// individual batches a commit jump covered.
	if b := n.rep.Ledger().BatchAt(c); b != nil {
		n.committedEntries.Store(b.Header.HistSize)
	}
	n.lastCommitted = c
	n.lastProgressTick = n.ticks
	n.committedSeqs.Store(c)
}

func (n *Node) deliverSeq(seq uint64) {
	b := n.rep.Ledger().BatchAt(seq)
	if b != nil {
		// Suppress client retries of transactions this batch committed —
		// including batches proposed by another primary. (Governance
		// entries drop the request number on the ledger, so their
		// duplicate suppression rests on the pool's drain memo alone.)
		for i := range b.Entries {
			e := &b.Entries[i]
			if e.Kind != ledger.KindTransaction {
				continue
			}
			rq := ledger.Request{Author: e.Author, ReqNo: e.ReqNo, Body: e.Payload}
			n.pool.Observe(txpool.Hash(&rq))
		}
	}
	pb, ok := n.pending[seq]
	if !ok {
		return
	}
	delete(n.pending, seq)
	// A view change may have replaced the speculative batch this material
	// was minted for. When the committed batch is retained, compare content
	// directly. When a commit jump already pruned it, fall back to the view:
	// within one view the primary signs exactly one pre-prepare per
	// sequence, so if the view never changed since Propose, the batch that
	// committed at seq can only be the one these receipts embed.
	if (b != nil && b.Header.ContentDigest() != pb.content) || (b == nil && n.rep.View() != pb.view) {
		n.forget(pb)
		return
	}
	for _, sub := range pb.subs {
		ws := n.waiters[sub.hash]
		if len(ws) == 0 {
			continue
		}
		delete(n.waiters, sub.hash)
		var rc *ledger.Receipt
		if sub.rcIdx >= 0 && sub.rcIdx < len(pb.rcs) {
			rc = &pb.rcs[sub.rcIdx]
		}
		for _, w := range ws {
			w.resp <- rpc.Result{Status: rpc.StatusCommitted, Receipt: rc}
		}
	}
}

// forget drops a replaced batch's requests that were not seen committed
// from the pool's memo, so a retry pools them again instead of hearing
// they are duplicates.
func (n *Node) forget(pb pendingBatch) {
	for _, sub := range pb.subs {
		n.pool.Forget(sub.hash)
	}
}

func (n *Node) expireWaiters() {
	for h, ws := range n.waiters {
		keep := ws[:0]
		for _, w := range ws {
			if n.ticks >= w.deadline {
				w.resp <- rpc.Result{Status: rpc.StatusTimeout}
			} else {
				keep = append(keep, w)
			}
		}
		if len(keep) == 0 {
			delete(n.waiters, h)
		} else {
			n.waiters[h] = keep
		}
	}
}

func (n *Node) onSubmit(s submission) {
	if !n.rep.IsPrimary() {
		nPeers := uint64(len(n.cfg.Consensus.Peers))
		s.resp <- rpc.Result{
			Status: rpc.StatusNotPrimary,
			Leader: uint32(n.rep.View() % nPeers),
		}
		return
	}
	h := txpool.Hash(&s.rq)
	err := n.pool.Add(s.rq)
	switch {
	case err == nil:
		// Pooled: wait for commit.
	case err == txpool.ErrTooLarge:
		s.resp <- rpc.Result{Status: rpc.StatusTooLarge}
		return
	case err == txpool.ErrFull:
		s.resp <- rpc.Result{Status: rpc.StatusBusy}
		return
	case err == txpool.ErrDuplicate:
		if len(n.waiters[h]) == 0 && !n.undecided(h) {
			// Committed (a replaced batch's requests are forgotten): tell
			// the client it is a duplicate.
			s.resp <- rpc.Result{Status: rpc.StatusDuplicate}
			return
		}
		// Pooled or proposed and not yet committed — a retry after its
		// waiter timed out included: join (or rejoin) the waiters.
	default:
		s.resp <- rpc.Result{Status: rpc.StatusBusy}
		return
	}
	n.waiters[h] = append(n.waiters[h], waiter{
		resp:     s.resp,
		deadline: n.ticks + uint64(n.cfg.SubmitPatienceTicks),
	})
}

// undecided reports whether request h is still on its way to a commit at
// this primary: pooled, or in a batch it proposed that has not committed.
func (n *Node) undecided(h hashsig.Digest) bool {
	if n.pool.Pooled(h) {
		return true
	}
	for _, pb := range n.pending {
		for _, sub := range pb.subs {
			if sub.hash == h {
				return true
			}
		}
	}
	return false
}

// bench/ names these; item 8 deletes them.
type (
	RPCServer    = rpc.Server
	SubmitResult = rpc.Result
)

const (
	StatusCommitted = rpc.StatusCommitted
	StatusBusy      = rpc.StatusBusy
)

var DialRPC = rpc.Dial

func ServeRPC(n *Node, addr string) (*RPCServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: rpc listen %s: %w", addr, err)
	}
	return rpc.Serve(ln, n.Submit), nil
}
