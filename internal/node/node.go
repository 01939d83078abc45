// Package node is the runtime that turns a deterministic consensus
// replica into a networked cluster member. It owns everything the
// consensus package deliberately does not: the wall clock (through the
// Clock seam), the transport, the transaction pool feeding proposals, and
// the client submission path with receipt delivery.
//
// One goroutine — the run loop — owns the consensus.Replica. Transport
// handlers and RPC submissions communicate with it only through channels,
// so replica state remains a pure function of the sequence of messages
// and ticks the loop consumed, which TestSimDeterministicReplay checks
// frame for frame. Each input is one turn (step); a
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
// (TestSignaturesPerBatch) and 24 frames. Proposing greedily — whenever the
// window has room and the pool is non-empty — pays the bill per request and
// was measured and rejected. BatchMax defaults to 256, the pick of a sweep
// of 128 to 512 on the saturated benchmark workloads (CHANGES.md, PR 64).
//
// Ticks drive timers only: sync, retransmission, the stall timer and
// submission patience. The tick interval is their granularity and is not
// on the commit path.
//
// # Submissions and liveness
//
// Every node takes client transactions; only the primary takes a
// governance request, whose entry drops the request number, so no other
// node could match its commit. A node pools a submission and parks the
// client's waiter; a backup also forwards it to every peer
// (consensus.Forward), which pools it with no waiter, and whichever node
// leads proposes it. A commit answers every waiter whose request it
// carries, whoever proposed it, and drops its pooled copies. So the pool,
// with the instances in flight, is the work a node owes, and one stall rule
// runs on every node: while work is owed and nothing commits for StallTicks
// ticks, the node votes to leave the view (PBFT's rule, Castro and Liskov,
// OSDI '99, §4.4), so a dead primary, idle or under load, is replaced by
// the nodes' own timers.
package node

import (
	"fmt"
	"maps"
	"net"
	"slices"
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
	// batch sooner when its bodies are large. 0 means 256 (see Pacing in
	// the package doc).
	BatchMax int
	// StallTicks is how many ticks with work owed (a request pooled or an
	// instance in flight) and no commit the node tolerates before voting
	// for a view change. Each further vote with no commit between waits
	// twice as long, up to 2^maxStallDoublings times. 0 means 32.
	StallTicks int
	// SubmitPatienceTicks bounds how long a pending submission waits for
	// its commit before rpc.StatusTimeout. 0 means 128.
	SubmitPatienceTicks int
}

// retransmitEvery is the tick cadence of Retransmit.
const retransmitEvery = 8

// maxStallDoublings caps the stall timeout's doubling (PBFT's backoff: under
// loss a view eventually lasts long enough to commit).
const maxStallDoublings = 5

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
	// Forwarded counts the client requests peers relayed to this node
	// (consensus.Forward), 0 while every client submits to the primary.
	Forwarded uint64
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

// pendingBatch parks a proposal until its sequence commits: its requests'
// hashes (request i is entry i of the batch) and the batch's content
// digest. Delivery compares that against the batch that actually committed
// at that sequence, so a view change that replaced the batch can never
// hand a client a receipt for content that did not commit, and then cuts
// the receipts from the committed batch (Ledger.Receipts): a batch
// re-proposed under a later view's statement delivers under that one.
type pendingBatch struct {
	view    uint64
	content hashsig.Digest
	subs    []hashsig.Digest
	reqs    []ledger.Request // request i is entry i, as subs
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
	ticks         uint64
	lastCommitted uint64
	owedTicks     uint64 // ticks with work owed since the last commit or vote
	stalls        int    // view-change votes since the last commit
	lastView      uint64
	pending       map[uint64]pendingBatch
	waiters       map[hashsig.Digest][]waiter
	heard         map[hashsig.Digest]uint64 // tick a copy was last forwarded (either way) or requeued

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
	forwarded       atomic.Uint64
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
		cfg.BatchMax = 256
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
		heard:   make(map[hashsig.Digest]uint64),
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
		Forwarded:        n.forwarded.Load(),
		View:             n.view.Load(),
		Syncs:            n.syncs.Load(),
		Syncing:          n.syncing.Load(),
	}
}

// Submit hands one client request to the node and blocks until it
// commits (receipt attached), fails fast (busy / too large / duplicate),
// times out, or the node stops. Any node takes requests, primary or not.
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
			for h := range n.waiters {
				n.answer(h, rpc.Result{Status: rpc.StatusShutdown})
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
	n.requeue()
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
	if fw, ok := m.(*consensus.Forward); ok {
		// A peer's client request, pooled with no waiter; a refusal needs
		// no answer.
		n.forwarded.Add(1)
		h := txpool.Hash(&fw.Request)
		if !fw.Request.Governance && (n.pool.AddHashed(fw.Request, h) == nil || n.pool.Pooled(h)) {
			n.heard[h] = n.ticks
		}
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
	if n.rep.InFlight() > 0 || n.pool.Len() > 0 {
		// An idle gap does not expire the stall timer, and a copy that
		// leaves the pool and comes back does not restart it.
		n.owedTicks++
	}
	n.route(n.rep.SyncTick())
	if n.ticks%retransmitEvery == 0 {
		n.route(n.rep.Retransmit())
		n.reforward()
	}
	if n.owedTicks >= uint64(n.cfg.StallTicks)<<min(n.stalls, maxStallDoublings) {
		// Vote to leave the view, and re-arm rather than fire every tick.
		outs := n.rep.OnTimeout()
		n.stalls += min(len(outs), 1) // a lone voter casts nothing new
		n.route(outs)
		n.owedTicks = 0
	}
	n.expire()
}

// reforward covers a lost forward: a backup sends the primary again each
// pooled request a client of its own waits for, once no forward of it went
// or came for retransmitEvery ticks.
func (n *Node) reforward() {
	if n.rep.IsPrimary() || len(n.waiters) == 0 {
		return
	}
	primary := consensus.ReplicaID(n.rep.View() % uint64(len(n.cfg.Consensus.Peers)))
	var outs []consensus.Outbound
	for _, pr := range n.pool.Requests() {
		if len(n.waiters[pr.Hash]) > 0 && n.ticks-n.heard[pr.Hash] >= retransmitEvery {
			n.heard[pr.Hash] = n.ticks
			outs = append(outs, consensus.Outbound{Dest: primary, Msg: &consensus.Forward{Request: pr.Req}})
		}
	}
	n.route(outs)
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
// reports how many requests it carried, 0 if nothing was proposed. The
// proposal is parked per seq until afterProgress sees it commit.
func (n *Node) proposeFromPool() int {
	batch := n.pool.NextBatch(n.cfg.BatchMax)
	if len(batch) == 0 {
		return 0
	}
	reqs := make([]ledger.Request, len(batch))
	subs := make([]hashsig.Digest, len(batch))
	for i := range batch {
		reqs[i], subs[i] = batch[i].Req, batch[i].Hash
	}
	pp, content, err := n.rep.Propose(reqs)
	if err != nil {
		n.failBatch(batch)
		return 0
	}
	pb := pendingBatch{view: n.rep.View(), content: content, subs: subs, reqs: reqs}
	if old, ok := n.pending[pp.Header.Seq]; ok {
		n.forget(old) // a view change abandoned this node's earlier batch here
	}
	n.pending[pp.Header.Seq] = pb
	n.route([]consensus.Outbound{{Dest: consensus.Broadcast, Msg: pp}})
	return len(batch)
}

// requeue keeps the node's proposals in step with its view. Once the view
// changes, the requests of its proposals from earlier views go back to the
// pool: the change may have dropped them, and a commit of one, in whatever
// batch, answers its waiters and drops it. (A governance request is not
// re-pooled: its entry drops the request number, so no commit could drop
// the copy, and its client resubmits.) A primary also takes as its own each
// uncommitted batch in its ledger that it did not cut, the new view's
// re-proposed chain: their requests leave its pool before pace runs, since
// proposed again they would commit twice.
func (n *Node) requeue() {
	v := n.rep.View()
	if v != n.lastView {
		n.lastView, n.owedTicks = v, 0 // a new view gets a whole stall timeout
		for _, seq := range slices.Sorted(maps.Keys(n.pending)) {
			pb := n.pending[seq]
			if pb.view == v {
				continue
			}
			delete(n.pending, seq)
			for i, h := range pb.subs {
				n.pool.Forget(h)
				if !pb.reqs[i].Governance && h != (hashsig.Digest{}) && n.pool.AddHashed(pb.reqs[i], h) == nil {
					n.heard[h] = n.ticks
				}
			}
		}
	}
	led := n.rep.Ledger()
	for seq := n.lastCommitted + 1; n.rep.IsPrimary() && seq < led.Seq(); seq++ {
		b := led.BatchAt(seq)
		if _, ok := n.pending[seq]; ok || b == nil {
			continue
		}
		// Entry i is request i, as in a batch this node cut; an entry that
		// records no request keeps the zero request.
		pb := pendingBatch{view: v, content: b.Header.ContentDigest(),
			subs: make([]hashsig.Digest, len(b.Entries)), reqs: make([]ledger.Request, len(b.Entries))}
		for i, e := range b.Entries {
			if e.Kind == ledger.KindTransaction {
				pb.reqs[i] = ledger.Request{Author: e.Author, ReqNo: e.ReqNo, Body: e.Payload}
				pb.subs[i] = txpool.Hash(&pb.reqs[i])
			}
		}
		n.pool.Take(pb.subs...)
		n.pending[seq] = pb
	}
}

// failBatch resolves a drained batch the replica refused to propose. The
// requests are gone from the pool, so their submitters are told at once
// (rpc.StatusBusy: back off and resubmit) rather than left to run out their
// patience, and the pool's memo forgets them so the resubmission pools
// again. Nothing reachable makes Propose fail — the pool caps body size and
// pace checked CanPropose in this same turn — so there is no requeue.
func (n *Node) failBatch(batch []txpool.Pooled) {
	n.proposeFailures.Add(1)
	for _, pr := range batch {
		n.pool.Forget(pr.Hash)
		n.answer(pr.Hash, rpc.Result{Status: rpc.StatusBusy})
	}
}

// answer resolves every waiter of request h with res.
func (n *Node) answer(h hashsig.Digest, res rpc.Result) {
	for _, w := range n.waiters[h] {
		w.resp <- res
	}
	delete(n.waiters, h)
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
	// The committed entry count comes from the watermark's commit
	// certificate, which the ledger keeps however the watermark was reached
	// (a checkpoint-only sync holds no batch there): its header's HistSize
	// is cumulative, so the counter stays exact even when a sync or a prune
	// removed the batches a commit jump covered.
	n.committedEntries.Store(n.rep.Ledger().Cert(c).Header.HistSize)
	n.lastCommitted = c
	n.owedTicks, n.stalls = 0, 0
	n.committedSeqs.Store(c)
}

func (n *Node) deliverSeq(seq uint64) {
	b := n.rep.Ledger().BatchAt(seq)
	pb, ok := n.pending[seq]
	delete(n.pending, seq)
	if b == nil {
		// A commit jump (state transfer) passed seq, so no copy in the pool
		// can be observed committed any more: it goes, and its clients
		// resubmit. In the view it was proposed in, the batch that committed
		// at seq can only be this node's proposal (one pre-prepare per seq
		// per view), committed with no receipt to cut; in another it may
		// have been replaced.
		for _, pr := range n.pool.Requests() {
			n.pool.Drop(pr.Hash)
		}
		if !ok || n.rep.View() != pb.view {
			n.forget(pb)
			return
		}
		for _, h := range pb.subs {
			n.answer(h, rpc.Result{Status: rpc.StatusDuplicate})
		}
		return
	}
	// A view change may have replaced the batch this node proposed: compare
	// content.
	own := ok && b.Header.ContentDigest() == pb.content
	hs := n.observe(b, pb.subs, own)
	if !own {
		n.forget(pb) // a no-op when this node proposed nothing at seq
	}
	var rcs []ledger.Receipt
	ti := -1 // index of entry i's receipt among the batch's transactions
	for i, h := range hs {
		tx := b.Entries[i].Kind == ledger.KindTransaction
		if tx {
			ti++
		}
		if len(n.waiters[h]) == 0 {
			continue
		}
		res := rpc.Result{Status: rpc.StatusCommitted}
		if tx {
			if rcs == nil {
				rcs = n.rep.Ledger().Receipts(seq)
			}
			res.Receipt = &rcs[ti]
		}
		// A governance action gets no receipt: the ledger records it
		// without execution.
		n.answer(h, res)
	}
}

// observe feeds committed batch b to the pool, whoever proposed it (retries
// are refused, pooled copies dropped), and returns its requests' hashes:
// subs when b is this node's own proposal, else each transaction entry's.
// (A governance entry drops the request number, so another node's is left
// zero, and its duplicate suppression rests on the drain memo alone.)
func (n *Node) observe(b *ledger.Batch, subs []hashsig.Digest, own bool) []hashsig.Digest {
	if !own {
		subs = make([]hashsig.Digest, len(b.Entries))
	}
	tx := make([]hashsig.Digest, 0, len(subs))
	for i := range subs {
		e := &b.Entries[i]
		if e.Kind != ledger.KindTransaction {
			continue
		}
		if !own {
			subs[i] = txpool.Hash(&ledger.Request{Author: e.Author, ReqNo: e.ReqNo, Body: e.Payload})
		}
		tx = append(tx, subs[i])
	}
	n.pool.Observe(tx...)
	return subs
}

// forget drops a replaced batch's requests that were not seen committed
// from the pool's memo, so a retry pools them again instead of hearing
// they are duplicates.
func (n *Node) forget(pb pendingBatch) {
	for _, h := range pb.subs {
		n.pool.Forget(h)
	}
}

// expire answers the waiters whose patience ran out (rpc.StatusTimeout)
// and drops the copies no client waits for: a copy goes with its last
// waiter or, once forwarded, when no forward of it went or came for the
// same patience (each retry of its client is forwarded again). Such a copy
// committed where this node did not see it, or its clients gave up.
func (n *Node) expire() {
	patience := uint64(n.cfg.SubmitPatienceTicks)
	for h, ws := range n.waiters {
		keep := ws[:0]
		for _, w := range ws {
			if n.ticks >= w.deadline {
				w.resp <- rpc.Result{Status: rpc.StatusTimeout}
			} else {
				keep = append(keep, w)
			}
		}
		if len(keep) > 0 {
			n.waiters[h] = keep
			continue
		}
		delete(n.waiters, h)
		if _, ok := n.heard[h]; !ok {
			n.pool.Drop(h)
		}
	}
	for h, t := range n.heard {
		if !n.pool.Pooled(h) || len(n.waiters[h]) == 0 && n.ticks-t >= patience {
			n.pool.Drop(h)
			delete(n.heard, h)
		}
	}
}

func (n *Node) onSubmit(s submission) {
	if s.rq.Governance && !n.rep.IsPrimary() {
		// A governance entry drops its request number, so only the node
		// that proposes one can match it to its waiter and its pooled
		// copies: a backup sends the client to the primary.
		peers := uint64(len(n.cfg.Consensus.Peers))
		s.resp <- rpc.Result{Status: rpc.StatusNotPrimary, Leader: uint32(n.rep.View() % peers)}
		return
	}
	h := txpool.Hash(&s.rq)
	err := n.pool.AddHashed(s.rq, h)
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
	if !n.rep.IsPrimary() {
		// Every submission goes to every peer, so a client's retry covers a
		// lost forward.
		n.route([]consensus.Outbound{{Dest: consensus.Broadcast, Msg: &consensus.Forward{Request: s.rq}}})
		n.heard[h] = n.ticks
	}
	n.waiters[h] = append(n.waiters[h], waiter{
		resp:     s.resp,
		deadline: n.ticks + uint64(n.cfg.SubmitPatienceTicks),
	})
}

// undecided reports whether request h is still on its way to a commit at
// this node: pooled, or in a batch it proposed that has not committed.
func (n *Node) undecided(h hashsig.Digest) bool {
	if n.pool.Pooled(h) {
		return true
	}
	for _, pb := range n.pending {
		if slices.Contains(pb.subs, h) {
			return true
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
