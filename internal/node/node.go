// Package node is the runtime that turns a deterministic consensus
// replica into a networked cluster member. It owns everything the
// consensus package deliberately does not: the wall clock (through the
// Clock seam), the transport, the transaction pool feeding the primary,
// and the client submission path with receipt delivery.
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
// (TestSignaturesPerBatch) and 24 frames, ≈ 26 with retransmissions.
// In-process on two cores that is ≈ 0.9 ms per entry in one-entry batches
// against ≈ 34 µs in 64-entry ones. Proposing greedily — whenever the window has room and the pool is
// non-empty — pays the bill per request and was measured and rejected.
//
// BatchMax defaults to 256, the pick of a sweep on the two saturated
// benchmark workloads (bench/: 512 parked callers, four replicas in one
// process on two cores; medians of four alternating rounds of 8-s runs,
// with the batch-sized buffers allocated once at every value):
//
//	BatchMax  entries/batch  sat512 entries/s  insert512 entries/s
//	     128            114            42.7 k              29.0 k
//	     192            165            44.8 k              30.5 k
//	     256            198            44.2 k              28.9 k
//	     384            243            42.5 k              28.9 k
//	     512            255            39.4 k              29.0 k
//
// Six more rounds of 128, 192 and 256 read 33.9, 38.6 and 38.7 k/s on
// sat512; 256 beat 128 in all ten rounds. At ≈ 114 entries per batch the
// bill is 16/114 ≈ 0.14 Ed25519 operations and, traced, 0.23 frames per
// entry; at ≈ 198 it is 0.08 and 0.13. Above 256 the 512 callers filled
// no batch past ≈ 255 entries, and throughput fell. The lightly loaded
// workloads, whose window drains long before 128 requests pool, cut the
// batches they cut before.
//
// The price is at loads in between: a primary owing more than one batch
// but fewer than W full ones keeps fewer instances in flight than a
// smaller cap would. Against four cmd/node processes on two cores, in six
// alternating runs a side of cmd/loadgen, 128 and 256 read alike there: at
// 64 workers 14.2 k and 14.4 k entries/s with a 4.2 ms median each, and at
// 200 workers, which never pool 256 requests, 18.4 k and 19.0 k entries/s
// with 10.0 and 9.8 ms medians (256 read better in 3 and 4 of 6). A rule
// that grew the batch with the requests the primary owes was measured
// against a fixed 128 and lost on the saturated workloads.
//
// Ticks drive timers only: sync, retransmission, the stall timer and
// submission patience. The tick interval is their granularity and is not
// on the commit path.
package node

import (
	"fmt"
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
	// StallTicks is how many ticks without commit progress (with work in
	// flight) the node tolerates before voting for a view change.
	// 0 means 32.
	StallTicks int
	// SubmitPatienceTicks bounds how long a pending submission waits for
	// its commit before rpc.StatusTimeout. 0 means 128.
	SubmitPatienceTicks int
}

// retransmitEvery is the tick cadence of Retransmit.
const retransmitEvery = 8

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
	if n.ticks%retransmitEvery == 0 {
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
	pb := pendingBatch{view: n.rep.View(), content: content, subs: subs}
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
	n.lastProgressTick = n.ticks
	n.committedSeqs.Store(c)
}

func (n *Node) deliverSeq(seq uint64) {
	b := n.rep.Ledger().BatchAt(seq)
	pb, ok := n.pending[seq]
	delete(n.pending, seq)
	// A view change may have replaced the batch this node proposed. When the
	// committed batch is retained, compare content directly. When a commit
	// jump (state transfer) already pruned it, fall back to the view: within
	// one view the primary signs exactly one pre-prepare per sequence, so if
	// the view never changed since Propose, the batch that committed at seq
	// can only be this one.
	own := ok && (b != nil && b.Header.ContentDigest() == pb.content || b == nil && n.rep.View() == pb.view)
	if b != nil {
		n.observe(b, pb.subs, own)
	}
	if !own {
		n.forget(pb) // a no-op when this node proposed nothing at seq
		return
	}
	var rcs []ledger.Receipt
	ti := -1 // index of entry i's receipt among the batch's transactions
	for i, h := range pb.subs {
		tx := b != nil && b.Entries[i].Kind == ledger.KindTransaction
		if tx {
			ti++
		}
		if len(n.waiters[h]) == 0 {
			continue
		}
		res := rpc.Result{Status: rpc.StatusCommitted}
		switch {
		case b == nil:
			// Committed, but pruned: there is nothing to cut a receipt from.
			res.Status = rpc.StatusDuplicate
		case tx:
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

// observe suppresses client retries of the transactions committed batch b
// carries, whoever proposed it. When b is this node's own proposal, subs
// holds its requests' hashes (request i is entry i); otherwise each entry is
// hashed as the request it records. (Governance entries drop the request
// number on the ledger, so their duplicate suppression rests on the pool's
// drain memo alone.)
func (n *Node) observe(b *ledger.Batch, subs []hashsig.Digest, own bool) {
	hs := make([]hashsig.Digest, 0, len(b.Entries))
	for i := range b.Entries {
		e := &b.Entries[i]
		switch {
		case e.Kind != ledger.KindTransaction:
		case own:
			hs = append(hs, subs[i])
		default:
			hs = append(hs, txpool.Hash(&ledger.Request{Author: e.Author, ReqNo: e.ReqNo, Body: e.Payload}))
		}
	}
	n.pool.Observe(hs...)
}

// forget drops a replaced batch's requests that were not seen committed
// from the pool's memo, so a retry pools them again instead of hearing
// they are duplicates.
func (n *Node) forget(pb pendingBatch) {
	for _, h := range pb.subs {
		n.pool.Forget(h)
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
