// Package sim is a deterministic, seed-driven simulation of an IA-CCF
// cluster. Its honest replicas are the production runtime — nodes built by
// node.New, with their pool, pacing, receipt delivery and timers — on
// transport.Hub endpoints, run from one goroutine through the nodes' Step
// methods. Everything derives from one int64 seed: keys, clients and the
// Hub's schedule; replicas read no clock and no randomness (commit nonces
// derive from their keys). A failing run reports its seed, and the same
// configuration with that seed replays the identical run, frame for frame:
// Result.Frames digests every frame the Hub delivered, and
// TestSimDeterministicReplay compares two runs' digests. Every request
// writes three keys, so a write set has an order a map walk could leak.
// One step is:
//
//  1. A scripted equivocator that leads an idle view strikes.
//  2. Each client submits its next request (StepSubmit) or reads the
//     verdict on the one it submitted: a receipt must pass
//     loadgen.VerifyReceipt and carry the statement the node that
//     delivered it committed, busy resubmits, and a timeout — or
//     clientPatience steps of silence — sends it to the next node. Any
//     node takes a request: a backup forwards it to its peers.
//  3. Every stepped node ticks (StepTick) every tickEvery steps, and at
//     every step after one that left the Hub empty: time runs fastest when
//     the network is quiet. Ticks drive the nodes' own timers.
//  4. The Hub delivers, holds or loses one frame: a pick among the first
//     ReorderWindow queued, the partitions' verdict, then loss with
//     probability DropRate. Nodes retransmit, so a drop is a loss.
//  5. The invariants run (check).
//
// The driver fires no timer of its own: a faulty primary is replaced by the
// nodes' stall rule, which runs on every node that holds a client's request
// (see the node package doc).
//
// A Partition starts at step From and, when FromCommit is set, once some
// stepped node has committed it; it heals at step Until or, when
// UntilCommit is set, once some stepped node has committed that seq. It
// holds the frames crossing it until it heals, or with Loss discards them,
// so an isolated replica can only catch up.
//
// Byzantine scripts: "silent" is a node never stepped. "equivocate" is a
// bare consensus.Replica that plays honestly until it leads an idle view,
// then signs two batches for one seq (ExecuteBatchAs, RollbackTo), sends
// one to the first of the others and the other to the rest, and falls
// silent. "split" does the same to two halves of the others and sends each
// half its commit opening as well: the schedule that forks a cluster whose
// quorums share no honest replica (ledger.Quorum). "lying-sync" is a node
// whose endpoint corrupts every SyncChunk it sends.
//
// Invariants, after every step, on every honest node: retained batches
// within window + max(window, checkpoint interval); a watermark that never
// regresses; the content any other honest node committed at each seq;
// Stats with no decode errors, send errors or propose failures; blame only
// against scripted replicas, and verifying. Every replica sends sync
// messages unicast. A run ends when every client has its verdicts and the
// honest nodes share a watermark with nothing in flight and nothing pooled
// (a copy leaves a pool when its request commits or, if a peer forwarded
// it, once no client waits for it); then their history roots and state
// digests must match, each node's CommittedEntries must equal its ledger's
// entry count, every request —
// with a receipt or answered duplicate — must be committed at or below
// that watermark, and the commit evidence must hold (checkEvidence). A
// failure prints each replica's Stats and DebugState, and a failed
// evidence check.
//
// Simplifications: all nodes tick together, and a replica behind a new-view
// certificate's high-water mark trusts the certified re-proposal.
package sim

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"strconv"
	"strings"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/loadgen"
	"iaccf/internal/node"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
	"iaccf/internal/wire"
)

// ParseSeeds reads a seed matrix in SIM_SEEDS syntax: comma-separated seeds
// and inclusive ranges, as in "1,2,3", "1-100" or "5,30-40".
func ParseSeeds(spec string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseInt(lo, 10, 64)
			b, err2 := strconv.ParseInt(hi, 10, 64)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("sim: bad seed range %q", part)
			}
			for s := a; s <= b; s++ {
				seeds = append(seeds, s)
			}
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sim: bad seed %q", part)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// Behaviour names a scripted fault for one replica (see the package doc).
type Behaviour string

const (
	BehaviourHonest     Behaviour = ""
	BehaviourSilent     Behaviour = "silent"
	BehaviourEquivocate Behaviour = "equivocate"
	BehaviourSplit      Behaviour = "split"
	BehaviourLyingSync  Behaviour = "lying-sync"
)

// Partition isolates replica groups for a stretch of the run (see the
// package doc for when it starts and heals).
type Partition struct {
	From, Until int
	FromCommit  uint64
	UntilCommit uint64
	// Loss discards the frames crossing the partition instead of holding
	// them until it heals.
	Loss bool
	// Group maps replica -> group index; unlisted replicas are group 0.
	Group map[consensus.ReplicaID]int
}

// Config parameterizes one simulation run.
type Config struct {
	Seed int64
	// Replicas is the cluster size n; default 4 (n = 3f + 1 with f = 1).
	Replicas        int
	CheckpointEvery uint64 // default 2
	Window          int    // proposal window W; default consensus.DefaultWindow
	// Requests is the workload: client requests that must commit on every
	// honest node.
	Requests int
	// Clients submit the workload, request i by client i mod Clients, each
	// one request at a time. Default 1: then every request is a batch of
	// its own, so a seq names a request.
	Clients int
	// Network is the Hub's drop and reorder rules. Its Cut must be unset:
	// the sim cuts links from Partitions, and New refuses a Cut.
	Network    transport.TamperPolicy
	Partitions []Partition
	Byzantine  map[consensus.ReplicaID]Behaviour
}

const (
	// batchMax is every node's BatchMax: small, so a few clients keep
	// several instances in flight.
	batchMax  = 2
	tickEvery = 16
	// clientPatience is how many steps a client waits for a verdict before
	// it tries the next node: the client's own timeout, for a node that
	// never answers.
	clientPatience = 500
	maxSteps       = 500_000
)

// Result summarizes a completed run.
type Result struct {
	Steps int
	// Lost counts frames Loss partitions discarded (drops are not counted).
	Lost int
	// Frames digests every frame the Hub delivered, in order, with its
	// sender and receiver: two runs of one configuration match frame for
	// frame.
	Frames hashsig.Digest
	// Committed is the final committed watermark, one for every honest node.
	Committed uint64
	// FinalView is the highest view an honest node ended in.
	FinalView uint64
	// Blames is the union of blame evidence across honest nodes.
	Blames []*ledger.Blame
	// ReceiptlessCommits counts requests whose client was answered
	// rpc.StatusDuplicate: they committed, but no node handed the client a
	// receipt for them.
	ReceiptlessCommits int
	// Recommits counts transactions committed again at a later seq, each
	// proposed by a node that had jumped past the first commit.
	Recommits int
	// Nodes are the honest nodes, for post-run assertions.
	Nodes map[consensus.ReplicaID]*node.Node
}

// member is one replica of the simulated cluster.
type member struct {
	id        consensus.ReplicaID
	behaviour Behaviour
	node      *node.Node         // nil for the equivocator
	pool      *txpool.Pool       // the node's pool
	rep       *consensus.Replica // the node's replica, or the equivocator's
	key       *hashsig.PrivateKey
	ep        transport.Transport
	stepped   bool   // a node the driver steps: honest or lying-sync
	checked   uint64 // committed prefix compared against canon
	blind     uint64 // highest seq it committed with no batch to see (a sync jump)
	blames    int    // evidence already checked
	struck    bool   // the equivocator has equivocated
}

// scripted reports whether m is an equivocator: a bare replica the driver
// plays until it strikes.
func (m *member) scripted() bool {
	return m.behaviour == BehaviourEquivocate || m.behaviour == BehaviourSplit
}

// client submits its share of the workload one request at a time.
type client struct {
	reqs   []ledger.Request
	next   int // index of the request in flight
	target consensus.ReplicaID
	sent   bool
	resp   <-chan rpc.Result // nil after a send to a replica that never answers
	waited int
}

type reqKey struct {
	author hashsig.Digest
	reqNo  uint64
}

// Sim is one run's state.
type Sim struct {
	cfg     Config
	hub     *transport.Hub
	frames  hash.Hash // every delivered frame: sender, receiver, bytes
	pubs    []*hashsig.PublicKey
	members []*member
	honest  []*member // ascending id
	clients []*client

	res   Result // the counts it reports, as they accrue
	step  int
	high  uint64 // highest watermark of a stepped node, as of the last check
	quiet bool   // the last Hub step left nothing queued

	// canon pins the first-committed content digest per seq; an honest
	// node committing other content at that seq is a safety violation
	// (the statement may differ: one batch can commit under different
	// views' pre-prepares).
	canon map[uint64]hashsig.Digest
	// committedAt is the seq at which each transaction first committed.
	committedAt map[reqKey]uint64
	// envelopeErr records the first envelope rule a sender broke.
	envelopeErr error
}

// New builds a simulation from the config. Keys derive from the seed, so
// distinct seeds exercise distinct key sets.
func New(cfg Config) (*Sim, error) {
	if cfg.Network.Cut != nil {
		return nil, errors.New("sim: Config.Network.Cut is set; partition links with Config.Partitions instead")
	}
	cfg.CheckpointEvery, cfg.Clients = cmp.Or(cfg.CheckpointEvery, 2), cmp.Or(cfg.Clients, 1)
	cfg.Replicas = cmp.Or(cfg.Replicas, 4)
	s := &Sim{
		cfg:         cfg,
		frames:      hashsig.NewHasher(),
		canon:       make(map[uint64]hashsig.Digest),
		committedAt: make(map[reqKey]uint64),
	}
	policy := cfg.Network
	policy.Cut = s.cut
	s.hub = transport.NewHub(cfg.Seed, policy)
	keys := make([]*hashsig.PrivateKey, cfg.Replicas)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("sim-%d-replica-%d", cfg.Seed, i))
		s.pubs = append(s.pubs, keys[i].Public())
	}
	for i := range keys {
		m := &member{id: consensus.ReplicaID(i), behaviour: cfg.Byzantine[consensus.ReplicaID(i)], key: keys[i]}
		ccfg := consensus.Config{
			ID:              m.id,
			Key:             keys[i],
			Peers:           s.pubs,
			App:             ledger.KVApp{},
			CheckpointEvery: cfg.CheckpointEvery,
			Window:          cfg.Window,
		}
		var handle transport.Handler
		switch m.behaviour {
		case BehaviourHonest, BehaviourLyingSync:
			m.stepped = true
			handle = func(from transport.NodeID, frame []byte) { m.node.StepFrame(from, frame) }
		case BehaviourEquivocate, BehaviourSplit:
			handle = func(from transport.NodeID, frame []byte) { s.equivocatorHandle(m, frame) }
		case BehaviourSilent:
			handle = func(transport.NodeID, []byte) {}
		default:
			return nil, fmt.Errorf("sim: unknown behaviour %q", m.behaviour)
		}
		handler := func(from transport.NodeID, frame []byte) {
			var hdr [16]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(from))
			binary.BigEndian.PutUint32(hdr[4:], uint32(m.id))
			binary.BigEndian.PutUint64(hdr[8:], uint64(len(frame)))
			s.frames.Write(hdr[:])
			s.frames.Write(frame)
			handle(from, frame)
		}
		m.ep = &endpoint{
			Transport: s.hub.Endpoint(transport.NodeID(i), handler),
			s:         s,
			id:        m.id,
			lie:       m.behaviour == BehaviourLyingSync,
		}
		var err error
		if m.scripted() {
			m.rep, err = consensus.New(ccfg)
		} else {
			m.pool = txpool.New(txpool.Config{})
			m.node, err = node.New(node.Config{
				Consensus: ccfg,
				Transport: m.ep,
				Clock:     node.NewManualClock(), // never read: the driver ticks
				Pool:      m.pool,
				BatchMax:  batchMax,
			})
			if err == nil {
				m.rep = m.node.Replica()
			}
		}
		if err != nil {
			return nil, err
		}
		s.members = append(s.members, m)
		if m.behaviour == BehaviourHonest {
			s.honest = append(s.honest, m)
		}
	}
	if len(s.honest) < ledger.Quorum(cfg.Replicas) {
		return nil, fmt.Errorf("sim: %d honest replicas cannot form a quorum", len(s.honest))
	}
	for i := 0; i < cfg.Clients; i++ {
		s.clients = append(s.clients, &client{target: consensus.ReplicaID(i % cfg.Replicas)})
	}
	for i := 0; i < cfg.Requests; i++ {
		c := s.clients[i%cfg.Clients]
		c.reqs = append(c.reqs, ledger.Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("sim-%d-client-%d", cfg.Seed, i%cfg.Clients))),
			ReqNo:  uint64(len(c.reqs) + 1),
			Body:   ledger.EncodeOps(writes(i)),
		})
	}
	return s, nil
}

// writes is request i's write set: its own key and two of a few shared
// ones, so every write set has an order for a map walk to leak and
// requests overwrite each other.
func writes(i int) []ledger.Op {
	val := []byte(fmt.Sprintf("val-%d", i))
	return []ledger.Op{
		{Key: fmt.Sprintf("key-%d", i), Val: val},
		{Key: fmt.Sprintf("shared-%d", i%5), Val: val},
		{Key: fmt.Sprintf("shared-%d", (i+2)%5), Val: val},
	}
}

// endpoint is a replica's Hub endpoint as the sim wires it: it records a
// replica that broadcasts sync traffic, and for a lying-sync node corrupts
// every SyncChunk it sends.
type endpoint struct {
	transport.Transport
	s   *Sim
	id  consensus.ReplicaID
	lie bool
}

func (e *endpoint) Send(to transport.NodeID, frame []byte) error {
	if e.lie {
		if m, err := consensus.DecodeMessage(frame); err == nil {
			if sc, ok := m.(*consensus.SyncChunk); ok && len(sc.Data) > 0 {
				sc.Data[len(sc.Data)/2] ^= 0xff
				frame = consensus.EncodeMessage(sc)
			}
		}
	}
	return e.Transport.Send(to, frame)
}

func (e *endpoint) Broadcast(frame []byte) error {
	// A frame leads with its message type (consensus.EncodeMessage).
	switch t := consensus.MsgType(wire.NewBytesReader(frame).Uint32()); t {
	case consensus.MsgSyncRequest, consensus.MsgSyncChunk:
		if e.s.envelopeErr == nil {
			e.s.envelopeErr = fmt.Errorf("envelope: replica %d broadcast message type %d; sync traffic must be unicast", e.id, t)
		}
	}
	return e.Transport.Broadcast(frame)
}

// cut is the partitions' verdict on a frame from one replica to another
// at this step.
func (s *Sim) cut(from, to transport.NodeID) transport.Cut {
	verdict := transport.Pass
	for i := range s.cfg.Partitions {
		p := &s.cfg.Partitions[i]
		if p.Group[consensus.ReplicaID(from)] == p.Group[consensus.ReplicaID(to)] || !s.active(p) {
			continue
		}
		if p.Loss {
			s.res.Lost++
			return transport.Lose
		}
		verdict = transport.Hold
	}
	return verdict
}

func (s *Sim) active(p *Partition) bool {
	if s.step < p.From || s.high < p.FromCommit {
		return false
	}
	if p.UntilCommit > 0 {
		return s.high < p.UntilCommit
	}
	return s.step < p.Until
}

// equivocatorHandle runs the equivocator's bare replica on one frame until
// it strikes; it is silent afterwards.
func (s *Sim) equivocatorHandle(m *member, frame []byte) {
	if m.struck {
		return
	}
	msg, err := consensus.DecodeMessage(frame)
	if err != nil {
		return
	}
	outs, _ := m.rep.Handle(msg)
	for _, o := range outs {
		f := consensus.EncodeMessage(o.Msg)
		if o.IsBroadcast() {
			m.ep.Broadcast(f)
		} else {
			m.ep.Send(transport.NodeID(o.Dest), f)
		}
	}
}

// strike lets an equivocator that leads an idle view sign two conflicting
// batches for its next seq and send one to each part of the other
// replicas: "equivocate" sends the first of them one batch and the rest
// the other; "split" halves them and sends each half its commit opening
// too, so each half sees the equivocator's part of a quorum for its batch.
func (s *Sim) strike(m *member) {
	rep := m.rep
	if m.struck || !rep.IsPrimary() || !rep.Idle() {
		return
	}
	m.struck = true
	led := rep.Ledger()
	view, seq := rep.View(), rep.NextProposalSeq()
	mk := func(variant string) [][]byte {
		reqs := []ledger.Request{{
			Author: hashsig.Sum([]byte("equivocator")),
			ReqNo:  seq,
			Body:   ledger.EncodeOps([]ledger.Op{{Key: fmt.Sprintf("equivocation-%d", seq), Val: []byte(variant)}}),
		}}
		var nonce hashsig.Nonce
		batch, err := led.ExecuteBatchAs(func(content hashsig.Digest) ledger.Envelope {
			nonce = m.key.Nonce(view, seq, content)
			return ledger.Envelope{View: view, Primary: uint32(m.id), NonceCommit: nonce.Commit()}
		}, reqs)
		if err != nil {
			panic(err) // the scripted request always executes
		}
		// Lemma 1 is the equivocator's accomplice: roll back and the
		// ledger will happily sign a different batch for the same seq.
		if err := led.RollbackTo(seq); err != nil {
			panic(err)
		}
		frames := [][]byte{consensus.EncodeMessage(&consensus.PrePrepare{Header: batch.Header, Entries: batch.Entries})}
		if m.behaviour == BehaviourSplit {
			frames = append(frames, consensus.EncodeMessage(&consensus.Commit{
				View: view, Replica: m.id, Seq: seq, Statement: batch.Header.StatementDigest(), Nonce: nonce,
			}))
		}
		return frames
	}
	a, b := mk("a"), mk("b")
	first := 1
	if m.behaviour == BehaviourSplit {
		first = (s.cfg.Replicas - 1) / 2
	}
	sent := 0
	for _, o := range s.members {
		if o.id == m.id {
			continue
		}
		frames := b
		if sent < first {
			frames = a
		}
		sent++
		for _, f := range frames {
			m.ep.Send(transport.NodeID(o.id), f)
		}
	}
}

// next is the replica a client tries after id.
func (s *Sim) next(id consensus.ReplicaID) consensus.ReplicaID {
	return (id + 1) % consensus.ReplicaID(s.cfg.Replicas)
}

// serve moves one client forward: submit its next request, or read the
// verdict on the one it submitted.
func (s *Sim) serve(c *client) error {
	if c.next == len(c.reqs) {
		return nil
	}
	rq := &c.reqs[c.next]
	if !c.sent {
		c.sent, c.resp, c.waited = true, nil, 0
		if m := s.members[c.target]; m.stepped {
			c.resp = m.node.StepSubmit(*rq)
		}
		return nil
	}
	var r rpc.Result
	select {
	case r = <-c.resp:
	default:
		if c.waited++; c.waited >= clientPatience {
			c.target = s.next(c.target)
			c.sent = false
		}
		return nil
	}
	c.sent = false
	switch r.Status {
	case rpc.StatusCommitted:
		if err := loadgen.VerifyReceipt(s.pubs, rq, r.Receipt); err != nil {
			return fmt.Errorf("client: %v", err)
		}
		if err := checkStatement(s.members[c.target], r.Receipt); err != nil {
			return err
		}
	case rpc.StatusDuplicate:
		s.res.ReceiptlessCommits++
	case rpc.StatusTimeout:
		// The node may be cut off from the rest, or lead a view they have
		// left: try the next.
		c.target = s.next(c.target)
		return nil
	case rpc.StatusBusy:
		return nil // resubmit: the pool's dedup makes it safe
	default:
		return fmt.Errorf("client: request %d answered %v", rq.ReqNo, r.Status)
	}
	c.next++
	return nil
}

// checkStatement holds a receipt that node m delivered to the statement m
// committed at its seq: m has committed the seq and, while it retains the
// batch, holds that very header. (Another honest node may have committed
// the same content under another view's statement; canon holds every node
// to the content.)
func checkStatement(m *member, rc *ledger.Receipt) error {
	seq := rc.Header.Seq
	if c := m.rep.Committed(); c < seq {
		return fmt.Errorf("client: replica %d delivered a receipt for seq %d at watermark %d", m.id, seq, c)
	}
	if b := m.rep.Ledger().BatchAt(seq); b != nil && b.Header.StatementDigest() != rc.Header.StatementDigest() {
		return fmt.Errorf("client: receipt for seq %d carries view %d's statement, replica %d committed view %d's",
			seq, rc.Header.View, m.id, b.Header.View)
	}
	return nil
}

// check asserts the per-step invariants (see the package doc).
func (s *Sim) check() error {
	if s.envelopeErr != nil {
		return s.envelopeErr
	}
	for _, m := range s.honest {
		st := m.node.Stats()
		if st.DecodeErrors != 0 || st.SendErrors != 0 || st.ProposeFailures != 0 {
			return fmt.Errorf("node: replica %d counts %d decode errors, %d send errors, %d propose failures",
				m.id, st.DecodeErrors, st.SendErrors, st.ProposeFailures)
		}
		evidence := m.rep.Evidence()
		for _, bl := range evidence[m.blames:] {
			culprit := -1
			for i, pub := range s.pubs {
				if pub.ID() == bl.Culprit {
					culprit = i
				}
			}
			if culprit < 0 {
				return fmt.Errorf("blame names an unknown key %s", bl.Culprit)
			}
			if s.members[culprit].behaviour == BehaviourHonest {
				return fmt.Errorf("blame wrongly names honest replica %d", culprit)
			}
			if !bl.Verify(s.pubs[culprit]) {
				return fmt.Errorf("blame against replica %d does not verify", culprit)
			}
		}
		m.blames = len(evidence)
		rep := m.rep
		limit := rep.Window() + max(rep.Window(), int(s.cfg.CheckpointEvery))
		if got := rep.Ledger().RetainedBatches(); got > limit {
			return fmt.Errorf("memory: replica %d retains %d batches, bound %d", m.id, got, limit)
		}
		committed := rep.Committed()
		if committed < m.checked {
			return fmt.Errorf("liveness: replica %d committed watermark regressed %d -> %d", m.id, m.checked, committed)
		}
		if committed == m.checked {
			continue
		}
		if first := rep.Ledger().FirstRetainedSeq(); first > m.checked+1 {
			m.blind = min(first-1, committed)
		}
		for _, b := range rep.Ledger().Batches() {
			seq := b.Header.Seq
			if seq <= m.checked || seq > committed {
				continue
			}
			d := b.Header.ContentDigest()
			if prev, ok := s.canon[seq]; ok {
				if prev != d {
					return fmt.Errorf("safety: replica %d committed a different batch at seq %d", m.id, seq)
				}
				continue
			}
			s.canon[seq] = d
			for _, e := range b.Entries {
				k := reqKey{e.Author, e.ReqNo}
				if e.Kind != ledger.KindTransaction {
					continue
				}
				if first, ok := s.committedAt[k]; ok {
					// Only a proposer that jumped past the first commit by
					// state transfer cannot know of it (ROADMAP item 27).
					if p := s.members[b.Header.Primary]; p.behaviour == BehaviourHonest && p.blind < first {
						return fmt.Errorf("safety: replica %d proposed request %x/%d again at seq %d; it committed at seq %d",
							p.id, e.Author[:4], e.ReqNo, seq, first)
					}
					s.res.Recommits++
					continue
				}
				s.committedAt[k] = seq
			}
		}
		m.checked = committed
	}
	for _, m := range s.members {
		if m.stepped {
			s.high = max(s.high, m.rep.Committed())
		}
	}
	return nil
}

// done reports whether every client has its verdicts and the honest nodes
// share one watermark with nothing in flight and nothing pooled.
func (s *Sim) done() bool {
	for _, c := range s.clients {
		if c.next < len(c.reqs) {
			return false
		}
	}
	w := s.honest[0].rep.Committed()
	for _, m := range s.honest {
		if m.rep.Committed() != w || m.rep.InFlight() != 0 || m.pool.Len() != 0 {
			return false
		}
	}
	return true
}

// fail reports an invariant failure with the seed, the step, each
// replica's Stats and DebugState, and a failed evidence check.
func (s *Sim) fail(format string, args ...any) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim seed %d: step %d: %s", s.cfg.Seed, s.step, fmt.Sprintf(format, args...))
	for _, m := range s.members {
		fmt.Fprintf(&b, "\n  replica %d %q: %s", m.id, m.behaviour, m.rep.DebugState())
		if m.node != nil {
			fmt.Fprintf(&b, "\n    %+v, %d pooled", m.node.Stats(), m.pool.Len())
		}
	}
	if err := s.checkEvidence(); err != nil {
		fmt.Fprintf(&b, "\n  %v", err)
	}
	return errors.New(b.String())
}

// checkEvidence holds each honest node to the certificates its ledger keeps:
// one for its watermark, every one verifying, and one content per seq across
// nodes (statements may differ by view). It verifies signatures, so it runs
// at the end of a run and in a failure's dump, not per step, and checks a
// signature that several nodes' certificates carry once, as a replica does
// (CommitCert.Structure, then each owed check through a VerifiedSet).
func (s *Sim) checkEvidence() error {
	content := make(map[uint64]hashsig.Digest)
	checked := hashsig.NewVerifiedSet[hashsig.Digest](1 << 12)
	verify := func(cert *ledger.CommitCert) bool {
		tasks, ok := cert.Structure(s.pubs)
		for _, t := range tasks {
			ok = ok && checked.Verify(t.MemoKey(), func() bool { return t.Key.Verify(t.Digest, t.Sig) })
		}
		return ok
	}
	for _, m := range s.honest {
		led, c := m.rep.Ledger(), m.rep.Committed()
		for seq := led.FirstRetainedSeq() - 1; seq <= c; seq++ {
			cert := led.Cert(seq)
			switch {
			case cert == nil && seq == c && c > 0:
				return fmt.Errorf("evidence: replica %d holds no certificate for its watermark %d", m.id, c)
			case cert == nil:
				continue
			case !verify(cert):
				return fmt.Errorf("evidence: replica %d's certificate for seq %d does not verify", m.id, seq)
			}
			d := cert.Header.ContentDigest()
			if prev, ok := content[seq]; ok && prev != d {
				return fmt.Errorf("evidence: replica %d's certificate for seq %d names other content than another replica's", m.id, seq)
			}
			content[seq] = d
		}
	}
	return nil
}

// Run executes the schedule until the workload commits everywhere or the
// step limit trips.
func (s *Sim) Run() (*Result, error) {
	for ; !s.done(); s.step++ {
		if s.step >= maxSteps {
			return nil, s.fail("no convergence after %d steps", s.step)
		}
		for _, m := range s.members {
			if m.scripted() {
				s.strike(m)
			}
		}
		for _, c := range s.clients {
			if err := s.serve(c); err != nil {
				return nil, s.fail("%v", err)
			}
		}
		if s.step%tickEvery == 0 || s.quiet {
			for _, m := range s.members {
				if m.stepped {
					m.node.StepTick()
				}
			}
		}
		s.quiet = !s.hub.Step()
		if err := s.check(); err != nil {
			return nil, s.fail("%v", err)
		}
	}
	return s.result()
}

// result checks the final state and summarizes the run.
func (s *Sim) result() (*Result, error) {
	ref, res := s.honest[0].rep, &s.res
	res.Steps, res.Committed = s.step, ref.Committed()
	s.frames.Sum(res.Frames[:0])
	res.Nodes = make(map[consensus.ReplicaID]*node.Node)
	for _, m := range s.honest {
		if m.rep.Ledger().HistRoot() != ref.Ledger().HistRoot() {
			return nil, s.fail("final history roots diverge between replicas %d and %d", s.honest[0].id, m.id)
		}
		if m.rep.Ledger().StateDigest() != ref.Ledger().StateDigest() {
			return nil, s.fail("final state digests diverge between replicas %d and %d", s.honest[0].id, m.id)
		}
		if got, want := m.node.CommittedEntries(), m.rep.Ledger().HistSize(); got != want {
			return nil, s.fail("node: replica %d counts %d committed entries, its watermark holds %d", m.id, got, want)
		}
		res.FinalView = max(res.FinalView, m.rep.View())
		res.Blames = append(res.Blames, m.rep.Evidence()...)
		res.Nodes[m.id] = m.node
	}
	for _, c := range s.clients {
		for _, rq := range c.reqs {
			if seq, ok := s.committedAt[reqKey{rq.Author, rq.ReqNo}]; !ok || seq > res.Committed {
				return nil, s.fail("client: request %x/%d has its verdict but is not in the committed ledger", rq.Author[:4], rq.ReqNo)
			}
		}
	}
	if s.checkEvidence() != nil {
		return nil, s.fail("the commit evidence does not hold")
	}
	return res, nil
}

// Run is the one-call entry point: build and run a configuration.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
