// Package sim is a deterministic, seed-driven simulation of an IA-CCF
// cluster. Its honest replicas are the production runtime — nodes built by
// node.New, with their pool, pacing, receipt delivery and timers — on
// transport.Hub endpoints, run from one goroutine through the nodes' Step
// methods. Everything derives from one int64 seed: keys, clients and the
// Hub's schedule. A failing run reports its seed, and the same
// configuration with that seed replays the identical run
// (TestSimDeterministicReplay). One step is:
//
//  1. A scripted equivocator that leads an idle view strikes.
//  2. Each client submits its next request (StepSubmit) or reads the
//     verdict on the one it submitted: a receipt must pass
//     loadgen.VerifyReceipt and carry the statement the node that
//     delivered it committed, a not-primary answer sends the client where
//     its hint points, busy resubmits, and a timeout — or clientPatience
//     steps of silence — sends it to the next node.
//  3. Every stepped node ticks (StepTick) every tickEvery steps, and at
//     every step after one that left the Hub empty: time runs fastest when
//     the network is quiet. Ticks drive the nodes' own timers.
//  4. The Hub delivers, holds or loses one frame: a pick among the first
//     ReorderWindow queued, the partitions' verdict, then loss with
//     probability DropRate. Nodes retransmit, so a drop is a loss.
//  5. The invariants run (check).
//  6. If no honest node committed for stallSteps steps, every stepped
//     node's stall timer expires at once (StepStall). A node's own stall
//     rule runs only with work in flight, and a backup answers clients
//     not-primary and keeps nothing, so without this timer a primary that
//     dies while the cluster is idle is never replaced.
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
// one to each half of the others, and falls silent. "lying-sync" is a node
// whose endpoint corrupts every SyncChunk it sends.
//
// Invariants, after every step, on every honest node: retained batches
// within window + max(window, checkpoint interval); a watermark that never
// regresses; the content any other honest node committed at each seq;
// Stats with no decode errors, send errors or propose failures; blame only
// against scripted replicas, and verifying. Every replica sends sync
// messages unicast. A run ends when every client has its verdicts and the
// honest nodes share a watermark with nothing in flight; then their
// history roots and state digests must match, and every request — with a
// receipt or answered duplicate — must be committed at or below that
// watermark. A failure prints each replica's Stats and DebugState.
//
// Simplifications: the driver's stall timer is synchronized, all nodes
// tick together, and a replica behind a new-view certificate's high-water
// mark trusts the certified re-proposal.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/loadgen"
	"iaccf/internal/node"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
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
	Seed            int64
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
	replicas = 4 // n = 3f + 1 with f = 1
	// batchMax is every node's BatchMax: small, so a few clients keep
	// several instances in flight.
	batchMax   = 2
	tickEvery  = 16
	stallSteps = 1000
	// clientPatience is below stallSteps, so a client leaves a dead node
	// before the cluster is made to leave it.
	clientPatience = 500
	maxSteps       = 500_000
)

// Result summarizes a completed run.
type Result struct {
	Steps int
	// Lost counts frames Loss partitions discarded (drops are not counted).
	Lost int
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
	// Nodes are the honest nodes, for post-run assertions.
	Nodes map[consensus.ReplicaID]*node.Node
}

// member is one replica of the simulated cluster.
type member struct {
	id        consensus.ReplicaID
	behaviour Behaviour
	node      *node.Node         // nil for the equivocator
	rep       *consensus.Replica // the node's replica, or the equivocator's
	ep        transport.Transport
	stepped   bool   // a node the driver steps: honest or lying-sync
	checked   uint64 // committed prefix compared against canon
	blames    int    // evidence already checked
	struck    bool   // the equivocator has equivocated
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
	pubs    []*hashsig.PublicKey
	members []*member
	honest  []*member // ascending id
	clients []*client

	res   Result // the counts it reports, as they accrue
	step  int
	high  uint64 // highest watermark of a stepped node, as of the last check
	idle  int    // steps since an honest node last committed
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
	s := &Sim{
		cfg:         cfg,
		canon:       make(map[uint64]hashsig.Digest),
		committedAt: make(map[reqKey]uint64),
	}
	policy := cfg.Network
	policy.Cut = s.cut
	s.hub = transport.NewHub(cfg.Seed, policy)
	keys := make([]*hashsig.PrivateKey, replicas)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("sim-%d-replica-%d", cfg.Seed, i))
		s.pubs = append(s.pubs, keys[i].Public())
	}
	for i := range keys {
		m := &member{id: consensus.ReplicaID(i), behaviour: cfg.Byzantine[consensus.ReplicaID(i)]}
		ccfg := consensus.Config{
			ID:              m.id,
			Key:             keys[i],
			Peers:           s.pubs,
			App:             ledger.KVApp{},
			CheckpointEvery: cfg.CheckpointEvery,
			Window:          cfg.Window,
		}
		var handler transport.Handler
		switch m.behaviour {
		case BehaviourHonest, BehaviourLyingSync:
			m.stepped = true
			handler = func(from transport.NodeID, frame []byte) { m.node.StepFrame(from, frame) }
		case BehaviourEquivocate:
			handler = func(from transport.NodeID, frame []byte) { s.equivocatorHandle(m, frame) }
		case BehaviourSilent:
		default:
			return nil, fmt.Errorf("sim: unknown behaviour %q", m.behaviour)
		}
		m.ep = &endpoint{
			Transport: s.hub.Endpoint(transport.NodeID(i), handler),
			s:         s,
			id:        m.id,
			lie:       m.behaviour == BehaviourLyingSync,
		}
		var err error
		if m.behaviour == BehaviourEquivocate {
			m.rep, err = consensus.New(ccfg)
		} else {
			m.node, err = node.New(node.Config{
				Consensus: ccfg,
				Transport: m.ep,
				Clock:     node.NewManualClock(), // never read: the driver ticks
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
	if len(s.honest) < 3 {
		return nil, fmt.Errorf("sim: %d honest replicas cannot form a quorum", len(s.honest))
	}
	for i := 0; i < cfg.Clients; i++ {
		s.clients = append(s.clients, &client{target: consensus.ReplicaID(i % replicas)})
	}
	for i := 0; i < cfg.Requests; i++ {
		c := s.clients[i%cfg.Clients]
		c.reqs = append(c.reqs, ledger.Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("sim-%d-client-%d", cfg.Seed, i%cfg.Clients))),
			ReqNo:  uint64(len(c.reqs) + 1),
			Body:   ledger.EncodeOps([]ledger.Op{{Key: fmt.Sprintf("key-%d", i), Val: []byte(fmt.Sprintf("val-%d", i))}}),
		})
	}
	return s, nil
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
// batches for its next seq and send one to each half of the other replicas.
func (s *Sim) strike(m *member) {
	rep := m.rep
	if m.struck || !rep.IsPrimary() || !rep.Idle() {
		return
	}
	m.struck = true
	led := rep.Ledger()
	seq := rep.NextProposalSeq()
	mk := func(variant string) []byte {
		reqs := []ledger.Request{{
			Author: hashsig.Sum([]byte("equivocator")),
			ReqNo:  seq,
			Body:   ledger.EncodeOps([]ledger.Op{{Key: fmt.Sprintf("equivocation-%d", seq), Val: []byte(variant)}}),
		}}
		env := ledger.Envelope{View: rep.View(), Primary: uint32(m.id), NonceCommit: hashsig.NewNonce().Commit()}
		batch, err := led.ExecuteBatchAs(env, reqs)
		if err != nil {
			panic(err) // the scripted request always executes
		}
		// Lemma 1 is the equivocator's accomplice: roll back and the
		// ledger will happily sign a different batch for the same seq.
		if err := led.RollbackTo(seq); err != nil {
			panic(err)
		}
		return consensus.EncodeMessage(&consensus.PrePrepare{Header: batch.Header, Entries: batch.Entries})
	}
	batch, other := mk("a"), mk("b")
	for _, o := range s.members {
		if o.id != m.id {
			m.ep.Send(transport.NodeID(o.id), batch)
			batch = other // the first of the others gets one, the rest the other
		}
	}
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
			c.target = (c.target + 1) % replicas
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
	case rpc.StatusNotPrimary, rpc.StatusTimeout:
		// Follow the hint. A node that timed out may be cut off from the
		// rest, or lead a view they have left: try the next.
		next := consensus.ReplicaID(r.Leader)
		if r.Status == rpc.StatusTimeout || int(next) >= replicas || next == c.target {
			next = (c.target + 1) % replicas
		}
		c.target = next
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
				if _, ok := s.committedAt[k]; !ok && e.Kind == ledger.KindTransaction {
					s.committedAt[k] = seq
				}
			}
		}
		m.checked, s.idle = committed, 0
	}
	for _, m := range s.members {
		if m.stepped {
			s.high = max(s.high, m.rep.Committed())
		}
	}
	return nil
}

// done reports whether every client has its verdicts and the honest nodes
// share one watermark with nothing in flight.
func (s *Sim) done() bool {
	for _, c := range s.clients {
		if c.next < len(c.reqs) {
			return false
		}
	}
	w := s.honest[0].rep.Committed()
	for _, m := range s.honest {
		if m.rep.Committed() != w || m.rep.InFlight() != 0 {
			return false
		}
	}
	return true
}

// fail reports an invariant failure with the seed, the step and each
// replica's Stats and DebugState.
func (s *Sim) fail(format string, args ...any) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim seed %d: step %d: %s", s.cfg.Seed, s.step, fmt.Sprintf(format, args...))
	for _, m := range s.members {
		fmt.Fprintf(&b, "\n  replica %d %q: %s", m.id, m.behaviour, m.rep.DebugState())
		if m.node != nil {
			fmt.Fprintf(&b, "\n    %+v", m.node.Stats())
		}
	}
	return errors.New(b.String())
}

// Run executes the schedule until the workload commits everywhere or the
// step limit trips.
func (s *Sim) Run() (*Result, error) {
	for ; !s.done(); s.step++ {
		if s.step >= maxSteps {
			return nil, s.fail("no convergence after %d steps", s.step)
		}
		for _, m := range s.members {
			if m.behaviour == BehaviourEquivocate {
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
		if s.idle++; s.idle >= stallSteps {
			s.idle = 0
			for _, m := range s.members {
				if m.stepped {
					m.node.StepStall()
				}
			}
		}
	}
	return s.result()
}

// result checks the final state and summarizes the run.
func (s *Sim) result() (*Result, error) {
	ref, res := s.honest[0].rep, &s.res
	res.Steps, res.Committed = s.step, ref.Committed()
	res.Nodes = make(map[consensus.ReplicaID]*node.Node)
	for _, m := range s.honest {
		if m.rep.Ledger().HistRoot() != ref.Ledger().HistRoot() {
			return nil, s.fail("final history roots diverge between replicas %d and %d", s.honest[0].id, m.id)
		}
		if m.rep.Ledger().StateDigest() != ref.Ledger().StateDigest() {
			return nil, s.fail("final state digests diverge between replicas %d and %d", s.honest[0].id, m.id)
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
