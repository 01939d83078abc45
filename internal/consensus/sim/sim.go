// Package sim is a deterministic, seed-driven simulation harness for the
// L-PBFT consensus core: an in-memory network that reorders, delays, and
// partitions encoded protocol messages under a single math/rand seed, with
// scripted Byzantine behaviours (equivocating or silent primaries) and
// safety/liveness invariants asserted after every delivery. A failing run
// reports its seed, and re-running the same configuration with that seed
// replays the identical schedule.
//
// The network model: replicas emit addressed consensus.Outbound envelopes;
// a Broadcast envelope becomes one wire envelope per recipient, a unicast
// envelope is delivered to exactly its Dest, and each carries the
// wire-encoded frame (so every delivery exercises the codec). The harness
// asserts, per emission, that state-transfer offer/chunk traffic
// (SyncAvail, SyncChunkRequest, SyncChunk) is never broadcast — the
// pairwise protocol must not lean on cluster-wide delivery the real
// transport would have to pay for.
// A "dropped" delivery is re-queued at a random later position — the
// protocol has no timers of its own, so loss is modelled as the arbitrary
// delay a retransmitting sender produces, which preserves the eventual
// delivery that L-PBFT (like PBFT) needs for liveness. Partitions hold
// cross-group envelopes until the partition heals. Timeouts fire on every
// honest replica once no commit has happened for StallTimeout deliveries,
// modelling synchronized timer expiry.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
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

// Behaviour names a scripted fault for one replica.
type Behaviour string

const (
	// BehaviourHonest runs the real protocol.
	BehaviourHonest Behaviour = ""
	// BehaviourSilent never sends or processes anything (crash fault).
	BehaviourSilent Behaviour = "silent"
	// BehaviourEquivocate participates honestly until its first turn as
	// primary, then signs two conflicting batches for the same sequence
	// number, sends one to each half of the other replicas, and goes
	// silent. The honest replicas must both capture blame evidence naming
	// its key and recover liveness through a view change.
	BehaviourEquivocate Behaviour = "equivocate"
	// BehaviourLyingSync participates honestly in consensus but corrupts
	// every state-transfer chunk it serves. Laggards must detect the
	// corruption (digest mismatch, failed decode, or a failed adoption
	// anchor), ban the source, and complete the transfer from an honest
	// peer — the liar costs latency, never safety.
	BehaviourLyingSync Behaviour = "lying-sync"
)

// Partition isolates replica groups during a step window.
type Partition struct {
	From, Until int // active while From <= step < Until
	// FromCommit, when nonzero, also holds the partition off until some
	// honest replica has committed it: the way to cut a replica off at a
	// chosen point of the ledger rather than of the schedule.
	FromCommit uint64
	// UntilCommit, when nonzero, keeps the partition active from From until
	// some honest replica's committed sequence number reaches it (Until is
	// ignored). It requires Loss: there is no predictable release step for
	// held traffic. Commit-gated healing is how the churn scenarios
	// guarantee the isolated replica misses more than a checkpoint interval
	// regardless of how fast the majority happens to commit.
	UntilCommit uint64
	// Loss drops cross-group envelopes outright instead of holding them for
	// release at heal time — the overflowed-buffer model. A replica cut off
	// by a loss partition can only recover by fetching what it missed.
	Loss bool
	// Group maps replica -> group index; unlisted replicas are group 0.
	Group map[consensus.ReplicaID]int
}

// Config parameterizes one simulation run.
type Config struct {
	Seed            int64
	N               int     // replica count (3f+1); default 4
	Shards          uint32  // ledger shard count; default 1
	CheckpointEvery uint64  // default 2
	Batches         int     // batches the workload commits; default 4
	BatchSize       int     // requests per batch; default 3
	Window          int     // proposal window W; default consensus.DefaultWindow
	DropRate        float64 // per-delivery probability of deferral
	ReorderRate     float64 // probability of picking a random queued envelope
	Partitions      []Partition
	Byzantine       map[consensus.ReplicaID]Behaviour
	MaxSteps        int // safety valve; default 500_000
	StallTimeout    int // deliveries without progress before timeouts; default 400
}

func (c *Config) fill() {
	if c.N == 0 {
		c.N = 4
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2
	}
	if c.Batches == 0 {
		c.Batches = 4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 3
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 500_000
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 400
	}
}

// Result summarizes a completed run.
type Result struct {
	Steps     int
	Delivered int
	Deferred  int
	Lost      int // envelopes destroyed by loss partitions
	// Committed is the final committed sequence number (identical on every
	// honest replica; the run fails otherwise).
	Committed uint64
	// FinalView is the highest view an honest replica ended in.
	FinalView uint64
	// Blames is the union of blame evidence across honest replicas.
	Blames []*ledger.Blame
	// Replicas exposes the honest replicas for post-run assertions.
	Replicas map[consensus.ReplicaID]*consensus.Replica
}

type envelope struct {
	from, to consensus.ReplicaID
	frame    []byte
}

// Sim is one run's state.
type Sim struct {
	cfg    Config
	rng    *rand.Rand
	keys   []*hashsig.PrivateKey
	peers  []*hashsig.PublicKey
	honest map[consensus.ReplicaID]*consensus.Replica
	byz    map[consensus.ReplicaID]*byzNode

	queue []envelope
	held  []heldEnvelope // partitioned traffic awaiting heal

	step       int
	delivered  int
	deferred   int
	lost       int
	lastCommit uint64 // sum of honest committed seqs at last progress
	stall      int

	// canon pins the first-committed content digest per seq; any honest
	// replica committing different content for the same seq is a safety
	// violation (the statement may differ: replicas can commit one batch
	// under different views' pre-prepares).
	canon map[uint64]hashsig.Digest
	// checked tracks how far each honest replica's committed prefix has
	// been compared against canon.
	checked map[consensus.ReplicaID]uint64
	// envelopeErr records the first addressed-envelope invariant violation
	// (sync offer/chunk traffic broadcast, or a nonsense Dest); surfaced by
	// the per-step invariant check.
	envelopeErr error
}

type heldEnvelope struct {
	env     envelope
	release int
}

// byzNode is a scripted faulty replica. The equivocator drives a real
// replica (it must track state to forge valid batches) until it strikes.
type byzNode struct {
	behaviour Behaviour
	rep       *consensus.Replica // nil for silent
	struck    bool
}

// New builds a simulation from the config. Keys are derived from the seed
// so distinct seeds exercise distinct key sets.
func New(cfg Config) (*Sim, error) {
	cfg.fill()
	s := &Sim{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		honest:  make(map[consensus.ReplicaID]*consensus.Replica),
		byz:     make(map[consensus.ReplicaID]*byzNode),
		canon:   make(map[uint64]hashsig.Digest),
		checked: make(map[consensus.ReplicaID]uint64),
	}
	for i := 0; i < cfg.N; i++ {
		k := hashsig.GenerateKeyFromSeed(fmt.Sprintf("sim-%d-replica-%d", cfg.Seed, i))
		s.keys = append(s.keys, k)
		s.peers = append(s.peers, k.Public())
	}
	for i := 0; i < cfg.N; i++ {
		id := consensus.ReplicaID(i)
		behaviour := cfg.Byzantine[id]
		if behaviour == BehaviourSilent {
			s.byz[id] = &byzNode{behaviour: behaviour}
			continue
		}
		rep, err := consensus.New(consensus.Config{
			ID:              id,
			Key:             s.keys[i],
			Peers:           s.peers,
			App:             ledger.KVApp{},
			CheckpointEvery: cfg.CheckpointEvery,
			Shards:          cfg.Shards,
			Window:          cfg.Window,
		})
		if err != nil {
			return nil, err
		}
		if behaviour == BehaviourHonest {
			s.honest[id] = rep
			s.checked[id] = 0
		} else {
			s.byz[id] = &byzNode{behaviour: behaviour, rep: rep}
		}
	}
	if len(s.honest) < 3 {
		return nil, fmt.Errorf("sim: %d honest replicas cannot form a quorum", len(s.honest))
	}
	for i := range cfg.Partitions {
		if p := &cfg.Partitions[i]; p.UntilCommit > 0 && !p.Loss {
			return nil, fmt.Errorf("sim: commit-gated partition %d requires Loss (held traffic has no release step)", i)
		}
	}
	return s, nil
}

// honestIDs returns the honest replica IDs in ascending order, for
// deterministic iteration.
func (s *Sim) honestIDs() []consensus.ReplicaID {
	ids := make([]consensus.ReplicaID, 0, len(s.honest))
	for id := range s.honest {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// requestsFor derives the deterministic workload for one batch: identical
// on every proposal attempt for a sequence number, so a view change that
// forces a re-proposal rebuilds byte-identical commitments.
func (s *Sim) requestsFor(seq uint64) []ledger.Request {
	return s.buildRequests(seq, "")
}

// requestsEvil is the equivocator's second variant for the same seq.
func (s *Sim) requestsEvil(seq uint64) []ledger.Request {
	return s.buildRequests(seq, "-evil")
}

func (s *Sim) buildRequests(seq uint64, tag string) []ledger.Request {
	out := make([]ledger.Request, s.cfg.BatchSize)
	for i := range out {
		out[i] = ledger.Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("client-%d", i%5))),
			ReqNo:  seq*1000 + uint64(i),
			Body: ledger.EncodeOps([]ledger.Op{{
				Key: fmt.Sprintf("key-%d-%d%s", seq, i, tag),
				Val: []byte(fmt.Sprintf("val-%d-%d%s", seq, i, tag)),
			}}),
		}
	}
	return out
}

// pairwiseSync reports whether m belongs to the state-transfer offer/chunk
// traffic that must always be unicast (discovery SyncRequests legitimately
// broadcast: the laggard does not know who holds a checkpoint).
func pairwiseSync(m consensus.Message) bool {
	switch m.(type) {
	case *consensus.SyncAvail, *consensus.SyncChunkRequest, *consensus.SyncChunk:
		return true
	}
	return false
}

// route enqueues a replica's addressed envelopes: a Broadcast envelope
// becomes one wire envelope per peer (excluding the sender), a unicast
// envelope goes to exactly its Dest. Violations of the envelope invariant —
// pairwise sync traffic broadcast, a self- or out-of-range Dest — are
// recorded and fail the run at the next invariant check.
func (s *Sim) route(from consensus.ReplicaID, outs []consensus.Outbound) {
	for _, o := range outs {
		if o.IsBroadcast() {
			if pairwiseSync(o.Msg) && s.envelopeErr == nil {
				s.envelopeErr = fmt.Errorf("envelope: replica %d broadcast %T; sync offer/chunk traffic must be unicast", from, o.Msg)
			}
			frame := consensus.EncodeMessage(o.Msg)
			for i := 0; i < s.cfg.N; i++ {
				to := consensus.ReplicaID(i)
				if to == from {
					continue
				}
				s.queue = append(s.queue, envelope{from: from, to: to, frame: frame})
			}
			continue
		}
		if o.Dest == from || int(o.Dest) >= s.cfg.N {
			if s.envelopeErr == nil {
				s.envelopeErr = fmt.Errorf("envelope: replica %d addressed %T to invalid dest %d", from, o.Msg, o.Dest)
			}
			continue
		}
		s.queue = append(s.queue, envelope{from: from, to: o.Dest, frame: consensus.EncodeMessage(o.Msg)})
	}
}

// broadcastMsg enqueues one unaddressed message (proposals and other
// harness-originated traffic) to every peer.
func (s *Sim) broadcastMsg(from consensus.ReplicaID, m consensus.Message) {
	s.route(from, []consensus.Outbound{{Dest: consensus.Broadcast, Msg: m}})
}

// sendTo enqueues one targeted envelope (Byzantine senders only; honest
// L-PBFT replicas always broadcast).
func (s *Sim) sendTo(from, to consensus.ReplicaID, m consensus.Message) {
	s.queue = append(s.queue, envelope{from: from, to: to, frame: consensus.EncodeMessage(m)})
}

// partitionActive reports whether partition p is in force at the current
// step: a fixed step window, or — commit-gated — until some honest replica
// commits UntilCommit.
func (s *Sim) partitionActive(p *Partition) bool {
	if s.step < p.From || s.maxHonestCommitted() < p.FromCommit {
		return false
	}
	if p.UntilCommit > 0 {
		return s.maxHonestCommitted() < p.UntilCommit
	}
	return s.step < p.Until
}

func (s *Sim) maxHonestCommitted() uint64 {
	var m uint64
	for _, rep := range s.honest {
		if c := rep.Committed(); c > m {
			m = c
		}
	}
	return m
}

// partitioned reports whether an envelope crosses a partition active at the
// current step, and whether any such partition destroys traffic outright.
func (s *Sim) partitioned(e envelope) (held, lost bool) {
	for i := range s.cfg.Partitions {
		p := &s.cfg.Partitions[i]
		if s.partitionActive(p) && p.Group[e.from] != p.Group[e.to] {
			if p.Loss {
				return false, true // loss dominates: the envelope is gone
			}
			held = true
		}
	}
	return held, false
}

// partitionHealsAt returns the earliest step at which the envelope stops
// crossing any active partition.
func (s *Sim) partitionHealsAt(e envelope) int {
	release := s.step + 1
	for i := range s.cfg.Partitions {
		p := &s.cfg.Partitions[i]
		if s.partitionActive(p) && p.Group[e.from] != p.Group[e.to] && p.Until > release {
			release = p.Until
		}
	}
	return release
}

// deliver hands the envelope to its recipient and broadcasts the responses.
func (s *Sim) deliver(e envelope) error {
	msg, err := consensus.DecodeMessage(e.frame)
	if err != nil {
		return fmt.Errorf("corrupt frame on the wire: %v", err)
	}
	if rep, ok := s.honest[e.to]; ok {
		out, _ := rep.Handle(msg) // invalid messages are the sender's fault
		s.route(e.to, out)
		return nil
	}
	if node, ok := s.byz[e.to]; ok && node.rep != nil && !node.struck {
		out, _ := node.rep.Handle(msg)
		if node.behaviour == BehaviourLyingSync {
			corruptSyncChunks(out)
		}
		s.route(e.to, out)
	}
	return nil
}

// corruptSyncChunks flips a byte in every outbound state-transfer chunk,
// modelling a chunk server that serves garbage while participating honestly
// in consensus. The payloads are freshly built per response, so mutating
// them in place corrupts only what goes on the wire.
func corruptSyncChunks(outs []consensus.Outbound) {
	for _, o := range outs {
		if sc, ok := o.Msg.(*consensus.SyncChunk); ok && len(sc.Data) > 0 {
			sc.Data[len(sc.Data)/2] ^= 0xff
		}
	}
}

// tick lets primaries fill their proposal windows and scripted nodes
// strike. With a window above one the primary pipelines: it keeps
// proposing consecutive batches until the window is full, so several
// instances' traffic interleaves on the wire.
func (s *Sim) tick() {
	target := uint64(s.cfg.Batches)
	for _, id := range s.honestIDs() {
		rep := s.honest[id]
		for rep.IsPrimary() && rep.CanPropose() && rep.NextProposalSeq() <= target {
			pp, _, err := rep.Propose(s.requestsFor(rep.NextProposalSeq()))
			if err != nil {
				break
			}
			s.broadcastMsg(id, pp)
		}
	}
	// Drive the deterministic state-transfer clock: one tick per step, so
	// sync patience, retry deadlines, and backoff are all measured in
	// schedule steps.
	for _, id := range s.honestIDs() {
		s.route(id, s.honest[id].SyncTick())
	}
	for i := 0; i < s.cfg.N; i++ {
		id := consensus.ReplicaID(i)
		node, ok := s.byz[id]
		if !ok || node.struck || node.behaviour != BehaviourEquivocate || node.rep == nil {
			continue
		}
		rep := node.rep
		if !rep.IsPrimary() || !rep.Idle() || rep.Committed() >= target {
			continue
		}
		node.struck = true
		s.equivocate(id, rep)
	}
}

// equivocate signs two conflicting batches for the next seq and sends one
// variant to each half of the other replicas.
func (s *Sim) equivocate(id consensus.ReplicaID, rep *consensus.Replica) {
	led := rep.Ledger()
	seq := rep.Committed() + 1
	mk := func(reqs []ledger.Request) *consensus.PrePrepare {
		env := ledger.Envelope{View: rep.View(), Primary: uint32(id), NonceCommit: hashsig.NewNonce().Commit()}
		batch, _, err := led.ExecuteBatchAs(env, reqs)
		if err != nil {
			panic(err) // the deterministic workload always executes
		}
		pp := &consensus.PrePrepare{Header: batch.Header, Entries: batch.Entries}
		// Lemma 1 is the equivocator's accomplice: roll back and the ledger
		// will happily sign a different batch for the same seq.
		if err := led.RollbackTo(seq); err != nil {
			panic(err)
		}
		return pp
	}
	ppA := mk(s.requestsFor(seq))
	ppB := mk(s.requestsEvil(seq))
	others := make([]consensus.ReplicaID, 0, s.cfg.N-1)
	for i := 0; i < s.cfg.N; i++ {
		if to := consensus.ReplicaID(i); to != id {
			others = append(others, to)
		}
	}
	for i, to := range others {
		if i < len(others)/2 {
			s.sendTo(id, to, ppA)
		} else {
			s.sendTo(id, to, ppB)
		}
	}
}

// checkInvariants verifies safety after every delivery: committed prefixes
// never diverge across honest replicas, and blame only ever names scripted
// Byzantine keys.
func (s *Sim) checkInvariants() error {
	if s.envelopeErr != nil {
		return s.envelopeErr
	}
	for _, id := range s.honestIDs() {
		rep := s.honest[id]
		// Bounded memory: the commit path prunes below the latest committed
		// checkpoint and the last window of commits, so a replica never retains
		// more than max(window, interval-1) committed batches plus window
		// speculative ones — window + max(window, interval) is a safe cap
		// that must hold at every step of every schedule.
		limit := rep.Window() + max(rep.Window(), int(s.cfg.CheckpointEvery))
		if got := rep.Ledger().RetainedBatches(); got > limit {
			return fmt.Errorf("memory: replica %d retains %d batches, bound %d (%s)",
				id, got, limit, rep.DebugState())
		}
		committed := rep.Committed()
		if committed <= s.checked[id] {
			continue
		}
		for _, b := range rep.Ledger().Batches() {
			seq := b.Header.Seq
			if seq <= s.checked[id] || seq > committed {
				continue
			}
			d := b.Header.ContentDigest()
			if prev, ok := s.canon[seq]; ok {
				if prev != d {
					return fmt.Errorf("safety: replica %d committed a different batch at seq %d", id, seq)
				}
			} else {
				s.canon[seq] = d
			}
		}
		s.checked[id] = committed
	}
	for _, id := range s.honestIDs() {
		for _, bl := range s.honest[id].Evidence() {
			var culpritID consensus.ReplicaID
			found := false
			for i, pub := range s.peers {
				if pub.ID() == bl.Culprit {
					culpritID = consensus.ReplicaID(i)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("blame names an unknown key %s", bl.Culprit)
			}
			if _, isByz := s.byz[culpritID]; !isByz {
				return fmt.Errorf("blame wrongly names honest replica %d", culpritID)
			}
			if !bl.Verify(s.peers[culpritID]) {
				return fmt.Errorf("blame against replica %d does not verify", culpritID)
			}
		}
	}
	return nil
}

// done reports whether every honest replica committed the full workload.
func (s *Sim) done() bool {
	for _, rep := range s.honest {
		if rep.Committed() < uint64(s.cfg.Batches) {
			return false
		}
	}
	return true
}

func (s *Sim) progressSum() uint64 {
	var sum uint64
	for _, rep := range s.honest {
		sum += rep.Committed()
	}
	return sum
}

// Run executes the schedule until the workload commits everywhere or a
// limit trips. Every error message includes the seed, so a failing matrix
// run is reproducible verbatim.
func (s *Sim) Run() (*Result, error) {
	fail := func(format string, args ...any) (*Result, error) {
		return nil, fmt.Errorf("sim seed %d: step %d: %s", s.cfg.Seed, s.step, fmt.Sprintf(format, args...))
	}
	for ; !s.done(); s.step++ {
		if s.step >= s.cfg.MaxSteps {
			return fail("no convergence after %d steps (committed %v)", s.step, s.committedVector())
		}
		// Release healed partition traffic.
		kept := s.held[:0]
		for _, h := range s.held {
			if h.release <= s.step {
				s.queue = append(s.queue, h.env)
			} else {
				kept = append(kept, h)
			}
		}
		s.held = kept

		s.tick()

		if len(s.queue) == 0 {
			// Nothing in flight: model sender timeouts. Retransmits first;
			// if retransmission alone cannot help, the stall counter below
			// escalates to view changes.
			for _, id := range s.honestIDs() {
				s.route(id, s.honest[id].Retransmit())
			}
		}
		if len(s.queue) > 0 {
			idx := 0
			if s.cfg.ReorderRate > 0 && s.rng.Float64() < s.cfg.ReorderRate {
				idx = s.rng.Intn(len(s.queue))
			}
			e := s.queue[idx]
			s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
			held, lost := s.partitioned(e)
			switch {
			case lost:
				s.lost++
			case held:
				s.held = append(s.held, heldEnvelope{env: e, release: s.partitionHealsAt(e)})
			case s.cfg.DropRate > 0 && s.rng.Float64() < s.cfg.DropRate:
				// Dropped: the sender's retransmission surfaces later at a
				// random queue position.
				s.deferred++
				pos := s.rng.Intn(len(s.queue) + 1)
				s.queue = append(s.queue[:pos], append([]envelope{e}, s.queue[pos:]...)...)
			default:
				s.delivered++
				if err := s.deliver(e); err != nil {
					return fail("%v", err)
				}
			}
		}

		if err := s.checkInvariants(); err != nil {
			return fail("%v", err)
		}
		if sum := s.progressSum(); sum != s.lastCommit {
			s.lastCommit = sum
			s.stall = 0
		} else if s.stall++; s.stall >= s.cfg.StallTimeout {
			s.stall = 0
			for _, id := range s.honestIDs() {
				s.route(id, s.honest[id].OnTimeout())
			}
		}
	}

	res := &Result{
		Steps:     s.step,
		Delivered: s.delivered,
		Deferred:  s.deferred,
		Lost:      s.lost,
		Replicas:  s.honest,
	}
	ids := s.honestIDs()
	ref := s.honest[ids[0]]
	res.Committed = ref.Committed()
	for _, id := range ids {
		rep := s.honest[id]
		if rep.Committed() != res.Committed {
			return fail("liveness: replica %d finished at seq %d, replica %d at %d",
				id, rep.Committed(), ids[0], res.Committed)
		}
		if rep.Ledger().HistRoot() != ref.Ledger().HistRoot() {
			return fail("final history roots diverge between replicas %d and %d", ids[0], id)
		}
		if rep.Ledger().StateDigest() != ref.Ledger().StateDigest() {
			return fail("final state digests diverge between replicas %d and %d", ids[0], id)
		}
		if rep.View() > res.FinalView {
			res.FinalView = rep.View()
		}
		res.Blames = append(res.Blames, rep.Evidence()...)
	}
	return res, nil
}

func (s *Sim) committedVector() []uint64 {
	out := make([]uint64, 0, len(s.honest))
	for _, id := range s.honestIDs() {
		out = append(out, s.honest[id].Committed())
	}
	return out
}

// Run is the one-call entry point: build and run a configuration.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
