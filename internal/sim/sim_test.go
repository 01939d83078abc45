package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/transport"
)

// seedMatrix returns the seeds a matrix test runs. CI pins an explicit
// matrix through SIM_SEEDS ("1,2,3" or "1-100"); the default covers 1..100
// (acceptance: a 100-seed run with drops and reordering converges).
func seedMatrix(t *testing.T) []int64 {
	t.Helper()
	spec := os.Getenv("SIM_SEEDS")
	if spec == "" {
		spec = "1-100"
	}
	seeds, err := ParseSeeds(spec)
	if err != nil {
		t.Fatalf("SIM_SEEDS: %v", err)
	}
	if testing.Short() && len(seeds) > 10 {
		seeds = seeds[:10]
	}
	return seeds
}

// TestSimSeedMatrix is the headline run: honest nodes under heavy loss
// and reordering, three clients keeping several instances in flight,
// across the full seed matrix. Run asserts that every request commits on
// every honest node at one watermark with identical (¯M, d_C), and any
// failure message carries the seed for replay.
//
// The cluster sizes between 3f+1 clusters run too, on the matrix's first
// 30 seeds: n = 5 and 6 are where quorums of 2f+1 stop intersecting in an
// honest replica, and n = 7 is the next f.
func TestSimSeedMatrix(t *testing.T) {
	seeds := seedMatrix(t)
	for _, n := range []int{4, 5, 6, 7} {
		if n > 4 {
			seeds = seeds[:min(len(seeds), 30)]
		}
		for _, seed := range seeds {
			cfg := matrixConfig(seed)
			cfg.Replicas = n
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("n = %d: %v", n, err)
			}
			if len(res.Blames) != 0 {
				t.Fatalf("n = %d seed %d: honest run produced blame: %v", n, seed, res.Blames[0])
			}
		}
	}
}

// TestSimSplitEquivocator: at n = 5 an equivocating primary sends each
// half of the others its own batch and its commit opening for it. With
// quorums of 2f+1 = 3 each half commits its batch and the ledger forks;
// with ledger.Quorum(5) = 4 neither half commits alone, every honest node
// converges on one ledger, and any blame names the equivocator.
func TestSimSplitEquivocator(t *testing.T) {
	culprit := consensus.ReplicaID(0)
	for _, seed := range seedMatrix(t) {
		res, err := Run(Config{
			Seed:      seed,
			Replicas:  5,
			Requests:  3,
			Network:   transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4},
			Byzantine: map[consensus.ReplicaID]Behaviour{culprit: BehaviourSplit},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, bl := range res.Blames {
			if bl.Culprit != keyFor(seed, culprit).ID() {
				t.Fatalf("seed %d: blame names %s, not the equivocator", seed, bl.Culprit)
			}
		}
	}
}

func matrixConfig(seed int64) Config {
	return Config{
		Seed:     seed,
		Requests: 12,
		Clients:  3,
		Network:  transport.TamperPolicy{DropRate: 0.25, ReorderWindow: 8},
	}
}

// TestSimRetryAfterReplacedBatch pins two schedules in which a view change
// replaces a batch its primary drained a request into: other content
// commits at that seq, or the same node later proposes another batch there.
// The client's retry must be pooled again and commit; answering it
// duplicate would tell the client its request is on the ledger when it is
// not.
func TestSimRetryAfterReplacedBatch(t *testing.T) {
	windowed := matrixConfig(20)
	windowed.Requests, windowed.Clients, windowed.Network.DropRate = 16, 8, 0.3
	for what, cfg := range map[string]Config{
		"other content commits at its seq":           windowed,
		"the same node proposes another batch there": matrixConfig(147),
	} {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// TestSimDeterministicReplay re-runs each configuration and demands the
// identical run: the same frames delivered in the same order, the same
// step count, the same counts on every node and the same final state.
// Honest replicas run with independently randomised map order, so a map
// walk, a clock or an unseeded draw that reaches a sent byte fails it. The
// configurations cover loss and reordering, a view change that re-proposes
// in-flight batches, and an equivocating primary.
func TestSimDeterministicReplay(t *testing.T) {
	for name, cfg := range map[string]Config{
		"loss and reordering": {
			Seed:     42,
			Requests: 15,
			Clients:  3,
			Network:  transport.TamperPolicy{DropRate: 0.3, ReorderWindow: 8},
		},
		"view change": {
			Seed:       3,
			Requests:   12,
			Clients:    3,
			Network:    transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4},
			Partitions: []Partition{{FromCommit: 2, UntilCommit: 6, Group: map[consensus.ReplicaID]int{0: 1}}},
		},
		"equivocation": {
			Seed:      1,
			Requests:  6,
			Clients:   2,
			Network:   transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4},
			Byzantine: map[consensus.ReplicaID]Behaviour{0: BehaviourEquivocate},
		},
	} {
		run := func() *Result {
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		a, b := run(), run()
		if a.Frames != b.Frames {
			t.Fatalf("%s: runs delivered different frames (%d and %d steps)", name, a.Steps, b.Steps)
		}
		if a.Steps != b.Steps || a.ReceiptlessCommits != b.ReceiptlessCommits {
			t.Fatalf("%s: runs diverged: %d steps, %d receiptless vs %d steps, %d receiptless",
				name, a.Steps, a.ReceiptlessCommits, b.Steps, b.ReceiptlessCommits)
		}
		for id, nd := range a.Nodes {
			if sa, sb := nd.Stats(), b.Nodes[id].Stats(); sa != sb {
				t.Fatalf("%s: node %d counted differently:\n%+v\n%+v", name, id, sa, sb)
			}
		}
		for id := range a.Nodes {
			ra, rb := a.Nodes[id].Replica().Ledger(), b.Nodes[id].Replica().Ledger()
			if ra.HistRoot() != rb.HistRoot() || ra.StateDigest() != rb.StateDigest() {
				t.Fatalf("%s: replayed run reached a different final state", name)
			}
		}
	}
}

// TestSimEquivocatingPrimary is the acceptance scenario: a scripted
// equivocating primary must yield verifiable blame naming its key on every
// honest replica that saw the conflict, and the honest nodes must recover
// liveness through a view change and commit the whole workload.
func TestSimEquivocatingPrimary(t *testing.T) {
	culprit := consensus.ReplicaID(0)
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(Config{
			Seed:      seed,
			Requests:  3,
			Network:   transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4},
			Byzantine: map[consensus.ReplicaID]Behaviour{culprit: BehaviourEquivocate},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Blames) == 0 {
			t.Fatalf("seed %d: equivocation produced no blame evidence", seed)
		}
		culpritKey := keyFor(seed, culprit)
		for _, bl := range res.Blames {
			if bl.Culprit != culpritKey.ID() {
				t.Fatalf("seed %d: blame names %s, want the equivocator's key %s", seed, bl.Culprit, culpritKey.ID())
			}
			if !bl.Verify(culpritKey) {
				t.Fatalf("seed %d: blame evidence fails offline verification", seed)
			}
		}
		if res.FinalView == 0 {
			t.Fatalf("seed %d: no view change despite a faulty primary", seed)
		}
	}
}

// TestSimSilentPrimary: the initial primary crashes from the start, so
// clients hear nothing from it and backups have nothing in flight. A client
// that gives up on it submits to a backup, which forwards the request; the
// nodes that hold it time the primary out by their own stall timers, and
// they commit everything in a later view.
func TestSimSilentPrimary(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(Config{
			Seed:      seed,
			Requests:  3,
			Network:   transport.TamperPolicy{DropRate: 0.15, ReorderWindow: 4},
			Byzantine: map[consensus.ReplicaID]Behaviour{0: BehaviourSilent},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalView == 0 {
			t.Fatalf("seed %d: committed %d in view 0 with a silent primary", seed, res.Committed)
		}
	}
}

// TestSimPartition splits the network mid-run; the majority side may make
// progress alone, and after healing every honest node converges.
func TestSimPartition(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if _, err := Run(Config{
			Seed:     seed,
			Requests: 4,
			Network:  transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4},
			Partitions: []Partition{{
				From:  50,
				Until: 900,
				Group: map[consensus.ReplicaID]int{3: 1}, // isolate replica 3
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimStuckRunFailsEarly: a partition that never heals splits four
// replicas 2|2, so no quorum forms and nothing commits. The run must fail
// with the no-convergence verdict maxCommitGap steps after its last honest
// commit, not at maxSteps, whether the partition loses the frames across
// it or holds them. Holding must cost about what losing does: the Hub
// probes each held link once per step, so the frames a Hold piles up over
// 40 000 steps add nothing to a step's cost.
func TestSimStuckRunFailsEarly(t *testing.T) {
	var took [2]time.Duration
	for i, loss := range []bool{true, false} {
		s, err := New(Config{
			Seed:       1,
			Requests:   4,
			Partitions: []Partition{{Until: maxSteps + 1, Loss: loss, Group: map[consensus.ReplicaID]int{2: 1, 3: 1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = s.Run()
		took[i] = time.Since(start)
		if err == nil || !strings.Contains(err.Error(), "no convergence") {
			t.Fatalf("loss=%v: run across a partition that never heals: err = %v, want no convergence", loss, err)
		}
		if s.step-s.lastCommit != maxCommitGap || s.step >= maxSteps/10 {
			t.Fatalf("loss=%v: failed at step %d with the last honest commit at step %d, want %d steps later and well before %d",
				loss, s.step, s.lastCommit, maxCommitGap, maxSteps)
		}
	}
	if lost, held := took[0], took[1]; held > 4*lost+250*time.Millisecond {
		t.Fatalf("the held run took %v to fail, the lost one %v", held, lost)
	}
}

// TestSimRefusesNetworkCut: the sim owns the Hub's Cut (it is how
// Partitions take effect), so New refuses a config that sets one rather
// than silently replacing it, and says what to use instead.
func TestSimRefusesNetworkCut(t *testing.T) {
	_, err := New(Config{
		Seed:     1,
		Requests: 1,
		Network: transport.TamperPolicy{Cut: func(transport.NodeID, transport.NodeID) transport.Cut {
			return transport.Hold
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "Partitions") {
		t.Fatalf("New with Network.Cut set: err = %v, want a refusal naming Partitions", err)
	}
}

// TestSimReplayMatchesLiveState is the auditing property (paper §5) over a
// consensus-committed stream: replaying any honest node's batch stream
// must reproduce every other honest node's live state — store digest and
// ¯M — across seeds. A replica's ledger holds the pre-prepares it
// accepted, so the replay is the keyed one: each header under the key of
// the primary it names.
func TestSimReplayMatchesLiveState(t *testing.T) {
	pool := hashsig.NewVerifierPool(0)
	defer pool.Close()
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Run(Config{
			Seed: seed,
			// Every batch within one window of commits, so nothing is
			// pruned and every ledger replays from genesis.
			Requests: 4,
			Clients:  2,
			Network:  transport.TamperPolicy{DropRate: 0.2, ReorderWindow: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		replayAll(t, fmt.Sprintf("seed %d", seed), res, seed, 4, pool)
	}
}

// TestSimReplayAcrossViews cuts the view-0 primary off mid-run, so the
// majority finishes the workload in a later view: every honest ledger then
// holds headers signed by more than one primary — each under the view it
// was accepted in — and must still replay, keyed, to every node's live
// state. Replaying under any single replica key must fail.
func TestSimReplayAcrossViews(t *testing.T) {
	pool := hashsig.NewVerifierPool(0)
	defer pool.Close()
	for i := 0; i < 10; i++ {
		// Seeds 1-5 at n = 4, then at n = 7: the audit keys every
		// replica of the cluster, not four.
		seed, n := int64(i%5+1), 4+3*(i/5)
		res, err := Run(Config{
			Seed:     seed,
			Replicas: n,
			Requests: 6,
			// One batch at a time, so the cut lands between commits rather
			// than after the whole workload is already in flight; no
			// checkpoint, so nothing is pruned and every ledger still starts
			// at genesis for the replay.
			Window:          1,
			CheckpointEvery: 100,
			Network:         transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4},
			Partitions: []Partition{{
				FromCommit:  2,
				UntilCommit: 5,
				Group:       map[consensus.ReplicaID]int{0: 1}, // isolate the view-0 primary
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalView == 0 {
			t.Fatalf("n = %d seed %d: committed %d in view 0", n, seed, res.Committed)
		}
		label := fmt.Sprintf("n = %d seed %d", n, seed)
		replayAll(t, label, res, seed, n, pool)
		for id, nd := range res.Nodes {
			batches := nd.Replica().Ledger().Batches()
			views := map[uint64]bool{}
			for _, b := range batches {
				views[b.Header.View] = true
			}
			if len(views) < 2 {
				t.Fatalf("%s: replica %d's ledger spans %d view(s); the schedule no longer crosses a view change", label, id, len(views))
			}
			for signer := range res.Nodes {
				if _, err := ledger.Replay(batches, keyFor(seed, signer), ledger.KVApp{}, pool); err == nil {
					t.Fatalf("%s: replica %d's two-view ledger replays under replica %d's key alone", label, id, signer)
				}
			}
		}
	}
}

// replayAll replays every honest node's retained stream of an n-replica
// run through the keyed audit and compares the result with every honest
// node's live state.
func replayAll(t *testing.T, label string, res *Result, seed int64, n int, pool *hashsig.VerifierPool) {
	t.Helper()
	peers := make([]*hashsig.PublicKey, n)
	for i := range peers {
		peers[i] = keyFor(seed, consensus.ReplicaID(i))
	}
	for id, nd := range res.Nodes {
		got, err := ledger.ReplayKeyed(nd.Replica().Ledger().Batches(), ledger.StatementKey(peers), ledger.KVApp{}, pool)
		if err != nil {
			t.Fatalf("%s: replay of replica %d: %v", label, id, err)
		}
		for oid, other := range res.Nodes {
			if got.HistRoot != other.Replica().Ledger().HistRoot() {
				t.Fatalf("%s: replay of %d != live ¯M of %d", label, id, oid)
			}
			if got.StateDigest != other.Replica().Ledger().StateDigest() {
				t.Fatalf("%s: replay of %d != live state of %d", label, id, oid)
			}
		}
	}
}

func keyFor(seed int64, id consensus.ReplicaID) *hashsig.PublicKey {
	return hashsig.GenerateKeyFromSeed(fmt.Sprintf("sim-%d-replica-%d", seed, id)).Public()
}

// TestSimWindowedSchedules attacks the window boundary across window
// sizes: eight clients keep W instances in flight, heavy reordering
// interleaves their traffic so prepare/commit quorums complete out of
// sequence order, and the workload spans several windows so the boundary
// slides mid-schedule. The per-step canon invariant asserts committed
// prefixes never diverge under W > 1.
func TestSimWindowedSchedules(t *testing.T) {
	for _, window := range []int{1, 2, consensus.DefaultWindow} {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := Run(Config{
				Seed:     seed,
				Requests: 4 * consensus.DefaultWindow,
				Clients:  2 * consensus.DefaultWindow,
				Window:   window,
				Network:  transport.TamperPolicy{DropRate: 0.3, ReorderWindow: 8},
			})
			if err != nil {
				t.Fatalf("window %d: %v", window, err)
			}
			if len(res.Blames) != 0 {
				t.Fatalf("window %d seed %d: honest run produced blame", window, seed)
			}
		}
	}
}

// TestSimPrimarySyncsPastItsProposals pins a schedule in which the primary
// takes a checkpoint offer while its own proposals are in flight: the
// transfer rolls them back, and the primary must not sign other content at
// those seqs in the same view (its peers would blame it for equivocation).
func TestSimPrimarySyncsPastItsProposals(t *testing.T) {
	res, err := Run(Config{
		Seed:     46,
		Requests: 4 * consensus.DefaultWindow,
		Clients:  2 * consensus.DefaultWindow,
		Window:   consensus.DefaultWindow,
		Network:  transport.TamperPolicy{DropRate: 0.3, ReorderWindow: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[0].Stats().Syncs == 0 {
		t.Fatal("the view-0 primary took no state transfer; the schedule no longer reaches the case")
	}
}

// TestSimStateTransferChurn is the bounded-memory acceptance scenario:
// replica 3 sits behind a loss partition until the majority has committed
// more than two checkpoint intervals, so by heal time its peers have pruned
// the batches it missed and the only road back is state transfer. The
// per-step invariant bounds every node's retained batches at window +
// max(window, checkpoint interval) throughout; here we assert the laggard
// actually adopted a transfer and that the cluster still committed the
// whole workload with the laggard participating again.
func TestSimStateTransferChurn(t *testing.T) {
	for _, seed := range seedMatrix(t) {
		res, err := Run(Config{
			Seed:            seed,
			CheckpointEvery: 4,
			Requests:        12,
			Network:         transport.TamperPolicy{DropRate: 0.15, ReorderWindow: 4},
			Partitions: []Partition{{
				UntilCommit: 9, // > 2x checkpoint interval before heal
				Loss:        true,
				Group:       map[consensus.ReplicaID]int{3: 1},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Blames) != 0 {
			t.Fatalf("seed %d: honest churn run produced blame: %v", seed, res.Blames[0])
		}
		if rep := res.Nodes[3].Replica(); rep.Syncs() < 1 {
			t.Fatalf("seed %d: laggard rejoined without state transfer (%s)", seed, rep.DebugState())
		}
		if res.Lost == 0 {
			t.Fatalf("seed %d: loss partition destroyed no frames", seed)
		}
	}
}

// TestSimStateTransferLyingServer adds an adversarial sync source: replica
// 1 takes part in consensus honestly but corrupts every sync chunk it
// pushes. The laggard must detect the corruption — state chunks against the
// signed checkpoint digests, suffix batches at decode, signature or
// re-execution — ban the liar, and complete the transfer from an honest
// peer. Once with the churn scenario's gap (a checkpoint offer), once with a
// gap the last W retained batches cover (a suffix-only offer).
func TestSimStateTransferLyingServer(t *testing.T) {
	for what, cfg := range map[string]struct {
		checkpointEvery, untilCommit uint64
		requests                     int
	}{
		"checkpoint offer": {checkpointEvery: 4, untilCommit: 9, requests: 12},
		"suffix offer":     {checkpointEvery: 100, untilCommit: 3, requests: 6},
	} {
		for seed := int64(1); seed <= 10; seed++ {
			res, err := Run(Config{
				Seed:            seed,
				CheckpointEvery: cfg.checkpointEvery,
				Requests:        cfg.requests,
				Network:         transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4},
				Byzantine:       map[consensus.ReplicaID]Behaviour{1: BehaviourLyingSync},
				Partitions: []Partition{{
					UntilCommit: cfg.untilCommit,
					Loss:        true,
					Group:       map[consensus.ReplicaID]int{3: 1},
				}},
			})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if rep := res.Nodes[3].Replica(); rep.Syncs() < 1 {
				t.Fatalf("%s seed %d: laggard rejoined without fetching (%s)", what, seed, rep.DebugState())
			}
		}
	}
}

// TestSimLossBeforeFirstCheckpoint: a replica that lost more than a window
// of commits where no checkpoint covers the gap — none taken yet, or the
// laggard already past the latest one — rejoins from the batches its peers
// still retain. Nothing else can serve it: a committed batch is fetched, not
// re-agreed, and a checkpoint offer needs a checkpoint above the laggard.
// One client, so every request is a batch and the partitions' commit gates
// name requests.
func TestSimLossBeforeFirstCheckpoint(t *testing.T) {
	lossy := func(cfg Config, p Partition) Config {
		cfg.Network = transport.TamperPolicy{DropRate: 0.1, ReorderWindow: 4}
		p.Loss, p.Group = true, map[consensus.ReplicaID]int{3: 1}
		cfg.Partitions = []Partition{p}
		return cfg
	}
	for what, cfg := range map[string]Config{
		"no checkpoint yet, window 1": lossy(Config{Requests: 10, CheckpointEvery: 100, Window: 1}, Partition{From: 40, UntilCommit: 8}),
		"no checkpoint yet, window 4": lossy(Config{Requests: 10, CheckpointEvery: 100, Window: 4}, Partition{From: 40, UntilCommit: 8}),
		// Cut off once checkpoint 8 is behind it, healed W+1 commits later,
		// and the workload ends before checkpoint 16 could rescue anyone.
		"above the latest checkpoint": lossy(Config{Requests: 15, CheckpointEvery: 8, Window: 4}, Partition{FromCommit: 9, UntilCommit: 14}),
		// Cut off for the last batches: when it heals the workload is over,
		// and a peer that committed everything has nothing left to resend.
		"the last batches, then an idle cluster": lossy(Config{Requests: 6, CheckpointEvery: 100, Window: 1}, Partition{FromCommit: 4, UntilCommit: 6}),
	} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if res.Lost == 0 || res.Nodes[3].Replica().Syncs() < 1 {
				t.Fatalf("%s seed %d: lost %d frames, laggard fetched %d times; the schedule no longer cuts it off",
					what, seed, res.Lost, res.Nodes[3].Replica().Syncs())
			}
		}
	}
}
