package sim

import (
	"fmt"
	"os"
	"testing"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
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

// TestSimSeedMatrix is the headline run: honest replicas under heavy drops
// and reordering, across the full seed matrix. Every honest replica must
// finish at identical (seq, ¯M, d_C) — Run asserts divergence itself, and
// any failure message carries the seed for replay.
func TestSimSeedMatrix(t *testing.T) {
	for _, seed := range seedMatrix(t) {
		res, err := Run(Config{
			Seed:        seed,
			Batches:     4,
			DropRate:    0.25,
			ReorderRate: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != 4 {
			t.Fatalf("seed %d: committed %d batches, want 4", seed, res.Committed)
		}
		if len(res.Blames) != 0 {
			t.Fatalf("seed %d: honest run produced blame: %v", seed, res.Blames[0])
		}
	}
}

// TestSimDeterministicReplay re-runs one seed and demands the identical
// schedule: same step count, same delivery/deferral counters, same final
// state.
func TestSimDeterministicReplay(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{Seed: 42, Batches: 5, DropRate: 0.3, ReorderRate: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.Delivered != b.Delivered || a.Deferred != b.Deferred {
		t.Fatalf("schedules diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.Steps, a.Delivered, a.Deferred, b.Steps, b.Delivered, b.Deferred)
	}
	ra, rb := a.Replicas[0].Ledger(), b.Replicas[0].Ledger()
	if ra.HistRoot() != rb.HistRoot() || ra.StateDigest() != rb.StateDigest() {
		t.Fatal("replayed run reached a different final state")
	}
}

// TestSimEquivocatingPrimary is the acceptance scenario: a scripted
// equivocating primary must yield verifiable blame naming its key on every
// honest replica that saw the conflict, and the honest quorum must recover
// liveness through a view change and commit the full workload.
func TestSimEquivocatingPrimary(t *testing.T) {
	culprit := consensus.ReplicaID(0)
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(Config{
			Seed:        seed,
			Batches:     3,
			DropRate:    0.1,
			ReorderRate: 0.3,
			Byzantine:   map[consensus.ReplicaID]Behaviour{culprit: BehaviourEquivocate},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Blames) == 0 {
			t.Fatalf("seed %d: equivocation produced no blame evidence", seed)
		}
		culpritKey := hashsig.GenerateKeyFromSeed(fmt.Sprintf("sim-%d-replica-%d", seed, culprit)).Public()
		for _, bl := range res.Blames {
			if bl.Culprit != culpritKey.ID() {
				t.Fatalf("seed %d: blame names %s, want the equivocator's key %s", seed, bl.Culprit, culpritKey.ID())
			}
			if !bl.Verify(culpritKey) {
				t.Fatalf("seed %d: blame evidence fails offline verification", seed)
			}
		}
		if res.Committed != 3 {
			t.Fatalf("seed %d: liveness not recovered, committed %d", seed, res.Committed)
		}
		if res.FinalView == 0 {
			t.Fatalf("seed %d: no view change despite a faulty primary", seed)
		}
	}
}

// TestSimSilentPrimary: the initial primary crashes from the start; the
// rest must view-change past it and commit everything.
func TestSimSilentPrimary(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(Config{
			Seed:        seed,
			Batches:     3,
			DropRate:    0.15,
			ReorderRate: 0.4,
			Byzantine:   map[consensus.ReplicaID]Behaviour{0: BehaviourSilent},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != 3 || res.FinalView == 0 {
			t.Fatalf("seed %d: committed %d in final view %d", seed, res.Committed, res.FinalView)
		}
	}
}

// TestSimPartition splits the network mid-run; the majority side may make
// progress alone, and after healing every honest replica converges.
func TestSimPartition(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(Config{
			Seed:        seed,
			Batches:     4,
			DropRate:    0.1,
			ReorderRate: 0.3,
			Partitions: []Partition{{
				From:  50,
				Until: 900,
				Group: map[consensus.ReplicaID]int{3: 1}, // isolate replica 3
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != 4 {
			t.Fatalf("seed %d: committed %d after heal", seed, res.Committed)
		}
	}
}

// TestSimReplayMatchesLiveState is the auditing property (paper §5) over a
// consensus-committed stream: replaying any honest replica's batch stream
// must reproduce every other honest replica's live state — store digest and
// ¯M — across seeds and shard counts 1/4/16. A replica's ledger holds the
// pre-prepares it accepted, so the replay is the keyed one: each header
// under the key of the primary it names.
func TestSimReplayMatchesLiveState(t *testing.T) {
	pool := hashsig.NewVerifierPool(0)
	defer pool.Close()
	for _, shards := range []uint32{1, 4, 16} {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := Run(Config{
				Seed:        seed,
				Shards:      shards,
				Batches:     4,
				BatchSize:   4,
				DropRate:    0.2,
				ReorderRate: 0.4,
			})
			if err != nil {
				t.Fatal(err)
			}
			replayAll(t, fmt.Sprintf("shards %d seed %d", shards, seed), res, seed, shards, pool)
		}
	}
}

// TestSimReplayAcrossViews cuts the view-0 primary off mid-run, so the
// majority finishes the workload in a later view: every honest ledger then
// holds headers signed by more than one primary — each under the view it
// was accepted in — and must still replay, keyed, to every replica's live
// state. Replaying under any single replica key must fail.
func TestSimReplayAcrossViews(t *testing.T) {
	pool := hashsig.NewVerifierPool(0)
	defer pool.Close()
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Run(Config{
			Seed:    seed,
			Batches: 6,
			// One batch at a time, so the cut lands between commits rather
			// than after the whole workload is already in flight; no
			// checkpoint, so nothing is pruned and every ledger still starts
			// at genesis for the replay.
			Window:          1,
			CheckpointEvery: 100,
			DropRate:        0.1,
			ReorderRate:     0.3,
			Partitions: []Partition{{
				From:  40,
				Until: 1500,
				Group: map[consensus.ReplicaID]int{0: 1}, // isolate the view-0 primary
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != 6 || res.FinalView == 0 {
			t.Fatalf("seed %d: committed %d in final view %d", seed, res.Committed, res.FinalView)
		}
		label := fmt.Sprintf("seed %d", seed)
		replayAll(t, label, res, seed, 1, pool)
		for id, rep := range res.Replicas {
			batches := rep.Ledger().Batches()
			views := map[uint64]bool{}
			for _, b := range batches {
				views[b.Header.View] = true
			}
			if len(views) < 2 {
				t.Fatalf("%s: replica %d's ledger spans %d view(s); the schedule no longer crosses a view change", label, id, len(views))
			}
			for signer := range res.Replicas {
				if _, err := ledger.Replay(batches, keyFor(seed, signer), ledger.KVApp{}, pool); err == nil {
					t.Fatalf("%s: replica %d's two-view ledger replays under replica %d's key alone", label, id, signer)
				}
			}
		}
	}
}

// replayAll replays every honest replica's retained stream through the
// keyed audit and compares the result with every honest replica's live
// state.
func replayAll(t *testing.T, label string, res *Result, seed int64, shards uint32, pool *hashsig.VerifierPool) {
	t.Helper()
	peers := make([]*hashsig.PublicKey, 4)
	for i := range peers {
		peers[i] = keyFor(seed, consensus.ReplicaID(i))
	}
	for id, rep := range res.Replicas {
		got, err := ledger.ReplayKeyed(rep.Ledger().Batches(), ledger.StatementKey(peers), ledger.KVApp{}, pool)
		if err != nil {
			t.Fatalf("%s: replay of replica %d: %v", label, id, err)
		}
		if got.Shards != shards {
			t.Fatalf("%s: replay saw %d shards", label, got.Shards)
		}
		for oid, other := range res.Replicas {
			if got.HistRoot != other.Ledger().HistRoot() {
				t.Fatalf("%s: replay of %d != live ¯M of %d", label, id, oid)
			}
			if got.StateDigest != other.Ledger().StateDigest() {
				t.Fatalf("%s: replay of %d != live state of %d", label, id, oid)
			}
		}
	}
}

func keyFor(seed int64, id consensus.ReplicaID) *hashsig.PublicKey {
	return hashsig.GenerateKeyFromSeed(fmt.Sprintf("sim-%d-replica-%d", seed, id)).Public()
}

// TestSimWindowedSchedules attacks the window boundary across window
// sizes: heavy reordering interleaves the W concurrent instances' traffic
// so prepare/commit quorums complete out of sequence order, and the
// workload spans two windows' worth of batches so the boundary slides
// mid-schedule. The per-step canon invariant asserts committed prefixes
// never diverge under W > 1; convergence and a clean blame ledger are
// asserted here.
func TestSimWindowedSchedules(t *testing.T) {
	for _, window := range []int{1, 2, consensus.DefaultWindow} {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := Run(Config{
				Seed:        seed,
				Batches:     2 * consensus.DefaultWindow,
				BatchSize:   2,
				Window:      window,
				DropRate:    0.3,
				ReorderRate: 0.6,
			})
			if err != nil {
				t.Fatalf("window %d: %v", window, err)
			}
			if res.Committed != uint64(2*consensus.DefaultWindow) {
				t.Fatalf("window %d seed %d: committed %d", window, seed, res.Committed)
			}
			if len(res.Blames) != 0 {
				t.Fatalf("window %d seed %d: honest run produced blame", window, seed)
			}
		}
	}
}

// TestSimStateTransferChurn is the bounded-memory acceptance scenario:
// replica 3 sits behind a loss partition until the majority has committed
// more than two checkpoint intervals, so by heal time its peers have pruned
// the batches it missed and the only road back is chunked state transfer.
// The per-step invariant in checkInvariants bounds every replica's retained
// batches at window + max(window, checkpoint interval) throughout; here we
// assert the laggard actually adopted a checkpoint and that the cluster
// still committed the full workload with the laggard participating again.
func TestSimStateTransferChurn(t *testing.T) {
	for _, seed := range seedMatrix(t) {
		res, err := Run(Config{
			Seed:            seed,
			CheckpointEvery: 4,
			Batches:         12,
			DropRate:        0.15,
			ReorderRate:     0.3,
			Partitions: []Partition{{
				From:        0,
				UntilCommit: 9, // > 2x checkpoint interval before heal
				Loss:        true,
				Group:       map[consensus.ReplicaID]int{3: 1},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != 12 {
			t.Fatalf("seed %d: committed %d batches, want 12", seed, res.Committed)
		}
		if len(res.Blames) != 0 {
			t.Fatalf("seed %d: honest churn run produced blame: %v", seed, res.Blames[0])
		}
		if got := res.Replicas[3].Syncs(); got < 1 {
			t.Fatalf("seed %d: laggard rejoined without state transfer (%s)",
				seed, res.Replicas[3].DebugState())
		}
		if res.Lost == 0 {
			t.Fatalf("seed %d: loss partition destroyed no envelopes", seed)
		}
	}
}

// TestSimStateTransferLyingServer adds an adversarial chunk server: replica
// 1 takes part in consensus honestly but corrupts every sync chunk it
// serves. The laggard must detect the corruption — state chunks against the
// signed checkpoint digests, suffix batches at decode, signature or
// re-execution — ban the liar, and complete the transfer from an honest
// peer. Once with the churn scenario's gap (a checkpoint offer), once with a
// gap the last W retained batches cover (a suffix-only offer).
func TestSimStateTransferLyingServer(t *testing.T) {
	for what, cfg := range map[string]struct {
		checkpointEvery, untilCommit uint64
		batches                      int
	}{
		"checkpoint offer": {checkpointEvery: 4, untilCommit: 9, batches: 12},
		"suffix offer":     {checkpointEvery: 100, untilCommit: 3, batches: 6},
	} {
		for seed := int64(1); seed <= 10; seed++ {
			res, err := Run(Config{
				Seed:            seed,
				CheckpointEvery: cfg.checkpointEvery,
				Batches:         cfg.batches,
				DropRate:        0.1,
				ReorderRate:     0.3,
				Byzantine:       map[consensus.ReplicaID]Behaviour{1: BehaviourLyingSync},
				Partitions: []Partition{{
					From:        0,
					UntilCommit: cfg.untilCommit,
					Loss:        true,
					Group:       map[consensus.ReplicaID]int{3: 1},
				}},
			})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if res.Committed != uint64(cfg.batches) {
				t.Fatalf("%s seed %d: committed %d batches, want %d", what, seed, res.Committed, cfg.batches)
			}
			if got := res.Replicas[3].Syncs(); got < 1 {
				t.Fatalf("%s seed %d: laggard rejoined without fetching (%s)",
					what, seed, res.Replicas[3].DebugState())
			}
		}
	}
}

// TestSimLossBeforeFirstCheckpoint: a replica that lost more than a window
// of commits where no checkpoint covers the gap — none taken yet, or the
// laggard already past the latest one — rejoins from the batches its peers
// still retain. Nothing else can serve it: a committed batch is fetched, not
// re-agreed, and a checkpoint offer needs a checkpoint above the laggard.
func TestSimLossBeforeFirstCheckpoint(t *testing.T) {
	lossy := func(cfg Config, p Partition) Config {
		cfg.DropRate, cfg.ReorderRate = 0.1, 0.3
		p.Loss, p.Group = true, map[consensus.ReplicaID]int{3: 1}
		cfg.Partitions = []Partition{p}
		return cfg
	}
	for what, cfg := range map[string]Config{
		"no checkpoint yet, window 1": lossy(Config{Batches: 10, CheckpointEvery: 100, Window: 1}, Partition{From: 40, UntilCommit: 8}),
		"no checkpoint yet, window 4": lossy(Config{Batches: 10, CheckpointEvery: 100, Window: 4}, Partition{From: 40, UntilCommit: 8}),
		// Cut off once checkpoint 8 is behind it, healed W+1 commits later,
		// and the workload ends before checkpoint 16 could rescue anyone.
		"above the latest checkpoint": lossy(Config{Batches: 15, CheckpointEvery: 8, Window: 4}, Partition{FromCommit: 9, UntilCommit: 14}),
		// Cut off for the last batches: when it heals the workload is over,
		// and a peer that committed everything has nothing left to resend.
		"the last batches, then an idle cluster": lossy(Config{Batches: 6, CheckpointEvery: 100, Window: 1}, Partition{FromCommit: 4, UntilCommit: 6}),
	} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if res.Committed != uint64(cfg.Batches) {
				t.Fatalf("%s seed %d: committed %d batches, want %d", what, seed, res.Committed, cfg.Batches)
			}
			if res.Lost == 0 || res.Replicas[3].Syncs() < 1 {
				t.Fatalf("%s seed %d: lost %d envelopes, laggard fetched %d times; the schedule no longer cuts it off",
					what, seed, res.Lost, res.Replicas[3].Syncs())
			}
		}
	}
}
