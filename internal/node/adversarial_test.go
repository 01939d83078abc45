package node

import (
	"fmt"
	"os"
	"testing"

	"iaccf/internal/consensus"
	"iaccf/internal/consensus/sim"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/transport"
)

// TestAdversarialTransportSchedules is the transport-double counterpart
// of the consensus sim matrix: honest replicas talk ONLY through the
// Transport interface (the tampering loopback hub), the network drops,
// duplicates, and reorders frames under a seeded schedule, and after
// every delivery step the sim's safety invariant is re-checked — any two
// replicas that committed a sequence committed byte-identical headers,
// and no honest replica is ever blamed. Every seed must also make
// progress: retransmission over a lossy network is exactly what the
// protocol's Retransmit/SyncTick machinery exists for.
//
// SIM_SEEDS, in the sim matrix's syntax, picks the schedules; the default
// is 1-12. Seeds 34 and 51 stall — one replica stays a few batches in
// while the others run on — and replay with
// SIM_SEEDS=34 go test -run TestAdversarialTransportSchedules ./internal/node/
func TestAdversarialTransportSchedules(t *testing.T) {
	spec := os.Getenv("SIM_SEEDS")
	if spec == "" {
		spec = "1-12"
	}
	seeds, err := sim.ParseSeeds(spec)
	if err != nil {
		t.Fatalf("SIM_SEEDS: %v", err)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runAdversarialSchedule(t, seed)
		})
	}
}

func runAdversarialSchedule(t *testing.T, seed int64) {
	const (
		n           = 4
		targetSeq   = 8
		maxSteps    = 60000
		tickEvery   = 23
		retransmit  = 41
		proposeStep = 50
	)
	keys, pubs := clusterKeys(fmt.Sprintf("adv-%d", seed), n)
	reps := make([]*consensus.Replica, n)
	for i := 0; i < n; i++ {
		r, err := consensus.New(consensus.Config{
			ID:              consensus.ReplicaID(i),
			Key:             keys[i],
			Peers:           pubs,
			App:             ledger.KVApp{},
			CheckpointEvery: 4,
			Shards:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}

	hub := transport.NewHub(seed, transport.TamperPolicy{
		DropRate:      0.05,
		DupRate:       0.05,
		ReorderWindow: 8,
	})
	eps := make([]transport.Transport, n)
	route := func(i int, outs []consensus.Outbound) {
		for _, o := range outs {
			f := consensus.EncodeMessage(o.Msg)
			if o.IsBroadcast() {
				eps[i].Broadcast(f)
			} else {
				eps[i].Send(transport.NodeID(o.Dest), f)
			}
		}
	}
	for i := 0; i < n; i++ {
		i := i
		eps[i] = hub.Endpoint(transport.NodeID(i), func(from transport.NodeID, frame []byte) {
			m, err := consensus.DecodeMessage(frame)
			if err != nil {
				t.Fatalf("replica %d: malformed frame from %d: %v", i, from, err)
			}
			outs, _ := reps[i].Handle(m)
			route(i, outs)
		})
	}

	// The sim's safety invariant: one canonical header per committed seq.
	canon := make(map[uint64]hashsig.Digest)
	checked := make([]uint64, n)
	checkInvariants := func(step int) {
		for i, r := range reps {
			committed := r.Committed()
			if committed < checked[i] {
				t.Fatalf("step %d: replica %d committed watermark regressed %d -> %d",
					step, i, checked[i], committed)
			}
			if committed == checked[i] {
				continue
			}
			for _, b := range r.Ledger().Batches() {
				seq := b.Header.Seq
				if seq <= checked[i] || seq > committed {
					continue
				}
				d := b.Header.ContentDigest()
				if prev, ok := canon[seq]; ok {
					if prev != d {
						t.Fatalf("step %d: safety violation: replica %d committed a different header at seq %d",
							step, i, seq)
					}
				} else {
					canon[seq] = d
				}
			}
			checked[i] = committed
		}
		for i, r := range reps {
			if len(r.Evidence()) != 0 {
				t.Fatalf("step %d: honest replica %d produced blame evidence", step, i)
			}
		}
	}

	author := hashsig.Sum([]byte("adv-client"))
	nextReq := uint64(1)
	primary := 0 // view 0
	done := func() bool {
		for _, r := range reps {
			if r.Committed() < targetSeq {
				return false
			}
		}
		return true
	}
	for step := 0; step < maxSteps; step++ {
		if done() {
			break
		}
		if step%proposeStep == 0 && reps[primary].IsPrimary() && reps[primary].CanPropose() {
			var batch []ledger.Request
			for k := 0; k < 3; k++ {
				batch = append(batch, ledger.Request{
					Author: author,
					ReqNo:  nextReq,
					Body:   ledger.EncodeOps([]ledger.Op{{Key: fmt.Sprintf("k%d", nextReq), Val: []byte("v")}}),
				})
				nextReq++
			}
			pp, _, err := reps[primary].Propose(batch)
			if err != nil {
				t.Fatal(err)
			}
			route(primary, []consensus.Outbound{{Dest: consensus.Broadcast, Msg: pp}})
		}
		if step%tickEvery == 0 {
			for i := range reps {
				route(i, reps[i].SyncTick())
			}
		}
		if step%retransmit == 0 {
			for i := range reps {
				route(i, reps[i].Retransmit())
			}
		}
		// Drain faster than the cadences (and handler responses) enqueue:
		// a single delivery per step lets the queue grow without bound,
		// and with a bounded reorder window a deep backlog starves every
		// recently-sent frame — that is a harness artifact, not a network
		// behavior the protocol must survive. A bounded drain keeps the
		// backlog finite while still interleaving deliveries with the
		// propose/tick/retransmit schedule.
		for k := 0; k < 16; k++ {
			if !hub.Step() {
				break
			}
		}
		checkInvariants(step)
	}
	if !done() {
		var state []string
		for i, r := range reps {
			state = append(state, fmt.Sprintf("replica %d committed %d [%s]", i, r.Committed(), r.DebugState()))
		}
		t.Fatalf("seed %d stalled before seq %d after %d steps (lost %d frames): %v",
			seed, targetSeq, maxSteps, hub.Lost(), state)
	}
}
