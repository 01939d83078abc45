package node_test

import (
	"fmt"
	"os"
	"testing"

	"iaccf/internal/sim"
	"iaccf/internal/transport"
)

// TestAdversarialTransportSchedules runs four nodes over the Hub while it
// loses and reorders frames under a seeded schedule and three clients keep
// proposals live: the sim's invariants hold after every step (one committed
// batch per seq across honest nodes, no honest replica blamed, no decode or
// send errors), every receipt passes the client's check, and every seed
// commits the whole workload — retransmission and catch-up over a lossy
// network are what the nodes' timers exist for.
//
// SIM_SEEDS, in the sim matrix's syntax, picks the schedules; the default
// is 1-12. A failing seed replays with
// SIM_SEEDS=<seed> go test -run TestAdversarialTransportSchedules ./internal/node/
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
			if _, err := sim.Run(sim.Config{
				Seed:            seed,
				CheckpointEvery: 4,
				Requests:        24,
				Clients:         3,
				Network:         transport.TamperPolicy{DropRate: 0.05, ReorderWindow: 8},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
