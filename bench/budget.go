package main

import (
	"fmt"
	"runtime"
)

// budgetRow is one line of the budget table: a layer's isolated cost per
// committed entry. Rows with summed set add up to the explained cost; the
// others break a summed row down and are shown indented.
type budgetRow struct {
	layer  string
	us     float64
	from   string
	summed bool
}

// clusterBudget prices one entry's trip through the cluster from the
// isolated benchmarks and the traced run's own counts. Every isolated
// figure is wall time with the whole machine to itself, and in the cluster
// run all four replicas and the load generator share that machine, so the
// rows are added up, backups included.
//
// grownKeys is how many keys the workload had added to the state by the
// middle of the run, 0 for the fixed key space. The in-process consensus
// figure is taken at no more than 8192 keys; with Shards=1 every fourth
// batch rescans the whole state on each of the four replicas, which do so
// side by side on the cores there are. Per entry a grown state so costs
// (digest at that size - digest at 8k) x replicas / cores / (4 x B), with
// the digest cost interpolated between the two sizes measured.
func clusterBudget(res *runResult, grownKeys float64) []budgetRow {
	m := func(name string) float64 { return res.Metrics[name].Value }
	d8k, d60k := m("kv.checkpoint_digest_us_8k"), m("kv.checkpoint_digest_us_60k")
	growth := max(0, (d60k-d8k)*(grownKeys-8_000)/52_000)
	protocol := "consensus.inproc_us_per_entry_b64"
	if m("node.entries_per_batch") < 8 {
		protocol = "consensus.inproc_us_per_entry_b1"
	}
	cores := float64(runtime.GOMAXPROCS(0))
	return []budgetRow{
		{"txpool", m("txpool.add_us") + m("txpool.nextbatch_us_per_req"), "txpool.add_us + txpool.nextbatch_us_per_req", true},
		{"consensus", m(protocol), protocol + " (4 replicas, no network)", true},
		{"ledger", m("ledger.execute_us_per_entry"), "primary: ledger.execute_us_per_entry (B=64)", false},
		{"ledger", 3 * m("ledger.apply_us_per_entry"), "backups: 3 x ledger.apply_us_per_entry (B=64)", false},
		{"kv", 4 * m("kv.app_execute_us"), "4 x kv.app_execute_us (in situ)", false},
		{"kv", ratio(growth*replicas/cores/4, m("node.entries_per_batch")),
			fmt.Sprintf("checkpoint rescans of a state grown to %.0f keys, from kv.checkpoint_digest_us_8k/_60k", grownKeys), true},
		{"transport", m("transport.frames_per_entry") * ratio(1e6, m("transport.tcp_frames_per_s_256")),
			"transport.frames_per_entry / transport.tcp_frames_per_s_256", true},
		{"client", m("client.verify_us") / cores, fmt.Sprintf("client.verify_us / %d cores", int(cores)), true},
	}
}

// auditBudget prices audit.replay: decode the stream, replay it.
func auditBudget(res *runResult) []budgetRow {
	return []budgetRow{
		{"wire", res.Metrics["wire.read_batches_us_per_entry"].Value, "wire.read_batches_us_per_entry", true},
		{"ledger", res.Metrics["ledger.replay_us_per_entry"].Value, "ledger.replay_us_per_entry", true},
	}
}

// printBudget prints the table beside the traced run's measured cost per
// entry and records the remainder nobody has explained yet.
func printBudget(res *runResult, rows []budgetRow) {
	measured := ratio(1e6, res.Metrics["trace.throughput_eps"].Value)
	explained := 0.0
	fmt.Printf("  budget for %s, microseconds per entry (isolated costs; all replicas and the generator share %d cores):\n",
		res.Workload, runtime.GOMAXPROCS(0))
	for _, r := range rows {
		indent := "  "
		if r.summed {
			indent = ""
			explained += r.us
		}
		fmt.Printf("    %-12s %10.3f  %s\n", indent+r.layer, r.us, r.from)
	}
	unexplained := ratio(100*(measured-explained), measured)
	fmt.Printf("    %-12s %10.3f\n    %-12s %10.3f  1 / trace.throughput_eps\n    %-12s %9.1f%%\n",
		"explained", explained, "measured", measured, "unexplained", unexplained)
	res.set("budget.explained_us_per_entry", explained, "us", 0)
	res.set("budget.measured_us_per_entry", measured, "us", 0)
	res.set("budget.unexplained_pct", unexplained, "%", 0)
}
