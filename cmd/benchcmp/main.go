// Command benchcmp is the CI benchmark-regression gate: it parses two
// `go test -json -bench` output files (the committed baseline and the
// current run), matches benchmark results by name, and fails when a
// watched benchmark regresses beyond the tolerance on ns/op, B/op, or
// allocs/op (the latter two only when both files carry -benchmem
// numbers). It also supports
// intra-run assertions: `-faster A:B` proves the pipelined consensus
// window sustains at least the serial baseline's throughput, and
// `-max name:metric:limit` caps an absolute reported metric, the gate
// that keeps the bounded-memory benchmark's retained bytes from growing
// with workload length and a warm receipt check at zero allocations.
//
// Only the standard library is used, so the gate runs with `go run` on a
// bare runner — no benchstat install step to break or cache.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// result is one benchmark line's parsed numbers.
type result struct {
	name    string
	nsPerOp float64
	// metrics holds custom units (e.g. "entries/sec") reported via
	// b.ReportMetric, plus B/op and allocs/op.
	metrics map[string]float64
}

// event is the subset of the `go test -json` schema the parser needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches a completed benchmark result line. The -N suffix on
// the name is the GOMAXPROCS tag; results are stored under both the
// stripped name (last -cpu variant winning) and an explicit per-CPU name
// with the suffix normalized to always be present ("Foo-1" for a run with
// no suffix), so a -watch prefix gates every -cpu variant separately and
// any gate can address one variant unambiguously.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(.*)$`)

// parseFile reassembles each package's output stream (go test -json splits
// benchmark lines across Output events) and parses every result line.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	perPkg := make(map[string]*strings.Builder)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("%s: not a `go test -json` stream: %v", path, err)
		}
		if ev.Action != "output" {
			continue
		}
		b, ok := perPkg[ev.Package]
		if !ok {
			b = &strings.Builder{}
			perPkg[ev.Package] = b
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]result)
	for _, b := range perPkg {
		for _, line := range strings.Split(b.String(), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			r := result{name: m[1], metrics: make(map[string]float64)}
			fields := strings.Fields(m[3])
			for i := 0; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					continue
				}
				if fields[i+1] == "ns/op" {
					r.nsPerOp = v
				} else {
					r.metrics[fields[i+1]] = v
				}
			}
			out[r.name] = r
			if m[2] == "" {
				out[r.name+"-1"] = r // GOMAXPROCS=1 runs carry no suffix
			} else {
				out[r.name+m[2]] = r
			}
		}
	}
	return out, nil
}

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline `file` (go test -json output)")
		currentPath  = flag.String("current", "", "current run `file` (go test -json output)")
		tolerance    = flag.Float64("tolerance", 0.15, "allowed fractional regression before failing")
		allowMissing = flag.Bool("allow-missing", false, "skip (with a note) benchmarks present in only one file instead of failing — for cross-revision comparisons where sub-benchmark names legitimately change")
		watch        stringList
		faster       stringList
		maxes        stringList
	)
	flag.Var(&watch, "watch", "benchmark name `prefix` to gate on ns/op regression (repeatable)")
	flag.Var(&faster, "faster", "intra-run assertion `A:B[:metric]`: current A must not fall below current B on the metric (default entries/sec), beyond the tolerance (repeatable)")
	flag.Var(&maxes, "max", "intra-run absolute cap `name:metric:limit`: current name's reported metric must not exceed limit (0 allowed: allocs/op:0) — no tolerance, a cap is a cap; a name or metric the run lacks fails (repeatable)")
	flag.Parse()

	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -current is required")
		os.Exit(2)
	}
	current, err := parseFile(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}

	failed := false
	report := func(format string, args ...any) {
		failed = true
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
	// fail prints exactly one grep-able line per gate violation — fixed
	// key=value fields first (gate, bench, metric, baseline, current), any
	// gate-specific context after — so CI logs answer "which gate, which
	// benchmark, which numbers" with a single `grep '^FAIL gate='`.
	fail := func(gate, bench, metric string, baseline, current float64, detail string) {
		failed = true
		fmt.Printf("FAIL gate=%s bench=%s metric=%s baseline=%.0f current=%.0f %s\n",
			gate, bench, metric, baseline, current, detail)
	}

	if *baselinePath != "" {
		baseline, err := parseFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
			os.Exit(2)
		}
		for _, prefix := range watch {
			matched := 0
			for name, base := range baseline {
				if !strings.HasPrefix(name, prefix) {
					continue
				}
				cur, ok := current[name]
				if !ok {
					if *allowMissing {
						fmt.Printf("skip %s: present in baseline, missing from current run\n", name)
					} else {
						report("%s: present in baseline, missing from current run", name)
					}
					continue
				}
				matched++
				// ns/op gates wall time; B/op and allocs/op gate the
				// allocation profile, so a change that keeps latency by
				// trading it for GC pressure still fails the gate. Units
				// absent from either file (a baseline recorded without
				// -benchmem) are skipped, not failed.
				for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
					bv, cv := base.nsPerOp, cur.nsPerOp
					if unit != "ns/op" {
						bv, cv = base.metrics[unit], cur.metrics[unit]
					}
					if bv <= 0 {
						continue
					}
					ratio := cv/bv - 1
					status := "ok"
					if ratio > *tolerance {
						fail("watch", name, unit, bv, cv,
							fmt.Sprintf("regressed=%.1f%% tolerance=%.0f%%", ratio*100, *tolerance*100))
						status = "REGRESSED"
					}
					fmt.Printf("%-60s %-9s %12.0f -> %12.0f  (%+.1f%%) %s\n",
						name, unit, bv, cv, ratio*100, status)
				}
			}
			if matched == 0 {
				if *allowMissing {
					fmt.Printf("skip -watch %s: no benchmark present in both files\n", prefix)
				} else {
					report("-watch %s matched no benchmark present in both files", prefix)
				}
			}
		}
	}

	for _, spec := range faster {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) < 2 {
			fmt.Fprintf(os.Stderr, "benchcmp: bad -faster spec %q (want A:B[:metric])\n", spec)
			os.Exit(2)
		}
		metric := "entries/sec"
		if len(parts) == 3 {
			metric = parts[2]
		}
		a, okA := current[parts[0]]
		b, okB := current[parts[1]]
		if !okA || !okB {
			report("-faster %s: benchmark missing from current run", spec)
			continue
		}
		av, bv := a.metrics[metric], b.metrics[metric]
		if av == 0 || bv == 0 {
			report("-faster %s: metric %q missing", spec, metric)
			continue
		}
		// "Not below, beyond tolerance": on multi-core runners the
		// pipelined window genuinely exceeds the serial baseline (pooled
		// verification needs workers); on a single-core box the two are
		// compute-bound equals, so the gate guards against the window
		// costing throughput rather than demanding parallel hardware.
		if av < bv*(1-*tolerance) {
			fail("faster", parts[0], metric, bv, av,
				fmt.Sprintf("vs=%s tolerance=%.0f%%", parts[1], *tolerance*100))
			continue
		}
		fmt.Printf("%-60s %s %12.0f vs %-40s %12.0f ok\n", parts[0], metric, av, parts[1], bv)
	}

	for _, spec := range maxes {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 {
			fmt.Fprintf(os.Stderr, "benchcmp: bad -max spec %q (want name:metric:limit)\n", spec)
			os.Exit(2)
		}
		limit, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || limit < 0 {
			fmt.Fprintf(os.Stderr, "benchcmp: bad -max limit in %q\n", spec)
			os.Exit(2)
		}
		metric := parts[1]
		r, ok := current[parts[0]]
		if !ok {
			report("-max %s: benchmark missing from current run", spec)
			continue
		}
		v, ok := r.metrics[metric]
		if metric == "ns/op" {
			v, ok = r.nsPerOp, r.nsPerOp > 0
		}
		if !ok {
			report("-max %s: metric %q missing", spec, metric)
			continue
		}
		if v > limit {
			fail("max", parts[0], metric, limit, v, "absolute cap exceeded")
			continue
		}
		// Shortest exact form: a cap may be 65536 bytes or 1 object per key.
		fmt.Printf("%-60s %s %12s <= cap %12s ok\n", parts[0], metric,
			strconv.FormatFloat(v, 'f', -1, 64), strconv.FormatFloat(limit, 'f', -1, 64))
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("benchcmp: all gates passed")
}
