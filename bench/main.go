// Command bench is the repository's benchmark: five named workloads against
// a 4-replica cluster booted inside this process (or, for audit.replay,
// against no cluster at all), end-to-end metrics that count a request only
// once the client holds a verified receipt, and in a traced run a per-layer
// budget taken from outside the layers. README.md has the tables; the
// metric names, units and bounds live in ../BENCHMARK.json, which this
// program reads rather than repeats.
//
//	go run -C bench iaccf/bench -seed 1                     every workload
//	go run -C bench iaccf/bench -seed 1 -workload W -trace 1  one traced run
//	go run -C bench iaccf/bench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sort"
)

// spec is BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// parent of this package's directory (where `go run -C bench` runs us) or
// the working directory itself.
func loadSpec() (*spec, error) {
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, errors.New("BENCHMARK.json not found in .. or .")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs all of them")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 0, "measured interval per run; 0 means BENCHMARK.json's run_seconds")
		trace    = flag.Int("trace", 0, "1 wraps the layers in decorators and reports the per-layer metrics")
		out      = flag.String("out", "", "append the runs' results to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two files: A.json B.json")
		}
		return compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	// All replicas and the load generator share this process; more than four
	// threads would only measure a bigger machine, not a different system.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}

	var results []*runResult
	incorrect := 0
	for _, w := range workloads {
		if *workload != "" && *workload != w.name {
			continue
		}
		modes := []bool{cfg.traced}
		if *workload == "" && cfg.traced {
			// The full report: untraced for the end-to-end figures, then
			// traced, so the tracing overhead can be stated.
			modes = []bool{false, true}
		}
		var untraced *runResult
		for _, traced := range modes {
			c := cfg
			c.traced = traced
			fmt.Printf("workload %s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
				w.name, c.seed, c.seconds, traced, runtime.GOMAXPROCS(0))
			res, err := w.run(w.name, c)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if traced && untraced != nil {
				a, b := res.Metrics["trace.throughput_eps"].Value, untraced.Metrics["throughput_eps"].Value
				fmt.Printf("  tracing overhead: traced / untraced throughput_eps = %.1f / %.1f = %.3f\n", a, b, ratio(a, b))
			}
			if !traced {
				untraced = res
			}
			if err := report(os.Stdout, sp, res); err != nil {
				return err
			}
			if !res.Correct {
				incorrect++
			}
			results = append(results, res)
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed their correctness checks", incorrect)
	}
	return nil
}

// report prints every metric the run measured, then — as the last line —
// the result object the benchmark contract asks for: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one. A metric that
// BENCHMARK.json names and the run did not produce, or produced in another
// unit, is an error: the two must not drift apart.
func report(w io.Writer, sp *spec, res *runResult) error {
	wanted := sp.EndToEnd
	if res.Traced {
		wanted = sp.PerLayer
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for _, want := range wanted {
		m, ok := res.Metrics[want.Name]
		if !ok {
			return fmt.Errorf("%s did not produce %s, which BENCHMARK.json names", res.Workload, want.Name)
		}
		if m.Unit != want.Unit {
			return fmt.Errorf("%s reports %s in %q, BENCHMARK.json says %q", res.Workload, want.Name, m.Unit, want.Unit)
		}
		line.Metrics[want.Name] = valueUnit{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// appendResults adds the runs to the JSON array in path, creating it if
// need be, so repeated invocations collect their runs in one file.
func appendResults(path string, runs []*runResult) error {
	all, err := readResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	all = append(all, runs...)
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []*runResult
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}
