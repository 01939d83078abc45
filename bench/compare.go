package main

import (
	"fmt"
	"io"
)

// compareFiles prints, for every workload and end-to-end metric, the median
// of A's runs and of B's, their ratio with A as the base, and whether B is
// worse than A by more than the metric's bound. Only untraced runs count.
// When A's own runs are spread wider than the bound, the comparison cannot
// tell a regression from noise and says "unresolved" instead.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	values := func(runs []*runResult, workload, name string) []float64 {
		var vs []float64
		for _, r := range runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "A (base)", "B", "B/A", "bound", "spreadA", "verdict")
	failed := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-16s missing from %s\n", wl.Name, m.Name, map[bool]string{true: pathA, false: pathB}[len(va) == 0])
				failed++
				continue
			}
			spread := quartileSpread(va)
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // share of A by which B is higher
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %8.3f %6.0f%% %6.1f%%  %s (n=%d,%d %s)\n",
				wl.Name, m.Name, ma, mb, ratio(mb, ma), 100*m.Bound, 100*spread, verdict, len(va), len(vb), m.Unit)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d comparison(s) failed", failed)
	}
	return nil
}
