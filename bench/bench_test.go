package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var vs []float64
	for i := 1; i <= 1000; i++ {
		vs = append(vs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

// The expected figures are what Python's statistics.quantiles(vs, n=4)
// gives, which is what the driver uses.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11}, (12.0 - 10.0) / 11.0},
		{[]float64{3, 1}, (3.5 - 0.5) / 2.0},
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

// A generator that wakes up late must still fire every request that fell
// due, each carrying its intended time, so the stall is charged to the
// requests as lag instead of silently lowering the offered rate.
func TestOpenLoopKeepsIntendedTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	stalled := false
	sleep := func(d time.Duration) {
		now = now.Add(d)
		if !stalled && now.Sub(start) >= 20*time.Millisecond {
			stalled = true
			now = now.Add(50 * time.Millisecond) // one long oversleep
		}
	}
	const rate = 1000.0
	var lags []time.Duration
	openLoop(rate, 100*time.Millisecond, start, func() time.Time { return now }, sleep,
		func(i int, due time.Time) {
			if want := start.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) {
				t.Fatalf("request %d due at %v, want %v", i, due.Sub(start), want.Sub(start))
			}
			lags = append(lags, now.Sub(due))
		})
	if len(lags) != 100 {
		t.Fatalf("fired %d requests, want 100 (rate x duration)", len(lags))
	}
	late := 0
	for i, lag := range lags {
		if lag < 0 {
			t.Fatalf("request %d fired %v before it was due", i, -lag)
		}
		if lag > 0 {
			late++
		}
	}
	// The 50 ms stall covers the requests due at 20..69 ms.
	if late < 45 || late > 55 {
		t.Errorf("%d requests carry lag from the 50 ms stall, want about 50", late)
	}
	if lags[21] != 49*time.Millisecond {
		t.Errorf("the request due at 21 ms fired with lag %v, want 49ms", lags[21])
	}
}

// checkNamed asserts the run produced every metric BENCHMARK.json names,
// end-to-end and per-layer, in the unit it names, and lost no request.
func checkNamed(t *testing.T, sp *spec, res *runResult) {
	t.Helper()
	for _, want := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		m, ok := res.Metrics[want.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", res.Workload, want.Name)
		} else if m.Unit != want.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", res.Workload, want.Name, m.Unit, want.Unit)
		}
	}
	for _, e := range sp.EndToEnd {
		if res.Metrics[e.Name].Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must be above zero", res.Workload, e.Name, res.Metrics[e.Name].Value)
		}
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d, correct %v: %v", res.Workload, res.Attempted, res.Failed, res.Correct, res.Problems)
	}
}

// TestSmoke runs every workload traced at a tiny size. The cluster ones are
// skipped under -short.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	t.Chdir(t.TempDir()) // span files go to ./out
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, sp.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name != "audit.replay" {
				t.Skip("boots a cluster")
			}
			res, err := w.run(w.name, runConfig{seed: 7, seconds: 0.3, traced: true, small: true})
			if err != nil {
				t.Fatal(err)
			}
			checkNamed(t, sp, res)
			if err := report(io.Discard, sp, res); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	sp := &spec{
		EndToEnd: []metricSpec{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "throughput_eps", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	mk := func(lat, eps float64) *runResult {
		return &runResult{Workload: "w", Metrics: map[string]metric{
			"latency_p50_ms": {Value: lat, Unit: "ms"}, "throughput_eps": {Value: eps, Unit: "1/s"}}}
	}
	dir := t.TempDir()
	write := func(name string, runs ...*runResult) string {
		path := filepath.Join(dir, name)
		if err := appendResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(10, 1000), mk(10.1, 1010), mk(9.9, 990))
	for _, c := range []struct {
		name    string
		b       string
		a       string
		wantErr bool
		want    []string
	}{
		{"same", write("same.json", mk(10.2, 995)), base, false, []string{"PASS"}},
		{"slower", write("slow.json", mk(12, 1000)), base, true, []string{"FAIL", "PASS"}},
		{"less throughput", write("less.json", mk(10, 850)), base, true, []string{"PASS", "FAIL"}},
		{"noisy base", write("b.json", mk(13, 1000)), write("noisy.json", mk(8, 1000), mk(10, 1000), mk(13, 1000)), false, []string{"unresolved"}},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, sp, c.a, c.b)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want error %v\n%s", c.name, err, c.wantErr, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out.String())
			}
		}
	}
}
