package champ

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func benchMap(n int) *Map {
	m := Empty()
	for i := 0; i < n; i++ {
		m = m.Set(fmt.Sprintf("account_%08d", i), []byte("balance"))
	}
	return m
}

// BenchmarkDelete measures structural-sharing removal cost.
func BenchmarkDelete(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := benchMap(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Delete(fmt.Sprintf("account_%08d", i%n))
			}
		})
	}
}

// besideLarge returns, by name, two-entry maps whose root node holds a
// 1 MiB value, and a 1 MiB key, next to the small entry "k".
func besideLarge() map[string]*Map {
	small := Empty().Set("k", make([]byte, 32))
	return map[string]*Map{
		"value": small.Set("large", make([]byte, 1<<20)),
		"key":   small.Set(strings.Repeat("K", 1<<20), []byte("v")),
	}
}

// BenchmarkSetBesideLargeEntry is the write rule 4 of the node layout is
// for: overwriting a 32-byte value in a node that also holds a megabyte.
// B/op is the new root and its blob; the megabyte is shared, not moved.
func BenchmarkSetBesideLargeEntry(b *testing.B) {
	for name, m := range besideLarge() {
		b.Run(name, func(b *testing.B) {
			val := make([]byte, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Set("k", val)
			}
		})
	}
}

// TestSetBesideLargeEntry holds the same write under 4 KiB and to three
// allocations (map, node, blob), inserts and deletes of a small neighbour
// included.
func TestSetBesideLargeEntry(t *testing.T) {
	for name, m := range besideLarge() {
		val := make([]byte, 32)
		for op, f := range map[string]func(){
			"overwrite": func() { m.Set("k", val) },
			"insert":    func() { m.Set("k2", val) },
			"delete":    func() { m.Delete("k") },
		} {
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, f)
			runtime.ReadMemStats(&after)
			// AllocsPerRun calls f once more to warm up.
			if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun >= 4<<10 || allocs > 3 {
				t.Errorf("%s beside a 1 MiB %s: %d B and %.0f allocations per run", op, name, perRun, allocs)
			}
		}
	}
}
