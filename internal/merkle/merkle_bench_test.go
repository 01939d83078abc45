package merkle

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
)

// BenchmarkAppendRoot measures appending one leaf and recomputing the root
// on trees of increasing size: the per-entry history tree cost.
func BenchmarkAppendRoot(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := New()
			for _, e := range entries(n, "bench") {
				tr.Append(e)
			}
			e := hashsig.Sum([]byte("next"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Append(e)
				tr.Root()
			}
		})
	}
}

// BenchmarkAppendAndProve measures batch-tree construction with all paths.
func BenchmarkAppendAndProve(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		es := entries(n, "batch")
		b.Run(fmt.Sprintf("shared/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := New()
				if _, _, _, err := tr.AppendAndProve(es); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
