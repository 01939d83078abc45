// Package suite assembles the iaccfvet analyzer set. Both drivers — the
// cmd/iaccfvet vet tool and the repo-wide regression test next to the
// analyzers — use this one list, so they can never drift apart on what
// "the suite" means.
package suite

import (
	"iaccf/internal/analysis"
	"iaccf/internal/analysis/detiter"
	"iaccf/internal/analysis/detsource"
)

// Analyzers returns the full iaccfvet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detiter.Analyzer,
		detsource.Analyzer,
	}
}
