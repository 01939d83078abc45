package detsource_test

import (
	"testing"

	"iaccf/internal/analysis/analysistest"
	"iaccf/internal/analysis/detsource"
)

func TestDetSource(t *testing.T) {
	// The second fixture is loaded under the real hashsig import path to
	// exercise the crypto/rand allowlist (no expectations: it must be clean).
	// transport, node and rpc are loaded under their real import paths to
	// exercise the non-deterministic carve-out (no expectations: all must
	// be clean); transportx proves the carve-out is an exact subtree, not
	// a string prefix.
	analysistest.Run(t, detsource.Analyzer,
		"iaccf/internal/detsourcefix",
		"iaccf/internal/hashsig",
		"iaccf/internal/transport",
		"iaccf/internal/node",
		"iaccf/internal/rpc",
		"iaccf/internal/transportx",
	)
}
