package suite_test

import (
	"testing"

	"iaccf/internal/analysis/load"
)

// TestImportGraph holds the verifier boundary: what a client or auditor
// links to check a receipt or a commit certificate — the ledger with its
// signed statements, the client RPC, the load generator — reaches none of
// the replica's behaviour.
func TestImportGraph(t *testing.T) {
	root, err := load.RepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	replica := []string{"consensus", "node", "transport", "txpool"}
	for _, pkg := range []string{"./internal/ledger", "./internal/rpc", "./internal/loadgen", "./cmd/loadgen"} {
		deps, err := load.Exports(root, pkg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := deps["iaccf/internal/ledger"]; !ok {
			t.Fatalf("%s: the dependency list misses ledger itself; the loader is not listing dependencies", pkg)
		}
		for _, r := range replica {
			if _, ok := deps["iaccf/internal/"+r]; ok {
				t.Errorf("%s depends on internal/%s", pkg, r)
			}
		}
	}
}
