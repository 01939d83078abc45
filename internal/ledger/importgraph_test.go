package ledger

import (
	"os/exec"
	"strings"
	"testing"
)

// TestImportGraph holds the verifier boundary: what a client or auditor
// links to check a receipt or a commit certificate — the ledger with its
// signed statements, the client RPC, the load generator — reaches none of
// the replica's behaviour.
func TestImportGraph(t *testing.T) {
	replica := []string{"consensus", "node", "transport", "txpool"}
	for _, pkg := range []string{"iaccf/internal/ledger", "iaccf/internal/rpc", "iaccf/internal/loadgen", "iaccf/cmd/loadgen"} {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		deps := map[string]bool{}
		for _, d := range strings.Fields(string(out)) {
			deps[d] = true
		}
		if !deps["iaccf/internal/ledger"] {
			t.Fatalf("%s: the dependency list misses ledger itself; go list is not listing dependencies", pkg)
		}
		for _, r := range replica {
			if deps["iaccf/internal/"+r] {
				t.Errorf("%s depends on internal/%s", pkg, r)
			}
		}
	}
}
