// Package detsource forbids nondeterminism sources in the deterministic
// core (see analysis.Deterministic): wall-clock reads (time.Now, Since,
// Until) and the global math/rand generators, whose process-local state
// makes re-execution irreproducible — an auditor replaying the ledger
// would derive different bytes and wrongly blame an honest replica
// (PAPER.md §3; "The Availability-Accountability Dilemma").
//
// Exemptions are encoded here as data, not as suppression comments in the
// checked code:
//
//   - Seeded generators stay legal everywhere: rand.New, rand.NewSource
//     (and the v2 PCG/ChaCha8 constructors) take an explicit seed, so the
//     consensus simulation's schedule derives from its run seed and
//     replays bit-for-bit. Only the package-level convenience functions,
//     which draw from the ambient global source, are flagged.
//   - crypto/rand is allowed only in the packages listed in randAllow:
//     hashsig draws key material and nonce commitments there, which is
//     replica-local secret state, never replicated state. Any other
//     deterministic package importing crypto/rand is flagged at the
//     import, keeping the randomness boundary auditable in one table.
package detsource

import (
	"go/ast"
	"go/types"
	"strconv"

	"iaccf/internal/analysis"
)

// Analyzer is the detsource pass.
var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc: "forbid wall clocks and unseeded randomness in the deterministic " +
		"packages; seeded rand.New and the hashsig crypto/rand boundary are exempt",
	Run: run,
}

// randAllow is the randomness allowlist: deterministic packages that may
// import crypto/rand, with the reason on record.
var randAllow = map[string]string{
	// Key generation and nonce-commitment draws: replica-local secrets,
	// never part of replicated state (paper §3.1, Lemma 3).
	"iaccf/internal/hashsig": "key material and nonce commitments",
}

// seededConstructors are the math/rand entry points that take an explicit
// seed (or return a source to seed); everything else at package level
// draws from the global generator and is flagged.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *Rand the caller already seeded
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	if !analysis.Deterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		checkImports(pass, file)
		checkCalls(pass, file)
	}
	return nil
}

// checkImports flags crypto/rand imports outside the allowlist.
func checkImports(pass *analysis.Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "crypto/rand" {
			continue
		}
		if _, ok := randAllow[pass.Pkg.Path()]; ok {
			continue
		}
		pass.Reportf(imp.Pos(), "crypto/rand imported in deterministic package %s; randomness enters the system only through the audited allowlist (currently hashsig) — derive values from seeded state or move the draw behind hashsig", pass.Pkg.Path())
	}
}

func checkCalls(pass *analysis.Pass, file *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(call.Pos(), "time.%s in deterministic package %s; replicas cannot reproduce wall-clock reads — thread a logical clock or take the value as an input", fn.Name(), pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			if isMethod(fn) {
				return true // methods run on a *Rand the caller seeded
			}
			if !seededConstructors[fn.Name()] {
				pass.Reportf(call.Pos(), "%s.%s draws from the global unseeded generator in deterministic package %s; construct a seeded source (rand.New(rand.NewSource(seed))) so re-execution reproduces it", shortPkg(fn.Pkg().Path()), fn.Name(), pass.Pkg.Path())
			}
		}
		return true
	})
}

// isMethod reports whether fn has a receiver (e.g. (*rand.Rand).Intn).
func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func shortPkg(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
