// Package analysis is a self-contained static-analysis framework plus the
// iaccfvet analyzer suite: build-time enforcement of the determinism
// invariants this repository otherwise states in prose and checks at
// runtime.
//
// IA-CCF's safety argument needs every replica to reproduce byte-identical
// headers, receipts, and checkpoint digests (PAPER.md §3, §6). The replay
// and cross-replica tests catch a divergence that a test happens to
// execute; the analyzers here catch map-order and wall-clock or unseeded
// randomness reaching replicated state at vet time. See README.md in this
// directory for the mapping from each analyzer to the prose rule it
// enforces.
//
// The framework deliberately mirrors a small subset of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the
// analyzers port to the upstream driver mechanically if the dependency
// ever becomes available; only the standard library is used.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and as its enable/disable
	// flag on cmd/iaccfvet.
	Name string
	// Doc is a one-paragraph description; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. All analyzers in
// the suite skip test files: test-local nondeterminism is harmless.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f == nil || strings.HasSuffix(f.Name(), "_test.go")
}

// FuncMatch identifies a function or method by package path, receiver type
// name (empty for package-level functions), and name.
type FuncMatch struct {
	PkgPath string
	Recv    string // named type of the receiver, pointer stripped; "" = none
	Name    string
}

// String names m as pkg.Recv.Name, with the package path's last element.
func (m FuncMatch) String() string {
	short := m.PkgPath[strings.LastIndexByte(m.PkgPath, '/')+1:]
	if m.Recv != "" {
		return short + "." + m.Recv + "." + m.Name
	}
	return short + "." + m.Name
}

// Callee resolves the called function or method, or nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Match reports which of ms the call resolves to, if any.
func Match(info *types.Info, call *ast.CallExpr, ms []FuncMatch) (FuncMatch, bool) {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return FuncMatch{}, false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	for _, m := range ms {
		if fn.Pkg().Path() == m.PkgPath && fn.Name() == m.Name && recv == m.Recv {
			return m, true
		}
	}
	return FuncMatch{}, false
}

// RunAnalyzers applies every analyzer to the package and returns the
// diagnostics sorted by position. Analyzer errors (not findings) abort.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				d.Message = a.Name + ": " + d.Message
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// deterministicExempt lists package subtrees under iaccf/internal/ that the
// determinism analyzers (detiter, detsource) do not apply to. Everything
// else under internal/ is covered automatically, so the transport and
// state-transfer packages on the roadmap inherit enforcement the moment
// they exist, with no registration step.
var deterministicExempt = []string{
	// The analysis tooling itself: drivers shell out, fixtures exercise the
	// very patterns the analyzers forbid.
	"iaccf/internal/analysis",
	// The network transport: sockets, reconnect backoff, and write
	// deadlines are wall-clock by nature. Nothing the transport computes
	// feeds a replicated digest — frames are opaque bytes produced and
	// consumed by the deterministic layers above it.
	"iaccf/internal/transport",
	// The node runtime: it owns the real clock (tick cadence, stall
	// detection) and injects time into consensus only through the counted
	// Tick/OnTimeout seam, so replica state stays a pure function of the
	// delivered message sequence.
	"iaccf/internal/node",
	// The client RPC: it is the client side of submission and owns its
	// connection deadlines.
	"iaccf/internal/rpc",
	// The load generator: a client-side workload driver that measures
	// wall-clock throughput and paces retries. It runs outside the
	// replicas entirely; nothing it computes is replicated.
	"iaccf/internal/loadgen",
}

// Deterministic reports whether pkgPath is part of the replicated
// deterministic core: the packages whose outputs (headers, receipts,
// digests, wire bytes) every replica must reproduce byte-identically.
func Deterministic(pkgPath string) bool {
	if pkgPath != "iaccf/internal" && !strings.HasPrefix(pkgPath, "iaccf/internal/") {
		return false
	}
	for _, ex := range deterministicExempt {
		if pkgPath == ex || strings.HasPrefix(pkgPath, ex+"/") {
			return false
		}
	}
	return true
}
