// Package detiter flags map iteration whose order can leak into replicated
// state. In the deterministic core (every package under iaccf/internal/
// except the analysis tooling — see analysis.Deterministic), the bytes fed
// to hash writers, signers, and wire encoders must be identical on every
// replica; Go's map iteration order is deliberately randomized, so a
// `range` over a map that reaches one of those sinks makes an honest
// replica blameable (PAPER.md §3, §6). Two shapes are reported:
//
//   - a sink call — hashing (iaccf/internal/hashsig, crypto/sha*),
//     signing, wire encoding (iaccf/internal/wire append functions and
//     Writer methods), or merkle tree appends — anywhere inside the body
//     of a map-range loop;
//   - an append inside a map-range body to a slice declared outside the
//     loop ("collect"), unless the slice is passed to a sort call
//     (sort.* / slices.Sort*) after the loop. Collect-then-sort is the
//     sanctioned pattern (kv.WriteSet.Digest, consensus sortedKeys);
//     a collect that escapes unsorted preserves map order.
//
// The fix is champ.RangeCanonical for store contents, or
// the collect-then-sort idiom for protocol maps.
package detiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"iaccf/internal/analysis"
)

// Analyzer is the detiter pass.
var Analyzer = &analysis.Analyzer{
	Name: "detiter",
	Doc: "flag map iteration feeding hashes, signatures, or wire encodings in " +
		"the deterministic packages; iterate canonically or collect-then-sort",
	Run: run,
}

// sinks are the order-sensitive calls: bytes that reach them must arrive
// in the same order on every replica.
var sinks = []analysis.FuncMatch{
	{PkgPath: "iaccf/internal/hashsig", Name: "Sum"},
	{PkgPath: "iaccf/internal/hashsig", Name: "SumMany"},
	{PkgPath: "iaccf/internal/hashsig", Recv: "PrivateKey", Name: "Sign"},
	{PkgPath: "iaccf/internal/hashsig", Recv: "PrivateKey", Name: "MustSign"},
	{PkgPath: "iaccf/internal/wire", Name: "AppendUint32"},
	{PkgPath: "iaccf/internal/wire", Name: "AppendUint64"},
	{PkgPath: "iaccf/internal/wire", Name: "AppendBytes"},
	{PkgPath: "iaccf/internal/wire", Name: "AppendString"},
	{PkgPath: "iaccf/internal/wire", Name: "AppendDigest"},
	{PkgPath: "iaccf/internal/wire", Recv: "Writer", Name: "Uint32"},
	{PkgPath: "iaccf/internal/wire", Recv: "Writer", Name: "Uint64"},
	{PkgPath: "iaccf/internal/wire", Recv: "Writer", Name: "Bytes"},
	{PkgPath: "iaccf/internal/wire", Recv: "Writer", Name: "String"},
	{PkgPath: "iaccf/internal/wire", Recv: "Writer", Name: "Digest"},
	{PkgPath: "iaccf/internal/wire", Recv: "Writer", Name: "Nonce"},
	{PkgPath: "iaccf/internal/merkle", Recv: "Tree", Name: "Append"},
	{PkgPath: "iaccf/internal/merkle", Recv: "Tree", Name: "AppendLeafHash"},
	{PkgPath: "iaccf/internal/merkle", Recv: "Tree", Name: "AppendAndProve"},
	{PkgPath: "iaccf/internal/merkle", Recv: "Tree", Name: "AppendAndProveLeafHashes"},
	{PkgPath: "iaccf/internal/merkle", Name: "LeafHash"},
	{PkgPath: "crypto/sha256", Name: "Sum256"},
	{PkgPath: "crypto/sha512", Name: "Sum512"},
}

// sorters make a collected slice order-independent again.
var sorters = []analysis.FuncMatch{
	{PkgPath: "sort", Name: "Strings"},
	{PkgPath: "sort", Name: "Ints"},
	{PkgPath: "sort", Name: "Float64s"},
	{PkgPath: "sort", Name: "Slice"},
	{PkgPath: "sort", Name: "SliceStable"},
	{PkgPath: "sort", Name: "Sort"},
	{PkgPath: "sort", Name: "Stable"},
	{PkgPath: "slices", Name: "Sort"},
	{PkgPath: "slices", Name: "SortFunc"},
	{PkgPath: "slices", Name: "SortStableFunc"},
}

func run(pass *analysis.Pass) error {
	if !analysis.Deterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, fn, rng)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Direct order-sensitive sink inside the loop body.
		if m, hit := analysis.Match(info, call, sinks); hit {
			pass.Reportf(call.Pos(), "map iteration order reaches %s; identical replicas would hash/sign/encode in different orders — iterate with champ.RangeCanonical or sort the keys first", m)
			return true
		}
		// Collect: append into a slice declared outside the loop.
		if id, isApp := appendDst(info, call); isApp {
			obj := info.Uses[id]
			if obj == nil || insideRange(rng, obj.Pos()) {
				return true
			}
			if !sortedAfter(info, fn, rng, obj) {
				pass.Reportf(call.Pos(), "append inside map iteration collects keys/values in map order into %q, which escapes the loop unsorted; sort it after the loop (sortedKeys / sort.Strings) or iterate canonically", id.Name)
			}
		}
		return true
	})
}

// appendDst returns the destination variable of `dst = append(dst, ...)`
// shapes — the first argument of a builtin append call, when it is a plain
// identifier.
func appendDst(info *types.Info, call *ast.CallExpr) (*ast.Ident, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return dst, ok
}

func insideRange(rng *ast.RangeStmt, pos token.Pos) bool {
	return pos >= rng.Pos() && pos < rng.End()
}

// sortedAfter reports whether obj is passed to a sort call positioned
// after the range loop within the function.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if _, hit := analysis.Match(info, call, sorters); !hit {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
