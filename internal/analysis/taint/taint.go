// Package taint is the intra-procedural alias-escape engine behind the
// viewretain analyzer. It enforces one shape of rule — "this call hands
// you a slice you may use here but must not retain" — expressed as a Rule
// over this engine: calls matching Sources
// taint the value they return, taint propagates through the aliasing
// operations Go offers for slices (assignment, sub-slicing, append to the
// same backing array, composite literals, range), and retention sinks
// (returns, stores into fields or globals, channel sends, goroutine
// captures) on tainted values are reported. Calls are trusted boundaries:
// passing a tainted value as an argument is always allowed, because every
// audited sink — hashing, verification, tx.Put, copy — is a call, and the
// callee's documented contract governs what it may keep.
//
// The engine is deliberately flow-insensitive about aliasing: a taint
// fact, once established for a variable, holds for the whole function.
// What the engine cannot see is documented in internal/analysis/README.md.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"

	"iaccf/internal/analysis"
)

// FuncMatch identifies a function or method by package path, receiver type
// name (empty for package-level functions), and name.
type FuncMatch struct {
	PkgPath string
	Recv    string // named type of the receiver, pointer stripped; "" = none
	Name    string
}

// Rule configures one run of the engine over a package.
type Rule struct {
	// Sources taint the value their call returns.
	Sources []FuncMatch
	// Kind names the tainted thing in diagnostics, e.g. "frame view".
	Kind string
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

// matches reports whether call resolves to one of the FuncMatches.
func matches(info *types.Info, call *ast.CallExpr, ms []FuncMatch) (FuncMatch, bool) {
	fn := Callee(info, call)
	if fn == nil {
		return FuncMatch{}, false
	}
	return match(fn, ms)
}

// matchesFunc reports whether fn is one of the FuncMatches.
func matchesFunc(fn *types.Func, ms []FuncMatch) bool {
	_, ok := match(fn, ms)
	return ok
}

func match(fn *types.Func, ms []FuncMatch) (FuncMatch, bool) {
	if fn.Pkg() == nil {
		return FuncMatch{}, false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	for _, m := range ms {
		if fn.Pkg().Path() == m.PkgPath && fn.Name() == m.Name && recv == m.Recv {
			return m, true
		}
	}
	return FuncMatch{}, false
}

// source is one taint origin: a matched Source call site.
type source struct {
	pos  token.Pos // the BytesView call, for diagnostics
	desc string    // "wire.Reader.BytesView" etc.
}

// Check runs the rule over every function in the pass's package.
func Check(pass *analysis.Pass, rule Rule) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// A function that is itself a declared Source of this rule hands
			// out the tainted value by design; its body is the boundary, not
			// a leak.
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && matchesFunc(fn, rule.Sources) {
				continue
			}
			checkFunc(pass, rule, fd)
		}
	}
}

type checker struct {
	pass    *analysis.Pass
	rule    Rule
	fn      *ast.FuncDecl
	tainted map[types.Object]*source
}

func checkFunc(pass *analysis.Pass, rule Rule, fn *ast.FuncDecl) {
	c := &checker{
		pass:    pass,
		rule:    rule,
		fn:      fn,
		tainted: map[types.Object]*source{},
	}
	// Propagate taint to a fixpoint: each pass can extend an alias chain by
	// one assignment, so the statement count bounds the iterations.
	for i := 0; ; i++ {
		if !c.propagate() || i > 1000 {
			break
		}
	}
	// reportSinks must run even with no tainted variables: a Source call
	// can flow straight into a sink (`return r.BytesView(n)`).
	c.reportSinks()
}

// localVar returns the local variable object an identifier denotes, nil
// for package-level names, fields, and non-variables.
func (c *checker) localVar(id *ast.Ident) types.Object {
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == c.pass.Pkg.Scope() {
		return nil // package-level: a store there is a sink, not propagation
	}
	return v
}

// taintOf resolves the taint source an expression carries, if any.
// Conversions that copy (to string, to array) launder taint; conversions
// between slice/pointer types and sub-slicing do not.
func (c *checker) taintOf(e ast.Expr) *source {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := c.localVar(e); v != nil {
			return c.tainted[v]
		}
	case *ast.SliceExpr:
		return c.taintOf(e.X)
	case *ast.IndexExpr:
		// Element read from a tainted container, or generic instantiation.
		// Only reference-like elements (slices, pointers, ...) alias the
		// container; b[0] on a []byte reads a value copy.
		if tv, ok := c.pass.TypesInfo.Types[e]; ok {
			if _, basic := tv.Type.Underlying().(*types.Basic); basic {
				return nil
			}
		}
		return c.taintOf(e.X)
	case *ast.StarExpr:
		return c.taintOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.taintOf(e.X)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if s := c.taintOf(el); s != nil {
				return s
			}
		}
	case *ast.CallExpr:
		if src, ok := matches(c.pass.TypesInfo, e, c.rule.Sources); ok {
			return &source{pos: e.Pos(), desc: srcDesc(src)}
		}
		if tv, ok := c.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: slice->slice and pointerish conversions keep the
			// backing array; string(...) and [N]T(...) copy.
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Pointer:
				if len(e.Args) == 1 {
					return c.taintOf(e.Args[0])
				}
			}
			return nil
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
				// append(tainted, ...) may alias the tainted backing array.
				if s := c.taintOf(e.Args[0]); s != nil {
					return s
				}
				// append(dst, tainted...) copies the *contents* — that is
				// the sanctioned copy-out idiom — but appending a tainted
				// *element* (a view inside a struct, a sub-slice) stores an
				// alias into dst.
				if e.Ellipsis == token.NoPos {
					for _, a := range e.Args[1:] {
						if s := c.taintOf(a); s != nil {
							return s
						}
					}
				}
			}
		}
	}
	return nil
}

func srcDesc(m FuncMatch) string {
	short := m.PkgPath
	if i := lastSlash(short); i >= 0 {
		short = short[i+1:]
	}
	if m.Recv != "" {
		return short + "." + m.Recv + "." + m.Name
	}
	return short + "." + m.Name
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// propagate runs one pass over assignments, declarations, and range
// statements, extending the taint set. It reports whether anything new was
// learned.
func (c *checker) propagate() bool {
	changed := false
	mark := func(id *ast.Ident, s *source) {
		if s == nil {
			return
		}
		v := c.localVar(id)
		if v == nil || c.tainted[v] == s && c.tainted[v] != nil {
			return
		}
		if c.tainted[v] == nil {
			c.tainted[v] = s
			changed = true
		}
	}
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					s := c.taintOf(rhs)
					if s == nil {
						continue
					}
					switch lhs := ast.Unparen(n.Lhs[i]).(type) {
					case *ast.Ident:
						mark(lhs, s)
					case *ast.IndexExpr:
						// localArr[i] = tainted: the container now holds an
						// alias. Stores into non-local containers are sinks.
						if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
							mark(base, s)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					mark(name, c.taintOf(n.Values[i]))
				}
			}
		case *ast.RangeStmt:
			// Ranging over a tainted container taints the iteration vars.
			if s := c.taintOf(n.X); s != nil {
				if id, ok := n.Value.(*ast.Ident); ok {
					mark(id, s)
				}
				if id, ok := n.Key.(*ast.Ident); ok {
					mark(id, s)
				}
			}
		}
		return true
	})
	return changed
}

// funcLits returns the position intervals of function literals within the
// body, so returns inside closures are not confused with the function's
// own returns.
func (c *checker) funcLits() [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			spans = append(spans, [2]token.Pos{fl.Pos(), fl.End()})
		}
		return true
	})
	return spans
}

func within(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// reportSinks flags retention of tainted values: returns, stores into
// fields/globals/non-local containers, channel sends, goroutine captures.
func (c *checker) reportSinks() {
	info := c.pass.TypesInfo
	lits := c.funcLits()
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if within(lits, n.Pos()) {
				return true // a closure's return; the closure rules differ
			}
			for _, res := range n.Results {
				if s := c.taintOf(res); s != nil {
					c.pass.Reportf(n.Pos(), "%s from %s is returned; the caller would retain memory this function does not own — copy it out first", c.rule.Kind, s.desc)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				s := c.taintOf(rhs)
				if s == nil {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
						c.pass.Reportf(n.Pos(), "%s from %s is stored into field %s; it outlives the scope that owns the memory — copy it first", c.rule.Kind, s.desc, sel.Obj().Name())
					}
				case *ast.Ident:
					if obj := info.Uses[lhs]; obj != nil && obj.Parent() == c.pass.Pkg.Scope() {
						c.pass.Reportf(n.Pos(), "%s from %s is stored into package-level variable %s", c.rule.Kind, s.desc, lhs.Name)
					}
				case *ast.IndexExpr:
					if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
						if c.localVar(base) != nil {
							continue // container-taints the local; handled in propagate
						}
						c.pass.Reportf(n.Pos(), "%s from %s is stored into non-local container %s", c.rule.Kind, s.desc, base.Name)
					} else {
						c.pass.Reportf(n.Pos(), "%s from %s is stored into retained state", c.rule.Kind, s.desc)
					}
				case *ast.StarExpr:
					c.pass.Reportf(n.Pos(), "%s from %s is stored through a pointer; the pointee may outlive the owning scope", c.rule.Kind, s.desc)
				}
			}
		case *ast.SendStmt:
			if s := c.taintOf(n.Value); s != nil {
				c.pass.Reportf(n.Pos(), "%s from %s is sent on a channel; the receiver would use memory this goroutine no longer owns", c.rule.Kind, s.desc)
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if s := c.taintOf(arg); s != nil {
					c.pass.Reportf(n.Pos(), "%s from %s is passed to a goroutine; its lifetime is unbounded relative to the owner's", c.rule.Kind, s.desc)
				}
			}
			if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					if v := c.localVar(id); v != nil {
						if s := c.tainted[v]; s != nil {
							c.pass.Reportf(id.Pos(), "%s from %s is captured by a goroutine; its lifetime is unbounded relative to the owner's", c.rule.Kind, s.desc)
							return false
						}
					}
					return true
				})
			}
		}
		return true
	})
}
