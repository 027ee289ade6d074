package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporder guards the repo's headline invariant — byte-identical output
// regardless of scheduling — against its most common leak: Go's
// randomized map iteration order. Three body shapes are flagged inside
// a `for ... range m` over a map:
//
//  1. appending to a slice declared outside the loop (the slice's
//     element order then depends on iteration order) — unless the
//     enclosing function visibly sorts that slice after the loop;
//  2. a conditional max/min-style selection that assigns the loop
//     variables to outer state without ordering on the map KEY in the
//     condition (equal values then tie-break by iteration order — the
//     bug class of grid's modalCategory, which once had a second copy in
//     the stream);
//  3. writing output during iteration (fmt.Print*/Fprint*, Write*
//     methods, channel sends): the emission order is nondeterministic;
//  4. accumulating into a float declared outside the loop with +=, -=,
//     *= or /=, other than into an element indexed by the map key:
//     floating-point arithmetic is not associative, so the result's bits
//     depend on the order (the bug class of metrics.WeightedF1, whose
//     Table III scores once changed between runs).
//
// Copying into another map, or counting and summing integers during
// iteration, is order-independent and not flagged.
var analyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration whose body leaks iteration order into slices, selections, or output",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, f, rng)
			return true
		})
	}
}

func checkMapRangeBody(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	keyObj := rangeVarObj(pass, rng.Key)
	valObj := rangeVarObj(pass, rng.Value)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, file, rng, n)
			checkMapRangeFloatAccum(pass, rng, n, keyObj)
		case *ast.IfStmt:
			checkMapRangeSelection(pass, rng, n, keyObj, valObj)
		case *ast.CallExpr:
			if name, ok := outputCallName(pass, n); ok {
				pass.Reportf(n.Pos(), "call to %s during map iteration emits output in nondeterministic order", name)
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send during map iteration publishes values in nondeterministic order")
		}
		return true
	})
}

// checkMapRangeAppend flags `s = append(s, ...)` growing a slice that
// outlives the loop, unless the enclosing function sorts s after it.
func checkMapRangeAppend(pass *Pass, file *ast.File, rng *ast.RangeStmt, as *ast.AssignStmt) {
	for _, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
			continue
		}
		root := rootIdent(call.Args[0])
		if root == nil {
			continue
		}
		obj := pass.Info.Uses[root]
		if obj == nil || !declaredOutside(obj, rng) {
			continue
		}
		if sortedAfter(pass, file, rng, obj) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %s during map iteration depends on iteration order (sort it after the loop or iterate sorted keys)",
			types.ExprString(call.Args[0]))
	}
}

// checkMapRangeFloatAccum flags `x op= e` for op in + - * / when x is a
// float that outlives the loop: each iteration rounds, so the sum's bits
// depend on the order the map yields its entries. An element indexed by the
// map key (`sums[k] += v`) is updated once per key, in no order, and passes.
func checkMapRangeFloatAccum(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt, keyObj types.Object) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	lhs := as.Lhs[0]
	if ix, ok := lhs.(*ast.IndexExpr); ok && keyObj != nil {
		if id, ok := ix.Index.(*ast.Ident); ok && pass.Info.Uses[id] == keyObj {
			return
		}
	}
	tv, ok := pass.Info.Types[lhs]
	if !ok {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	if obj := pass.Info.Uses[root]; obj == nil || !declaredOutside(obj, rng) {
		return
	}
	pass.Reportf(as.Pos(), "floating-point %s into %s during map iteration depends on iteration order (iterate sorted keys)",
		as.Tok, types.ExprString(lhs))
}

// checkMapRangeSelection flags if-statements that assign the loop
// variables (or values derived from them) to outer state — the
// max/min-selection shape — when the condition does not order on the
// map key. `if n > bestN || (n == bestN && k < bestK)` passes: the
// `k < bestK` arm makes equal-count ties deterministic.
func checkMapRangeSelection(pass *Pass, rng *ast.RangeStmt, ifs *ast.IfStmt, keyObj, valObj types.Object) {
	if keyObj == nil && valObj == nil {
		return
	}
	condUsesLoopVar := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := pass.Info.Uses[id]; o != nil && (o == keyObj || o == valObj) {
				condUsesLoopVar = true
			}
		}
		return true
	})
	if !condUsesLoopVar {
		return
	}
	assignsLoopVarOut := false
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		lhsOutside := false
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if o := pass.Info.Uses[id]; o != nil && declaredOutside(o, rng) {
					lhsOutside = true
				}
			}
		}
		if !lhsOutside {
			return true
		}
		for _, r := range as.Rhs {
			ast.Inspect(r, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := pass.Info.Uses[id]; o != nil && (o == keyObj || o == valObj) {
						assignsLoopVarOut = true
					}
				}
				return true
			})
		}
		return true
	})
	if !assignsLoopVarOut {
		return
	}
	if keyObj != nil && condOrdersOnKey(pass, ifs.Cond, keyObj) {
		return
	}
	pass.Reportf(ifs.Pos(), "selection over map iteration without an ordered tie-break on the key: equal values resolve by iteration order")
}

// condOrdersOnKey reports whether cond contains an ordered comparison
// (< <= > >=) with the map key as an operand.
func condOrdersOnKey(pass *Pass, cond ast.Expr, keyObj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			for _, side := range []ast.Expr{b.X, b.Y} {
				if id, ok := side.(*ast.Ident); ok {
					if o := pass.Info.Uses[id]; o == keyObj {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

// sortedAfter reports whether the enclosing function calls sort.* (or
// slices.Sort*) after the range loop on an expression rooted at obj —
// the collect-then-sort idiom, which is order-independent. Matching by
// root object keeps `for i := range out { sort.Ints(out[i]) }` cleanup
// loops recognized for appends into out[i].
func sortedAfter(pass *Pass, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	fn := enclosingFunc(file, rng.Pos())
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := pass.Info.Uses[pkgID].(*types.PkgName); !ok ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && pass.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// outputCallName reports whether call writes output (fmt print family
// or a Write*/Print* method) and returns a display name for it.
func outputCallName(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if pkgID, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.Info.Uses[pkgID].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
			switch name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return "fmt." + name, true
			}
			return "", false
		}
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
		if pass.Info.Selections[sel] != nil { // a method, not a package func
			return name, true
		}
	}
	return "", false
}

// --- shared small helpers ---

// rootIdent returns the leftmost identifier of a selector/index chain
// (the `s` in s, s.f, s[i].g), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rangeVarObj resolves a range clause variable to its object.
func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := pass.Info.Defs[id]; o != nil {
		return o
	}
	return pass.Info.Uses[id]
}

// declaredOutside reports whether obj's declaration lies outside node's
// source extent.
func declaredOutside(obj types.Object, node ast.Node) bool {
	return obj.Pos() < node.Pos() || obj.Pos() > node.End()
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// enclosingFunc returns the innermost function declaration or literal
// in file containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n
			}
		}
		return true
	})
	return best
}
