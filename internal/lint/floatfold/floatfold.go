// Package floatfold flags float accumulation whose fold order is not
// fixed by the program text. Floating-point addition is not
// associative: (a+b)+c and a+(b+c) differ in the low bits, and this
// repository's results contract is bit-exact — pagination cursors
// compare scores with ==, and parallel execution must reproduce the
// serial scan byte for byte. Search scores earn that by summing
// fixed-point integers; a float fold must run left over a deterministic
// sequence, and any float accumulation outside that shape leaks
// nondeterminism into its result. Two shapes are flagged:
//
//   - a float += (or -=, *=) inside a `range` over a map: the fold
//     order is the map's randomized iteration order, so the same
//     corpus can produce different low bits on different runs;
//
//   - a float += on a variable captured by a go-statement function
//     literal: concurrent partial sums fold in scheduling order (and
//     race besides).
//
// The fix is the same in both cases: iterate a sorted or
// corpus-ordered sequence and fold left. Accumulation keyed by the
// range variable (sums[k] += v) is per-key state, not a fold across
// iterations, and passes. Integer accumulation passes: integer
// addition is associative.
package floatfold

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astutil"
)

// Analyzer flags order-sensitive floating-point accumulation.
var Analyzer = &analysis.Analyzer{
	Name: "floatfold",
	Doc:  "flags float accumulation over map iteration or across goroutines; fold order must be deterministic",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapRange(pass, n) {
					checkMapRangeBody(pass, n)
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutine(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody flags float compound assignment across iterations
// of a map range. Targets indexed by the range key/value are per-key
// state and pass; targets declared inside the body pass (they reset
// each iteration).
func checkMapRangeBody(pass *analysis.Pass, rng *ast.RangeStmt) {
	keyObjs := rangeVarObjects(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if n != nil && astutil.IsLoop(n) && n != ast.Node(rng) {
			// Nested map ranges are visited by run's own walk;
			// nested slice loops still accumulate across the outer
			// map's iterations, so keep descending.
			if inner, ok := n.(*ast.RangeStmt); ok && isMapRange(pass, inner) {
				return false
			}
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if !isFloatCompound(pass, as) {
			return true
		}
		lhs := as.Lhs[0]
		if keyedBy(pass, lhs, keyObjs) {
			return true
		}
		if declaredWithin(pass, lhs, rng) {
			return true
		}
		pass.Reportf(as.Pos(), "float accumulation into %s across map iterations of %s folds in nondeterministic order (float + is not associative); range sorted keys instead, or annotate //lint:allow floatfold",
			astutil.Render(lhs), astutil.Render(rng.X))
		return true
	})
}

// checkGoroutine flags float compound assignment inside a go-launched
// function literal when the target is captured from the enclosing
// function: concurrent partials fold in scheduling order.
func checkGoroutine(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if !isFloatCompound(pass, as) {
			return true
		}
		lhs := as.Lhs[0]
		if declaredWithin(pass, lhs, lit) {
			return true
		}
		pass.Reportf(as.Pos(), "float accumulation into captured %s inside a goroutine folds partial sums in scheduling order (float + is not associative); accumulate per-shard partials and replay them in a fixed order, or annotate //lint:allow floatfold",
			astutil.Render(lhs))
		return true
	})
}

// isFloatCompound reports whether as is +=, -= or *= on a float lhs.
func isFloatCompound(pass *analysis.Pass, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
	default:
		return false
	}
	if len(as.Lhs) != 1 {
		return false
	}
	t := pass.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rangeVarObjects returns the objects of the range key/value variables.
func rangeVarObjects(pass *analysis.Pass, rng *ast.RangeStmt) []types.Object {
	var objs []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := pass.ObjectOf(id); o != nil {
				objs = append(objs, o)
			}
		}
	}
	return objs
}

// keyedBy reports whether the lvalue routes through a range variable
// (sums[k], stats[k].total): per-key accumulation.
func keyedBy(pass *analysis.Pass, e ast.Expr, keyObjs []types.Object) bool {
	for _, o := range keyObjs {
		if pass.UsesObject(e, o) {
			return true
		}
	}
	return false
}

// declaredWithin reports whether the lvalue's root variable is declared
// inside node — accumulation that cannot outlive it.
func declaredWithin(pass *analysis.Pass, e ast.Expr, node ast.Node) bool {
	id := astutil.FirstIdent(e)
	if id == nil {
		return false // conservative: unknown roots are assumed captured
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	return analysis.DeclaredWithin(obj, node)
}
