package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"github.com/fatgather/fatgather/internal/lint/analysis"
)

// FloatEq flags == and != on floating-point operands in the geometry and
// simulation packages, including struct and array operands with a float
// component (geom.Vec == geom.Vec compares two pairs of floats exactly).
//
// Exact float equality is almost always a robustness bug in geometric code:
// the predicates are specified with the Eps tolerance (Vec.Eq, EqWithin,
// Orientation), and an exact comparison that "works" on one platform's
// rounding can flip on another, breaking the byte-identical contract across
// toolchains. Two shapes are exempt: comparison against an exact zero
// constant (a representation guard, e.g. `den == 0`, is deterministic and
// intentional), and comparisons inside the floatEqAllowlist helpers whose
// whole point is exact ordering (lexLess's strict weak order for hull
// sorting must NOT be tolerance-based, or sorting breaks).
var FloatEq = &analysis.Analyzer{
	Name: "floateq",
	Doc:  "flag exact float ==/!= outside approved helpers in geometry/simulation packages",
	Run:  runFloatEq,
}

// floatEqPackages are the import-path suffixes FloatEq applies to.
var floatEqPackages = []string{"internal/geom", "internal/sim"}

// floatEqAllowlist names functions whose body may compare floats exactly:
// helpers that implement strict orderings or bit-level identity on purpose.
var floatEqAllowlist = map[string]bool{
	"lexLess": true,
}

func runFloatEq(pass *analysis.Pass) error {
	if !pkgMatchesAny(pass.Pkg.Path(), floatEqPackages) {
		return nil
	}
	for _, f := range pass.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			xt, yt := pass.TypesInfo.Types[bin.X], pass.TypesInfo.Types[bin.Y]
			if xt.Type == nil || yt.Type == nil {
				return true
			}
			scalar := isFloat(xt.Type) || isFloat(yt.Type)
			if !scalar && !hasFloatComponent(xt.Type) && !hasFloatComponent(yt.Type) {
				return true
			}
			if isExactZero(xt.Value) || isExactZero(yt.Value) {
				return true
			}
			if floatEqAllowlist[enclosingFuncName(file, bin.Pos())] {
				return true
			}
			msg := "exact float %s comparison; use the Eps tolerance helpers (Vec.Eq, EqWithin) or an allowlisted exact helper"
			if !scalar {
				msg = "exact float %s comparison of values with float fields; use the Eps tolerance helpers (Vec.Eq, EqWithin) or compare math.Float64bits"
			}
			pass.Reportf(bin.Pos(), msg, bin.Op)
			return true
		})
	}
	return nil
}

// isExactZero reports whether a constant operand is exactly zero.
func isExactZero(v constant.Value) bool {
	if v == nil {
		return false
	}
	f := constant.ToFloat(v)
	return f.Kind() == constant.Float && constant.Sign(f) == 0
}

// hasFloatComponent reports whether a struct or array type compares a float
// when compared with ==: it has a float field or element, at any depth of
// nested structs and arrays.
func hasFloatComponent(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i).Type(); isFloat(f) || hasFloatComponent(f) {
				return true
			}
		}
	case *types.Array:
		return isFloat(u.Elem()) || hasFloatComponent(u.Elem())
	}
	return false
}
