// Package geom is a floateq fixture: its path ends in internal/geom, so
// exact float comparisons outside the allowlist are flagged.
package geom

type vec struct{ X, Y float64 }

type scalar float64

func bad(a, b float64) bool {
	return a == b // want "exact float == comparison"
}

func badNeq(a, b vec) bool {
	return a.X != b.X // want "exact float != comparison"
}

func badNamed(a, b scalar) bool {
	return a == b // want "exact float == comparison"
}

func badStruct(a, b vec) bool {
	return a == b // want "exact float == comparison of values with float fields"
}

type segment struct{ A, B vec }

func badNested(a, b segment) bool {
	return a != b // want "exact float != comparison of values with float fields"
}

func badArray(a, b [2]float64) bool {
	return a == b // want "exact float == comparison of values with float fields"
}

type label struct {
	name string
	id   int
}

func structWithoutFloats(a, b label) bool {
	return a == b
}

// zeroGuard compares against the exactly representable zero: allowed.
func zeroGuard(den float64) bool {
	return den == 0
}

// lexLess is allowlisted: a strict weak order must compare exactly.
func lexLess(a, b vec) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

func intEq(a, b int) bool {
	return a == b
}

func acknowledged(a, b float64) bool {
	//gatherlint:ignore floateq bit-identity check on purpose
	return a == b
}
