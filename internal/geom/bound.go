package geom

import "math"

// Squared-length filter.
//
// Most distance predicates compare a length, math.Hypot(x, y), with a bound.
// The squared length x*x+y*y decides the same comparison at a fraction of
// the cost whenever it is not too close to the squared bound: in the normal
// floating-point range its relative error is a few ulps (two products and a
// sum, or one fused multiply-add), and math.Hypot's own relative error is a
// few ulps too, so a squared length more than sqBand (relative) away from
// the squared bound fixes the verdict. Inside that band, and whenever the
// squares could underflow or overflow, the filter answers nothing and the
// caller evaluates the original Hypot expression. Every verdict is therefore
// bit-identical to the Hypot comparison it replaces, on every input,
// including zero, subnormal, infinite and NaN coordinates. This is the
// filtered-predicate technique of Shewchuk's adaptive predicates.

// sqBand is the relative half-width of the band around a squared bound in
// which a squared length does not decide a comparison. The rounding errors it
// must absorb are below 1e-15; the band also keeps the filter exact for the
// derived bounds of Orientation and DiscsTangent, whose own roundings add a
// few more ulps.
const sqBand = 1e-12

// sqMin and sqMax delimit the squared bounds the filter trusts. For a bound
// between them, the squared bound is a normal float64, a square that
// overflows to +Inf belongs to a length far beyond the bound, and the
// absolute error of squares that underflow (below 1e-307) is far inside the
// band.
const (
	sqMin = 1e-290
	sqMax = 1e290
)

// undecided is the value of both squared bounds when the filter must not
// decide: every comparison with NaN is false, so each verdict falls through
// to math.Hypot.
var undecided = math.NaN()

// sqBounds returns the squared lengths at or below which a length is
// certainly shorter than sqrt(t2), and above which it is certainly longer.
// Out of the trusted range both are undecided.
func sqBounds(t2 float64) (lo2, hi2 float64) {
	if t2 >= sqMin && t2 <= sqMax {
		return t2 * (1 - sqBand), t2 * (1 + sqBand)
	}
	return undecided, undecided
}

// DistBound decides whether lengths are at most a fixed bound tol. It is
// built once per scan with NewDistBound and answers exactly as the
// comparison math.Hypot(x, y) <= tol would, calling math.Hypot only when
// the squared length cannot decide.
type DistBound struct {
	tol      float64
	lo2, hi2 float64 // squared lengths deciding "within" (<= lo2) and "beyond" (> hi2)
}

// NewDistBound returns the filter for the bound tol. Any tol is accepted:
// outside [1e-145, 1e145], and for tol <= 0 or NaN, the filter decides
// nothing and every verdict falls through to math.Hypot.
func NewDistBound(tol float64) DistBound {
	if !(tol > 0) {
		// A negative tol would square to a positive bound.
		return DistBound{tol: tol, lo2: undecided, hi2: undecided}
	}
	lo2, hi2 := sqBounds(tol * tol)
	return DistBound{tol: tol, lo2: lo2, hi2: hi2}
}

// decide classifies the squared length s: ok is false inside the band (or
// for a NaN s), where only math.Hypot can tell.
func (b DistBound) decide(s float64) (within, ok bool) {
	switch {
	case s <= b.lo2:
		return true, true
	case s > b.hi2:
		return false, true
	}
	return false, false
}

// Within reports whether v.Norm() <= tol.
func (b DistBound) Within(v Vec) bool {
	if within, ok := b.decide(v.Norm2()); ok {
		return within
	}
	return v.Norm() <= b.tol
}

// SegmentWithin reports whether DistancePointSegment(p, a, c) <= tol.
func (b DistBound) SegmentWithin(p, a, c Vec) bool {
	return b.Within(p.Sub(ClosestPointOnSegment(p, a, c)))
}

// NormLess reports whether u.Norm() < v.Norm(), calling math.Hypot only when
// the squared lengths are too close to call.
func NormLess(u, v Vec) bool {
	su := u.Norm2()
	lo2, hi2 := sqBounds(v.Norm2())
	switch {
	case su < lo2:
		return true
	case su > hi2:
		return false
	}
	return u.Norm() < v.Norm()
}
