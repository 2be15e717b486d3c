package geom

import "math"

// Orient is the sign of the orientation predicate for an ordered point
// triple.
type Orient int

// Orientation classes. Collinear is deliberately the zero value so that a
// degenerate triple is the default.
const (
	Collinear        Orient = 0
	CounterClockwise Orient = 1
	Clockwise        Orient = -1
)

// Orientation classifies the ordered triple (a, b, c): CounterClockwise if c
// lies to the left of the directed line a->b, Clockwise if to the right, and
// Collinear if the three points are collinear within tolerance Eps (scaled by
// the magnitude of the involved coordinates for robustness).
//
// The tolerance is Eps*max(1, |b-a|, |c-a|) and the triple is collinear when
// |cross| does not exceed it. Rounded multiplication by Eps is monotone, so
// that is |cross| > Eps and |cross| > Eps*|b-a| and |cross| > Eps*|c-a|; each
// length test is decided through DistBound on the bound |cross|/Eps, falling
// back to the product with math.Hypot inside the band.
func Orientation(a, b, c Vec) Orient {
	ab, ac := b.Sub(a), c.Sub(a)
	cross := ab.Cross(ac)
	abs := math.Abs(cross)
	if !(abs > Eps) {
		return Collinear
	}
	// Scale the tolerance with the extent of the triangle so the predicate is
	// meaningful both near the origin and far from it.
	bound := NewDistBound(abs / Eps)
	if !epsScaledBelow(bound, ab, abs) || !epsScaledBelow(bound, ac, abs) {
		return Collinear
	}
	if cross > 0 {
		return CounterClockwise
	}
	return Clockwise
}

// epsScaledBelow reports whether Eps*v.Norm() < abs, given the bound
// abs/Eps. Outside the band a length at most 1-5e-13 of the bound scales to
// less than abs and one beyond 1+5e-13 of it to more, whatever the roundings
// of the quotient, the product and math.Hypot.
func epsScaledBelow(bound DistBound, v Vec, abs float64) bool {
	if within, ok := bound.decide(v.Norm2()); ok {
		return within
	}
	return Eps*v.Norm() < abs
}

// CollinearPts reports whether a, b, c lie on a single straight line within
// the default tolerance.
func CollinearPts(a, b, c Vec) bool { return Orientation(a, b, c) == Collinear }

// CollinearWithin reports whether the perpendicular distance from c to the
// infinite line through a and b is at most tol. If a and b coincide it
// reports whether c is within tol of that point.
func CollinearWithin(a, b, c Vec, tol float64) bool {
	return DistancePointLine(c, a, b) <= tol
}

// DistancePointLine returns the perpendicular distance from p to the infinite
// line through a and b. If a == b it returns the distance from p to a.
func DistancePointLine(p, a, b Vec) float64 {
	ab := b.Sub(a)
	n := ab.Norm()
	if n < Eps {
		return p.Dist(a)
	}
	return math.Abs(ab.Cross(p.Sub(a))) / n
}

// DistancePointSegment returns the distance from p to the closed segment
// [a, b].
func DistancePointSegment(p, a, b Vec) float64 {
	return p.Dist(ClosestPointOnSegment(p, a, b))
}

// ClosestPointOnSegment returns the point of the closed segment [a, b] that is
// closest to p.
func ClosestPointOnSegment(p, a, b Vec) Vec {
	ab := b.Sub(a)
	den := ab.Norm2()
	if den < Eps*Eps {
		return a
	}
	t := Clamp(p.Sub(a).Dot(ab)/den, 0, 1)
	return a.Add(ab.Scale(t))
}

// ProjectPointOnLine returns the orthogonal projection of p onto the infinite
// line through a and b. If a == b it returns a.
func ProjectPointOnLine(p, a, b Vec) Vec {
	ab := b.Sub(a)
	den := ab.Norm2()
	if den < Eps*Eps {
		return a
	}
	t := p.Sub(a).Dot(ab) / den
	return a.Add(ab.Scale(t))
}

// Between reports whether point p lies on the closed segment [a, b] within
// the default tolerance.
func Between(a, b, p Vec) bool {
	return DistancePointSegment(p, a, b) <= Eps*math.Max(1, a.Dist(b))
}

// AngleAt returns the interior angle at vertex b of the path a-b-c, in
// radians in [0, pi].
func AngleAt(a, b, c Vec) float64 {
	u := a.Sub(b)
	w := c.Sub(b)
	nu, nw := u.Norm(), w.Norm()
	if nu < Eps || nw < Eps {
		return 0
	}
	cos := Clamp(u.Dot(w)/(nu*nw), -1, 1)
	return math.Acos(cos)
}

// NormalizeAngle maps an angle to the interval (-pi, pi].
func NormalizeAngle(a float64) float64 {
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	return a
}

// AngularDiff returns the absolute smallest difference between two angles,
// in [0, pi].
func AngularDiff(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a - b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}
