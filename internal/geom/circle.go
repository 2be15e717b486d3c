package geom

import "math"

// UnitRadius is the radius of a fat robot's disc, per the paper's model
// (robots are closed unit discs).
const UnitRadius = 1.0

// Circle is a circle (or closed disc, depending on usage) with a center and
// radius.
type Circle struct {
	Center Vec
	Radius float64
}

// UnitDisc returns the unit-radius circle centered at c, i.e. the footprint of
// a fat robot whose center is c.
func UnitDisc(c Vec) Circle { return Circle{Center: c, Radius: UnitRadius} }

// Contains reports whether p lies in the closed disc.
func (c Circle) Contains(p Vec) bool {
	return c.Center.Dist(p) <= c.Radius+Eps
}

// ContainsStrict reports whether p lies strictly inside the open disc, with a
// tolerance margin: points within tol of the boundary are treated as on the
// boundary (and therefore not strictly inside).
func (c Circle) ContainsStrict(p Vec, tol float64) bool {
	return c.Center.Dist(p) < c.Radius-tol
}

// OnBoundary reports whether p is within tol of the circle's boundary.
func (c Circle) OnBoundary(p Vec, tol float64) bool {
	return math.Abs(c.Center.Dist(p)-c.Radius) <= tol
}

// PointAtAngle returns the boundary point at the given angle (radians,
// measured counter-clockwise from the positive x-axis).
func (c Circle) PointAtAngle(theta float64) Vec {
	s, cos := math.Sincos(theta)
	return Vec{c.Center.X + c.Radius*cos, c.Center.Y + c.Radius*s}
}

// DiscsOverlap reports whether the open discs around a and b (both of radius
// r) overlap, i.e. their centers are closer than 2r (minus tolerance). Two
// tangent discs do NOT overlap.
func DiscsOverlap(a, b Vec, r, tol float64) bool {
	return a.Dist(b) < 2*r-tol
}

// DiscsTangent reports whether the discs of radius r centered at a and b are
// tangent within tolerance tol (center distance within tol of 2r).
//
// The test is decided on the squared center distance against the annulus
// bounds 2r-tol and 2r+tol whenever 0 <= tol <= r; there the annulus is
// wide enough next to 2r that a length outside the filter band around each
// bound also lands on the same side after the rounded subtraction.
func DiscsTangent(a, b Vec, r, tol float64) bool {
	d := a.Sub(b)
	if 0 <= tol && tol <= r {
		s := d.Norm2()
		inner, innerOK := NewDistBound(2*r - tol).decide(s)
		outer, outerOK := NewDistBound(2*r + tol).decide(s)
		if innerOK && inner || outerOK && !outer {
			return false
		}
		if innerOK && outerOK {
			return true
		}
	}
	return math.Abs(d.Norm()-2*r) <= tol
}

// SegmentIntersectsDisc reports whether the closed segment [a, b] intersects
// the OPEN disc of radius r around center. Touching the boundary (tangency)
// does not count as an intersection; tol shrinks the disc slightly to make
// the test robust against floating-point noise on exact tangencies.
func SegmentIntersectsDisc(a, b, center Vec, r, tol float64) bool {
	return DistancePointSegment(center, a, b) < r-tol
}

// FirstDiscContact returns the smallest t in [0, limit] at which a disc of
// radius r starting at p and moving along the unit vector u becomes tangent
// to the disc of radius r at q (center distance 2r). hits is false if no
// such t exists within the limit or the mover is heading away. contactEps is
// the tangency tolerance: discs already within 2r+contactEps are treated as
// touching, and block immediately only when the mover approaches.
func FirstDiscContact(p, u, q Vec, r, limit, contactEps float64) (t float64, hits bool) {
	contact := 2 * r
	f := p.Sub(q)
	dist := f.Norm()
	approachRate := f.Dot(u) // negative when approaching
	if dist <= contact+contactEps {
		// Already touching: blocked immediately only if moving closer.
		if approachRate < -Eps {
			return 0, true
		}
		return 0, false
	}
	// Solve |f + t*u|^2 = contact^2.
	b := 2 * approachRate
	c := f.Norm2() - contact*contact
	disc := b*b - 4*c
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	t1 := (-b - sq) / 2
	if t1 < 0 || t1 > limit {
		return 0, false
	}
	return t1, true
}

// SegmentCircleIntersections returns the intersection points of the closed
// segment [a, b] with the circle boundary (0, 1 or 2 points).
func SegmentCircleIntersections(a, b Vec, c Circle) []Vec {
	d := b.Sub(a)
	f := a.Sub(c.Center)
	A := d.Dot(d)
	if A < Eps*Eps {
		if c.OnBoundary(a, Eps) {
			return []Vec{a}
		}
		return nil
	}
	B := 2 * f.Dot(d)
	C := f.Dot(f) - c.Radius*c.Radius
	disc := B*B - 4*A*C
	if disc < 0 {
		return nil
	}
	sq := math.Sqrt(disc)
	var out []Vec
	for _, t := range []float64{(-B - sq) / (2 * A), (-B + sq) / (2 * A)} {
		if t < -Eps || t > 1+Eps {
			continue
		}
		p := a.Add(d.Scale(Clamp(t, 0, 1)))
		dup := false
		for _, q := range out {
			if q.EqWithin(p, Eps) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// LineCircleIntersections returns the intersection points of the infinite
// line through a and b with the circle boundary (0, 1 or 2 points).
func LineCircleIntersections(a, b Vec, c Circle) []Vec {
	d := b.Sub(a)
	f := a.Sub(c.Center)
	A := d.Dot(d)
	if A < Eps*Eps {
		return nil
	}
	B := 2 * f.Dot(d)
	C := f.Dot(f) - c.Radius*c.Radius
	disc := B*B - 4*A*C
	if disc < 0 {
		return nil
	}
	sq := math.Sqrt(disc)
	p1 := a.Add(d.Scale((-B - sq) / (2 * A)))
	p2 := a.Add(d.Scale((-B + sq) / (2 * A)))
	if p1.EqWithin(p2, Eps) {
		return []Vec{p1}
	}
	return []Vec{p1, p2}
}

// CircleCircleIntersections returns the intersection points of the boundaries
// of two circles (0, 1 or 2 points).
func CircleCircleIntersections(c1, c2 Circle) []Vec {
	d := c1.Center.Dist(c2.Center)
	if d < Eps {
		return nil // concentric (or identical): none or infinitely many
	}
	if d > c1.Radius+c2.Radius+Eps || d < math.Abs(c1.Radius-c2.Radius)-Eps {
		return nil
	}
	a := (c1.Radius*c1.Radius - c2.Radius*c2.Radius + d*d) / (2 * d)
	h2 := c1.Radius*c1.Radius - a*a
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	dir := c2.Center.Sub(c1.Center).Unit()
	mid := c1.Center.Add(dir.Scale(a))
	if h < Eps {
		return []Vec{mid}
	}
	off := dir.Perp().Scale(h)
	return []Vec{mid.Add(off), mid.Sub(off)}
}

// OuterTangentSegments returns the two outer common tangent segments between
// two circles of equal radius r centered at a and b. Each segment connects
// the tangency point on circle a to the tangency point on circle b. For
// coincident centers it returns nil.
//
// For equal radii the outer tangents are simply the two translates of the
// center segment by +-r along the perpendicular direction.
func OuterTangentSegments(a, b Vec, r float64) []Segment {
	return AppendOuterTangentSegments(nil, a, b, r)
}

// AppendOuterTangentSegments appends the two outer common tangent segments
// (see OuterTangentSegments) to dst and returns the extended slice, appending
// nothing for coincident centers. It exists so hot paths can reuse a segment
// buffer instead of allocating one per pair query.
func AppendOuterTangentSegments(dst []Segment, a, b Vec, r float64) []Segment {
	d := b.Sub(a)
	if d.Norm() < Eps {
		return dst
	}
	n := d.Unit().Perp().Scale(r)
	return append(dst,
		Segment{A: a.Add(n), B: b.Add(n)},
		Segment{A: a.Sub(n), B: b.Sub(n)},
	)
}

// InnerTangentSegments returns the inner common tangent segments between two
// circles of equal radius r centered at a and b (the tangents that cross
// between the circles). They exist only when the discs are disjoint (center
// distance > 2r); otherwise nil is returned.
func InnerTangentSegments(a, b Vec, r float64) []Segment {
	d := a.Dist(b)
	if d <= 2*r+Eps {
		return nil
	}
	mid := Midpoint(a, b)
	// Angle between the center line and the tangent line at the tangency
	// point: sin(alpha) = 2r/d for the inner tangent of equal circles.
	sin := 2 * r / d
	if sin > 1 {
		return nil
	}
	alpha := math.Asin(sin)
	dir := b.Sub(a).Unit()
	var segs []Segment
	for _, sgn := range []float64{1, -1} {
		// Tangency point on circle a: rotate dir by (pi/2 - alpha)*sgn... use
		// direct construction: the tangent from a touches its own circle at a
		// point whose radius vector is perpendicular to the tangent line. The
		// inner tangent passes through the midpoint of the centers.
		// Direction of the tangent line through mid:
		tangentDir := dir.Rotate(sgn * alpha)
		// Tangency points are the feet of perpendiculars from each center.
		pa := ProjectPointOnLine(a, mid, mid.Add(tangentDir))
		pb := ProjectPointOnLine(b, mid, mid.Add(tangentDir))
		segs = append(segs, Segment{A: pa, B: pb})
	}
	return segs
}
