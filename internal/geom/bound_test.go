package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The squared-length filter (bound.go) must reproduce the verdict of the
// Hypot expression it replaces on every input. These differential tests
// compare each filtered predicate with that expression on random inputs,
// on bounds a few ulps either side of an exact length, and on the special
// values where squaring loses precision: zero, subnormals, magnitudes of
// 1e±160, NaN and ±Inf. A filter band that is too narrow (0, say) fails
// the ulp cases.

// orientationHypot is Orientation as stated: the tolerance scales with
// math.Hypot of both edges.
func orientationHypot(a, b, c Vec) Orient {
	cross := b.Sub(a).Cross(c.Sub(a))
	tol := Eps * math.Max(1, math.Max(b.Sub(a).Norm(), c.Sub(a).Norm()))
	switch {
	case cross > tol:
		return CounterClockwise
	case cross < -tol:
		return Clockwise
	default:
		return Collinear
	}
}

// nudge returns x moved k ulps toward +Inf (k > 0) or -Inf (k < 0).
func nudge(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// specialFloats are coordinates and bounds where the squares underflow,
// overflow or carry no value.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
	1e-160, -1e-160, 1e-145, 1e-9, 1, 2, 1e145, 1e160, -1e160, 1e300,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// randVec returns a vector of random direction and the given length scale.
func randVec(rng *rand.Rand, scale float64) Vec {
	s, c := math.Sincos(rng.Float64() * 2 * math.Pi)
	return V(c*scale, s*scale)
}

// randScale returns a length scale log-uniform in [1e-12, 1e6].
func randScale(rng *rand.Rand) float64 { return math.Pow(10, -12+18*rng.Float64()) }

// checkDistBound compares every DistBound form on v against tol.
func checkDistBound(t *testing.T, v Vec, tol float64) {
	t.Helper()
	want := v.Norm() <= tol
	if got := NewDistBound(tol).Within(v); got != want {
		t.Fatalf("NewDistBound(%v).Within(%v) = %v, Hypot says %v", tol, v, got, want)
	}
	w := V(1, -2)
	p := w.Add(v)
	if got, want := p.EqWithin(w, tol), p.Dist(w) <= tol; got != want {
		t.Fatalf("%v.EqWithin(%v, %v) = %v, Hypot says %v", p, w, tol, got, want)
	}
}

func TestDistBoundMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := randVec(rng, randScale(rng))
		h := v.Norm()
		checkDistBound(t, v, h)
		for k := 1; k <= 4; k++ {
			checkDistBound(t, v, nudge(h, k))
			checkDistBound(t, v, nudge(h, -k))
		}
		checkDistBound(t, v, h*(1+rng.NormFloat64()))
	}
	for _, x := range specialFloats {
		for _, y := range specialFloats {
			v := V(x, y)
			for _, tol := range specialFloats {
				checkDistBound(t, v, tol)
			}
			if h := v.Norm(); !math.IsNaN(h) {
				for k := -4; k <= 4; k++ {
					checkDistBound(t, v, nudge(h, k))
				}
			}
		}
	}
}

func TestSegmentWithinMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(p, a, c Vec, tol float64) {
		t.Helper()
		want := DistancePointSegment(p, a, c) <= tol
		if got := NewDistBound(tol).SegmentWithin(p, a, c); got != want {
			t.Fatalf("SegmentWithin(%v, %v, %v; %v) = %v, Hypot says %v", p, a, c, tol, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		scale := randScale(rng)
		a := randVec(rng, 10*scale)
		c := a.Add(randVec(rng, scale*(1+rng.Float64())))
		p := a.Lerp(c, 1.4*rng.Float64()-0.2).Add(randVec(rng, scale*rng.Float64()))
		d := DistancePointSegment(p, a, c)
		for k := -4; k <= 4; k++ {
			check(p, a, c, nudge(d, k))
		}
	}
	for _, x := range specialFloats {
		for _, tol := range specialFloats {
			check(V(x, 1), V(0, 0), V(3, 0), tol)
			check(V(1, x), V(0, 0), V(3, 0), tol)
			check(V(0, 1), V(0, 0), V(x, x), tol)
		}
	}
}

func TestNormLessMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(u, v Vec) {
		t.Helper()
		if got, want := NormLess(u, v), u.Norm() < v.Norm(); got != want {
			t.Fatalf("NormLess(%v, %v) = %v, Hypot says %v", u, v, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		u := randVec(rng, randScale(rng))
		check(u, V(u.Y, u.X)) // same length, Hypot may differ in the last ulp
		check(V(u.Y, u.X), u)
		for k := -4; k <= 4; k++ {
			v := V(nudge(u.X, k), u.Y)
			check(u, v)
			check(v, u)
		}
		check(u, randVec(rng, randScale(rng)))
	}
	for _, x := range specialFloats {
		for _, y := range specialFloats {
			for _, z := range specialFloats {
				check(V(x, y), V(z, 1))
				check(V(z, 1), V(x, y))
			}
		}
	}
}

func TestOrientationMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(a, b, c Vec) {
		t.Helper()
		if got, want := Orientation(a, b, c), orientationHypot(a, b, c); got != want {
			t.Fatalf("Orientation(%v, %v, %v) = %v, Hypot says %v", a, b, c, got, want)
		}
	}
	// rot turns v by a quarter turn k times, exactly.
	rot := func(v Vec, k int) Vec {
		for ; k > 0; k-- {
			v = v.Perp()
		}
		return v
	}
	for i := 0; i < 20000; i++ {
		// Triples whose |cross| sits within a few ulps of the tolerance.
		// With a at the origin and b on an axis the cross product is one
		// rounded product, n1*off. When c is no farther than b the
		// tolerance is Eps*n1, so off is Eps give or take a few ulps; when
		// c is farther the tolerance is Eps*|c|, so off is Eps*t/n1.
		k := rng.Intn(4)
		n1 := 1 + 99*rng.Float64()
		b := rot(V(n1, 0), k)
		t1 := n1 * rng.Float64()
		check(V(0, 0), b, rot(V(t1, nudge(Eps, rng.Intn(9)-4)), k))
		t2 := n1 * (1 + 9*rng.Float64())
		check(V(0, 0), b, rot(V(t2, nudge(Eps*t2/n1, rng.Intn(9)-4)), k))
		check(V(0, 0), rot(V(t2, nudge(Eps*t2/n1, rng.Intn(9)-4)), k), b)
		// Short edges: the tolerance is Eps itself.
		check(V(0, 0), rot(V(rng.Float64(), 0), k), rot(V(0.5, nudge(Eps, rng.Intn(9)-4)), k))
		// Generic triples.
		check(randVec(rng, randScale(rng)), randVec(rng, randScale(rng)), randVec(rng, randScale(rng)))
	}
	for _, x := range specialFloats {
		for _, y := range specialFloats {
			check(V(0, 0), V(x, 1), V(1, y))
			check(V(x, y), V(1, 0), V(0, 1))
			check(V(0, 0), V(x, y), V(x, 1e-9))
		}
	}
}

func TestDiscsTangentMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(a, b Vec, r, tol float64) {
		t.Helper()
		want := math.Abs(a.Dist(b)-2*r) <= tol
		if got := DiscsTangent(a, b, r, tol); got != want {
			t.Fatalf("DiscsTangent(%v, %v, %v, %v) = %v, Hypot says %v", a, b, r, tol, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		r := 1.0
		if i%2 == 1 {
			r = randScale(rng)
		}
		tol := r * math.Pow(10, -10*rng.Float64())
		if i%3 == 0 {
			tol = 1e-7 // the simulator's contact tolerance
		}
		a := randVec(rng, 10*r*rng.Float64())
		dir := randVec(rng, 1)
		for _, edge := range []float64{2*r - tol, 2*r + tol} {
			for k := -4; k <= 4; k++ {
				check(a, a.Add(dir.Scale(nudge(edge, k))), r, tol)
			}
			// Lengths a few ulps of the bound apart land on both sides of
			// tol after the rounded subtraction too.
			d := a.Add(dir.Scale(edge))
			for k := -4; k <= 4; k++ {
				check(a, V(nudge(d.X, k), d.Y), r, tol)
			}
		}
		check(a, a.Add(dir.Scale(2*r*(1+rng.NormFloat64()*1e-6))), r, tol)
		check(a, a.Add(dir.Scale(2*r)), r, 2*r*rng.Float64()) // tol beyond r: unfiltered
	}
	for _, x := range specialFloats {
		for _, r := range specialFloats {
			for _, tol := range specialFloats {
				check(V(0, 0), V(x, 2), r, tol)
			}
		}
	}
}
