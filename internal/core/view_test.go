package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

// distToHullBoundary returns the distance from p to the boundary of the
// convex polygon given by its corner vertices. It is the oracle for the
// on-hull test of orderOnHull, which asks instead whether some edge is within
// slack.
func distToHullBoundary(p geom.Vec, corners []geom.Vec) float64 {
	n := len(corners)
	if n == 0 {
		return math.Inf(1)
	}
	if n == 1 {
		return p.Dist(corners[0])
	}
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		d := geom.DistancePointSegment(p, corners[i], corners[(i+1)%n])
		if d < best {
			best = d
		}
	}
	return best
}

// boundaryKeyHypot is boundaryKey with the nearest edge found by comparing
// math.Hypot distances.
func boundaryKeyHypot(p geom.Vec, corners []geom.Vec) float64 {
	n := len(corners)
	bestEdge := 0
	bestDist := math.Inf(1)
	bestT := 0.0
	for i := 0; i < n; i++ {
		a := corners[i]
		b := corners[(i+1)%n]
		cp := geom.ClosestPointOnSegment(p, a, b)
		d := p.Dist(cp)
		if d < bestDist {
			bestDist = d
			bestEdge = i
			length := a.Dist(b)
			if length < geom.Eps {
				bestT = 0
			} else {
				bestT = geom.Clamp(cp.Sub(a).Dot(b.Sub(a))/(length*length), 0, 0.999999)
			}
		}
	}
	return float64(bestEdge) + bestT
}

// orderOnHullHypot is orderOnHull with every distance test on math.Hypot.
func orderOnHullHypot(all, corners []geom.Vec, slack float64) []geom.Vec {
	var onHull []geom.Vec
	for _, p := range all {
		d := distToHullBoundary(p, corners)
		if len(corners) == 2 {
			d = geom.DistancePointSegment(p, corners[0], corners[1])
		}
		if len(corners) > 0 && d <= slack {
			onHull = append(onHull, p)
		}
	}
	switch len(corners) {
	case 0, 1:
		return onHull
	case 2:
		axis := corners[1].Sub(corners[0])
		sort.Slice(onHull, func(i, j int) bool {
			return onHull[i].Sub(corners[0]).Dot(axis) < onHull[j].Sub(corners[0]).Dot(axis)
		})
		return onHull
	}
	keys := make([]float64, len(onHull))
	for i, p := range onHull {
		keys[i] = boundaryKeyHypot(p, corners)
	}
	sort.Stable(byKey{onHull, keys})
	return onHull
}

// byKey sorts points by their boundary keys.
type byKey struct {
	pts  []geom.Vec
	keys []float64
}

func (s byKey) Len() int           { return len(s.pts) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.pts[i], s.pts[j] = s.pts[j], s.pts[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// TestOrderOnHullMatchesHypot compares orderOnHull and boundaryKey, whose
// distance tests run on squared lengths, with their Hypot statements on
// random hulls whose extra points sit on corners, on edges and a few ulps
// either side of the slack distance from an edge.
func TestOrderOnHullMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(8)
		pts := make([]geom.Vec, n)
		for i := range pts {
			pts[i] = geom.V(20*rng.Float64()-10, 20*rng.Float64()-10)
		}
		if iter%5 == 0 {
			for i := range pts {
				pts[i] = geom.V(pts[i].X, 0.5*pts[i].X+1) // collinear: a two-corner hull
			}
		}
		corners := geom.ConvexHull(pts)
		slack := OnHullSlack(n)
		all := append([]geom.Vec(nil), pts...)
		for i := range corners {
			a, b := corners[i], corners[(i+1)%len(corners)]
			mid := a.Lerp(b, rng.Float64())
			normal := b.Sub(a).Unit().Perp()
			below, above := slack, slack
			for k := 0; k <= 3; k++ {
				all = append(all, mid.Add(normal.Scale(below)), mid.Sub(normal.Scale(above)))
				below, above = math.Nextafter(below, 0), math.Nextafter(above, math.Inf(1))
			}
			all = append(all, mid, a)
		}
		for _, s := range []float64{slack, math.Inf(1), 0, 1e-9} {
			got := orderOnHull(all, corners, s, geom.Centroid(all))
			want := orderOnHullHypot(all, corners, s)
			if len(got) != len(want) {
				t.Fatalf("iter %d slack %v: %d points on hull, Hypot statement has %d", iter, s, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) || math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
					t.Fatalf("iter %d slack %v: point %d is %v, Hypot statement has %v", iter, s, i, got[i], want[i])
				}
			}
		}
		if len(corners) >= 3 {
			for _, p := range all {
				if got, want := boundaryKey(p, corners), boundaryKeyHypot(p, corners); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("iter %d: boundaryKey(%v) = %v, Hypot statement gives %v", iter, p, got, want)
				}
			}
		}
	}
}
