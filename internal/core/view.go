package core

import (
	"math"
	"slices"
	"sort"

	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/geom"
)

// View is the input to the local algorithm: the snapshot a robot took in its
// Look state. Self is the observing robot's own center, Others are the
// centers of the other robots it can see, and N is the total number of robots
// in the system (which the paper assumes every robot knows).
//
// A View built by NewViewWithMemo also carries a memo: two facts about its
// point set that the builder already knew. The memo is a function of the
// view's points, so it never changes what Decide returns, only how much
// Decide recomputes. Views built any other way carry none.
type View struct {
	Self   geom.Vec
	Others []geom.Vec
	N      int

	memo             bool
	memoFullyVisible bool       // vision.Default.FullyVisible of the points
	memoCorners      []geom.Vec // geom.ConvexHull of the points; owned
}

// NewView builds a View, copying the slice of other centers.
func NewView(self geom.Vec, others []geom.Vec, n int) View {
	return View{Self: self, Others: append([]geom.Vec(nil), others...), N: n}
}

// NewViewWithMemo is NewView for a view that holds the whole configuration,
// with two facts about that point set which the caller has already computed:
// fullyVisible must be vision.Default.FullyVisible of the points, and
// corners must be geom.ConvexHull of the points, in any input order. Decide
// then takes both from the memo instead of recomputing them, and returns
// exactly what it returns for NewView(self, others, n):
//
//   - FullyVisible asks every ordered pair of points, and each pair's
//     verdict is an OR over the other points as blockers, so permuting the
//     points cannot change it (the grid path is pinned identical to the flat
//     scan).
//   - ConvexHull sorts the deduplicated points by lexLess, a strict total
//     order, and walks the monotone chain over that one sorted sequence, so
//     its corners do not depend on input order either. Dedup removes
//     nothing: robots do not overlap, so view points are more than geom.Eps
//     apart. The exception is two or fewer points, which ConvexHull returns
//     in input order, so such views get no memo (their verdict is trivially
//     true and their hull is free anyway).
//
// The memo is kept only when the view sees all n robots (1+len(others) == n)
// and n >= 3; otherwise this is NewView. Only the hull corners and the
// verdict are memoized: the centroid and the on-hull order still come from
// the view, because both depend on its point order (the summation order of
// the centroid, the ties of a stable sort).
//
// The corners are copied, like others, so the View owns its memo: it stays
// valid after the caller reuses its buffers, and a View kept by value and
// decided again later returns the same decision.
func NewViewWithMemo(self geom.Vec, others []geom.Vec, n int, fullyVisible bool, corners []geom.Vec) View {
	k := len(others)
	if k+1 != n || n < 3 {
		return NewView(self, others, n)
	}
	// One allocation backs both slices; the full slice expression keeps an
	// append to Others from writing over the corners.
	buf := make([]geom.Vec, k+len(corners))
	copy(buf, others)
	copy(buf[k:], corners)
	return View{
		Self: self, Others: buf[:k:k], N: n,
		memo: true, memoFullyVisible: fullyVisible, memoCorners: buf[k:],
	}
}

// HasMemo reports whether the view carries a memo (see NewViewWithMemo).
func (v View) HasMemo() bool { return v.memo }

// All returns every visible center including Self (Self first).
func (v View) All() []geom.Vec {
	out := make([]geom.Vec, 0, len(v.Others)+1)
	out = append(out, v.Self)
	out = append(out, v.Others...)
	return out
}

// Count returns the number of robots visible in the view, including the
// observer itself.
func (v View) Count() int { return len(v.Others) + 1 }

// SeesAll reports whether the view contains all N robots.
func (v View) SeesAll() bool { return v.Count() >= v.N }

// Epsilon returns the ε used in the algorithm's 1/(2n)−ε constructions. The
// paper leaves ε unspecified; this implementation uses 1/(8n).
func Epsilon(n int) float64 {
	if n < 1 {
		n = 1
	}
	return 1 / (8 * float64(n))
}

// HalfStep returns 1/(2n) − ε, the standard small displacement used by the
// algorithm's procedures.
func HalfStep(n int) float64 {
	if n < 1 {
		n = 1
	}
	return 1/(2*float64(n)) - Epsilon(n)
}

// OnHullSlack returns the tolerance within which a robot counts as being on
// the convex hull boundary for the purposes of the Compute algorithm. See the
// package documentation for why this is 1/(2n) rather than an exact test.
func OnHullSlack(n int) float64 {
	if n < 1 {
		n = 1
	}
	return 1 / (2 * float64(n))
}

// MinGapForRobot is the minimum center distance between two neighbouring
// robots on the convex hull for a third unit-disc robot to fit between them
// without overlapping either (free gap of one disc diameter).
const MinGapForRobot = 4 * geom.UnitRadius

// hullInfo is the per-decision digest of the view's convex-hull structure.
type hullInfo struct {
	all      []geom.Vec // every visible center (self first)
	corners  []geom.Vec // convex hull corner vertices, CCW
	onHull   []geom.Vec // centers within slack of the hull boundary, CCW order
	selfIdx  int        // index of Self in onHull, or -1
	interior geom.Vec   // a point in the hull interior (centroid of all)
	slack    float64
}

// buildHullInfo computes the hull digest for a view, taking the corners from
// the view's memo when it has one (NewViewWithMemo says why they are the same).
func buildHullInfo(v View) *hullInfo {
	all := v.All()
	slack := OnHullSlack(v.N)
	corners := v.memoCorners
	if !v.memo {
		corners = geom.ConvexHull(all)
	}
	interior := geom.Centroid(all)
	onHull := orderOnHull(all, corners, slack, interior)
	selfIdx := -1
	for i, p := range onHull {
		if p.EqWithin(v.Self, geom.Eps) {
			selfIdx = i
			break
		}
	}
	return &hullInfo{
		all:      all,
		corners:  corners,
		onHull:   onHull,
		selfIdx:  selfIdx,
		interior: interior,
		slack:    slack,
	}
}

// orderOnHull returns the points of all that lie within slack of the boundary
// of the convex hull with the given corners, ordered counter-clockwise by
// angle around the interior point.
func orderOnHull(all, corners []geom.Vec, slack float64, interior geom.Vec) []geom.Vec {
	if len(corners) == 0 {
		return nil
	}
	onHull := make([]geom.Vec, 0, len(all))
	within := geom.NewDistBound(slack)
	switch len(corners) {
	case 1:
		for _, p := range all {
			if within.Within(p.Sub(corners[0])) {
				onHull = append(onHull, p)
			}
		}
		return onHull
	case 2:
		for _, p := range all {
			if within.SegmentWithin(p, corners[0], corners[1]) {
				onHull = append(onHull, p)
			}
		}
		axis := corners[1].Sub(corners[0])
		sort.Slice(onHull, func(i, j int) bool {
			return onHull[i].Sub(corners[0]).Dot(axis) < onHull[j].Sub(corners[0]).Dot(axis)
		})
		return onHull
	}
	// A point is within slack of the boundary when it is within slack of
	// some edge: the same verdict as comparing the minimum edge distance.
	for _, p := range all {
		for i := range corners {
			if within.SegmentWithin(p, corners[i], corners[(i+1)%len(corners)]) {
				onHull = append(onHull, p)
				break
			}
		}
	}
	// Order by position along the hull boundary (edge index plus the
	// fractional position on that edge). Unlike an angular sort around the
	// centroid, this stays stable for thin, nearly-collinear hulls.
	type keyed struct {
		p   geom.Vec
		key float64
	}
	items := make([]keyed, len(onHull))
	for i, p := range onHull {
		items[i] = keyed{p: p, key: boundaryKey(p, corners)}
	}
	// slices.SortStableFunc runs the same insertion-sort-and-SymMerge code
	// as sort.SliceStable, testing cmp(a, b) < 0 wherever that tests less,
	// so a comparator that is negative exactly when a.key < b.key gives the
	// same arrangement, NaN keys included (cmp.Compare would order NaN
	// first and could move them), without the reflective swapper.
	slices.SortStableFunc(items, func(a, b keyed) int {
		switch {
		case a.key < b.key:
			return -1
		case b.key < a.key:
			return 1
		}
		return 0
	})
	for i, it := range items {
		onHull[i] = it.p
	}
	return onHull
}

// boundaryKey maps a point near the hull boundary to a monotone parameter
// along the boundary: (index of the closest edge) + (fraction along it). The
// closest edge is the first one whose distance is smaller than every earlier
// one's (and finite), compared on squared lengths through geom.NormLess.
func boundaryKey(p geom.Vec, corners []geom.Vec) float64 {
	n := len(corners)
	bestEdge := -1
	var bestOff, bestCP geom.Vec // offset p-cp and closest point of the best edge
	for i := 0; i < n; i++ {
		cp := geom.ClosestPointOnSegment(p, corners[i], corners[(i+1)%n])
		off := p.Sub(cp)
		if bestEdge < 0 && finiteNorm(off) || bestEdge >= 0 && geom.NormLess(off, bestOff) {
			bestEdge, bestOff, bestCP = i, off, cp
			if off.X == 0 && off.Y == 0 {
				break // no later edge is strictly closer than a zero offset
			}
		}
	}
	if bestEdge < 0 {
		return 0
	}
	a, b := corners[bestEdge], corners[(bestEdge+1)%n]
	length := a.Dist(b)
	if length < geom.Eps {
		return float64(bestEdge)
	}
	return float64(bestEdge) + geom.Clamp(bestCP.Sub(a).Dot(b.Sub(a))/(length*length), 0, 0.999999)
}

// finiteNorm reports whether v.Norm() < +Inf. A finite squared length means
// coordinates below 1.4e154 in magnitude, whose Hypot is finite.
func finiteNorm(v geom.Vec) bool {
	return v.Norm2() <= math.MaxFloat64 || v.Norm() < math.Inf(1)
}

// SelfOnHull reports whether the observer is on the hull boundary (within
// slack).
func (h *hullInfo) SelfOnHull() bool { return h.selfIdx >= 0 }

// neighbors returns the hull-order neighbours (left = previous CCW, right =
// next CCW) of the on-hull point at index i.
func (h *hullInfo) neighbors(i int) (left, right geom.Vec) {
	n := len(h.onHull)
	if n == 0 {
		return geom.Vec{}, geom.Vec{}
	}
	return h.onHull[(i-1+n)%n], h.onHull[(i+1)%n]
}

// indexOf returns the index of p in the on-hull ordering, or -1.
func (h *hullInfo) indexOf(p geom.Vec) int {
	for i, q := range h.onHull {
		if q.EqWithin(p, geom.Eps) {
			return i
		}
	}
	return -1
}

// inwardNormal returns the unit vector perpendicular to the segment (a, b)
// pointing from the observing robot (at `from`) toward the hull interior. If
// the perpendicular direction is degenerate it falls back to pointing from
// `from` toward the interior point, and as a last resort to the +90°
// perpendicular of (b-a).
func (h *hullInfo) inwardNormal(a, b, from geom.Vec) geom.Vec {
	dir := b.Sub(a)
	if dir.Norm() < geom.Eps {
		d := h.interior.Sub(from)
		if d.Norm() < geom.Eps {
			return geom.V(0, 1)
		}
		return d.Unit()
	}
	perp := dir.Unit().Perp()
	toInterior := h.interior.Sub(from)
	if toInterior.Norm() < geom.Eps {
		// Degenerate hull (all points collinear, observer at the centroid):
		// any perpendicular works; pick the +90° one deterministically so
		// that all robots that share the same view make the same choice.
		return perp
	}
	if perp.Dot(toInterior) < 0 {
		perp = perp.Neg()
	}
	return perp
}

// outwardNormal is the negation of inwardNormal.
func (h *hullInfo) outwardNormal(a, b, from geom.Vec) geom.Vec {
	return h.inwardNormal(a, b, from).Neg()
}

// tangent reports whether the unit discs centered at a and b touch.
func tangent(a, b geom.Vec) bool {
	return geom.DiscsTangent(a, b, geom.UnitRadius, config.ContactEps)
}

// touchingAny reports whether the disc at p touches any disc in pts other
// than itself.
func touchingAny(p geom.Vec, pts []geom.Vec) bool {
	for _, q := range pts {
		if q.EqWithin(p, geom.Eps) {
			continue
		}
		if tangent(p, q) {
			return true
		}
	}
	return false
}

// touchingNeighbours returns the centers in pts whose discs touch the disc at
// p (excluding p itself).
func touchingNeighbours(p geom.Vec, pts []geom.Vec) []geom.Vec {
	var out []geom.Vec
	for _, q := range pts {
		if q.EqWithin(p, geom.Eps) {
			continue
		}
		if tangent(p, q) {
			out = append(out, q)
		}
	}
	return out
}
