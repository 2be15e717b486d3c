package vision

import (
	"fmt"
	"math"

	"github.com/fatgather/fatgather/internal/geom"
)

// DefaultBoundarySamples is the default number of boundary points sampled on
// each disc (per side) when generating candidate sight lines, in addition to
// the center-center and common-tangent candidates.
const DefaultBoundarySamples = 8

// BlockTol is the numerical cushion used when deciding whether a candidate
// sight line is blocked by a disc. The paper's robots are closed discs, so a
// segment that merely grazes another robot's boundary already "contains a
// point of another robot" and is blocked; a candidate is therefore blocked
// when its distance to a blocker's center is at most radius+BlockTol.
const BlockTol = 1e-9

// Options configures the visibility model.
type Options struct {
	// Radius is the robot disc radius. Zero means geom.UnitRadius.
	Radius float64
	// BoundarySamples is the number of extra boundary points sampled per disc
	// for candidate sight lines. Zero means DefaultBoundarySamples.
	BoundarySamples int
}

func (o Options) radius() float64 {
	if o.Radius <= 0 {
		return geom.UnitRadius
	}
	return o.Radius
}

func (o Options) samples() int {
	if o.BoundarySamples <= 0 {
		return DefaultBoundarySamples
	}
	return o.BoundarySamples
}

// Model answers visibility queries for a fixed set of disc centers.
// The zero value uses unit-radius discs and the default sampling density.
type Model struct {
	opts Options
}

// New returns a visibility model with the given options.
func New(opts Options) *Model { return &Model{opts: opts} }

// Fingerprint returns a stable identity string for the model's effective
// parameters, used when a model is part of a persistent cell key: two models
// with equal fingerprints answer every query identically.
func (m *Model) Fingerprint() string {
	return fmt.Sprintf("r=%g,s=%d", m.opts.radius(), m.opts.samples())
}

// Default is a visibility model with default options (unit discs).
var Default = New(Options{})

// Radius returns the effective disc radius of the model (geom.UnitRadius for
// the zero options). Exposed so callers that cache visibility state (see
// internal/geom/incr) can reason about blocking distances with the same
// radius the model uses.
func (m *Model) Radius() float64 { return m.opts.radius() }

// Visible reports whether the robot centered at centers[i] can see the robot
// centered at centers[j], given that every entry of centers is an opaque
// closed disc. A robot always sees itself. Candidate sight lines are
// generated lazily and the scan stops at the first clear one (see
// sightLines), skipping the discs i and j in place, so the query allocates
// nothing.
func (m *Model) Visible(centers []geom.Vec, i, j int) bool {
	if i == j {
		return true
	}
	if len(centers) <= 2 {
		// No third disc exists to block the pair.
		return true
	}
	r := m.opts.radius()
	lines := m.sightLines(centers[i], centers[j], r)
	for seg, ok := lines.next(); ok; seg, ok = lines.next() {
		if !segmentBlockedExcept(seg, centers, i, j, r) {
			return true
		}
	}
	return false
}

// VisiblePair reports whether two discs at a and b can see each other given
// the obstacle discs (which must not include a or b). Like Visible it stops
// at the first clear candidate and allocates nothing.
func (m *Model) VisiblePair(a, b geom.Vec, obstacles []geom.Vec) bool {
	if len(obstacles) == 0 {
		return true
	}
	r := m.opts.radius()
	lines := m.sightLines(a, b, r)
	for seg, ok := lines.next(); ok; seg, ok = lines.next() {
		if !segmentBlocked(seg, obstacles, r) {
			return true
		}
	}
	return false
}

// View returns the indices of all robots visible from robot i (always
// including i itself), in increasing index order. Large configurations are
// answered through a uniform-grid index (see Index); the result is identical
// to the flat scan.
func (m *Model) View(centers []geom.Vec, i int) []int {
	if len(centers) >= GridThreshold {
		return m.NewIndex(centers).View(i)
	}
	out := make([]int, 0, len(centers))
	for j := range centers {
		if m.Visible(centers, i, j) {
			out = append(out, j)
		}
	}
	return out
}

// ViewCenters returns the centers of all robots visible from robot i
// (including robot i's own center).
func (m *Model) ViewCenters(centers []geom.Vec, i int) []geom.Vec {
	idx := m.View(centers, i)
	out := make([]geom.Vec, 0, len(idx))
	for _, j := range idx {
		out = append(out, centers[j])
	}
	return out
}

// FullVisibility reports whether robot i sees every robot in the
// configuration.
func (m *Model) FullVisibility(centers []geom.Vec, i int) bool {
	if len(centers) >= GridThreshold {
		return m.NewIndex(centers).FullVisibility(i)
	}
	for j := range centers {
		if !m.Visible(centers, i, j) {
			return false
		}
	}
	return true
}

// FullyVisible reports whether every robot sees every other robot (the
// paper's "fully visible configuration"). Large configurations are answered
// through a single uniform-grid index shared by all n^2 pair queries.
func (m *Model) FullyVisible(centers []geom.Vec) bool {
	if len(centers) >= GridThreshold {
		return m.NewIndex(centers).FullyVisible()
	}
	for i := range centers {
		if !m.FullVisibility(centers, i) {
			return false
		}
	}
	return true
}

// VisibilityCount returns the number of ordered pairs (i, j), i != j, such
// that robot i sees robot j. The maximum is n*(n-1).
func (m *Model) VisibilityCount(centers []geom.Vec) int {
	visible := func(i, j int) bool { return m.Visible(centers, i, j) }
	if len(centers) >= GridThreshold {
		ix := m.NewIndex(centers)
		visible = ix.Visible
	}
	count := 0
	for i := range centers {
		for j := range centers {
			if i != j && visible(i, j) {
				count++
			}
		}
	}
	return count
}

// sightLines generates the candidate sight lines between the discs at a and
// b one at a time, in a fixed order:
//
//  1. touching (or illegally overlapping) discs: only a degenerate segment at
//     the contact point — they trivially see each other through the contact
//     region;
//  2. otherwise the center-center segment clipped to the disc boundaries,
//  3. the two outer common tangents,
//  4. and BoundarySamples boundary-to-boundary segments on the halves of each
//     disc facing the other.
//
// A pair is visible when some candidate is clear, so callers stop at the
// first clear one; on a visible pair that is nearly always the center line,
// and the trigonometry of the boundary samples is never evaluated. Every
// candidate is computed with the same expressions as the historical eager
// generator (kept as a test oracle), so each endpoint — and therefore every
// verdict and every pinned determinism hash downstream — is bit-identical.
//
// Every candidate lies within distance r of the center segment [a, b]: each
// endpoint is on one of the two disc boundaries (distance exactly r from a
// center, which lies on [a, b]), and the distance to a segment is convex
// along a line, so the maximum over a candidate is attained at an endpoint.
// Callers that cache visibility rely on this corridor bound to decide which
// pairs a moved disc can possibly affect.
type sightLines struct {
	a, b     geom.Vec
	r        float64
	samples  int
	touching bool
	u        geom.Vec // unit direction a->b (unset when touching)
	base     float64  // angle of u, computed with the first boundary sample
	k        int      // index of the next candidate
}

// sightLines starts the candidate generator for the pair of discs at a and b.
func (m *Model) sightLines(a, b geom.Vec, r float64) sightLines {
	s := sightLines{a: a, b: b, r: r, samples: m.opts.samples()}
	dir := b.Sub(a)
	if geom.NewDistBound(2*r + geom.Eps).Within(dir) {
		s.touching = true
	} else {
		s.u = dir.Unit()
	}
	return s
}

// next returns the next candidate sight line, or false once all are spent.
func (s *sightLines) next() (geom.Segment, bool) {
	k := s.k
	s.k++
	if s.touching {
		if k > 0 {
			return geom.Segment{}, false
		}
		mid := geom.Midpoint(s.a, s.b)
		return geom.Segment{A: mid, B: mid}, true
	}
	switch {
	case k == 0:
		// Center-line candidate, clipped to the boundaries.
		return geom.Segment{A: s.a.Add(s.u.Scale(s.r)), B: s.b.Sub(s.u.Scale(s.r))}, true
	case k <= 2:
		// Outer common tangents: the offset is exactly the one of
		// geom.AppendOuterTangentSegments, whose (b-a).Unit() is u.
		n := s.u.Perp().Scale(s.r)
		if k == 1 {
			return geom.Segment{A: s.a.Add(n), B: s.b.Add(n)}, true
		}
		return geom.Segment{A: s.a.Sub(n), B: s.b.Sub(n)}, true
	case k <= 2+s.samples:
		// Sampled boundary points on the facing halves, angles spread in
		// (-pi/2, pi/2) around the facing direction.
		if k == 3 {
			s.base = s.u.Angle()
		}
		i := k - 2
		off := (float64(i)/float64(s.samples+1) - 0.5) * math.Pi
		pa := geom.Circle{Center: s.a, Radius: s.r}.PointAtAngle(s.base + off)
		pb := geom.Circle{Center: s.b, Radius: s.r}.PointAtAngle(s.base + math.Pi - off)
		return geom.Segment{A: pa, B: pb}, true
	}
	return geom.Segment{}, false
}

// segmentBlocked reports whether the segment comes within the closed disc of
// radius r of any blocker: DistancePointSegment <= r+BlockTol, decided on
// squared lengths through geom.DistBound.
func segmentBlocked(seg geom.Segment, blockers []geom.Vec, r float64) bool {
	block := geom.NewDistBound(r + BlockTol)
	for _, c := range blockers {
		if block.SegmentWithin(c, seg.A, seg.B) {
			return true
		}
	}
	return false
}

// segmentBlockedExcept is segmentBlocked over centers with the discs i and j
// skipped in place: identical verdicts to building the blocker slice, scan
// order preserved, no allocation.
func segmentBlockedExcept(seg geom.Segment, centers []geom.Vec, i, j int, r float64) bool {
	block := geom.NewDistBound(r + BlockTol)
	for k, c := range centers {
		if k == i || k == j {
			continue
		}
		if block.SegmentWithin(c, seg.A, seg.B) {
			return true
		}
	}
	return false
}
