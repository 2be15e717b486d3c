package vision

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
)

// This file keeps the eager candidate generator — every sight line built up
// front, then scanned for the first clear one — as a test-only oracle for the
// lazy sightLines generator the production queries use.

// candidateSegments returns every candidate sight line between the discs at a
// and b, eagerly, in scan order.
func (m *Model) candidateSegments(a, b geom.Vec, r float64) []geom.Segment {
	return m.appendCandidateSegments(make([]geom.Segment, 0, 3+m.opts.samples()*2), a, b, r)
}

// appendCandidateSegments is the historical eager generator, kept verbatim:
// the lazy generator must reproduce its segments bit for bit and in order.
func (m *Model) appendCandidateSegments(dst []geom.Segment, a, b geom.Vec, r float64) []geom.Segment {
	dir := b.Sub(a)
	d := dir.Norm()
	if d <= 2*r+geom.Eps {
		mid := geom.Midpoint(a, b)
		return append(dst, geom.Segment{A: mid, B: mid})
	}
	u := dir.Unit()
	dst = append(dst, geom.Segment{A: a.Add(u.Scale(r)), B: b.Sub(u.Scale(r))})
	dst = geom.AppendOuterTangentSegments(dst, a, b, r)
	nSamples := m.opts.samples()
	base := u.Angle()
	for s := 1; s <= nSamples; s++ {
		off := (float64(s)/float64(nSamples+1) - 0.5) * math.Pi
		pa := geom.Circle{Center: a, Radius: r}.PointAtAngle(base + off)
		pb := geom.Circle{Center: b, Radius: r}.PointAtAngle(base + math.Pi - off)
		dst = append(dst, geom.Segment{A: pa, B: pb})
	}
	return dst
}

// eagerFirstClear returns the index of the first eager candidate between a
// and b that no obstacle blocks, or -1 when every candidate is blocked.
func (m *Model) eagerFirstClear(a, b geom.Vec, obstacles []geom.Vec) int {
	r := m.opts.radius()
	for k, seg := range m.candidateSegments(a, b, r) {
		if !segmentBlocked(seg, obstacles, r) {
			return k
		}
	}
	return -1
}

// eagerVisible is the oracle for Model.Visible (and Index.Visible): the
// eager first-clear scan with every disc but i and j as an obstacle.
func (m *Model) eagerVisible(centers []geom.Vec, i, j int) bool {
	if i == j || len(centers) <= 2 {
		return true
	}
	return m.eagerFirstClear(centers[i], centers[j], obstaclesExcept(centers, i, j)) >= 0
}

// eagerVisiblePair is the oracle for Model.VisiblePair.
func (m *Model) eagerVisiblePair(a, b geom.Vec, obstacles []geom.Vec) bool {
	return len(obstacles) == 0 || m.eagerFirstClear(a, b, obstacles) >= 0
}

func obstaclesExcept(centers []geom.Vec, i, j int) []geom.Vec {
	out := make([]geom.Vec, 0, len(centers))
	for k, c := range centers {
		if k != i && k != j {
			out = append(out, c)
		}
	}
	return out
}

// randomConfig places n unit discs with valid separation on a seeded
// jittered layout (no workload import: package-internal test).
func randomConfig(rng *rand.Rand, n int) []geom.Vec {
	out := make([]geom.Vec, 0, n)
	for len(out) < n {
		p := geom.V(rng.Float64()*40-20, rng.Float64()*40-20)
		ok := true
		for _, q := range out {
			if p.Dist(q) < 2*geom.UnitRadius+0.1 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// drain collects every candidate the lazy generator yields.
func drain(m *Model, a, b geom.Vec, r float64) []geom.Segment {
	var out []geom.Segment
	lines := m.sightLines(a, b, r)
	for seg, ok := lines.next(); ok; seg, ok = lines.next() {
		out = append(out, seg)
	}
	return out
}

// TestSightLinesMatchEagerCandidates pins the lazy generator to the eager
// one: for any pair — disjoint, touching or overlapping, under the default
// and a custom model — it yields exactly the eager segments, bit for bit and
// in order, and then stays exhausted.
func TestSightLinesMatchEagerCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	custom := New(Options{Radius: 1.5, BoundarySamples: 5})
	for trial := 0; trial < 300; trial++ {
		a := geom.V(rng.Float64()*30-15, rng.Float64()*30-15)
		b := geom.V(rng.Float64()*30-15, rng.Float64()*30-15)
		if trial%5 == 0 {
			// Touching and overlapping pairs take the contact-point branch.
			b = a.Add(geom.V(math.Cos(float64(trial)), math.Sin(float64(trial))).Scale(2 * rng.Float64()))
		}
		for _, model := range []*Model{Default, custom} {
			r := model.opts.radius()
			want := model.candidateSegments(a, b, r)
			got := drain(model, a, b, r)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d lazy candidates, want %d", trial, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d seg %d: %+v != %+v (must be bit-identical)", trial, k, got[k], want[k])
				}
			}
			lines := model.sightLines(a, b, r)
			for range want {
				lines.next()
			}
			if _, ok := lines.next(); ok {
				t.Fatalf("trial %d: generator yields past its last candidate", trial)
			}
		}
	}
}

// checkAgainstOracle asserts that every lazy query path — Visible,
// VisiblePair and, at k >= GridThreshold, Index.Visible — answers the pair
// (i, j) exactly like the eager oracle.
func checkAgainstOracle(t *testing.T, label string, m *Model, centers []geom.Vec, ix *Index, i, j int) {
	t.Helper()
	want := m.eagerVisible(centers, i, j)
	if got := m.Visible(centers, i, j); got != want {
		t.Fatalf("%s: Visible(%d,%d)=%v, eager oracle %v", label, i, j, got, want)
	}
	if i != j {
		obs := obstaclesExcept(centers, i, j)
		if got, want := m.VisiblePair(centers[i], centers[j], obs), m.eagerVisiblePair(centers[i], centers[j], obs); got != want {
			t.Fatalf("%s: VisiblePair(%d,%d)=%v, eager oracle %v", label, i, j, got, want)
		}
	}
	if ix != nil {
		if got := ix.Visible(i, j); got != want {
			t.Fatalf("%s: Index.Visible(%d,%d)=%v, eager oracle %v", label, i, j, got, want)
		}
	}
}

// TestLazyVisibilityMatchesEagerOracle is the differential test of the lazy
// first-clear scan over random valid configurations, including sizes that
// route batch queries through the grid index: every ordered pair must agree
// with the eager oracle on every query path.
func TestLazyVisibilityMatchesEagerOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	custom := New(Options{Radius: 1.5, BoundarySamples: 5})
	for _, n := range []int{2, 3, 5, 9, GridThreshold, 24} {
		for _, m := range []*Model{Default, custom} {
			centers := randomConfig(rng, n)
			var ix *Index
			if n >= GridThreshold {
				ix = m.NewIndex(centers)
			}
			for i := range centers {
				for j := range centers {
					checkAgainstOracle(t, "random", m, centers, ix, i, j)
				}
			}
		}
	}
}

// firstClearCase builds a pair a=(0,0), b=(20,0) — rotated by theta — plus
// blockers that leave exactly the candidate at index want clear (want = -1:
// none clear). The default model's non-touching candidates are horizontal
// segments at heights 0 (center line), +1 and -1 (tangents) and sin(off_s)
// for the eight samples; two discs at mid-span whose blocking bands end just
// above and just below the wanted height block every other height.
func firstClearCase(want int, theta float64) (a, b geom.Vec, blockers []geom.Vec) {
	a, b = geom.V(0, 0), geom.V(20, 0)
	if want < 0 {
		blockers = []geom.Vec{geom.V(10, 0)}
	} else {
		var y float64
		switch {
		case want == 0:
			y = 0
		case want == 1:
			y = 1
		case want == 2:
			y = -1
		default:
			off := (float64(want-2)/float64(DefaultBoundarySamples+1) - 0.5) * math.Pi
			y = math.Sin(off)
		}
		const gap = 0.03 // below the smallest spacing between candidate heights
		blockers = []geom.Vec{geom.V(10, y+gap+1), geom.V(10, y-gap-1)}
	}
	rot := func(p geom.Vec) geom.Vec { return p.Rotate(theta) }
	for k := range blockers {
		blockers[k] = rot(blockers[k])
	}
	return rot(a), rot(b), blockers
}

// TestFirstClearCandidateCoverage drives the lazy scan through every exit:
// hand-built configurations whose first clear candidate is the center line,
// each tangent, each boundary sample, or none, plus the touching-discs
// branch clear and blocked. Each case is checked to hit its intended index in
// the eager oracle, then every query path is compared against the oracle —
// flat, and padded past GridThreshold with far-away discs for the grid index.
func TestFirstClearCandidateCoverage(t *testing.T) {
	m := Default
	nCand := 3 + DefaultBoundarySamples
	check := func(label string, a, b geom.Vec, blockers []geom.Vec, wantFirst int) {
		t.Helper()
		if got := m.eagerFirstClear(a, b, blockers); got != wantFirst {
			t.Fatalf("%s: eager first clear candidate %d, construction wants %d", label, got, wantFirst)
		}
		centers := append([]geom.Vec{a, b}, blockers...)
		if got := m.Visible(centers, 0, 1); got != (wantFirst >= 0) {
			t.Fatalf("%s: Visible=%v, want %v", label, got, wantFirst >= 0)
		}
		for i := range centers {
			for j := range centers {
				checkAgainstOracle(t, label, m, centers, nil, i, j)
			}
		}
		padded := append([]geom.Vec(nil), centers...)
		for k := 0; len(padded) < GridThreshold+1; k++ {
			padded = append(padded, geom.V(200+3*float64(k), 150))
		}
		ix := m.NewIndex(padded)
		for i := range padded {
			for j := range padded {
				checkAgainstOracle(t, label+" (grid)", m, padded, ix, i, j)
			}
		}
	}
	for _, theta := range []float64{0, 0.7, -2.3} {
		for want := -1; want < nCand; want++ {
			a, b, blockers := firstClearCase(want, theta)
			check(fmt.Sprintf("first clear %d, theta %g", want, theta), a, b, blockers, want)
		}
	}
	// Touching discs: the only candidate is the degenerate contact segment,
	// clear unless a disc covers the contact point (which only an illegally
	// overlapping disc can).
	a, b := geom.V(3, -1), geom.V(5, -1)
	check("touching clear", a, b, []geom.Vec{geom.V(4, 1.5), geom.V(4, -3.5)}, 0)
	check("touching blocked", a, b, []geom.Vec{geom.V(4, -0.5)}, -1)
}

// TestVisibleAllocFree pins the pair queries at zero allocations — the
// property the incremental cache's recompute path and the Compute phase's
// O(k^2) visibility loops depend on.
func TestVisibleAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	centers := randomConfig(rng, 12)
	obstacles := obstaclesExcept(centers, 0, 7)
	allocs := testing.AllocsPerRun(100, func() {
		Default.Visible(centers, 0, 7)
		Default.Visible(centers, 3, 9)
		Default.VisiblePair(centers[0], centers[7], obstacles)
	})
	if allocs != 0 {
		t.Fatalf("Visible/VisiblePair allocate %v allocs/op, want 0", allocs)
	}
	padded := randomConfig(rng, GridThreshold+4)
	ix := Default.NewIndex(padded)
	allocs = testing.AllocsPerRun(100, func() {
		ix.Visible(0, 7)
		ix.Visible(3, 9)
	})
	if allocs != 0 {
		t.Fatalf("Index.Visible allocates %v allocs/op, want 0", allocs)
	}
}
