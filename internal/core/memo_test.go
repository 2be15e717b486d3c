package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
)

// memoView builds robot i's view of the whole configuration with the memo a
// simulator would record: the verdict and the hull corners computed on the
// configuration in its own order, which differs from the view's order (self
// first).
func memoView(all []geom.Vec, i int) View {
	plain := viewOfAll(all, i)
	return NewViewWithMemo(plain.Self, plain.Others, len(all), vision.Default.FullyVisible(all), geom.ConvexHull(all))
}

func sameDecision(a, b Decision) bool {
	return a.Terminate == b.Terminate && a.Target == b.Target && slices.Equal(a.Trace, b.Trace)
}

// randomConfig places n non-overlapping unit discs in a square of the given
// side by rejection sampling.
func randomConfig(rng *rand.Rand, n int, side float64) []geom.Vec {
	var pts []geom.Vec
	for len(pts) < n {
		p := geom.V(rng.Float64()*side, rng.Float64()*side)
		ok := true
		for _, q := range pts {
			if p.Dist(q) < 2*geom.UnitRadius {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
		}
	}
	return pts
}

// TestMemoViewDecidesLikeNewView checks, on random and ring configurations
// from 3 to 20 robots (the grid visibility path included), that every robot's
// decision with a memo equals its decision from the points alone.
func TestMemoViewDecidesLikeNewView(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var configs [][]geom.Vec
	for _, n := range []int{3, 4, 6, 8, 12, 16, 20} {
		configs = append(configs, tangentRing(n), ringPositions(n, 4*float64(n)))
		for k := 0; k < 3; k++ {
			configs = append(configs, randomConfig(rng, n, 3*float64(n)))
		}
	}
	memos := 0
	for ci, all := range configs {
		for i := range all {
			v := memoView(all, i)
			if !v.HasMemo() {
				t.Fatalf("config %d robot %d: whole view of %d robots has no memo", ci, i, len(all))
			}
			memos++
			if got, want := Decide(v), Decide(viewOfAll(all, i)); !sameDecision(got, want) {
				t.Fatalf("config %d robot %d: decision with memo %+v, without %+v", ci, i, got, want)
			}
		}
	}
	t.Logf("%d memo views checked", memos)
}

// TestMemoViewGate checks that only a view of all n >= 3 robots keeps its
// memo: ConvexHull returns two points in input order, so a two-robot memo
// would not be a function of the point set.
func TestMemoViewGate(t *testing.T) {
	ring := tangentRing(6)
	corners := geom.ConvexHull(ring)
	if v := NewViewWithMemo(ring[0], ring[1:], 6, true, corners); !v.HasMemo() {
		t.Fatal("whole view lost its memo")
	}
	if v := NewViewWithMemo(ring[0], ring[1:4], 6, true, corners); v.HasMemo() {
		t.Fatal("partial view kept a memo")
	}
	pair := []geom.Vec{geom.V(0, 0), geom.V(5, 0)}
	if v := NewViewWithMemo(pair[1], pair[:1], 2, true, geom.ConvexHull(pair)); v.HasMemo() {
		t.Fatal("two-robot view kept a memo")
	}
	if v := NewView(ring[0], ring[1:], 6); v.HasMemo() {
		t.Fatal("NewView made a memo")
	}
}

// TestMemoViewOwnsItsMemo checks that a memo view copies what it is built
// from: scribbling over the caller's buffers, or appending to the view's
// Others, changes neither the memo nor the decision.
func TestMemoViewOwnsItsMemo(t *testing.T) {
	all := ringPositions(8, 10)
	want := Decide(viewOfAll(all, 0))
	others := append([]geom.Vec(nil), all[1:]...)
	corners := geom.ConvexHull(all)
	wantCorners := slices.Clone(corners)
	v := NewViewWithMemo(all[0], others, len(all), vision.Default.FullyVisible(all), corners)
	for i := range others {
		others[i] = geom.V(1e6, float64(i))
	}
	for i := range corners {
		corners[i] = geom.V(-1e6, float64(i))
	}
	_ = append(v.Others, geom.V(3e6, 0))
	if !slices.Equal(v.memoCorners, wantCorners) {
		t.Fatalf("memo corners %v, want %v", v.memoCorners, wantCorners)
	}
	if got := Decide(v); !sameDecision(got, want) {
		t.Fatalf("decision %+v after the caller reused its buffers, want %+v", got, want)
	}
}
