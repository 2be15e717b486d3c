package core

import (
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/vision"
)

// visionModel is the visibility predicate the local algorithm uses to reason
// about occlusion within a view. It matches the model used by the Look state
// in the simulator (conservative sight lines over opaque unit discs).
var visionModel = vision.Default

// viewFullyVisible reports whether, treating the robots in the view as the
// only robots in the plane, every robot can see every other robot. This is
// the operative form of the paper's "all robots have full visibility
// according to Vi" check in Procedure OnConvexHull. Small views run the flat
// pair scan (identical verdicts and early-exit order to Model.FullyVisible,
// no per-pair allocation); large views keep the grid-indexed batch path. A
// view with a memo already holds the verdict (see NewViewWithMemo).
func (d *decider) viewFullyVisible() bool {
	if d.view.memo {
		return d.view.memoFullyVisible
	}
	all := d.hull.all
	if len(all) >= vision.GridThreshold {
		return visionModel.FullyVisible(all)
	}
	for i := range all {
		for j := range all {
			if !visionModel.Visible(all, i, j) {
				return false
			}
		}
	}
	return true
}

// selfBlocksPair reports whether the observing robot occludes some pair of
// robots in its view: the pair cannot see each other with the observer
// present, but could if the observer were removed. It returns one such pair
// (preferring the pair whose chord the observer is closest to).
func (d *decider) selfBlocksPair() (a, b geom.Vec, blocks bool) {
	all := d.hull.all
	self := d.view.Self
	if len(all) < 3 {
		return geom.Vec{}, geom.Vec{}, false
	}
	bestDist := -1.0
	for i := 0; i < len(all); i++ {
		if all[i].EqWithin(self, geom.Eps) {
			continue
		}
		for j := i + 1; j < len(all); j++ {
			if all[j].EqWithin(self, geom.Eps) {
				continue
			}
			d.obsBuf = appendObstaclesFor(d.obsBuf[:0], all, all[i], all[j], geom.Vec{}, false)
			if visionModel.VisiblePair(all[i], all[j], d.obsBuf) {
				continue
			}
			d.obsBuf = appendObstaclesFor(d.obsBuf[:0], all, all[i], all[j], self, true)
			if !visionModel.VisiblePair(all[i], all[j], d.obsBuf) {
				continue // blocked by someone else too; not this robot's job
			}
			dist := geom.DistancePointSegment(self, all[i], all[j])
			if !blocks || dist < bestDist {
				a, b, blocks = all[i], all[j], true
				bestDist = dist
			}
		}
	}
	return a, b, blocks
}

// appendObstaclesFor appends to dst the view points other than p and q,
// optionally also excluding the point `skip` (when exclude is true).
func appendObstaclesFor(dst, all []geom.Vec, p, q, skip geom.Vec, exclude bool) []geom.Vec {
	for _, c := range all {
		if c.EqWithin(p, geom.Eps) || c.EqWithin(q, geom.Eps) {
			continue
		}
		if exclude && c.EqWithin(skip, geom.Eps) {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}
