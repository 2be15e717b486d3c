package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on is a few virtual CPUs of a shared machine,
// and its speed drifts over tens of seconds as other tenants come and go: on
// the VM the benchmark was defined on, the same e13-cross grid took 2.3 s in
// one minute and 5.3 s a few minutes later, far beyond the bounds in
// BENCHMARK.json. The untraced run therefore times a fixed probe before and
// after every round and scales the round's times to a host on which the probe
// takes refProbe. The probe is code of this package only, so a change to the
// program never changes it: it moves the benchmark's timings only as much as
// the host's speed moved.
//
// The slow spells hit allocation hardest: in the one above, a register-only
// loop slowed 1.3x, a walk through a 4 MiB ring 1.5x, and the simulation
// 2.3x. The probe therefore does what the simulator's hot path does, in
// miniature: it allocates small point sets, takes their convex hulls into
// fresh slices and keeps the recent hulls alive, which slowed 2.1x.

// refProbe is the probe's time on the 2-vCPU Xeon VM the benchmark was
// defined on, in a quiet spell.
const refProbe = 35 * time.Millisecond

// probeSets is how many point sets one probe builds.
const probeSets = 60_000

// point is a probe point (the probe uses no program types).
type point struct{ x, y float64 }

var (
	probeKept [4096][]point // recent hulls, live like a simulation's state
	probeSink float64       // keeps the probe's results from being optimised away
)

// probe times a fixed amount of allocation-heavy geometry: probeSets sets of
// 6 to 16 pseudo-random points, each wrapped into a convex hull held in a
// newly allocated slice. It first finishes a garbage collection, so the
// program's leftover garbage does not fall into the probe's time.
func probe() time.Duration {
	runtime.GC()
	start := time.Now()
	x := uint64(11)
	var acc float64
	for j := 0; j < probeSets; j++ {
		pts := make([]point, 6+j%11)
		for i := range pts {
			x = x*6364136223846793005 + 1442695040888963407
			pts[i] = point{float64(x>>40) / 1e6, float64(x>>20&0xfffff) / 1e6}
		}
		hull := wrap(pts)
		for i := range hull {
			acc += hull[i].x * hull[(i+1)%len(hull)].y
		}
		probeKept[j%len(probeKept)] = hull
	}
	d := time.Since(start)
	probeSink += acc
	return d
}

// wrap is the gift-wrapping convex hull of pts (at least three points).
func wrap(pts []point) []point {
	first := 0
	for i := range pts {
		if pts[i].x < pts[first].x {
			first = i
		}
	}
	var hull []point
	for p := first; ; {
		hull = append(hull, pts[p])
		q := (p + 1) % len(pts)
		for i := range pts {
			if (pts[q].x-pts[p].x)*(pts[i].y-pts[p].y)-(pts[q].y-pts[p].y)*(pts[i].x-pts[p].x) < 0 {
				q = i
			}
		}
		p = q
		if p == first || len(hull) == len(pts) {
			return hull
		}
	}
}

// hostScale is the factor that takes a round's times to the reference host:
// refProbe over the mean of the probes taken just before and just after it.
func hostScale(before, after time.Duration) float64 {
	return float64(refProbe) / (float64(before+after) / 2)
}
