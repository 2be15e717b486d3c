package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/robot"
)

// pickRecorder forwards a strategy and remembers the robot it picked last and
// how many of its picks were Compute events.
type pickRecorder struct {
	adversary.Strategy
	last     int
	computes int
}

func (p *pickRecorder) Next(candidates []int, env adversary.Env) int {
	id := p.Strategy.Next(candidates, env)
	p.last = id
	if id != adversary.NoRobot && env.States[id] == robot.Compute {
		p.computes++
	}
	return id
}

// countingAlgorithm is the paper's algorithm behind a call counter. It
// attributes each call to the robot the recorder picked, and fails the test
// when a robot reaches Decide with the bit-identical view of its previous
// call.
type countingAlgorithm struct {
	t     *testing.T
	picks *pickRecorder
	calls int
	last  map[int]core.View
}

func (a *countingAlgorithm) Name() string { return PaperAlgorithm{}.Name() }

func (a *countingAlgorithm) Decide(v core.View) core.Decision {
	a.calls++
	id := a.picks.last
	if prev, ok := a.last[id]; ok && sameView(prev, v) {
		a.t.Errorf("robot %d reached Decide twice in a row with the view %v", id, v)
	}
	a.last[id] = core.NewView(v.Self, v.Others, v.N)
	return core.Decide(v)
}

func sameView(a, b core.View) bool {
	if a.N != b.N || !sameBits(a.Self, b.Self) || len(a.Others) != len(b.Others) {
		return false
	}
	for i := range a.Others {
		if !sameBits(a.Others[i], b.Others[i]) {
			return false
		}
	}
	return true
}

// resultDigest hashes the observable result of a run: outcome, counters,
// milestones, state visits and the exact bits of every float.
func resultDigest(r Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %d %d %d %d %d %d %x %+v", r.Outcome, r.Events, r.Cycles, r.TerminatedCount,
		r.Collisions, r.Stops, r.Arrivals, math.Float64bits(r.TotalDistance), r.Milestones)
	for _, c := range r.Final {
		fmt.Fprintf(h, " %x,%x", math.Float64bits(c.X), math.Float64bits(c.Y))
	}
	for _, st := range core.AllAlgStates() {
		fmt.Fprintf(h, " %d", r.StateVisits[st])
	}
	for _, series := range [][]float64{r.HullAreaSeries, r.SpreadSeries} {
		for _, x := range series {
			fmt.Fprintf(h, " %x", math.Float64bits(x))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// livelockDigest is resultDigest of the livelockCase run as the simulator
// produced it when it called Decide on every Compute event.
const livelockDigest = "8724c8f58f374ea1"

// TestDecideReusedForRepeatedView runs the livelock witness, in which robots
// re-decide unchanged snapshots, through a counting Algorithm: no robot may
// reach Decide twice in a row with a bit-identical view, Decide must run on
// fewer than all Compute events, and the result must stay the one computed
// with a Decide call per Compute event.
func TestDecideReusedForRepeatedView(t *testing.T) {
	cfg, opts := livelockCase(t)
	picks := &pickRecorder{Strategy: opts.Strategy}
	alg := &countingAlgorithm{t: t, picks: picks, last: map[int]core.View{}}
	opts.Strategy = picks
	opts.Algorithm = alg
	res, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeLivelocked {
		t.Fatalf("outcome = %v, want livelocked", res.Outcome)
	}
	if alg.calls >= picks.computes {
		t.Fatalf("Decide ran %d times on %d Compute events; want fewer", alg.calls, picks.computes)
	}
	t.Logf("Decide ran %d times on %d Compute events", alg.calls, picks.computes)
	if got := resultDigest(res); got != livelockDigest {
		t.Fatalf("result digest %s, want %s", got, livelockDigest)
	}
}

// TestSameBitsSeparatesSignedZero pins the key comparison: bit identity, not
// float equality.
func TestSameBitsSeparatesSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if sameBits(geom.V(0, 1), geom.V(negZero, 1)) {
		t.Fatal("0 and -0 must be different keys")
	}
	nan := math.NaN()
	if !sameBits(geom.V(nan, 1), geom.V(nan, 1)) {
		t.Fatal("a NaN coordinate must match its own bits")
	}
}
