package sim

import (
	"fmt"
	"testing"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// memoCheck is the paper's algorithm behind a differential check: every view
// that carries a Look-time memo must decide bit-identically to the same
// points without one. It counts the views it saw and keeps every keepEvery-th
// view with its decision, by value, for a replay after the run.
type memoCheck struct {
	t     *testing.T
	label string

	memo, plain int
	memoLarge   int // memo views at or above vision.GridThreshold
	partialMemo int // memo views that do not see all robots (must stay 0)
	partial     int // views that do not see all robots

	keepEvery int
	kept      []keptView
}

type keptView struct {
	view     core.View
	decision core.Decision
}

func (a *memoCheck) Name() string { return PaperAlgorithm{}.Name() }

func (a *memoCheck) Decide(v core.View) core.Decision {
	d := core.Decide(v)
	if !v.SeesAll() {
		a.partial++
	}
	if a.keepEvery > 0 && (a.memo+a.plain)%a.keepEvery == 0 {
		a.kept = append(a.kept, keptView{view: v, decision: d})
	}
	if !v.HasMemo() {
		a.plain++
		return d
	}
	a.memo++
	if !v.SeesAll() {
		a.partialMemo++
	}
	if v.Count() >= vision.GridThreshold {
		a.memoLarge++
	}
	if ref := core.Decide(core.NewView(v.Self, v.Others, v.N)); !sameDecision(d, ref) {
		a.t.Errorf("%s: decision with memo %+v, without %+v (view %+v)", a.label, d, ref, v)
	}
	return d
}

// replay decides every kept view again, after the simulator has reused all
// of its buffers, and checks the decision is the live one.
func (a *memoCheck) replay() {
	for i, k := range a.kept {
		if d := core.Decide(k.view); !sameDecision(d, k.decision) {
			a.t.Errorf("%s: kept view %d decides %+v on replay, %+v live", a.label, i, d, k.decision)
		}
	}
}

func sameDecision(a, b core.Decision) bool {
	if a.Terminate != b.Terminate || !sameBits(a.Target, b.Target) || len(a.Trace) != len(b.Trace) {
		return false
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			return false
		}
	}
	return true
}

// memoRun runs one cell through a memoCheck and returns it.
func memoRun(t *testing.T, label string, cfg config.Geometric, opts Options) *memoCheck {
	t.Helper()
	alg := &memoCheck{t: t, label: label, keepEvery: 16}
	opts.Algorithm = alg
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 40000
	}
	if _, err := Run(cfg, opts); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	alg.replay()
	if alg.partialMemo != 0 {
		t.Errorf("%s: %d views without every robot carried a memo", label, alg.partialMemo)
	}
	return alg
}

func strategyOf(t *testing.T, spec adversary.Spec, seed int64) adversary.Strategy {
	t.Helper()
	s, err := adversary.New(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func workloadOf(t *testing.T, kind workload.Kind, n int, seed int64) config.Geometric {
	t.Helper()
	cfg, err := workload.Generate(kind, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestMemoDecidesLikeFromScratch runs fixed-seed E13 and E5 grids — every
// strategy at n=6, and random-async up to n=16 so views reach the grid
// visibility path — and checks every memo view against the from-scratch
// decision, and every kept view (memo or not) on replay.
func TestMemoDecidesLikeFromScratch(t *testing.T) {
	var total, large int
	for _, name := range adversary.Names() {
		spec := adversary.Spec{Strategy: name}
		if name == adversary.NameCrash {
			spec.Crash = 1
		}
		for _, kind := range []workload.Kind{workload.KindClustered, workload.KindNestedHulls, workload.KindRing} {
			for seed := int64(1); seed <= 2; seed++ {
				label := fmt.Sprintf("E13 %s %s seed %d", name, kind, seed)
				alg := memoRun(t, label, workloadOf(t, kind, 6, seed),
					Options{Strategy: strategyOf(t, spec, 1300+seed)})
				total += alg.memo
			}
		}
	}
	for _, n := range []int{2, 3, 4, 5, 8, 12, 16} {
		for _, kind := range []workload.Kind{workload.KindClustered, workload.KindNestedHulls} {
			seed := int64(1)
			label := fmt.Sprintf("E5 n=%d %s seed %d", n, kind, seed)
			alg := memoRun(t, label, workloadOf(t, kind, n, seed),
				Options{Strategy: strategyOf(t, adversary.Spec{Strategy: adversary.NameRandomAsync}, 100+seed)})
			total += alg.memo
			large += alg.memoLarge
		}
	}
	if total == 0 || large == 0 {
		t.Fatalf("%d memo views, %d at n >= %d: the grids must exercise the memo", total, large, vision.GridThreshold)
	}
	t.Logf("%d memo views checked, %d at n >= %d", total, large, vision.GridThreshold)
}

// TestMemoGate checks that the simulator makes a memo only when the Look
// snapshot is the whole configuration as core would see it: no perturbing
// strategy (sensor noise, and movement truncation too), a vision model that
// answers as vision.Default, and a view of every robot.
func TestMemoGate(t *testing.T) {
	const n = 6
	fair := adversary.Spec{Strategy: adversary.NameFair}
	cfg := workloadOf(t, workload.KindClustered, n, 1)
	cases := []struct {
		name     string
		opts     Options
		wantMemo bool
	}{
		{"fair", Options{Strategy: strategyOf(t, fair, 1)}, true},
		{"fair, equal-fingerprint model", Options{Strategy: strategyOf(t, fair, 1), Vision: vision.New(vision.Options{})}, true},
		{"fair+noise=0.05", Options{Strategy: strategyOf(t, adversary.Spec{Strategy: adversary.NameFair, Noise: 0.05}, 1)}, false},
		{"fair+trunc=0.5", Options{Strategy: strategyOf(t, adversary.Spec{Strategy: adversary.NameFair, Trunc: 0.5}, 1)}, false},
		{"fair, radius-2 model", Options{Strategy: strategyOf(t, fair, 1), Vision: vision.New(vision.Options{Radius: 2})}, false},
	}
	for _, tc := range cases {
		alg := memoRun(t, tc.name, cfg, tc.opts)
		seen := alg.memo + alg.plain
		if got := alg.memo > 0; got != tc.wantMemo {
			t.Errorf("%s: %d memo views of %d, want memo %v", tc.name, alg.memo, seen, tc.wantMemo)
		}
		if alg.partial == seen {
			t.Errorf("%s: no view saw every robot, so the case shows nothing", tc.name)
		}
	}

	// Partial views: robots on a line hide each other until they spread out.
	alg := memoRun(t, "partial views", workloadOf(t, workload.KindCollinear, n, 1),
		Options{Strategy: strategyOf(t, fair, 1)})
	if alg.partial == 0 || alg.memo == 0 {
		t.Fatalf("partial views: %d partial and %d memo views; the case must have both", alg.partial, alg.memo)
	}
}
