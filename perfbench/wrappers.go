package main

import (
	"net/http"
	"sync"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/config"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/geom"
	"github.com/fatgather/fatgather/internal/robot"
	"github.com/fatgather/fatgather/internal/sched"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// captureEvery is the view-corpus sampling period: every captureEvery-th
// Decide call of a cell (counting from its first) is kept with its decision.
// The sample depends only on the cell, so the corpus is deterministic.
const captureEvery = 64

// capturedView is one corpus entry: a live Decide input and its output.
type capturedView struct {
	View     core.View
	Decision core.Decision
}

// tracedAlgorithm is the paper's algorithm behind a timing wrapper. It keeps
// the algorithm's name, so a cell carrying it has the same key (and result)
// as a cell with no Algorithm set. One instance serves one cell, whose Decide
// calls all come from one goroutine.
type tracedAlgorithm struct {
	calls, callsGE      int // callsGE: views at or above vision.GridThreshold
	busy, busyGE        time.Duration
	first, last         time.Time
	stays, notConnected int
	corpus              []capturedView
	stepChild           *time.Duration // when set, Decide time also counts here
}

func (a *tracedAlgorithm) Name() string { return sim.PaperAlgorithm{}.Name() }

func (a *tracedAlgorithm) Decide(v core.View) core.Decision {
	start := time.Now()
	d := core.Decide(v)
	end := time.Now()
	dur := end.Sub(start)
	if a.calls == 0 {
		a.first = start
	}
	a.last = end
	if a.calls%captureEvery == 0 {
		a.corpus = append(a.corpus, capturedView{View: v, Decision: d})
	}
	a.calls++
	a.busy += dur
	if v.Count() >= vision.GridThreshold {
		a.callsGE++
		a.busyGE += dur
	}
	if d.Stays(v.Self) {
		a.stays++
	}
	if d.Final() == core.StateNotConnected {
		a.notConnected++
	}
	if a.stepChild != nil {
		*a.stepChild += dur
	}
	return d
}

var _ sim.Algorithm = (*tracedAlgorithm)(nil)

// withAlgorithms returns a copy of cells, each carrying its own
// tracedAlgorithm, and those wrappers in cell order.
func withAlgorithms(cells []engine.Cell) ([]engine.Cell, []*tracedAlgorithm) {
	out := make([]engine.Cell, len(cells))
	algs := make([]*tracedAlgorithm, len(cells))
	for i, c := range cells {
		algs[i] = &tracedAlgorithm{}
		c.Algorithm = algs[i]
		out[i] = c
	}
	return out, algs
}

// genCall is one timed placement generation.
type genCall struct {
	kind       workload.Kind
	n          int
	seed       int64
	start, end time.Time
}

// tracedWorkloads times a placement generator. Engine workers call it
// concurrently.
type tracedWorkloads struct {
	gen   engine.WorkloadFunc
	mu    sync.Mutex
	calls []genCall
}

func (t *tracedWorkloads) generate(kind workload.Kind, n int, seed int64) (config.Geometric, error) {
	start := time.Now()
	cfg, err := t.gen(kind, n, seed)
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, genCall{kind: kind, n: n, seed: seed, start: start, end: end})
	t.mu.Unlock()
	return cfg, err
}

// Step kinds, by the state the scheduled robot is in when Next picks it.
const (
	stepLook = iota
	stepBeginCompute
	stepCompute
	stepMove
	numStepKinds
)

var stepNames = [numStepKinds]string{"look", "begin_compute", "compute", "move"}

func stepKind(s robot.State) int {
	switch s {
	case robot.Wait:
		return stepLook
	case robot.Look:
		return stepBeginCompute
	case robot.Compute:
		return stepCompute
	default:
		return stepMove
	}
}

// move is one captured single-mover position change.
type move struct {
	id int
	to geom.Vec
}

// simRecorder accumulates one simulation's adversary calls and per-step
// simulator time. Consecutive Next calls delimit one Step: the time from one
// Next returning to the next Next being called, less the Decide and Move
// calls inside it, is the simulator's own work for that event. It also
// captures the move stream from the Env centers Next is shown.
type simRecorder struct {
	nextN, moveN       int
	nextBusy, moveBusy time.Duration
	stepNs             [numStepKinds]time.Duration
	steps              [numStepKinds]int
	kind               int // kind of the step in progress, -1 before the first
	stepStart          time.Time
	stepChild          time.Duration // Decide and Move time inside the step
	capture            time.Duration // move-stream capture time (tracing overhead)

	initial []geom.Vec
	prev    []geom.Vec
	moves   []move
}

func newSimRecorder() *simRecorder { return &simRecorder{kind: -1} }

// closeStep books the step in progress as ending at end.
func (r *simRecorder) closeStep(end time.Time) {
	if r.kind >= 0 {
		r.stepNs[r.kind] += end.Sub(r.stepStart) - r.stepChild
		r.steps[r.kind]++
	}
	r.stepChild = 0
}

// observe records which robot moved since the last call (at most one does
// per event).
func (r *simRecorder) observe(centers []geom.Vec) {
	if r.initial == nil {
		r.initial = append([]geom.Vec(nil), centers...)
		r.prev = append([]geom.Vec(nil), centers...)
		return
	}
	for i, c := range centers {
		if c != r.prev[i] {
			r.moves = append(r.moves, move{id: i, to: c})
			r.prev[i] = c
		}
	}
}

// tracedStrategy times a strategy's Next and Move calls. It forwards Unwrap,
// so adversary.CrashedIDs still finds a crash decorator beneath it.
type tracedStrategy struct {
	inner adversary.Strategy
	rec   *simRecorder
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Unwrap() adversary.Strategy { return s.inner }

func (s *tracedStrategy) Next(candidates []int, env adversary.Env) int {
	now := time.Now()
	s.rec.closeStep(now)
	s.rec.observe(env.Centers)
	start := time.Now()
	s.rec.capture += start.Sub(now)
	id := s.inner.Next(candidates, env)
	end := time.Now()
	s.rec.nextN++
	s.rec.nextBusy += end.Sub(start)
	s.rec.kind = -1
	if id != adversary.NoRobot {
		s.rec.kind = stepKind(env.States[id])
	}
	s.rec.stepStart = end
	return id
}

func (s *tracedStrategy) Move(id int, remaining float64, env adversary.Env) sched.MoveAction {
	start := time.Now()
	a := s.inner.Move(id, remaining, env)
	d := time.Since(start)
	s.rec.moveN++
	s.rec.moveBusy += d
	s.rec.stepChild += d
	return a
}

// tracedPerturber is tracedStrategy for a strategy that injects sensor noise
// or movement truncation: it forwards the Perturber hooks too. The two are
// separate types so that the simulator sees a Perturber exactly when the
// wrapped strategy is one.
type tracedPerturber struct {
	*tracedStrategy
	p adversary.Perturber
}

func (s tracedPerturber) PerturbView(id int, self geom.Vec, view []geom.Vec) []geom.Vec {
	return s.p.PerturbView(id, self, view)
}

func (s tracedPerturber) PerturbMove(id int, granted, remaining float64) float64 {
	return s.p.PerturbMove(id, granted, remaining)
}

// traceStrategy wraps a strategy for one simulation.
func traceStrategy(inner adversary.Strategy, rec *simRecorder) adversary.Strategy {
	ts := &tracedStrategy{inner: inner, rec: rec}
	if p, ok := inner.(adversary.Perturber); ok {
		return tracedPerturber{tracedStrategy: ts, p: p}
	}
	return ts
}

// backendCall is one timed sweep.Backend call.
type backendCall struct {
	op         string
	start, end time.Time
}

// tracedBackend times every sweep.Backend call of one coordinated worker and
// counts what the calls moved.
type tracedBackend struct {
	sweep.Backend
	mu         sync.Mutex // heartbeats renew from their own goroutine
	calls      []backendCall
	readBytes  int64
	emptyReads int
	claimsWon  int
}

func (b *tracedBackend) record(op string, start time.Time) {
	end := time.Now()
	b.mu.Lock()
	b.calls = append(b.calls, backendCall{op: op, start: start, end: end})
	b.mu.Unlock()
}

func (b *tracedBackend) ReadRecords(off int64) ([]byte, int64, error) {
	start := time.Now()
	data, at, err := b.Backend.ReadRecords(off)
	b.record("read", start)
	b.mu.Lock()
	b.readBytes += int64(len(data))
	if len(data) == 0 {
		b.emptyReads++
	}
	b.mu.Unlock()
	return data, at, err
}

func (b *tracedBackend) AppendRecord(line []byte) error {
	start := time.Now()
	err := b.Backend.AppendRecord(line)
	b.record("append", start)
	return err
}

func (b *tracedBackend) RewriteRecords(data []byte) error {
	start := time.Now()
	err := b.Backend.RewriteRecords(data)
	b.record("rewrite", start)
	return err
}

func (b *tracedBackend) TryClaim(group, owner string, ttl time.Duration) (sweep.LeaseStatus, error) {
	start := time.Now()
	st, err := b.Backend.TryClaim(group, owner, ttl)
	b.record("claim", start)
	if err == nil && st != sweep.LeaseHeld {
		b.mu.Lock()
		b.claimsWon++
		b.mu.Unlock()
	}
	return st, err
}

func (b *tracedBackend) RenewLease(group, owner string, ttl time.Duration) (bool, error) {
	start := time.Now()
	ok, err := b.Backend.RenewLease(group, owner, ttl)
	b.record("renew", start)
	return ok, err
}

func (b *tracedBackend) ReleaseLease(group, owner string) error {
	start := time.Now()
	err := b.Backend.ReleaseLease(group, owner)
	b.record("release", start)
	return err
}

func (b *tracedBackend) PublishState(group, owner string, body []byte) error {
	start := time.Now()
	err := b.Backend.PublishState(group, owner, body)
	b.record("publish_state", start)
	return err
}

func (b *tracedBackend) LoadState(group string) ([]byte, bool, error) {
	start := time.Now()
	body, ok, err := b.Backend.LoadState(group)
	b.record("load_state", start)
	return body, ok, err
}

// tracedHandler times the gatherd handler serving one worker's listener.
type tracedHandler struct {
	next  http.Handler
	mu    sync.Mutex
	calls []backendCall
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	h.calls = append(h.calls, backendCall{op: r.Method + " " + r.URL.Path, start: start, end: end})
	h.mu.Unlock()
}
