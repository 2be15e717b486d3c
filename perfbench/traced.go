package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/core"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/geom/incr"
	"github.com/fatgather/fatgather/internal/sim"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/sweep/netbackend"
	"github.com/fatgather/fatgather/internal/vision"
	"github.com/fatgather/fatgather/internal/workload"
)

// passTrace holds the wrappers one traced pass installs, per worker.
type passTrace struct {
	algs      [][]*tracedAlgorithm
	workloads []*tracedWorkloads
	backends  []*tracedBackend
	handlers  []*tracedHandler
}

func (t *passTrace) hooks() *hooks {
	n := coordWorkers
	t.algs = make([][]*tracedAlgorithm, n)
	t.workloads = make([]*tracedWorkloads, n)
	t.backends = make([]*tracedBackend, n)
	t.handlers = make([]*tracedHandler, n)
	return &hooks{
		cells: func(w int, cells []engine.Cell) []engine.Cell {
			out, algs := withAlgorithms(cells)
			t.algs[w] = algs
			return out
		},
		workloads: func(w int, gen engine.WorkloadFunc) engine.WorkloadFunc {
			t.workloads[w] = &tracedWorkloads{gen: gen}
			return t.workloads[w].generate
		},
		backend: func(w int, b sweep.Backend) sweep.Backend {
			t.backends[w] = &tracedBackend{Backend: b}
			return t.backends[w]
		},
		handler: func(w int, h http.Handler) http.Handler {
			t.handlers[w] = &tracedHandler{next: h}
			return t.handlers[w]
		},
	}
}

// cellRun is one cell execution seen by the traced pass.
type cellRun struct {
	worker, index int
	alg           *tracedAlgorithm
	elapsed       time.Duration
	gen           genCall
	start, end    time.Time
}

// executedCells lists the cells each worker actually ran (its Decide wrapper
// was called), with their start taken from the matching placement
// generation — the first thing a cell does — and their end from the engine's
// own Elapsed.
func (t *passTrace) executedCells(p passResult) []cellRun {
	var runs []cellRun
	for w, algs := range t.algs {
		if algs == nil {
			continue
		}
		var mine []cellRun
		for i, a := range algs {
			if a.calls > 0 {
				mine = append(mine, cellRun{worker: w, index: i, alg: a, elapsed: p.results[w][i].Elapsed})
			}
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].alg.first.Before(mine[j].alg.first) })
		var gens []genCall
		if t.workloads[w] != nil {
			gens = t.workloads[w].calls
		}
		used := make([]bool, len(gens))
		for k := range mine {
			c := p.results[w][mine[k].index].Cell
			for g, call := range gens {
				if !used[g] && call.kind == c.Workload && call.n == c.N && call.seed == c.WorkloadSeed && !call.start.After(mine[k].alg.first) {
					used[g] = true
					mine[k].gen = call
					break
				}
			}
			if mine[k].gen.start.IsZero() {
				mine[k].start = mine[k].alg.first // no generation seen: start at the first Compute
			} else {
				mine[k].start = mine[k].gen.start
			}
			mine[k].end = mine[k].start.Add(mine[k].elapsed)
		}
		runs = append(runs, mine...)
	}
	return runs
}

// spans builds the traced pass's span trees. Engine workloads get one lane per
// engine worker ("engine.worker"), each cell assigned to the lane that was free
// when it started. coord-sweep gets one lane per coordinated worker
// ("sweep.worker") holding its cells, its backend calls ("sweep.backend.<op>")
// and, under each call, the gatherd handler time spent serving it
// ("gatherd.server").
func (t *passTrace) spans(tr *tracer, sp spec, p passResult, runs []cellRun) (laneTime time.Duration) {
	cellSpan := func(root int, c cellRun) {
		id := tr.interval(root, "engine.cell", c.start, c.end)
		if !c.gen.start.IsZero() {
			tr.interval(id, "workload.generate", c.gen.start, c.gen.end)
		}
		tr.fold(id, "core.decide", c.alg.calls, c.alg.first, c.alg.last, c.alg.busy)
	}
	if !sp.coord {
		roots := make([]int, sp.workers)
		free := make([]time.Time, sp.workers)
		for l := range roots {
			roots[l] = tr.interval(0, "engine.worker", p.start, p.done[0])
			free[l] = p.start
			laneTime += p.done[0].Sub(p.start)
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].start.Before(runs[j].start) })
		for _, c := range runs {
			// Best fit: the lane freed last before this cell started; a
			// lane still busy by a few microseconds counts as free (the two
			// clocks behind a cell's bounds are read a little apart).
			const slack = 50 * time.Microsecond
			best := -1
			for l := range free {
				if !free[l].After(c.start.Add(slack)) && (best < 0 || free[l].After(free[best])) {
					best = l
				}
			}
			if best < 0 {
				best = 0
				for l := range free {
					if free[l].Before(free[best]) {
						best = l
					}
				}
			}
			if c.start.Before(free[best]) {
				c.start = free[best]
			}
			if c.end.After(p.done[0]) {
				c.end = p.done[0]
			}
			free[best] = c.end
			cellSpan(roots[best], c)
		}
		return laneTime
	}
	for w := range p.done {
		root := tr.interval(0, "sweep.worker", p.start, p.done[w])
		laneTime += p.done[w].Sub(p.start)
		for _, c := range runs {
			if c.worker == w {
				if c.end.After(p.done[w]) {
					c.end = p.done[w]
				}
				cellSpan(root, c)
			}
		}
		server := t.handlers[w].calls
		for _, call := range t.backends[w].calls {
			if call.start.Before(p.start) || call.end.After(p.done[w]) {
				continue // the store open belongs to set-up
			}
			id := tr.interval(root, "sweep.backend."+call.op, call.start, call.end)
			for _, s := range server {
				if !s.start.Before(call.start) && !s.end.After(call.end) {
					tr.interval(id, "gatherd.server", s.start, s.end)
				}
			}
		}
	}
	return laneTime
}

// simCell is one cell of the simulator pass.
type simCell struct {
	rec   *simRecorder
	alg   *tracedAlgorithm
	start time.Time
	end   time.Time
}

// runSimTraced runs a cell the way engine.Cell.Run does — workload.Generate,
// adversary.New, sim.Run with the cell's options — but with the strategy and
// the algorithm behind timing wrappers.
func runSimTraced(c engine.Cell) (engine.CellResult, *simCell) {
	out := engine.CellResult{Cell: c}
	initial, err := workload.Generate(c.Workload, c.N, c.WorkloadSeed)
	if err != nil {
		out.Err = fmt.Errorf("engine: cell workload: %w", err)
		return out, nil
	}
	strat, err := adversary.New(c.AdversarySpec(), c.AdversarySeed)
	if err != nil {
		out.Err = fmt.Errorf("engine: %w", err)
		return out, nil
	}
	sc := &simCell{rec: newSimRecorder(), alg: &tracedAlgorithm{}}
	sc.alg.stepChild = &sc.rec.stepChild
	sc.start = time.Now()
	out.Result, out.Err = sim.Run(initial, sim.Options{
		Algorithm:        sc.alg,
		Strategy:         traceStrategy(strat, sc.rec),
		Vision:           c.Vision,
		Delta:            c.Delta,
		MaxEvents:        c.MaxEvents,
		SnapshotEvery:    c.SnapshotEvery,
		StopWhenGathered: c.StopWhenGathered,
	})
	sc.end = time.Now()
	out.Elapsed = sc.end.Sub(sc.start)
	sc.rec.closeStep(sc.end)
	if sc.rec.initial == nil {
		sc.rec.observe(initial)
	}
	sc.rec.observe(out.Result.Final) // the last event's move, if it was one
	return out, sc
}

// fidelityCells are the cells whose results must not change when their
// strategy runs behind the timing wrapper: a crash(1) cell (the wrapper must
// forward Unwrap, or CrashedCount changes) and a sensor-noise cell (it must
// forward Perturber, or the schedule changes).
func fidelityCells(base int64) []engine.Cell {
	ws, as := seedsOf(base, "fidelity", 6, 0)
	crash := engine.Cell{Workload: workload.KindClustered, N: 6, WorkloadSeed: ws, AdversarySeed: as,
		MaxEvents: budget, SnapshotEvery: snapshotEvery}
	stamp(&crash, adversary.NameCrash)
	noise := engine.Cell{Workload: workload.KindNestedHulls, N: 6, WorkloadSeed: ws, AdversarySeed: as,
		MaxEvents: budget, SnapshotEvery: snapshotEvery, Adversary: adversary.NameRandomAsync, Noise: 0.05}
	return []engine.Cell{crash, noise}
}

func checkFidelity(v *verdict, base int64) {
	for _, c := range fidelityCells(base) {
		plain, err := c.Run()
		want := engine.CellResult{Cell: c, Result: plain, Err: err}
		got, _ := runSimTraced(c)
		key := c.Key()
		if cellHash(key, got) != cellHash(key, want) || got.Result.CrashedCount != plain.CrashedCount ||
			got.Result.SurvivorsGathered != plain.SurvivorsGathered || got.Result.Adversary != plain.Adversary {
			v.failed++
			v.problem("strategy wrapper changed the result of %s", key)
		}
	}
}

// calibrate is the median of five host probes in milliseconds: the host
// speed the untraced run scales its times by (hostScale).
func calibrate() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		ms = append(ms, probe().Seconds()*1000)
	}
	return median(ms)
}

// traceRun is the traced run. It executes the grid untraced once, then once
// with timing wrappers around every layer boundary the engine and sweep
// expose (Cell.Algorithm, the workload generator, the sweep backend and the
// gatherd handler), then once more cell by cell through sim.Run with the
// strategy wrapped as well; all three must agree cell for cell. It then
// replays the captured view corpus and move stream through core.Decide,
// vision.Default.FullyVisible and incr.Cache.Move, and writes the spans and
// the corpus under cfg.out.
func traceRun(sp spec, cfg runConfig) (report, error) {
	values := map[string]float64{"host.calib_ms": calibrate()}
	v := &verdict{}

	base := roundSeed(cfg.base, 0)
	r0, err := setUp(sp, base, cfg.short, nil)
	if err != nil {
		return report{}, err
	}
	p0 := r0.run(nil)
	r0.close()
	keys, cells := r0.keys, r0.cells
	for w, res := range p0.results {
		v.check(fmt.Sprintf("untraced pass worker %d", w), keys, res)
	}

	pt := &passTrace{}
	h := pt.hooks()
	rA, err := setUp(sp, base, cfg.short, h)
	if err != nil {
		return report{}, err
	}
	pA := rA.run(h)
	if sp.coord {
		values["sweep.open_s"], err = reopenTime(rA, len(cells))
		if err != nil {
			rA.close()
			return report{}, err
		}
	}
	rA.close()
	for w, res := range pA.results {
		v.check(fmt.Sprintf("traced pass worker %d", w), keys, res)
	}
	values["trace.overhead_ratio"] = pA.wall.Seconds()/p0.wall.Seconds() - 1

	tr := newTracer()
	runs := pt.executedCells(pA)
	laneTime := pt.spans(tr, sp, pA, runs)
	self := tr.attribute()
	engineMetrics(values, sp, pA, runs)
	coreMetrics(values, runs, laneTime)
	workloadMetrics(values, pt, pA)
	if sp.coord {
		sweepMetrics(values, pt, pA, len(cells))
	}
	var selfSum int64
	for name, ns := range self {
		selfSum += ns
		switch {
		case name == "engine.worker":
			values["engine.self_s"] += seconds(ns)
		case name == "engine.cell":
			values["sim.self_s"] += seconds(ns)
		case name == "sweep.worker":
			values["sweep.self_s"] += seconds(ns)
		case strings.HasPrefix(name, "sweep.backend."):
			values["gatherd.transport_s"] += seconds(ns)
		}
	}
	values["trace.accounted_ratio"] = float64(selfSum) / float64(laneTime.Nanoseconds())
	if r := values["trace.accounted_ratio"]; math.Abs(r-1) > 1e-3 {
		v.failed++
		v.problem("per-layer self times account for %.4f of the traced lane time, want 1", r)
	}

	simTr := newTracer()
	simResults, simCells := simPass(simTr, cells)
	v.compare("simulator pass", keys, simResults)
	simMetrics(values, simResults, simCells)
	checkFidelity(v, base)
	if sp.coord {
		v.compare("solo engine.Run", keys, solo(cells))
	}

	corpus := corpusOf(runs)
	replayMetrics(values, v, corpus, simResults, simCells)

	if cfg.out != "" {
		stem := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d", sp.name, cfg.base))
		// The corpus is the input of a differential test of core.Decide:
		// each line is a view and the decision the live run made on it.
		err := writeJSONL(stem+"-pass.spans.jsonl", tr.spans)
		if err == nil {
			err = writeJSONL(stem+"-sim.spans.jsonl", simTr.spans)
		}
		if err == nil {
			err = writeJSONL(stem+"-views.jsonl", corpus)
		}
		if err != nil {
			return report{}, err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: untraced wall %.3fs, traced wall %.3fs, digest %016x\n",
		sp.name, cfg.base, p0.wall.Seconds(), pA.wall.Seconds(), v.digest())
	return newReport(v, values, perLayer), nil
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// reopenTime is sweep.open_s: the median time to open the finished store
// again through a fresh gatherd client, as a restarted worker would.
func reopenTime(r *rig, want int) (float64, error) {
	var times []float64
	for i := 0; i < 3; i++ {
		cli, err := netbackend.NewClient(r.urls[0], r.store)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		st, err := sweep.OpenBackend(cli)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			_ = cli.Close()
			return 0, fmt.Errorf("reopen store: %w", err)
		}
		done := st.Done()
		_ = st.Close() // read-only use; closing only drops idle connections
		if done != want {
			return 0, fmt.Errorf("reopened store holds %d cells, want %d", done, want)
		}
	}
	return median(times), nil
}

func engineMetrics(values map[string]float64, sp spec, p passResult, runs []cellRun) {
	var ms []float64
	busy := time.Duration(0)
	for _, c := range runs {
		busy += c.elapsed
		ms = append(ms, c.elapsed.Seconds()*1000)
	}
	workers := sp.workers * len(p.done)
	values["engine.cells"] = float64(len(runs))
	values["engine.busy_s"] = busy.Seconds()
	values["engine.efficiency"] = busy.Seconds() / (float64(workers) * p.wall.Seconds())
	values["engine.cell_p50_ms"] = median(ms)
	sort.Float64s(ms)
	if len(ms) > 0 {
		values["engine.cell_max_ms"] = ms[len(ms)-1]
	}
}

func coreMetrics(values map[string]float64, runs []cellRun, laneTime time.Duration) {
	var calls, callsGE, stays, notConn int
	var busy, busyGE time.Duration
	for _, c := range runs {
		a := c.alg
		calls += a.calls
		callsGE += a.callsGE
		busy += a.busy
		busyGE += a.busyGE
		stays += a.stays
		notConn += a.notConnected
	}
	values["core.decide_calls"] = float64(calls)
	values["core.decide_s"] = busy.Seconds()
	values["core.decide_us"] = perCallUs(busy, calls)
	values["core.decide_us.k_lt16"] = perCallUs(busy-busyGE, calls-callsGE)
	values["core.decide_us.k_ge16"] = perCallUs(busyGE, callsGE)
	values["core.decide_share"] = busy.Seconds() / laneTime.Seconds()
	values["core.stay_ratio"] = ratio(stays, calls)
	values["core.notconnected_share"] = ratio(notConn, calls)
}

func workloadMetrics(values map[string]float64, pt *passTrace, p passResult) {
	var gen time.Duration
	for _, tw := range pt.workloads {
		if tw == nil {
			continue
		}
		for _, c := range tw.calls {
			gen += c.end.Sub(c.start)
		}
	}
	values["workload.generate_s"] = gen.Seconds()
	var hits, misses int64
	for _, c := range p.caches {
		if c != nil {
			h, m := c.Stats()
			hits += h
			misses += m
		}
	}
	values["workload.cache_hit_ratio"] = ratio(int(hits), int(hits+misses))
}

func sweepMetrics(values map[string]float64, pt *passTrace, p passResult, ncells int) {
	var appends, reads, claims, empty, won, requests int
	var appendBusy, server time.Duration
	var readBytes int64
	var drain time.Duration
	for w, b := range pt.backends {
		var lastAppend time.Time
		for _, c := range b.calls {
			if c.start.Before(p.start) {
				continue // set-up's store open
			}
			switch c.op {
			case "append":
				appends++
				appendBusy += c.end.Sub(c.start)
				lastAppend = c.end
			case "read":
				reads++
			case "claim":
				claims++
			}
		}
		if !lastAppend.IsZero() {
			drain += p.done[w].Sub(lastAppend)
		}
		empty += b.emptyReads
		won += b.claimsWon
		readBytes += b.readBytes
		for _, s := range pt.handlers[w].calls {
			if !s.start.Before(p.start) {
				requests++
				server += s.end.Sub(s.start)
			}
		}
	}
	executed, restored := 0, 0
	for _, st := range p.stats {
		executed += st.Executed
		restored += st.Restored
	}
	values["sweep.append_calls"] = float64(appends)
	values["sweep.append_us"] = perCallUs(appendBusy, appends)
	values["sweep.read_calls"] = float64(reads)
	values["sweep.read_bytes"] = float64(readBytes)
	values["sweep.empty_read_ratio"] = ratio(empty, reads)
	values["sweep.claim_calls"] = float64(claims)
	values["sweep.claim_won_ratio"] = ratio(won, claims)
	values["sweep.executed"] = float64(executed)
	values["sweep.restored"] = float64(restored)
	values["sweep.dup_cells"] = float64(max(0, executed-ncells))
	values["sweep.drain_wait_s"] = drain.Seconds()
	values["gatherd.requests"] = float64(requests)
	values["gatherd.server_s"] = server.Seconds()
}

// simPass runs every cell through runSimTraced, one after another, and
// records a "sim.run" span per cell with its adversary, Decide and per-step
// time folded beneath it.
func simPass(tr *tracer, cells []engine.Cell) ([]engine.CellResult, []*simCell) {
	results := make([]engine.CellResult, len(cells))
	scs := make([]*simCell, len(cells))
	for i, c := range cells {
		results[i], scs[i] = runSimTraced(c)
		results[i].Index = i
		sc := scs[i]
		if sc == nil {
			continue
		}
		id := tr.interval(0, "sim.run", sc.start, sc.end)
		rec := sc.rec
		tr.fold(id, "adversary.next", rec.nextN, sc.start, sc.end, rec.nextBusy)
		tr.fold(id, "adversary.move", rec.moveN, sc.start, sc.end, rec.moveBusy)
		tr.fold(id, "core.decide", sc.alg.calls, sc.alg.first, sc.alg.last, sc.alg.busy)
		tr.fold(id, "trace.capture", rec.nextN, sc.start, sc.end, rec.capture)
		for k := range rec.steps {
			tr.fold(id, "sim.step."+stepNames[k], rec.steps[k], sc.start, sc.end, rec.stepNs[k])
		}
	}
	return results, scs
}

func simMetrics(values map[string]float64, results []engine.CellResult, scs []*simCell) {
	var next, mv, decide, run, capture time.Duration
	var stepNs [numStepKinds]time.Duration
	var steps [numStepKinds]int
	events, livelockedEvents := 0, 0
	outcomes := map[sim.Outcome]int{}
	for i, r := range results {
		events += r.Result.Events
		outcomes[r.Result.Outcome]++
		if r.Result.Outcome == sim.OutcomeLivelocked {
			livelockedEvents += r.Result.Events
		}
		sc := scs[i]
		if sc == nil {
			continue
		}
		next += sc.rec.nextBusy
		mv += sc.rec.moveBusy
		decide += sc.alg.busy
		capture += sc.rec.capture
		run += sc.end.Sub(sc.start)
		for k := range steps {
			stepNs[k] += sc.rec.stepNs[k]
			steps[k] += sc.rec.steps[k]
		}
	}
	values["adversary.next_s"] = next.Seconds()
	values["adversary.move_s"] = mv.Seconds()
	values["sim.events"] = float64(events)
	values["sim.run_s"] = run.Seconds()
	if events > 0 {
		values["sim.self_ns_per_event"] = float64((run - next - mv - decide - capture).Nanoseconds()) / float64(events)
	}
	for k, name := range stepNames {
		if steps[k] > 0 {
			values["sim.step_ns."+name] = float64(stepNs[k].Nanoseconds()) / float64(steps[k])
		}
	}
	values["sim.livelocked_event_share"] = ratio(livelockedEvents, events)
	for o := sim.OutcomeAllTerminated; o <= sim.OutcomeError; o++ {
		values["sim.outcome."+o.String()] = float64(outcomes[o])
	}
}

// corpusOf gathers the captured views of the traced pass in cell order (the
// first worker to run a cell supplies its views), so the corpus depends only
// on the grid.
func corpusOf(runs []cellRun) []capturedView {
	byIndex := map[int]*tracedAlgorithm{}
	var order []int
	for _, c := range runs {
		if _, ok := byIndex[c.index]; !ok {
			byIndex[c.index] = c.alg
			order = append(order, c.index)
		}
	}
	sort.Ints(order)
	var corpus []capturedView
	for _, i := range order {
		corpus = append(corpus, byIndex[i].corpus...)
	}
	return corpus
}

// replayMetrics replays the view corpus through core.Decide (which must
// reproduce every live decision) and vision.Default.FullyVisible, and the
// simulator pass's move streams through a fresh incr.Cache (which must end at
// each cell's final configuration).
func replayMetrics(values map[string]float64, v *verdict, corpus []capturedView, results []engine.CellResult, scs []*simCell) {
	var decide, visible time.Duration
	for i, e := range corpus {
		start := time.Now()
		d := core.Decide(e.View)
		decide += time.Since(start)
		if !sameDecision(d, e.Decision) {
			v.failed++
			v.problem("view corpus entry %d: replayed decision differs from the live one", i)
		}
		all := e.View.All()
		start = time.Now()
		vision.Default.FullyVisible(all)
		visible += time.Since(start)
	}
	values["core.decide_replay_us"] = perCallUs(decide, len(corpus))
	values["vision.fully_visible_us"] = perCallUs(visible, len(corpus))

	var moveBusy time.Duration
	moves := 0
	for i, sc := range scs {
		if sc == nil || sc.rec.initial == nil {
			continue
		}
		c := incr.New(vision.Default, sc.rec.initial)
		start := time.Now()
		for _, m := range sc.rec.moves {
			c.Move(m.id, m.to)
		}
		moveBusy += time.Since(start)
		moves += len(sc.rec.moves)
		final := results[i].Result.Final
		for j, p := range c.Centers() {
			if j >= len(final) || p != final[j] {
				v.failed++
				v.problem("cell %d: replayed move stream does not end at the final configuration", i)
				break
			}
		}
	}
	values["incr.move_us"] = perCallUs(moveBusy, moves)
}

func sameDecision(a, b core.Decision) bool {
	if a.Terminate != b.Terminate || math.Float64bits(a.Target.X) != math.Float64bits(b.Target.X) ||
		math.Float64bits(a.Target.Y) != math.Float64bits(b.Target.Y) || len(a.Trace) != len(b.Trace) {
		return false
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			return false
		}
	}
	return true
}

func perCallUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * 1e6 / float64(n)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
