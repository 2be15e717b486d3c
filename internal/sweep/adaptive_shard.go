package sweep

import (
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/metrics"
	"github.com/fatgather/fatgather/internal/obs"
)

// adaptiveShardGroup is one cell group of a sharded adaptive sweep: the
// group's input replicas (in input order) plus the positions they occupy in
// the input slice.
type adaptiveShardGroup struct {
	key     string
	sample  engine.Cell
	initial []engine.Cell
}

// adaptiveProgress is a group's position on its adaptive trajectory, as
// derived from the result store alone. The trajectory — which seed replicas a
// group consumes, and when it stops — is a deterministic function of the
// per-replica results (the stopping rule Adaptive.stopAt evaluated on seed
// prefixes), so every worker that sees the same store history computes the
// same progress. That recomputability is the convergence contract of the
// cross-worker protocol: the store is the ground truth, and the published
// adaptive-state records are observability artifacts for operators and
// tests, never read back by the workers themselves.
type adaptiveProgress struct {
	// results holds the completed replicas in trajectory order; when closed
	// it is the group's full replica set.
	results []engine.CellResult
	// pending is the next block of work: the still-missing initial replicas,
	// or the single next extra replica once the initial block is complete.
	// Empty iff closed.
	pending []engine.Cell
	// seeds is the number of replicas consumed so far (final once closed).
	seeds int
	// halfWidth is the 95% CI half-width over the successful replicas so far.
	halfWidth float64
	// closed reports that the stopping rule fired: converged or at the cap.
	closed bool
}

// eval walks the group's deterministic seed trajectory against the store's
// current in-memory view plus a local overlay of results this worker ran but
// could not checkpoint (Append failures must not stall the trajectory —
// exactly like the in-memory accumulation of RunAdaptive, they only mean the
// cells re-run on a later resume): first the input replicas, then derived
// extras (nextReplica) for as long as the stopping rule keeps the group open
// and a result for the next replica is known. It never runs anything —
// callers run progress.pending and re-eval.
//
// collect controls whether pr.results is materialized. The cooperative wait
// loop peeks at groups on every poll tick just to learn closed/pending;
// copying every stored result (with its snapshot series) there would be
// sustained allocation churn proportional to the whole sweep, so peeks pass
// false and the full result set is built exactly once, at collection time.
func (g *adaptiveShardGroup) eval(ad Adaptive, store *Store, local map[string]Stored, collect bool) adaptiveProgress {
	var pr adaptiveProgress
	var values []float64
	var maxSeed int64
	lookup := func(key string) (Stored, bool) {
		if st, ok := store.Lookup(key); ok {
			return st, true
		}
		st, ok := local[key]
		return st, ok
	}
	have := 0
	observe := func(c engine.Cell, st Stored) {
		have++
		if collect {
			pr.results = append(pr.results, engine.CellResult{
				Cell:    c,
				Result:  st.Result,
				Err:     st.Err,
				Elapsed: st.Elapsed,
			})
		}
		if st.Err == nil {
			values = append(values, ad.Metric(st.Result))
		}
	}
	for _, c := range g.initial {
		if c.WorkloadSeed > maxSeed {
			maxSeed = c.WorkloadSeed
		}
		if st, ok := lookup(c.Key()); ok {
			observe(c, st)
		} else {
			pr.pending = append(pr.pending, c)
		}
	}
	if len(pr.pending) > 0 {
		// The stopping rule is only ever evaluated on complete seed prefixes
		// (exactly like the single-process scheduler, which finishes a round
		// before deciding): the initial block must land first.
		pr.seeds = have
		pr.halfWidth = metrics.CI95HalfWidth(values)
		return pr
	}
	pr.seeds = len(g.initial)
	for !ad.stopAt(pr.seeds, values) {
		next := nextReplica(g.sample, maxSeed)
		maxSeed = next.WorkloadSeed
		st, ok := lookup(next.Key())
		if !ok {
			pr.pending = append(pr.pending, next)
			pr.halfWidth = metrics.CI95HalfWidth(values)
			return pr
		}
		observe(next, st)
		pr.seeds++
	}
	pr.closed = true
	pr.halfWidth = metrics.CI95HalfWidth(values)
	return pr
}

// RunAdaptiveSharded runs an adaptive sweep as one worker of a multi-process
// fleet: the cross-worker generalization of RunAdaptive over the RunSharded
// lease machinery. Cell groups are claimed through lease files in the shared
// sweep directory; the claiming worker merges the fleet's stored history,
// runs the group's next seed block, re-evaluates the confidence interval
// against the merged history, and repeats until the group's stopping rule
// fires, publishing per-group adaptive-state records (seeds consumed, CI
// half-width, open/closed) alongside the leases. Because the adaptive
// trajectory is a deterministic function of the stored per-replica results,
// every worker converges on identical per-group seed counts and returns the
// complete result set in the exact order RunAdaptive would produce — tables
// are byte-identical for any fleet size, with no replica executed twice while
// leases hold.
//
// Like RunSharded it requires Shard.Owner and opts.Store, and drains the
// whole sweep, waiting on peers and reclaiming expired leases; the returned
// GroupSeeds cover every group.
func RunAdaptiveSharded(cells []engine.Cell, opts Options, ad Adaptive, sh Shard) ([]engine.CellResult, []GroupSeeds, ShardStats) {
	ad = ad.withDefaults()
	sh = sh.withDefaults()
	var stats ShardStats

	groups := make(map[string]*adaptiveShardGroup)
	var order []string
	for _, c := range cells {
		gk := groupKeyOf(c)
		g, ok := groups[gk]
		if !ok {
			g = &adaptiveShardGroup{key: gk, sample: c}
			groups[gk] = g
			order = append(order, gk)
		}
		g.initial = append(g.initial, c)
	}

	obs.SweepGroups(len(order))

	eopts := opts
	eopts.OnResult = nil

	closed := make(map[string]adaptiveProgress)
	infosByKey := make(map[string]GroupSeeds)
	record := func(gk string, pr adaptiveProgress) {
		closed[gk] = pr
		infosByKey[gk] = GroupSeeds{
			Key:       gk,
			Seeds:     pr.seeds,
			HalfWidth: pr.halfWidth,
			Converged: pr.halfWidth <= ad.TargetCI,
		}
	}

	runAdaptiveCooperative(groups, order, eopts, ad, sh, &stats, record)

	// Assemble the canonical result order — the exact order RunAdaptive
	// emits: the input cells first, then round by round one extra replica per
	// still-open group, groups in first-seen order.
	var out []engine.CellResult
	pos := make(map[string]int)
	for _, c := range cells {
		gk := groupKeyOf(c)
		out = append(out, closed[gk].results[pos[gk]])
		pos[gk]++
	}
	for r := 0; ; r++ {
		emitted := false
		for _, gk := range order {
			pr := closed[gk]
			idx := len(groups[gk].initial) + r
			if idx < len(pr.results) {
				out = append(out, pr.results[idx])
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	for i := range out {
		out[i].Index = i
	}
	// Everything collected but not executed here was served from the store —
	// either resumed from an earlier run or appended by peers.
	stats.Restored = len(out) - stats.Executed

	infos := make([]GroupSeeds, 0, len(infosByKey))
	for _, gk := range order {
		infos = append(infos, infosByKey[gk])
	}

	stats.GroupsSkipped = len(order) - stats.GroupsClaimed
	if opts.OnResult != nil {
		for _, r := range out {
			opts.OnResult(r)
		}
	}
	return out, infos, stats
}

// runAdaptiveCooperative is the lease-coordinated worker loop: claim open
// groups, run each claimed group's seed blocks to closure against the merged
// store history, publish adaptive-state records, and wait on peers for the
// rest.
func runAdaptiveCooperative(groups map[string]*adaptiveShardGroup, order []string,
	eopts Options, ad Adaptive, sh Shard, stats *ShardStats, record func(string, adaptiveProgress)) {
	store := eopts.Store
	lm := newClaimer(store.Backend(), sh)
	pub := newStatePublisher(store.Backend(), sh.Owner)

	closed := make(map[string]bool)
	// local holds results this worker ran that the store could not persist
	// (Append failures): eval consults it so a broken disk degrades to
	// re-runs on resume, never to a stalled trajectory.
	local := make(map[string]Stored)
	stateOf := func(gk string, pr adaptiveProgress) adaptiveState {
		return adaptiveState{
			Version:   AdaptiveStateVersion,
			Engine:    engine.Version,
			Group:     gk,
			Seeds:     pr.seeds,
			HalfWidth: pr.halfWidth,
			Closed:    pr.closed,
		}
	}

	// attemptRun claims one open group and runs it to closure. It reports
	// whether this worker made progress on the group (claimed it, or closed
	// it leaselessly); false means a peer holds a fresh lease.
	attemptRun := func(gk string) bool {
		g := groups[gk]
		l, reclaimed, err := lm.claim(gk)
		if err != nil {
			// The lease layer is broken (unwritable dir, I/O error). Leases
			// only split work, never guard correctness — duplicate replicas
			// append bit-identical records — so run leaseless rather than
			// spinning on a claim that cannot succeed.
			stats.LeaseErrs++
		} else if l == nil {
			return false
		}
		if reclaimed {
			stats.LeasesReclaimed++
			obs.SweepLeaseReclaimed()
		}
		// Merge the fleet's history before deciding what is left to run: the
		// previous holder may have finished (or advanced) the group between
		// our store scan and the claim.
		_, _ = store.Reload()
		pr := g.eval(ad, store, local, false)
		ran := !pr.closed
		if ran {
			obs.SweepGroupClaimed()
			var stopHB func()
			if l != nil {
				stopHB = l.heartbeat(sh.Heartbeat)
			}
			for !pr.closed {
				_ = pub.publish(stateOf(gk, pr))
				obs.SweepAdaptive(gk, pr.seeds, pr.halfWidth, false)
				res, st := Run(pr.pending, eopts)
				stats.Executed += st.Executed
				stats.AppendErrs += st.AppendErrs
				// Run appended this block to the store (and its in-memory
				// view), so the next eval sees the merged history including
				// this worker's replicas; the local overlay covers any
				// result the append could not persist.
				for _, r := range res {
					local[r.Cell.Key()] = Stored{Result: r.Result, Err: r.Err, Elapsed: r.Elapsed}
				}
				pr = g.eval(ad, store, local, false)
			}
			if stopHB != nil {
				stopHB()
			}
			stats.GroupsClaimed++
			obs.SweepGroupDone()
		}
		record(gk, g.eval(ad, store, local, true))
		closed[gk] = true
		_ = pub.publish(stateOf(gk, pr))
		obs.SweepAdaptive(gk, pr.seeds, pr.halfWidth, pr.closed)
		if l != nil {
			l.release()
		}
		return true
	}

	for {
		progress := false
		for _, gk := range order {
			if closed[gk] {
				continue
			}
			// Groups already closed by the fleet are collected lease-free:
			// the stored history alone proves the trajectory ended. The peek
			// (collect=false) keeps the poll loop allocation-free; the full
			// result set is materialized once, here, at collection.
			if pr := groups[gk].eval(ad, store, local, false); pr.closed {
				record(gk, groups[gk].eval(ad, store, local, true))
				closed[gk] = true
				obs.SweepAdaptive(gk, pr.seeds, pr.halfWidth, true)
				progress = true
				continue
			}
			if attemptRun(gk) {
				progress = true
			}
		}
		obsAdaptiveOpen.Set(float64(len(order) - len(closed)))
		obsAdaptiveClosed.Set(float64(len(closed)))
		if len(closed) == len(order) {
			return
		}
		if !progress {
			time.Sleep(sh.Poll)
		}
		_, _ = store.Reload()
	}
}
