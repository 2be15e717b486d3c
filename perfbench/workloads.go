package main

import (
	"fmt"

	"github.com/fatgather/fatgather/internal/adversary"
	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/workload"
)

// budget is the per-cell event budget of every workload: the experiment
// suite's default (experiments.DefaultMaxEvents).
const budget = 150000

// snapshotEvery matches the experiment suite's hull-area sampling period, so
// the cells do the same work as the tables they stand for.
const snapshotEvery = 50

// spec describes one named benchmark workload: the cell grid it generates from
// a base seed and how the grid is executed.
type spec struct {
	name string
	why  string
	// cells expands the grid for a base seed. short shrinks it to a few cells
	// for the package's own test.
	cells func(base int64, short bool) []engine.Cell
	// byHand keeps the workload out of BENCHMARK.json: it runs only when
	// named on the command line. e5-seq is one: its cost sits in six large-n
	// clustered cells per grid instance that livelock after 16k-57k events,
	// so one instance's CPU time varies by about 20% from seed to seed (4.7 s
	// to 7.7 s on the 2-vCPU VM the benchmark was defined on), and the grid
	// instances that fit in one run cannot average that below the bounds.
	byHand bool
	// workers is the engine pool size (per coordinated worker for coord).
	workers int
	// cache runs the grid with a memoizing workload.Cache.
	cache bool
	// coord drains the grid with two lease-claiming sweep.RunSharded workers
	// through an in-process gatherd instead of one engine.Run call.
	coord bool
}

// specs lists the workloads; those not byHand in the order BENCHMARK.json
// names them.
var specs = []spec{
	{
		name: "e5-seq",
		why: "E5 Theorem-26 grid on one engine worker: the single-threaded baseline, " +
			"dominated by robot-local Compute (core.Decide), n=16 views take the vision grid path",
		cells:   e5Cells,
		workers: 1,
		byHand:  true,
	},
	{
		name: "e13-cross",
		why: "E13 cross of all 8 strategies (crash(1) included) x 3 shapes at n=6 on a 2-worker pool " +
			"with the workload cache: every adversary, the livelock detector and pool stragglers",
		cells:   e13Cells,
		workers: 2,
		cache:   true,
	},
	{
		name: "coord-sweep",
		why: "1920 cheap cells drained by two lease-claiming workers through an in-process gatherd: " +
			"the sweep store, lease and gatherd layers do real work here and none elsewhere",
		cells:   coordCells,
		workers: 1,
		cache:   true,
		coord:   true,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// seedsOf derives a workload's per-cell seeds from the base seed: replica s
// of grid point (stream, n) gets an independent workload seed and adversary
// seed, so two base seeds give unrelated grids of the same shape.
func seedsOf(base int64, stream string, n, s int) (ws, as int64) {
	ws = engine.DeriveSeed(base, engine.StreamOf("perfbench", stream, "workload"), int64(n), int64(s))
	as = engine.DeriveSeed(base, engine.StreamOf("perfbench", stream, "adversary"), int64(n), int64(s))
	return ws, as
}

// stamp fills the adversary fields of a cell from a strategy name, giving the
// crash strategy its one crash-stopped robot as the E13 table does.
func stamp(c *engine.Cell, strategy string) {
	c.Adversary = strategy
	if strategy == adversary.NameCrash {
		c.Crash = 1
	}
}

// e5Cells is the E5 grid: n in {2,3,4,5,8,12,16} x 3 seeds x {clustered,
// nested-hulls} under random-async.
func e5Cells(base int64, short bool) []engine.Cell {
	ns, seeds := []int{2, 3, 4, 5, 8, 12, 16}, 3
	if short {
		ns, seeds = []int{2, 3}, 1
	}
	var cells []engine.Cell
	for _, n := range ns {
		for s := 0; s < seeds; s++ {
			for _, kind := range []workload.Kind{workload.KindClustered, workload.KindNestedHulls} {
				ws, as := seedsOf(base, "e5-seq|"+string(kind), n, s)
				c := engine.Cell{
					Workload: kind, N: n, WorkloadSeed: ws, AdversarySeed: as,
					MaxEvents: budget, SnapshotEvery: snapshotEvery,
				}
				stamp(&c, adversary.NameRandomAsync)
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// e13Cells is the E13 cross: every strategy x {clustered, nested-hulls, ring}
// x 12 seeds at n=6.
func e13Cells(base int64, short bool) []engine.Cell {
	const n = 6
	seeds, names := 12, adversary.Names()
	if short {
		seeds, names = 1, []string{adversary.NameFair, adversary.NameCrash}
	}
	var cells []engine.Cell
	for _, name := range names {
		for _, kind := range []workload.Kind{workload.KindClustered, workload.KindNestedHulls, workload.KindRing} {
			for s := 0; s < seeds; s++ {
				// The workload seed ignores the strategy, so the eight
				// strategies share placements and the cache has hits.
				ws, _ := seedsOf(base, "e13-cross|"+string(kind), n, s)
				_, as := seedsOf(base, "e13-cross|"+string(kind)+"|"+name, n, s)
				c := engine.Cell{
					Workload: kind, N: n, WorkloadSeed: ws, AdversarySeed: as,
					MaxEvents: budget, SnapshotEvery: snapshotEvery,
				}
				stamp(&c, name)
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// coordStrategies are the fault-free strategies of coord-sweep: all but
// round-robin-lag (whose blocked-path schedules livelock and dominate the
// cost) and crash.
func coordStrategies() []string {
	var out []string
	for _, name := range adversary.Names() {
		if name != adversary.NameRoundRobinLag && name != adversary.NameCrash {
			out = append(out, name)
		}
	}
	return out
}

// coordCells is the coord-sweep grid: n in {2,3} x {clustered, nested-hulls,
// ring, random} x 6 strategies x 40 seeds. Seeds are innermost, so each of the
// 48 lease groups is 40 consecutive cells.
func coordCells(base int64, short bool) []engine.Cell {
	seeds, ns := 40, []int{2, 3}
	kinds := []workload.Kind{workload.KindClustered, workload.KindNestedHulls, workload.KindRing, workload.KindRandom}
	strategies := coordStrategies()
	if short {
		seeds, ns, kinds, strategies = 2, []int{2}, kinds[:2], strategies[:2]
	}
	var cells []engine.Cell
	for _, n := range ns {
		for _, kind := range kinds {
			for _, name := range strategies {
				for s := 0; s < seeds; s++ {
					ws, _ := seedsOf(base, "coord-sweep|"+string(kind), n, s)
					_, as := seedsOf(base, "coord-sweep|"+string(kind)+"|"+name, n, s)
					c := engine.Cell{
						Workload: kind, N: n, WorkloadSeed: ws, AdversarySeed: as,
						MaxEvents: budget, SnapshotEvery: snapshotEvery,
					}
					stamp(&c, name)
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}
