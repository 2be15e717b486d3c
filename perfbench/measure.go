package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	base    int64
	seconds time.Duration
	short   bool
	out     string // directory for trace output ("" writes none)
}

// minRounds is the fewest grid instances an untraced run executes.
const minRounds = 3

// roundSeed is the base seed of round r: every round is an independent
// instance of the workload's grid, and round 0 is the one the traced run
// executes.
func roundSeed(base int64, r int) int64 {
	return engine.DeriveSeed(base, engine.StreamOf("perfbench", "round"), int64(r))
}

// repeatEvery is the repeat check's sampling period: every repeatEvery-th
// cell of round 0 runs again through the engine's sequential reference path
// (engine.Cell.Run) and must reproduce its result.
const repeatEvery = 8

// setupReps is how many extra set-ups an untraced run times besides the one
// before each round, so setup_s is a median over enough samples to be steady.
func setupReps(sp spec) int {
	if sp.coord {
		return 8
	}
	return 30
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newReport turns a verdict and metric values into the result line, taking
// each metric's unit from the catalog.
func newReport(v *verdict, values map[string]float64, catalog []metricDef) report {
	rep := report{Correct: v.ok(), Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	for _, d := range catalog {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for _, p := range v.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	return rep
}

// measure is the untraced run. It executes independent instances of the
// workload's grid ("rounds"), each set up afresh, until --seconds have passed
// (at least minRounds), and checks every cell. Each round's times are scaled
// to the reference host by the probes taken around it (hostScale), as are the
// extra set-ups timed before the rounds. The reported times and rates are
// medians, which a round slowed by a burst of host load does not move. Rounds
// are grid instances from consecutive round seeds, so a run that fits more of
// them only adds samples to the same medians.
func measure(sp spec, cfg runConfig) (report, error) {
	var setups, walls, cpus, rates, rss []float64
	before := probe()
	for i := 0; i < setupReps(sp); i++ {
		r, err := setUp(sp, cfg.base, cfg.short, nil)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, r.setup.Seconds())
		r.close()
	}
	scale := hostScale(before, probe())
	for i := range setups {
		setups[i] *= scale
	}
	gathered, cells := 0, 0
	var verdicts []*verdict
	var first *rig
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < cfg.seconds; round++ {
		before = probe()
		resetPeakRSS()
		r, err := setUp(sp, roundSeed(cfg.base, round), cfg.short, nil)
		if err != nil {
			return report{}, err
		}
		p := r.run(nil)
		r.close()
		rss = append(rss, peakRSSMiB())
		after := probe()
		scale := hostScale(before, after)
		setups = append(setups, r.setup.Seconds()*scale)
		if round == 0 {
			first = r
		}
		rv := &verdict{}
		for w, res := range p.results {
			rv.check(fmt.Sprintf("round %d worker %d", round, w), r.keys, res)
		}
		verdicts = append(verdicts, rv)
		events := 0
		for _, res := range p.results[0] {
			events += res.Result.Events
			if res.Result.Gathered() {
				gathered++
			}
		}
		cells += len(r.cells)
		walls = append(walls, p.wall.Seconds()*scale)
		cpus = append(cpus, p.cpu.Seconds()*scale)
		rates = append(rates, float64(events)/p.wall.Seconds()/scale)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d round %d: %d cells, %d events, wall %.3fs, cpu %.3fs, probes %.1f/%.1fms (scale %.3f), setup %.6fs, peak rss %.1fMiB, digest %016x\n",
			sp.name, cfg.base, round, len(r.cells), events, p.wall.Seconds(), p.cpu.Seconds(),
			before.Seconds()*1000, after.Seconds()*1000, scale, r.setup.Seconds(), rss[len(rss)-1], rv.digest())
	}
	repeatCheck(verdicts[0], sp, first)
	v := &verdict{}
	for _, rv := range verdicts {
		v.merge(rv)
	}
	values := map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        median(walls),
		"events_per_s":  median(rates),
		"cpu_s":         median(cpus),
		"peak_rss_mb":   median(rss),
		"gathered_rate": float64(gathered) / float64(cells),
		"ok_rate":       1 - float64(v.failed)/float64(v.attempted),
	}
	return newReport(v, values, endToEnd), nil
}

// repeatCheck executes round 0 again, untimed, and compares it cell by cell
// with the timed execution v checked: for coord-sweep the whole grid through
// a solo engine.Run (the result the coordinated workers must reproduce),
// otherwise every repeatEvery-th cell through engine.Cell.Run.
func repeatCheck(v *verdict, sp spec, r *rig) {
	if sp.coord {
		v.compare("solo engine.Run of round 0", r.keys, solo(r.cells))
		return
	}
	for i := 0; i < len(r.cells); i += repeatEvery {
		res, err := r.cells[i].Run()
		got := engine.CellResult{Index: i, Cell: r.cells[i], Result: res, Err: err}
		if cellHash(r.keys[i], got) != v.ref[i] {
			v.failed++
			v.problem("repeat of round 0: cell %d [%s]: result differs from the timed execution", i, r.keys[i])
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
