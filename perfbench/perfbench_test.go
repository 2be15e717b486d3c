package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the catalog must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCatalog checks that BENCHMARK.json names exactly the
// workloads (other than the by-hand ones) and metrics this package
// implements, with the same units and directions.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var benchmarked []spec
	for _, sp := range specs {
		if !sp.byHand {
			benchmarked = append(benchmarked, sp)
		}
	}
	if len(bf.Workloads) != len(benchmarked) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(bf.Workloads), len(benchmarked))
	}
	for i, w := range bf.Workloads {
		if w.Name != benchmarked[i].name || w.Why != benchmarked[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, w.Name, w.Why, benchmarked[i].name, benchmarked[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the package %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s/%s/%s, the package %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the package %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s/%s/%s, the package %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if d.moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", d.name)
		}
	}
}

// checkReport fails the test unless the run passed its correctness check and
// emitted every metric of the catalog, each with its unit.
func checkReport(t *testing.T, what string, rep report, catalog []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(catalog) {
		t.Errorf("%s: %d metrics emitted, want %d", what, len(rep.Metrics), len(catalog))
	}
	for _, d := range catalog {
		m, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, d.name)
			continue
		}
		if m.Unit == "" || m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.name, m.Unit, d.unit)
		}
	}
}

// TestShortRunsEmitEveryMetric runs every workload on its shrunken grid, once
// untraced and once traced, and checks both reports.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := runConfig{base: 7, seconds: time.Millisecond, short: true, out: t.TempDir()}
			rep, err := measure(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "untraced", rep, endToEnd)
			for _, name := range []string{"setup_s", "wall_s", "events_per_s", "cpu_s", "peak_rss_mb", "ok_rate"} {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("untraced: %s = %g, want > 0", name, rep.Metrics[name].Value)
				}
			}
			rep, err = traceRun(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "traced", rep, perLayer)
			if r := rep.Metrics["trace.accounted_ratio"].Value; r < 0.999 || r > 1.001 {
				t.Errorf("traced: self times account for %.4f of lane time, want 1", r)
			}
		})
	}
}

// TestAttributeSplitsLaneTime checks self-time attribution on a hand-built
// lane: a cell with a folded child, and an append overlapping the cell's tail.
func TestAttributeSplitsLaneTime(t *testing.T) {
	tr := &tracer{}
	root := tr.add(span{Name: "sweep.worker", Start: 0, End: 100, N: 1, Busy: 100})
	cell := tr.add(span{Parent: root, Name: "engine.cell", Start: 10, End: 60, N: 1, Busy: 50})
	tr.add(span{Parent: cell, Name: "core.decide", Start: 12, End: 58, N: 5, Busy: 30})
	tr.add(span{Parent: root, Name: "sweep.backend.append", Start: 50, End: 70, N: 1, Busy: 20})
	self := tr.attribute()
	want := map[string]int64{
		"sweep.worker":         40, // 0-10 and 70-100
		"engine.cell":          10, // 10-50 less the folded Decide time
		"core.decide":          30,
		"sweep.backend.append": 20, // the later-started sibling owns the overlap
	}
	var sum int64
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("self[%s] = %d, want %d", name, self[name], ns)
		}
		sum += self[name]
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want the lane's 100", sum)
	}
}
