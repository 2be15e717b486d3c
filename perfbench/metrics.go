package main

// metricDef is one metric the benchmark emits. BENCHMARK.json lists the same
// names, units and directions; moves records, for a per-layer metric, which
// end-to-end metric it should move and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string
	moves  string
}

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},               // grid expansion, coordinator start, store open
	{name: "wall_s", unit: "s", better: "lower"},                // first cell dispatched -> last result collected
	{name: "events_per_s", unit: "events/s", better: "higher"},  // simulated events / wall_s
	{name: "cpu_s", unit: "s", better: "lower"},                 // user+sys CPU over the timed phase
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},         // peak resident memory of the run
	{name: "gathered_rate", unit: "fraction", better: "higher"}, // cells ending connected and fully visible
	{name: "ok_rate", unit: "fraction", better: "higher"},       // cells that passed every correctness check
}

// perLayer are the traced run's metrics. Layer prefixes are module names.
// e5-seq runs only by hand (workloads.go, byHand).
var perLayer = []metricDef{
	{"engine.cells", "count", "higher", "wall_s on e13-cross"},
	{"engine.busy_s", "s", "lower", "wall_s on e13-cross"},
	{"engine.efficiency", "fraction", "higher", "wall_s on e13-cross"},
	{"engine.cell_p50_ms", "ms", "lower", "wall_s on e13-cross"},
	{"engine.cell_max_ms", "ms", "lower", "wall_s on e13-cross"},
	{"engine.self_s", "s", "lower", "wall_s on e13-cross"},

	{"core.decide_calls", "count", "lower", "events_per_s on e13-cross and e5-seq"},
	{"core.decide_s", "s", "lower", "wall_s and cpu_s on e13-cross and e5-seq"},
	{"core.decide_us", "us", "lower", "wall_s, events_per_s and cpu_s on e13-cross and e5-seq"},
	{"core.decide_us.k_lt16", "us", "lower", "events_per_s on e5-seq and e13-cross"},
	{"core.decide_us.k_ge16", "us", "lower", "events_per_s on e5-seq (0 on the other workloads)"},
	{"core.decide_share", "fraction", "lower", "wall_s on e13-cross and e5-seq (barely on coord-sweep)"},
	{"core.decide_replay_us", "us", "lower", "events_per_s on e13-cross and e5-seq"},
	{"core.stay_ratio", "fraction", "lower", "gathered_rate on e5-seq and e13-cross"},
	{"core.notconnected_share", "fraction", "lower", "gathered_rate on e5-seq and e13-cross"},

	{"vision.fully_visible_us", "us", "lower", "events_per_s on e13-cross and e5-seq"},
	{"incr.move_us", "us", "lower", "events_per_s on e13-cross and e5-seq"},

	{"adversary.next_s", "s", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"adversary.move_s", "s", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.events", "count", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.run_s", "s", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.self_s", "s", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.self_ns_per_event", "ns", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.step_ns.look", "ns", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.step_ns.begin_compute", "ns", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.step_ns.compute", "ns", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.step_ns.move", "ns", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.livelocked_event_share", "fraction", "lower", "events_per_s on e13-cross and coord-sweep"},
	{"sim.outcome.all-terminated", "count", "higher", "gathered_rate on e5-seq and e13-cross"},
	{"sim.outcome.gathered", "count", "higher", "gathered_rate on e5-seq and e13-cross"},
	{"sim.outcome.budget-exhausted", "count", "lower", "wall_s on e5-seq and e13-cross"},
	{"sim.outcome.stalled", "count", "lower", "gathered_rate on e13-cross"},
	{"sim.outcome.livelocked", "count", "lower", "gathered_rate on e5-seq and e13-cross"},
	{"sim.outcome.error", "count", "lower", "ok_rate on every workload"},

	{"workload.generate_s", "s", "lower", "setup_s and wall_s on coord-sweep (marginally)"},
	{"workload.cache_hit_ratio", "fraction", "higher", "wall_s on coord-sweep (marginally)"},

	{"sweep.open_s", "s", "lower", "setup_s on coord-sweep"},
	{"sweep.append_calls", "count", "lower", "wall_s and cpu_s on coord-sweep"},
	{"sweep.append_us", "us", "lower", "wall_s and cpu_s on coord-sweep"},
	{"sweep.read_calls", "count", "lower", "wall_s and cpu_s on coord-sweep"},
	{"sweep.read_bytes", "bytes", "lower", "cpu_s on coord-sweep"},
	{"sweep.empty_read_ratio", "fraction", "lower", "cpu_s on coord-sweep"},
	{"sweep.claim_calls", "count", "lower", "wall_s on coord-sweep"},
	{"sweep.claim_won_ratio", "fraction", "higher", "wall_s on coord-sweep"},
	{"sweep.executed", "count", "lower", "wall_s and cpu_s on coord-sweep"},
	{"sweep.restored", "count", "higher", "wall_s on coord-sweep"},
	{"sweep.dup_cells", "count", "lower", "wall_s and cpu_s on coord-sweep"},
	{"sweep.drain_wait_s", "s", "lower", "wall_s on coord-sweep"},
	{"sweep.self_s", "s", "lower", "wall_s on coord-sweep"},

	{"gatherd.requests", "count", "lower", "wall_s on coord-sweep"},
	{"gatherd.server_s", "s", "lower", "wall_s on coord-sweep"},
	{"gatherd.transport_s", "s", "lower", "wall_s on coord-sweep"},

	{"host.calib_ms", "ms", "lower", "none: the host probe the untraced run scales its times by"},
	{"trace.overhead_ratio", "fraction", "lower", "none: traced / untraced wall_s - 1"},
	{"trace.accounted_ratio", "fraction", "higher", "none: summed self times / traced lane time"},
}
