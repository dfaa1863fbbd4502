package main

// metricDef names one metric the program emits. /BENCHMARK.json lists the
// same names, units, directions and bounds; perf_test.go keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before `compare` calls it a regression. Per-layer
	// metrics have none.
	bound float64
	// exact marks a simulated statistic or a count: `compare` requires
	// equality, seed by seed.
	exact bool
}

// endToEnd are the metrics of an untraced run (-trace 0), in output order.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "host_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "work_per_host_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_iter", unit: "MB", better: "lower", bound: 0.03},
	{name: "mallocs_per_iter", unit: "count", better: "lower", bound: 0.06},
}

// perLayer are the metrics of a traced run (-trace 1), in output order.
var perLayer = []metricDef{
	// Simulated statistics: must repeat exactly for a given seed.
	{name: "virtual_ms", unit: "ms_virtual", better: "lower", exact: true},
	{name: "harness.sim_fingerprint_changes", unit: "count", better: "lower", exact: true},

	// Kind 1: stage spans recorded by the harness around public calls.
	{name: "cluster.new_ms", unit: "ms", better: "lower"},
	{name: "dsmsort.make_input_ms", unit: "ms", better: "lower"},
	{name: "dsmsort.sort_ms", unit: "ms", better: "lower"},
	{name: "dsmsort.run_formation_ms", unit: "ms", better: "lower"},
	{name: "dsmsort.merge_pass_ms", unit: "ms", better: "lower"},
	{name: "dsmsort.validate_ms", unit: "ms", better: "lower"},
	{name: "experiments.run_open_loop_ms", unit: "ms", better: "lower"},
	{name: "harness.unattributed_frac", unit: "fraction", better: "lower"},
	{name: "harness.trace_overhead_frac", unit: "fraction", better: "lower"},
	{name: "harness.host_ms_p90", unit: "ms", better: "lower"},
	{name: "harness.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "harness.gc_pause_ms_per_iter", unit: "ms", better: "lower"},

	// Kind 2: unit costs, median ns per public operation.
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.far_timer_ns", unit: "ns", better: "lower"},
	{name: "sim.proc_switch_ns", unit: "ns", better: "lower"},
	{name: "sim.spawn_exit_ns", unit: "ns", better: "lower"},
	{name: "sim.queue_handoff_ns", unit: "ns", better: "lower"},
	{name: "sim.resource_use_ns", unit: "ns", better: "lower"},
	{name: "disk.read_ns", unit: "ns", better: "lower"},
	{name: "disk.write_ns", unit: "ns", better: "lower"},
	{name: "netsim.stream_ns", unit: "ns", better: "lower"},
	{name: "cluster.compute_ns", unit: "ns", better: "lower"},
	{name: "records.generate_ns_per_rec", unit: "ns", better: "lower"},
	{name: "records.checksum_ns_per_rec", unit: "ns", better: "lower"},
	{name: "records.sort_ns_per_rec", unit: "ns", better: "lower"},
	{name: "records.clone_ns_per_rec", unit: "ns", better: "lower"},
	{name: "bufpool.get_put_ns", unit: "ns", better: "lower"},
	{name: "container.set_add_scan_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "route.pick_ns", unit: "ns", better: "lower"},
	{name: "telemetry.observe_ns", unit: "ns", better: "lower"},
	{name: "trace.span_ns", unit: "ns", better: "lower"},
	{name: "recorder.span_write_ns", unit: "ns", better: "lower"},

	// Kind 3: counts and ratios per iteration; must repeat exactly.
	{name: "sim.wheel_hits", unit: "count", better: "lower", exact: true},
	{name: "sim.heap_spills", unit: "count", better: "lower", exact: true},
	{name: "sim.proc_reuses", unit: "count", better: "higher", exact: true},
	{name: "cluster.cpu_holds", unit: "count", better: "lower", exact: true},
	{name: "disk.ops", unit: "count", better: "lower", exact: true},
	{name: "disk.bytes", unit: "bytes", better: "lower", exact: true},
	{name: "netsim.msgs", unit: "count", better: "lower", exact: true},
	{name: "netsim.bytes", unit: "bytes", better: "lower", exact: true},
	{name: "functor.packets", unit: "count", better: "lower", exact: true},
	{name: "functor.records", unit: "count", better: "lower", exact: true},
	{name: "route.picks", unit: "count", better: "lower", exact: true},
	{name: "dsmsort.runs", unit: "count", better: "lower", exact: true},
	{name: "dsmsort.merge_offload_ops", unit: "count", better: "higher", exact: true},
	{name: "bufpool.gets", unit: "count", better: "lower", exact: true},
	{name: "bufpool.reuse_ratio", unit: "fraction", better: "higher", exact: true},
	{name: "bufpool.outstanding_after", unit: "count", better: "lower", exact: true},
	{name: "trace.events_per_iter", unit: "count", better: "lower", exact: true},
	{name: "recorder.bytes_per_iter", unit: "bytes", better: "lower"},

	// <layer>.est_ms: computed budgets, unit cost x count.
	{name: "sim.est_ms", unit: "ms", better: "lower"},
	{name: "cluster.est_ms", unit: "ms", better: "lower"},
	{name: "disk.est_ms", unit: "ms", better: "lower"},
	{name: "netsim.est_ms", unit: "ms", better: "lower"},
	{name: "records.est_ms", unit: "ms", better: "lower"},
	{name: "bufpool.est_ms", unit: "ms", better: "lower"},
	{name: "container.est_ms", unit: "ms", better: "lower"},
	{name: "route.est_ms", unit: "ms", better: "lower"},
	{name: "trace.est_ms", unit: "ms", better: "lower"},
	{name: "recorder.est_ms", unit: "ms", better: "lower"},

	// Kind 4: observer cost on the sort_uniform cell.
	{name: "observe.trace_ms", unit: "ms", better: "lower"},
	{name: "observe.critpath_ms", unit: "ms", better: "lower"},
	{name: "observe.recorder_ms", unit: "ms", better: "lower"},
	{name: "observe.all_ratio", unit: "ratio", better: "lower"},
}
