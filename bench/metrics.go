package main

// metricDef names one reported metric. The two tables below are the
// benchmark's whole vocabulary; BENCHMARK.json at the repository root
// lists the same names and units and bench_test.go holds them equal.
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected (0 on per-layer
	// metrics, which are not gated).
	bound float64
}

// endToEnd are reported by every workload's untraced run and gated. The
// builder's contract wants every end-to-end metric on every workload, and
// the issue wants no bound past 15% and no cell gated that the reference
// host cannot hold to its bound: these are the numbers that mean
// something on all four workloads and hold. The others (README.md,
// "demoted") are per-layer metrics named after their workload. setup_s
// cannot be demoted — the contract requires it and tells to give it the
// largest bound — and the host's speed drifts by a fifth and more between
// two quarters of an hour, so it alone carries more than 15%.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"allocs_per_elem", "count", 0.03},
	{"bytes_per_elem", "B", 0.03},
}

// perLayer are reported by the traced run. A metric owned by a workload
// that is not the one running reads 0: that layer did no work.
var perLayer = []metricDef{
	// Demoted end-to-end cells: what a workload's users see.
	{"chain_replay.throughput_eps", "1/s", 0},
	{"chain_replay.scalar_throughput_eps", "1/s", 0},
	{"cql_multiquery.throughput_eps", "1/s", 0},
	{"cql_multiquery.monitored_throughput_eps", "1/s", 0},
	{"service_live.throughput_eps", "1/s", 0},
	{"service_live.cpu_us_per_elem", "us", 0},
	{"service_live.deliver_p50_ms", "ms", 0},
	{"service_live.deliver_p99_ms", "ms", 0},
	{"service_live.submit_p50_ms", "ms", 0},
	{"service_live.first_result_p50_ms", "ms", 0},
	{"checkpoint_recover.throughput_eps", "1/s", 0},
	{"checkpoint_recover.recovery_ms", "ms", 0},
	{"checkpoint_recover.ckpt_written_bytes_per_round", "B", 0},

	// The ladder: rung i is rung i-1 plus one layer.
	{"ladder.source_sink.ns_per_elem", "ns", 0},
	{"ladder.source_sink.allocs_per_elem", "count", 0},
	{"ladder.ops_segment.ns_per_elem", "ns", 0},
	{"ladder.ops_segment.allocs_per_elem", "count", 0},
	{"ladder.boundary.ns_per_elem", "ns", 0},
	{"ladder.boundary.allocs_per_elem", "count", 0},
	{"ladder.stateful_tail.ns_per_elem", "ns", 0},
	{"ladder.stateful_tail.allocs_per_elem", "count", 0},
	{"ladder.flight.ns_per_elem", "ns", 0},
	{"ladder.flight.allocs_per_elem", "count", 0},
	{"ladder.monitors.ns_per_elem", "ns", 0},
	{"ladder.monitors.allocs_per_elem", "count", 0},
	{"ladder.checkpoint.ns_per_elem", "ns", 0},
	{"ladder.checkpoint.allocs_per_elem", "count", 0},
	{"ladder.service_sink.ns_per_elem", "ns", 0},
	{"ladder.service_sink.allocs_per_elem", "count", 0},
	{"ladder.remote.ns_per_elem", "ns", 0},
	{"ladder.remote.allocs_per_elem", "count", 0},

	{"pubsub.frame1_ns_per_elem", "ns", 0},
	{"pubsub.scalar_ns_per_elem", "ns", 0},
	{"pubsub.buffer_ns_per_elem", "ns", 0},
	{"pubsub.frame_fill", "count", 0},
	{"ops.segment_self_ns_per_elem", "ns", 0},
	{"ops.tail_self_ns_per_elem", "ns", 0},
	{"ops.filter.ns_per_elem", "ns", 0},
	{"ops.filter.selectivity", "ratio", 0},
	{"ops.map.ns_per_elem", "ns", 0},
	{"ops.map.selectivity", "ratio", 0},
	{"ops.window.ns_per_elem", "ns", 0},
	{"ops.window.selectivity", "ratio", 0},
	{"ops.groupby.ns_per_elem", "ns", 0},
	{"ops.groupby.selectivity", "ratio", 0},
	{"ops.join.ns_per_elem", "ns", 0},
	{"ops.join.selectivity", "ratio", 0},
	{"sched.boundary_ns_per_elem", "ns", 0},
	{"sched.steals", "count", 0},
	{"sched.contended", "count", 0},
	{"cql.parse_us", "us", 0},
	{"cql.eval_ns_per_tuple", "ns", 0},
	{"cql.eval_allocs_per_tuple", "count", 0},
	{"cql.tuple_gob_bytes", "B", 0},
	{"optimizer.add_us", "us", 0},
	{"optimizer.remove_us", "us", 0},
	{"optimizer.shared_node_frac", "ratio", 0},
	{"optimizer.operators", "count", 0},
	{"metadata.monitored_ratio", "ratio", 0},
	{"telemetry.flight_ratio", "ratio", 0},
	{"telemetry.trace_ratio", "ratio", 0},
	{"ft.rounds", "count", 0},
	{"ft.stall_ms_per_round", "ms", 0},
	{"ft.barrier_ms_per_round", "ms", 0},
	{"ft.encode_ms_per_round", "ms", 0},
	{"ft.write_ms_per_round", "ms", 0},
	{"ft.full_bytes_per_round", "B", 0},
	{"ft.delta_ratio", "ratio", 0},
	{"ft.state_bytes", "B", 0},
	{"ft.overhead_ratio", "ratio", 0},
	{"ft.recover_resolve_ms", "ms", 0},
	{"ft.recover_restore_ms", "ms", 0},
	{"ft.replayed_elems", "count", 0},
	{"archive.replay_ns_per_elem", "ns", 0},
	{"service.admit_us", "us", 0},
	{"service.kill_ms", "ms", 0},
	{"service.append_ns_per_result", "ns", 0},
	{"service.page_ms", "ms", 0},
	{"service.sse_bytes_per_result", "B", 0},
	{"service.results", "count", 0},
	{"service.shed", "count", 0},
	{"service.rejects", "count", 0},
	{"remote.throughput_eps", "1/s", 0},
	{"remote.bytes_per_elem", "B", 0},
	{"remote.allocs_per_elem", "count", 0},
	{"gen.lag_p99_ms", "ms", 0},
	{"trace.overhead_ratio", "ratio", 0},
}
