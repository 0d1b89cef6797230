package main

// metricDef is one row of BENCHMARK.json: bench_test.go holds the two in
// step. bound is the share of the parent's median an end-to-end metric
// may worsen by; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is reported by every workload on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
}

// perLayer is reported by every workload on a traced run; a metric whose
// layer the workload leaves idle reads 0. README.md says which workload
// each one is read on and which end-to-end metric it should move.
var perLayer = []metricDef{
	// sim
	{"sim.events_per_op", "count", "lower", 0},
	{"sim.engine_ns_per_event", "ns", "lower", 0},
	// sched
	{"sched.decisions_per_op", "count", "higher", 0},
	{"sched.preemptions_per_op", "count", "lower", 0},
	{"sched.checkpoints_per_op", "count", "higher", 0},
	{"sched.kills_per_op", "count", "lower", 0},
	{"sched.restores_per_op", "count", "lower", 0},
	{"sched.run_ms_p50", "ms", "lower", 0},
	{"sched.us_per_preemption", "us", "lower", 0},
	{"density.generate_ms", "ms", "lower", 0},
	// core / storage
	{"core.select_victims_ns_per_call", "ns", "lower", 0},
	{"core.decide_preemption_ns_per_call", "ns", "lower", 0},
	{"core.decide_restore_ns_per_call", "ns", "lower", 0},
	{"storage.device_reserve_ns_per_call", "ns", "lower", 0},
	// yarn
	{"yarn.run_ms_p50", "ms", "lower", 0},
	{"yarn.preemptions_per_op", "count", "lower", 0},
	{"yarn.checkpoints_per_op", "count", "higher", 0},
	{"yarn.kills_per_op", "count", "lower", 0},
	{"yarn.restores_per_op", "count", "lower", 0},
	{"yarn.us_per_preemption", "us", "lower", 0},
	{"yarn.ckpt_dump_wall_ms", "ms", "lower", 0},
	{"yarn.ckpt_restore_wall_ms", "ms", "lower", 0},
	{"yarn.dfs_block_write_wall_ms", "ms", "lower", 0},
	{"yarn.dfs_block_read_wall_ms", "ms", "lower", 0},
	{"workload.facebook_ms", "ms", "lower", 0},
	// proc / checkpoint
	{"proc.step_ms_p50", "ms", "lower", 0},
	{"checkpoint.dump_full_ms_p50", "ms", "lower", 0},
	{"checkpoint.dump_incr_ms_p50", "ms", "lower", 0},
	{"checkpoint.restore_local_ms_p50", "ms", "lower", 0},
	{"checkpoint.restore_remote_ms_p50", "ms", "lower", 0},
	{"checkpoint.remove_chain_ms_p50", "ms", "lower", 0},
	{"checkpoint.dump_self_ms_p50", "ms", "lower", 0},
	{"checkpoint.restore_self_ms_p50", "ms", "lower", 0},
	{"checkpoint.dump_mibps", "MiB/s", "higher", 0},
	{"checkpoint.restore_mibps", "MiB/s", "higher", 0},
	{"checkpoint.stored_bytes_per_op", "count", "lower", 0},
	// dfs
	{"dfs.client_write_self_ms_p50", "ms", "lower", 0},
	{"dfs.client_read_self_ms_p50", "ms", "lower", 0},
	{"dfs.rpc.namenode_calls_per_op", "count", "lower", 0},
	{"dfs.rpc.datanode_calls_per_op", "count", "lower", 0},
	{"dfs.rpc.payload_bytes_per_op", "count", "lower", 0},
	{"dfs.rpc.namenode_ms_p50", "ms", "lower", 0},
	{"dfs.rpc.write_block_ms_p50", "ms", "lower", 0},
	{"dfs.rpc.read_block_ms_p50", "ms", "lower", 0},
	{"dfs.client_retries_per_op", "count", "lower", 0},
	// clusterd / obs
	{"clusterd.start_ms", "ms", "lower", 0},
	{"clusterd.shutdown_ms", "ms", "lower", 0},
	{"clusterd.submit_rtt_us_p50", "us", "lower", 0},
	{"clusterd.submit_rtt_us_p99", "us", "lower", 0},
	{"clusterd.admission_us_p99", "us", "lower", 0},
	{"clusterd.submit_phase_ms_p50", "ms", "lower", 0},
	{"clusterd.drain_phase_ms_p50", "ms", "lower", 0},
	{"clusterd.stats_rtt_us_p50", "us", "lower", 0},
	{"clusterd.rejected_per_op", "count", "lower", 0},
	{"obs.recorder_records_per_op", "count", "lower", 0},
	// process (every workload)
	{"process.cpu_ms_per_op", "ms", "lower", 0},
	{"process.gc_cycles_per_op", "count", "lower", 0},
	{"process.gc_pause_ms_per_op", "ms", "lower", 0},
	{"process.peak_heap_mib", "MiB", "lower", 0},
	{"wall.throughput_per_s_total", "1/s", "higher", 0},
	{"wall.op_ms_p50", "ms", "lower", 0},
	{"wall.op_ms_p90", "ms", "lower", 0},
	{"wall.op_ms_iqr_pct", "%", "lower", 0},
	{"wall.slowdown", "ratio", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// exact names the per-layer counts that must repeat on every op of a run
// and on every run of one seed, traced or not.
var exact = []string{
	"sim.events_per_op",
	"sched.decisions_per_op", "sched.preemptions_per_op", "sched.checkpoints_per_op",
	"sched.kills_per_op", "sched.restores_per_op",
	"yarn.preemptions_per_op", "yarn.checkpoints_per_op", "yarn.kills_per_op", "yarn.restores_per_op",
	"checkpoint.stored_bytes_per_op",
	"dfs.rpc.namenode_calls_per_op", "dfs.rpc.datanode_calls_per_op", "dfs.rpc.payload_bytes_per_op",
	"dfs.client_retries_per_op",
	"clusterd.rejected_per_op",
}
