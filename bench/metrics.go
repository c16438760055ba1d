package main

// Which clock a metric is read from decides how two runs may be compared.
// Simulated values and counts are pure functions of (commit, seed) and must
// repeat exactly; host values are noisy and compared within a bound.
const (
	clockSim  = "sim"
	clockHost = "host"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; bench_test.go holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	clock  string  // clockSim or clockHost
	bound  float64 // -compare: share by which it may worsen; 0 for ungated
}

// endToEnd are the metrics defined, and never zero, on every workload; the
// driver gates each against the bound BENCHMARK.json gives it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", clockHost, 0.10},
	{"sim_ops_per_s", "1/s", "higher", clockSim, 0.01},
	{"sim_p50_us", "us", "lower", clockSim, 0.01},
	{"sim_p99_us", "us", "lower", clockSim, 0.01},
	{"host_ops_per_s", "1/s", "higher", clockHost, 0.10},
	{"allocs_per_op", "allocs/op", "lower", clockHost, 0.02},
	{"alloc_bytes_per_op", "B/op", "lower", clockHost, 0.02},
}

// conditional are end-to-end metrics that exist on some workloads only (or
// read zero when all is well). The driver's contract wants every
// end-to-end metric on every workload and never zero, so BENCHMARK.json
// carries these under per_layer; -compare gates them all the same.
var conditional = []metricDef{
	{"sim_ixt3_rel_ext3", "ratio", "lower", clockSim, 0.01},
	{"sim_write_amp", "ratio", "lower", clockSim, 0.01},
	{"sim_slo_rate_ops", "1/s", "higher", clockSim, 0.001},
	{"sim_recover_ms", "ms", "lower", clockSim, 0.01},
	{"fail_share", "share", "lower", clockSim, 0.001},
}

// layerMetrics are the per-layer metrics, grouped by the package they
// describe. Counts and simulated times repeat exactly; host times come from
// the traced repetitions.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"disk.reads", "count", "lower", clockSim, 0},
		{"disk.writes", "count", "lower", clockSim, 0},
		{"disk.barriers", "count", "lower", clockSim, 0},
		{"disk.bytes_read", "B", "lower", clockSim, 0},
		{"disk.bytes_written", "B", "lower", clockSim, 0},
		{"disk.ios_per_op", "1/op", "lower", clockSim, 0},
		{"disk.sim_busy_share", "share", "lower", clockSim, 0},
		{"disk.host_self_ns_per_op", "ns/op", "lower", clockHost, 0},

		{"faultinject.fired", "count", "higher", clockSim, 0},
		{"faultinject.host_self_ns_per_op", "ns/op", "lower", clockHost, 0},
		{"iron.detects", "count", "higher", clockSim, 0},
		{"iron.recovers", "count", "higher", clockSim, 0},
		{"iron.recover_share", "share", "higher", clockSim, 0},

		{"sched.enqueued", "count", "lower", clockSim, 0},
		{"sched.absorbed", "count", "higher", clockSim, 0},
		{"sched.coalesced", "count", "higher", clockSim, 0},
		{"sched.dispatched", "count", "lower", clockSim, 0},
		{"sched.batches", "count", "lower", clockSim, 0},
		{"sched.drains", "count", "lower", clockSim, 0},
		{"sched.read_flushes", "count", "lower", clockSim, 0},
		{"sched.merge_share", "share", "higher", clockSim, 0},
		{"sched.sim_queue_wait_p50_us", "us", "lower", clockSim, 0},
		{"sched.sim_queue_wait_p99_us", "us", "lower", clockSim, 0},
		{"sched.host_self_ns_per_op", "ns/op", "lower", clockHost, 0},

		{"bcache.hits", "count", "higher", clockSim, 0},
		{"bcache.misses", "count", "lower", clockSim, 0},
		{"bcache.evicts", "count", "lower", clockSim, 0},
		{"bcache.hit_share", "share", "higher", clockSim, 0},

		{"fs.commits", "count", "lower", clockSim, 0},
		{"fs.checkpoints", "count", "lower", clockSim, 0},
		{"fs.replays", "count", "lower", clockSim, 0},
		{"fs.txn_blocks_p50", "blocks", "higher", clockSim, 0},
		{"fs.fsyncs_per_commit", "ratio", "higher", clockSim, 0},
		{"fs.sim_fsync_wait_p50_us", "us", "lower", clockSim, 0},
		{"fs.sim_fsync_wait_p99_us", "us", "lower", clockSim, 0},
		{"fs.host_self_ns_per_op", "ns/op", "lower", clockHost, 0},
	}
	for _, v := range clientVerbs {
		m = append(m,
			metricDef{"fs." + verbNames[v] + ".sim_p50_us", "us", "lower", clockSim, 0},
			metricDef{"fs." + verbNames[v] + ".host_ns_p50", "ns", "lower", clockHost, 0})
	}
	for _, name := range fsNames {
		m = append(m,
			metricDef{"fs." + name + ".sim_ops_per_s", "1/s", "higher", clockSim, 0},
			metricDef{"fs." + name + ".host_ns_per_op", "ns/op", "lower", clockHost, 0},
			metricDef{"fs." + name + ".allocs_per_op", "allocs/op", "lower", clockHost, 0})
	}
	m = append(m,
		metricDef{"serve.submitted", "count", "higher", clockSim, 0},
		metricDef{"serve.admitted", "count", "higher", clockSim, 0},
		metricDef{"serve.throttled", "count", "lower", clockSim, 0},
		metricDef{"serve.queue_full", "count", "lower", clockSim, 0},
		metricDef{"serve.route_refused", "count", "lower", clockSim, 0},
		metricDef{"serve.sim_queue_wait_p50_us", "us", "lower", clockSim, 0},
		metricDef{"serve.sim_queue_wait_p99_us", "us", "lower", clockSim, 0},
		metricDef{"serve.sim_exec_p50_us", "us", "lower", clockSim, 0},
		metricDef{"serve.sim_exec_p99_us", "us", "lower", clockSim, 0},
		metricDef{"serve.gen_late_p99_us", "us", "lower", clockSim, 0},
		metricDef{"serve.submit.host_ns_p50", "ns", "lower", clockHost, 0},
		metricDef{"serve.dispatch.host_ns_p50", "ns", "lower", clockHost, 0},
		metricDef{"serve.dispatch.host_ns_p99", "ns", "lower", clockHost, 0},
		metricDef{"serve.host_self_ns_per_op", "ns/op", "lower", clockHost, 0},

		metricDef{"fsck.problems", "count", "lower", clockSim, 0},
		metricDef{"fsck.repaired", "count", "higher", clockSim, 0},
		metricDef{"fsck.sim_check_ms", "ms", "lower", clockSim, 0},
		metricDef{"fsck.sim_repair_ms", "ms", "lower", clockSim, 0},
		metricDef{"fsck.host_check_ms", "ms", "lower", clockHost, 0},
		metricDef{"fsck.host_self_ns_per_op", "ns/op", "lower", clockHost, 0},
		metricDef{"fs.sim_replay_ms", "ms", "lower", clockSim, 0},
		metricDef{"fs.host_replay_ms", "ms", "lower", clockHost, 0},

		metricDef{"bench.host_self_ns_per_op", "ns/op", "lower", clockHost, 0},
		metricDef{"trace.spans", "count", "lower", clockSim, 0},
		metricDef{"trace.overhead_share", "share", "lower", clockHost, 0},
		metricDef{"host.gc_cycles", "count", "lower", clockHost, 0},
		metricDef{"host.heap_peak_mb", "MiB", "lower", clockHost, 0},
	)
	return m
}()

// perLayer is everything BENCHMARK.json lists under per_layer.
var perLayer = append(append([]metricDef(nil), conditional...), layerMetrics...)
