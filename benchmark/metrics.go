package main

// The metric and workload names below are the benchmark's contract:
// BENCHMARK.json declares the same lists (TestBenchmarkJSONMatchesTables
// keeps them equal) and later changes cite them verbatim.

// metricDef declares one metric: how it is printed and which way is
// better. Bound is the share of the parent's median by which an
// end-to-end metric may worsen before -compare calls it regressed.
// Layer and Moves document a per-layer metric: the module it measures
// and the end-to-end metric it is expected to move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Layer  string
	Moves  string
}

var endToEndMetrics = []metricDef{
	{Name: "ops_per_sec", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "op_ns_p50", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayerMetrics = []metricDef{
	// Whole-fire costs that can reach zero, so they carry no relative bound.
	{Name: "allocs_per_op", Unit: "allocs", Better: "lower", Layer: "runtime", Moves: "the hot path's contract is 0 on every fire_*"},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Layer: "runtime", Moves: "follows allocs_per_op"},
	{Name: "kernel.fire_batch_p99_ns", Unit: "ns", Better: "lower", Layer: "kernel", Moves: "tail of op_ns_p50's distribution; barrier stalls on fire_sharded"},

	{Name: "kernel.fire_dispatch_ns", Unit: "ns", Better: "lower", Layer: "kernel", Moves: "op_ns_p50 on all fire_*"},
	{Name: "kernel.fire_dispatch_allocs", Unit: "allocs", Better: "lower", Layer: "kernel", Moves: "allocs_per_op on all fire_*"},
	{Name: "kernel.event_ns", Unit: "ns", Better: "lower", Layer: "kernel", Moves: "ops_per_sec on fig2_stack, fire_sharded"},
	{Name: "kernel.barrier_ns", Unit: "ns", Better: "lower", Layer: "kernel", Moves: "ops_per_sec on fire_sharded only"},
	{Name: "kernel.barrier_share", Unit: "ratio", Better: "lower", Layer: "kernel", Moves: "ops_per_sec on fire_sharded only; 0 on single-loop workloads"},
	{Name: "kernel.epochs", Unit: "count", Better: "lower", Layer: "kernel", Moves: "exact; barrier_share's multiplier"},
	{Name: "kernel.shard_scaling", Unit: "ratio", Better: "higher", Layer: "kernel", Moves: "ops_per_sec on fire_sharded"},

	{Name: "monitor.evaluate_ns", Unit: "ns", Better: "lower", Layer: "monitor", Moves: "op_ns_p50 on fire_bare, fire_observed, fire_wide"},
	{Name: "monitor.self_ns", Unit: "ns", Better: "lower", Layer: "monitor", Moves: "ops_per_sec on fire_bare (most), fire_sharded"},
	{Name: "monitor.evals", Unit: "count", Better: "higher", Layer: "monitor", Moves: "exact; failed share everywhere"},
	{Name: "monitor.violations", Unit: "count", Better: "lower", Layer: "monitor", Moves: "exact; failed share everywhere"},
	{Name: "monitor.actions_fired", Unit: "count", Better: "lower", Layer: "monitor", Moves: "exact; failed share everywhere"},
	{Name: "monitor.faults", Unit: "count", Better: "lower", Layer: "monitor", Moves: "exact; must stay 0"},
	{Name: "monitor.load_us", Unit: "us", Better: "lower", Layer: "monitor", Moves: "setup_s on all fire_*"},
	{Name: "monitor.deploy_ms", Unit: "ms", Better: "lower", Layer: "monitor", Moves: "setup_s on all fire_*"},

	{Name: "vm.run_ns", Unit: "ns", Better: "lower", Layer: "vm", Moves: "ops_per_sec on fire_wide (most); small on fire_bare"},
	{Name: "vm.ns_per_step", Unit: "ns", Better: "lower", Layer: "vm", Moves: "vm.run_ns"},
	{Name: "vm.steps_per_eval", Unit: "count", Better: "lower", Layer: "vm", Moves: "exact; vm.run_ns"},
	{Name: "vm.proven_share", Unit: "ratio", Better: "higher", Layer: "vm", Moves: "vm.run_ns on fire_wide"},
	{Name: "vm.verify_us", Unit: "us", Better: "lower", Layer: "vm", Moves: "ops_per_sec on check_manifest; setup_s on fire_*"},
	{Name: "vm.certcheck_us", Unit: "us", Better: "lower", Layer: "vm", Moves: "ops_per_sec on check_manifest; setup_s on fire_*"},

	{Name: "featurestore.load_ns", Unit: "ns", Better: "lower", Layer: "featurestore", Moves: "op_ns_p50 on fire_wide"},
	{Name: "featurestore.save_ns", Unit: "ns", Better: "lower", Layer: "featurestore", Moves: "op_ns_p50 on fire_wide"},
	{Name: "featurestore.save_watched_ns", Unit: "ns", Better: "lower", Layer: "featurestore", Moves: "op_ns_p50 on fire_wide only"},
	{Name: "featurestore.loads_per_op", Unit: "count", Better: "lower", Layer: "featurestore", Moves: "exact; explains fire_wide vs fire_bare"},
	{Name: "featurestore.saves_per_op", Unit: "count", Better: "lower", Layer: "featurestore", Moves: "exact; explains fire_wide vs fire_bare"},
	{Name: "featurestore.aggregate_ns", Unit: "ns", Better: "lower", Layer: "featurestore", Moves: "ops_per_sec on fire_sharded"},

	{Name: "telemetry.record_ns", Unit: "ns", Better: "lower", Layer: "telemetry", Moves: "ops_per_sec on fire_observed only"},
	{Name: "telemetry.overhead_ns", Unit: "ns", Better: "lower", Layer: "telemetry", Moves: "op_ns_p50 on fire_observed; about 0 on fire_bare"},
	{Name: "telemetry.flight_overwritten", Unit: "count", Better: "lower", Layer: "telemetry", Moves: "exact; what the flight ring lost"},
	{Name: "telemetry.snapshot_ms", Unit: "ms", Better: "lower", Layer: "telemetry", Moves: "reader side; tail on fire_observed"},

	{Name: "provenance.overhead_ns", Unit: "ns", Better: "lower", Layer: "provenance", Moves: "ops_per_sec on fire_observed; about 0 on fire_bare"},
	{Name: "provenance.commit_ns", Unit: "ns", Better: "lower", Layer: "provenance", Moves: "ops_per_sec on fire_observed"},
	{Name: "provenance.sampled_share", Unit: "ratio", Better: "lower", Layer: "provenance", Moves: "reconciliation on fire_observed"},
	{Name: "provenance.ring_overwritten", Unit: "count", Better: "lower", Layer: "provenance", Moves: "exact; what the record ring lost"},

	{Name: "actions.dispatch_ns", Unit: "ns", Better: "lower", Layer: "actions", Moves: "tail and allocs_per_op on fire_wide only"},
	{Name: "actions.reports", Unit: "count", Better: "lower", Layer: "actions", Moves: "exact; fire_wide only"},
	{Name: "actions.dead_letters", Unit: "count", Better: "lower", Layer: "actions", Moves: "exact; must stay 0"},

	{Name: "spec.parse_ms", Unit: "ms", Better: "lower", Layer: "spec", Moves: "wall_s on check_manifest only"},
	{Name: "spec.check_ms", Unit: "ms", Better: "lower", Layer: "spec", Moves: "wall_s on check_manifest only"},
	{Name: "compile.file_ms", Unit: "ms", Better: "lower", Layer: "compile", Moves: "wall_s on check_manifest only"},
	{Name: "compile.insns_pre", Unit: "count", Better: "lower", Layer: "compile", Moves: "exact; compiler output size"},
	{Name: "compile.insns_post", Unit: "count", Better: "lower", Layer: "compile", Moves: "exact; compiler output size"},
	{Name: "vet.file_ms", Unit: "ms", Better: "lower", Layer: "vet", Moves: "wall_s on check_manifest only"},
	{Name: "interfere.analyze_ms", Unit: "ms", Better: "lower", Layer: "interfere", Moves: "wall_s on check_manifest only"},
	{Name: "interfere.diagnostics", Unit: "count", Better: "lower", Layer: "interfere", Moves: "exact; planted findings"},
	{Name: "modelcheck.check_ms", Unit: "ms", Better: "lower", Layer: "modelcheck", Moves: "ops_per_sec, wall_s on check_manifest only"},
	{Name: "modelcheck.states", Unit: "count", Better: "lower", Layer: "modelcheck", Moves: "exact; modelcheck.check_ms"},
	{Name: "modelcheck.truncated", Unit: "count", Better: "lower", Layer: "modelcheck", Moves: "exact; must stay 0 or proofs are withheld"},

	{Name: "nn.infer_ns", Unit: "ns", Better: "lower", Layer: "nn", Moves: "ops_per_sec on fig2_stack only"},
	{Name: "linnos.io_host_ns", Unit: "ns", Better: "lower", Layer: "linnos", Moves: "ops_per_sec on fig2_stack only"},

	{Name: "ledger.sum_ns", Unit: "ns", Better: "lower", Layer: "ledger", Moves: "sum of layer self times per fire"},
	{Name: "ledger.residual_share", Unit: "ratio", Better: "lower", Layer: "ledger", Moves: "the layers-must-add-up check on each fire_*"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "sanity: end-to-end numbers never come from the traced pass"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "trace", Moves: "spans written"},
}

// wholeMetrics are the per-layer metrics taken from the untraced pass:
// whole-fire numbers that may reach zero or do not repeat, and so carry
// no bound.
var wholeMetrics = []string{"allocs_per_op", "bytes_per_op", "kernel.fire_batch_p99_ns"}

// defFor returns the declaration of a metric by name.
func defFor(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
