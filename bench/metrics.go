package main

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// baseline by which an end-to-end metric may get worse before -compare
// (and the driver) reports a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // lower | higher
	Bound  float64
}

// endToEnd is the end_to_end list of BENCHMARK.json. The contract wants
// every metric on every workload, so the two latency slots are named by
// rank, not by request type; README.md "End-to-end metrics" says which of
// the issue's metrics each slot carries on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"primary_p50_ms", "ms", "lower", 0.25},
	{"secondary_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer is the per_layer list of BENCHMARK.json: every metric a traced
// run reports on every workload. Names are <package>.<metric>. The probes
// behind all but the last six do not depend on the workload; README.md
// "Per-layer metrics" says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "store.decode_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "store.tierscan_ns_per_bucket", Unit: "ns", Better: "lower"},
	{Name: "store.series_stats_ns", Unit: "ns", Better: "lower"},
	{Name: "store.fingerprint_ns", Unit: "ns", Better: "lower"},
	{Name: "index.within_ns", Unit: "ns", Better: "lower"},
	{Name: "store.append_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "store.rollup_fold_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "store.append_wal_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "store.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "store.open_s", Unit: "s", Better: "lower"},
	{Name: "store.open_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_wal_ms", Unit: "ms", Better: "lower"},
	{Name: "store.mem_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "store.disk_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "store.wal_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "query.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "query.meter_series_us", Unit: "us", Better: "lower"},
	{Name: "query.meter_matrix_ms", Unit: "ms", Better: "lower"},
	{Name: "query.demand_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "vql.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "vql.compile_ns", Unit: "ns", Better: "lower"},
	{Name: "vql.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "vql.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "vql.exec_raw_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "vql.exec_tier_ns_per_bucket", Unit: "ns", Better: "lower"},
	{Name: "vql.exec_wide_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "vql.samples_per_row", Unit: "count", Better: "lower"},
	{Name: "vql.tier_served_share", Unit: "share", Better: "higher"},
	{Name: "exec.do_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "govern.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.vql_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.vql_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "core.vql_miss_us", Unit: "us", Better: "lower"},
	{Name: "core.typical_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.shift_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "frontend.execute_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "api.query_hit_us", Unit: "us", Better: "lower"},
	{Name: "api.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "api.ingest_bin_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "api.ingest_ndjson_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "wire.query_hit_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "reduce.distance_ms", Unit: "ms", Better: "lower"},
	{Name: "reduce.tsne_ms", Unit: "ms", Better: "lower"},
	{Name: "reduce.mds_ms", Unit: "ms", Better: "lower"},
	{Name: "kde.estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "viz.map_svg_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	// Measured on the traced workload itself:
	{Name: "core.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "govern.shed_count", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.net_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.attributed_share", Unit: "share", Better: "higher"},
}
