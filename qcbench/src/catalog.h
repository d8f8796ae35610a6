// Every metric the benchmark reports, by mode. BENCHMARK.json at the
// repository root lists the same names and units; run.py checks each
// result line against it.
#pragma once

#include <string_view>

namespace qcbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Untraced runs: reported by every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"latency_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

/// Traced runs: a workload reports the layers it exercises; the rest
/// read 0 (see README.md for which workload moves which metric).
/// serve_mixed's wider breakdown goes to the run record's "details".
inline constexpr MetricSpec kPerLayer[] = {
    {"core.t11.oracle_s", "s"},
    {"core.t11.search_s", "s"},
    {"core.t11.measure_s", "s"},
    {"core.t11.value_evaluations", "count"},
    {"core.t11.memo_hits", "count"},
    {"core.t11.charged_rounds", "count"},
    {"quantum.outer_calls", "count"},
    {"paths.alg3.s", "s"},
    {"paths.alg3.attempts", "count"},
    {"paths.alg4.s", "s"},
    {"paths.alg5.s", "s"},
    {"paths.toolkit.evaluate_set_us", "us"},
    {"paths.toolkit.ensure_rows_s", "s"},
    {"congest.sim_rounds", "count"},
    {"congest.sim_messages", "count"},
    {"congest.sim_bits", "count"},
    {"congest.max_edge_utilization", "ratio"},
    {"congest.host_rounds", "count"},
    {"congest.activations", "count"},
    {"congest.useful_activation_ratio", "ratio"},
    {"congest.idle_round_share", "ratio"},
    {"congest.ns_per_activation", "ns"},
    {"congest.ns_per_message", "ns"},
    {"congest.bfs_tree_s", "s"},
    {"congest.aggregate_s", "s"},
    {"congest.pool_speedup", "ratio"},
    {"graph.sort_s", "s"},
    {"graph.csr_build_s", "s"},
    {"graph.write_csr_s", "s"},
    {"graph.map_csr_s", "s"},
    {"graph.load_bgraph_s", "s"},
    {"graph.ecc_sampled_s", "s"},
    {"graph.io_mb", "MB"},
    {"service.handler_us.sssp", "us"},
    {"service.queue_wait_ms.sssp", "ms"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.batch_size_mean", "count"},
    {"service.read_p50_ms", "ms"},
    {"runtime.fork_join_us", "us"},
    {"trace.overhead_share", "ratio"},
    {"trace.self_s.core", "s"},
    {"trace.self_s.paths", "s"},
    {"trace.self_s.congest", "s"},
    {"trace.self_s.graph", "s"},
    {"trace.self_s.service", "s"},
    {"trace.self_s.runtime", "s"},
};

}  // namespace qcbench
