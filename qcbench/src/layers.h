// Layer probes shared by the workloads: per-round simulator counts and
// the thread pool's fork/join cost.
#pragma once

#include <algorithm>
#include <cstdint>

#include "congest/simulator.h"
#include "report.h"
#include "trace.h"

namespace qcbench {

/// Accumulates `Config::Hooks::on_round_metrics` over any number of
/// simulator runs. One hook call is one host-executed round.
struct RoundCounter {
  std::uint64_t host_rounds = 0;
  std::uint64_t activations = 0;  ///< Σ active_nodes
  std::uint64_t idle_rounds = 0;  ///< rounds that queued no message
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double max_edge_utilization = 0;

  /// A config whose hook feeds this counter (which must outlive it).
  qc::congest::Config config() {
    qc::congest::Config cfg;
    cfg.hooks.on_round_metrics = [this](const qc::congest::RoundMetrics& m) {
      ++host_rounds;
      activations += m.active_nodes;
      if (m.messages == 0) ++idle_rounds;
      messages += m.messages;
      bits += m.bits;
      max_edge_utilization = std::max(max_edge_utilization,
                                      m.max_edge_utilization);
    };
    return cfg;
  }
};

/// Times an empty `runtime::parallel_for` over a pool of
/// bench_workers() workers; reports runtime.fork_join_us (median).
void fork_join_probe(Tracer& tracer, RunResult& out);

/// Reports the exact simulated counts and host-side ratios of `c` under
/// the congest.* per-layer names; `sim_rounds` is the RunStats ledger
/// total and `seconds` the host time of the counted runs.
void report_congest(const RoundCounter& c, std::uint64_t sim_rounds,
                    double seconds, RunResult& out);

}  // namespace qcbench
