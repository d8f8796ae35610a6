// Runs Algorithms 1–3 of the toolkit through their public entry points
// on one fixed graph and reduces each run to literals a golden test can
// pin: the ledger, a digest of the per-round traffic and a digest of
// the outputs. tests/test_paths.cpp pins fault-free runs,
// tests/test_faults.cpp runs under a seeded fault plan.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "graph/generators.h"
#include "paths/distributed.h"
#include "run_digest.h"
#include "util/rng.h"

namespace qc::paths {

/// One algorithm's run, as literals.
struct ToolkitPin {
  congest::RunStats stats;
  std::uint64_t traffic = 0;  ///< congest::traffic_digest of the hook log
  std::uint64_t outputs = 0;  ///< congest::fnv1a over the output values

  friend bool operator==(const ToolkitPin&, const ToolkitPin&) = default;
  friend void PrintTo(const ToolkitPin& p, std::ostream* os) {
    *os << "{{" << p.stats.rounds << ", " << p.stats.messages << ", "
        << p.stats.bits << "}, " << p.traffic << "ull, " << p.outputs
        << "ull}";
  }
};

struct ToolkitPins {
  ToolkitPin alg2;  ///< distributed_bounded_distance_sssp
  ToolkitPin alg1;  ///< distributed_bounded_hop_sssp
  ToolkitPin alg3;  ///< distributed_multi_source_bhs (attempts folded in)
};

/// The pinned topology: a connected ER graph on 24 nodes, weights 1..9.
inline WeightedGraph toolkit_graph() {
  Rng rng(11);
  auto g = gen::erdos_renyi_connected(24, 0.15, rng);
  return gen::randomize_weights(g, 9, rng);
}

/// Runs the three entry points under `config` (its metrics hook is
/// replaced) with fixed sources, caps, scales and delay seed.
inline ToolkitPins pin_toolkit(const WeightedGraph& g, congest::Config config) {
  std::vector<congest::RoundMetrics> log;
  config.hooks.on_round_metrics = [&log](const congest::RoundMetrics& m) {
    log.push_back(m);
  };
  const auto pin = [&log](const congest::RunStats& stats,
                          const std::vector<Dist>& values,
                          std::uint64_t outputs = congest::fnv1a({})) {
    for (const Dist v : values) outputs = congest::fnv1a({v}, outputs);
    ToolkitPin p{stats, congest::traffic_digest(log), outputs};
    log.clear();
    return p;
  };

  ToolkitPins out;
  const auto alg2 = distributed_bounded_distance_sssp(
      g, RunRequest{}.with_config(config).with_source(3).with_cap(40));
  out.alg2 = pin(alg2.stats, alg2.dist);

  const auto alg1 = distributed_bounded_hop_sssp(
      g, RunRequest{}.with_config(config).with_source(3).with_scale(
             HopScale{6, 3, g.max_weight()}));
  out.alg1 = pin(alg1.stats, alg1.approx);

  Rng delays(17);
  const auto alg3 = distributed_multi_source_bhs(
      g, RunRequest{}
             .with_config(config)
             .with_sources({1, 5, 9, 14, 20})
             .with_scale(HopScale{5, 3, g.max_weight()})
             .with_rng(delays));
  std::vector<Dist> rows;
  for (const auto& row : alg3.approx) rows.insert(rows.end(), row.begin(), row.end());
  out.alg3 = pin(alg3.stats, rows, congest::fnv1a({alg3.attempts}));
  return out;
}

}  // namespace qc::paths
