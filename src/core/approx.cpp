#include "core/approx.h"

#include <algorithm>
#include <cmath>

#include "congest/primitives.h"
#include "graph/algorithms.h"
#include "paths/distributed.h"

namespace qc::core {

using congest::Config;

TwoApproxResult two_approx_weighted_diameter(const WeightedGraph& g,
                                             Config config) {
  auto sssp = paths::distributed_weighted_sssp(
      g, paths::RunRequest{}.with_source(0).with_config(config));
  const Dist bound = static_cast<Dist>(g.node_count()) * g.max_weight();
  const auto agg = congest::global_aggregate(
      g, 0, sssp.dist, congest::AggregateOp::kMax,
      std::min<std::uint32_t>(63, bits_for(bound + 1)), config);
  TwoApproxResult out;
  out.stats = sssp.stats;
  out.stats += agg.stats;
  out.ecc_leader = agg.value;
  out.upper_bound = 2 * agg.value;
  return out;
}

MultiBfsResult distributed_multi_source_bfs(const WeightedGraph& g,
                                            const std::vector<NodeId>& sources,
                                            Rng& rng, Config config) {
  QC_REQUIRE(!sources.empty(), "multi-source BFS needs sources");
  QC_REQUIRE(g.is_connected(), "multi-source BFS needs connectivity");
  const NodeId n = g.node_count();

  MultiBfsResult out;

  // Leader's BFS gives ecc(leader) (= depth max), so cap = 2·ecc >= D.
  const auto tree = congest::build_bfs_tree(g, 0, config);
  out.stats += tree.stats;
  std::vector<std::uint64_t> depths(n);
  for (NodeId v = 0; v < n; ++v) depths[v] = tree.nodes[v].depth;
  const auto dagg = congest::global_aggregate(
      g, 0, depths, congest::AggregateOp::kMax, bits_for(n), config);
  out.stats += dagg.stats;
  const Dist cap = 2 * std::max<Dist>(1, dagg.value) + 1;

  auto bfs = paths::distributed_multi_source_hop_bfs(
      g, paths::RunRequest{}
             .with_sources(sources)
             .with_cap(cap)
             .with_rng(rng)
             .with_config(std::move(config)));
  out.stats += bfs.stats;
  out.attempts = bfs.attempts;
  out.dist = std::move(bfs.approx);
  return out;
}

ThreeHalvesResult three_halves_unweighted_diameter(const WeightedGraph& g,
                                                   std::uint64_t seed,
                                                   Config config) {
  const NodeId n = g.node_count();
  QC_REQUIRE(n >= 2 && g.is_connected(),
             "3/2-approximation needs a connected graph");
  Rng rng(seed);
  ThreeHalvesResult out;

  // Sample ~sqrt(n)·log n sources (nodes flip local coins; the leader
  // collects membership with the delay flood below).
  const double p = std::min(
      1.0, 1.5 * static_cast<double>(clog2(n)) / std::sqrt(double(n)));
  std::vector<NodeId> sample;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.chance(p)) sample.push_back(v);
  }
  if (sample.empty()) sample.push_back(0);
  out.sample_size = sample.size();

  auto mb = distributed_multi_source_bfs(g, sample, rng, config);
  out.stats += mb.stats;

  // Estimate part 1: max_{s in S} ecc(s) = max over all (a, v) — one
  // aggregate of per-node maxima.
  std::vector<std::uint64_t> local_max(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t a = 0; a < sample.size(); ++a) {
      if (mb.dist[a][v] < kInfDist) {
        local_max[v] = std::max<std::uint64_t>(local_max[v], mb.dist[a][v]);
      }
    }
  }
  const auto ecc_s = congest::global_aggregate(
      g, 0, local_max, congest::AggregateOp::kMax, bits_for(n), config);
  out.stats += ecc_s.stats;

  // Find w = argmax_v d(v, S): pack (distance, reversed id) so the max
  // aggregate returns the argmax too.
  const std::uint32_t id_bits = bits_for(n);
  std::vector<std::uint64_t> packed(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    Dist dvs = kInfDist;
    for (std::size_t a = 0; a < sample.size(); ++a) {
      dvs = std::min(dvs, mb.dist[a][v]);
    }
    if (dvs >= kInfDist) dvs = 0;
    packed[v] = (static_cast<std::uint64_t>(dvs) << id_bits) | v;
  }
  const auto wagg = congest::global_aggregate(
      g, 0, packed, congest::AggregateOp::kMax,
      std::min<std::uint32_t>(63, bits_for(n) + id_bits + 1), config);
  out.stats += wagg.stats;
  const auto w =
      static_cast<NodeId>(wagg.value & ((std::uint64_t{1} << id_bits) - 1));
  out.far_node = w;

  // Estimate part 2: ecc(w) via a BFS wave from w.
  const auto wtree = congest::build_bfs_tree(g, w, config);
  out.stats += wtree.stats;
  std::vector<std::uint64_t> wdepth(n);
  for (NodeId v = 0; v < n; ++v) wdepth[v] = wtree.nodes[v].depth;
  const auto ecc_w = congest::global_aggregate(
      g, 0, wdepth, congest::AggregateOp::kMax, bits_for(n), config);
  out.stats += ecc_w.stats;

  out.estimate = std::max<Dist>(ecc_s.value, ecc_w.value);
  out.exact = unweighted_diameter(g);
  return out;
}

}  // namespace qc::core
