// Additional approximation baselines of Table 1, implemented genuinely:
//
//  * the 2-approximation of the weighted diameter/radius (any node's
//    eccentricity 2-approximates the diameter; Chechik–Mukhtar [8]
//    reach the same approximation in Õ(√n·D^{1/4}+D) rounds —
//    cost-modeled, S3), built on the timed-release weighted SSSP
//    paths::distributed_weighted_sssp: Algorithm 2 with cap n·W, where
//    a node stops once it announces (the O(weighted-depth) folklore
//    algorithm);
//
//  * pipelined multi-source BFS with random delays (Õ(|S| + D) rounds,
//    the unweighted engine behind [15]/[3]) — Algorithm 3's program on
//    hop distances (paths::distributed_multi_source_hop_bfs) — and the
//    classic 3/2-approximation of the unweighted diameter built on it:
//    sample |S| ≈ √n·log n sources, find the node w farthest from S,
//    answer max{ecc(s) : s ∈ S ∪ {w}} — always ≤ D and ≥ ⌊2D/3⌋ w.h.p.
//
// The exact weighted diameter/radius sits with the unweighted one in
// core/baselines.h: one token-walk APSP program runs both.
#pragma once

#include <cstdint>

#include "congest/simulator.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace qc::core {

/// 2-approximation of the weighted diameter (and exact upper bound on
/// twice the radius): one SSSP from the leader + a convergecast.
/// Returns ecc(leader) <= D_w <= 2·ecc(leader).
struct TwoApproxResult {
  congest::RunStats stats;
  Dist ecc_leader = 0;   ///< R_w <= ecc <= D_w
  Dist upper_bound = 0;  ///< 2·ecc >= D_w
};
TwoApproxResult two_approx_weighted_diameter(const WeightedGraph& g,
                                             congest::Config config = {});

/// Pipelined multi-source BFS: every node learns its hop distance to
/// every source, in Õ(|S| + D) rounds. A leader BFS and depth aggregate
/// fix the cap 2·ecc(leader) + 1 > D; then Algorithm 3's random-delay
/// program runs on hop distances with one scale (retrying, and charging
/// the failed attempt, on its low-probability congestion event).
struct MultiBfsResult {
  congest::RunStats stats;
  std::uint32_t attempts = 1;
  /// dist[a][v] = hop distance from sources[a] to v.
  std::vector<std::vector<Dist>> dist;
};
MultiBfsResult distributed_multi_source_bfs(const WeightedGraph& g,
                                            const std::vector<NodeId>& sources,
                                            Rng& rng,
                                            congest::Config config = {});

/// The 3/2-approximation of the unweighted diameter ([15]/[3]-style):
/// returns an estimate in [floor(2D/3), D] with probability
/// >= 1 - 1/poly(n), in Õ(√n + D) rounds.
struct ThreeHalvesResult {
  congest::RunStats stats;
  Dist estimate = 0;
  Dist exact = 0;            ///< oracle, for reporting
  std::size_t sample_size = 0;
  NodeId far_node = 0;       ///< the w farthest from the sample
};
ThreeHalvesResult three_halves_unweighted_diameter(const WeightedGraph& g,
                                                   std::uint64_t seed = 1,
                                                   congest::Config config = {});

}  // namespace qc::core
