// Baselines for Table 1: the classical exact rows (genuine,
// message-level: one token-walk APSP program runs both the unweighted
// and the weighted APSP, and the diameter/radius aggregate on top), the
// Le Gall–Magniez-style quantum search for the unweighted
// diameter/radius, plus closed-form round-cost models for the baselines
// whose internals are out of scope (see DESIGN.md S3).
#pragma once

#include <cstdint>

#include "congest/simulator.h"
#include "graph/graph.h"

namespace qc::core {

/// Distributed exact APSP by a token walk (Holzer–Wattenhofer style): a
/// DFS token walks a BFS tree from node 0 and starts one wave per node,
/// holding one extra round at each first visit. Every node relaxes the
/// (source, dist) labels it hears Bellman–Ford style and forwards each
/// improvement through a FIFO drained within the CONGEST bandwidth, so
/// the result never depends on timing; the queue absorbs the overlap of
/// the root's wave with the next ones and weighted fronts that collide.
/// Every node learns its distance to every other node.
///
/// `distributed_unweighted_apsp` counts hops: O(n + D) rounds, the
/// classical Θ(n) row of Table 1. `distributed_weighted_apsp` adds edge
/// weights: near 3n + ecc_w rounds for moderate weights, the classical
/// exact weighted row (Bernstein–Nanongkai [6] reach Õ(n) regardless of
/// W; substitution S3 in DESIGN.md).
///
/// The walk has no retransmission, dedup or checksum: a fault plan that
/// drops, duplicates or corrupts messages, takes a link down or crashes
/// a node is rejected with ArgumentError before any round runs. Delays
/// are allowed; the labels stay exact under them.
struct DistributedApspResult {
  congest::RunStats stats;
  /// dist[v][s] = distance from s to v (as learned by node v).
  std::vector<std::vector<Dist>> dist;
};
DistributedApspResult distributed_unweighted_apsp(const WeightedGraph& g,
                                                  congest::Config config = {});
DistributedApspResult distributed_weighted_apsp(const WeightedGraph& g,
                                                congest::Config config = {});

/// Classical exact diameter/radius: the APSP above + local
/// eccentricities + one global aggregate (Θ(n) rounds unweighted).
struct ClassicalExtremumResult {
  congest::RunStats stats;
  Dist value = 0;
};
ClassicalExtremumResult classical_unweighted_diameter(
    const WeightedGraph& g, congest::Config config = {});
ClassicalExtremumResult classical_unweighted_radius(
    const WeightedGraph& g, congest::Config config = {});
ClassicalExtremumResult classical_weighted_diameter(
    const WeightedGraph& g, congest::Config config = {});
ClassicalExtremumResult classical_weighted_radius(
    const WeightedGraph& g, congest::Config config = {});

/// Quantum unweighted diameter/radius via the Lemma 3.1 framework over
/// nodes, with Evaluation = one distributed BFS + convergecast (the
/// simple O(√n·D) instantiation; see lgm_quantum_unweighted_* below for
/// the Õ(√(nD)) block structure).
struct QuantumUnweightedResult {
  Dist value = 0;
  std::uint64_t rounds = 0;       ///< charged: calls × (bfs + aggregate)
  std::uint64_t oracle_calls = 0;
  std::uint64_t eval_rounds = 0;  ///< measured per-evaluation cost
};
QuantumUnweightedResult quantum_unweighted_diameter(const WeightedGraph& g,
                                                    std::uint64_t seed = 1);
QuantumUnweightedResult quantum_unweighted_radius(const WeightedGraph& g,
                                                  std::uint64_t seed = 1);

/// Le Gall–Magniez-structured quantum unweighted diameter/radius:
/// partition V into ⌈n/D⌉ blocks of ≈D nodes and Grover-search over
/// *blocks*; evaluating one block runs a pipelined multi-source BFS
/// from all its nodes — Õ(D) rounds — and returns the block's extreme
/// eccentricity. Total: Õ(√(n/D)) calls × Õ(D) rounds = Õ(√(nD)),
/// the paper's Table 1 row for unweighted diameter/radius [12].
struct LgmResult {
  Dist value = 0;
  std::uint64_t rounds = 0;        ///< charged per Lemma 3.1
  std::uint64_t oracle_calls = 0;
  std::uint64_t eval_rounds = 0;   ///< measured per-block evaluation
  std::size_t block_count = 0;
  std::size_t block_size = 0;
  std::size_t measured_block = 0;
  bool distributed_value_matches = true;
};
LgmResult lgm_quantum_unweighted_diameter(const WeightedGraph& g,
                                          std::uint64_t seed = 1);
LgmResult lgm_quantum_unweighted_radius(const WeightedGraph& g,
                                        std::uint64_t seed = 1);

/// Closed-form round-cost models for Table 1 (polylog factors set to
/// ⌈log₂ n⌉; constants 1). All return simulated-round estimates.
namespace model {

double polylog(std::uint64_t n);

/// Classical exact unweighted APSP / diameter [17, 22]: Θ(n).
double classical_unweighted_rounds(std::uint64_t n);
/// Bernstein–Nanongkai exact weighted APSP [6]: Õ(n).
double classical_weighted_rounds(std::uint64_t n);
/// Le Gall–Magniez quantum unweighted diameter [12]: Õ(√(nD)).
double lgm_unweighted_rounds(std::uint64_t n, std::uint64_t d);
/// This work (Theorem 1.1): Õ(min{n^{9/10}·D^{3/10}, n}).
double theorem11_rounds(std::uint64_t n, std::uint64_t d);
/// This work (Theorem 1.2): Ω̃(n^{2/3}) quantum lower bound.
double theorem12_lower_bound(std::uint64_t n);
/// Classical Ω̃(n) lower bound for (3/2−ε)-approx [2].
double classical_lower_bound(std::uint64_t n);
/// Chechik–Mukhtar weighted SSSP / 2-approx [8]: Õ(√n·D^{1/4} + D).
double cm_two_approx_rounds(std::uint64_t n, std::uint64_t d);
/// Elkin et al. quantum lower bound for exact [20]: Ω̃(∛(nD²) + √n).
double quantum_exact_lower_bound(std::uint64_t n, std::uint64_t d);

}  // namespace model

}  // namespace qc::core
