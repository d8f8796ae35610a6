// Centralized reference algorithms on weighted graphs.
//
// Every distributed algorithm in the library has a centralized reference
// twin here; tests assert bit-exact agreement between the two. These are
// also the "ground truth" oracles used to check approximation ratios, and
// the amplitude bookkeeping backend of the quantum search (DESIGN.md, S1).
//
// All distance kernels run on the flat CSR adjacency (graph/csr.h); the
// `WeightedGraph` overloads are thin shims over its cached `csr()` view.
// Multi-source quantities (eccentricities, APSP, the diameter family)
// fan their per-source runs out over a `runtime::ThreadPool` with an
// index-ordered reduction, so results are byte-identical at any worker
// count (tests/test_runtime.cpp asserts 1 vs 2 vs 8 workers).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "util/mathx.h"

namespace qc {

namespace runtime {
class ThreadPool;  // runtime/thread_pool.h
}

/// Reusable scratch state for the single-source kernels. One workspace
/// serves any number of consecutive runs on graphs of any size with zero
/// allocations after warm-up: label arrays are kept all-kInfDist between
/// runs via a touched-node list (no O(n) re-initialization), and heap /
/// bucket / queue storage keeps its capacity. The hop labels are sized
/// by the first `dijkstra_with_hops` run only. Not thread-safe — use one
/// workspace per thread (the multi-source drivers below do).
///
/// Weighted runs pick between two exact Dijkstra engines by the max edge
/// weight W alone. For W <= 128, a Dial-style bucket queue: a circular
/// power-of-two window of at least W + 1 buckets, indexed by mask, plus
/// a one-bit-per-bucket occupancy bitmap of the W distances ahead of
/// the sweep (two words, kept in registers), so the sweep jumps
/// straight to the next non-empty bucket. A run costs O(m + settled
/// distances) with no comparisons, however far the farthest node is.
/// Otherwise a binary heap with lazy deletion (gadget graphs with
/// alpha = n^2 weights land here). Both produce identical labels.
class DijkstraWorkspace {
 public:
  /// Hop distances (unweighted BFS) from s. `out` is resized to n.
  void bfs(const CsrGraph& g, NodeId s, std::vector<Dist>& out);

  /// Weighted single-source distances from s. `out` is resized to n.
  ///
  /// `cap` bounds the useful distance range: labels <= cap are exact;
  /// any label > cap (including kInfDist) only certifies that the true
  /// distance exceeds cap. Relaxations past the cap are pruned, so a
  /// tight cap settles only the ball it can reach — the Lemma 3.2 scale
  /// schedule discards everything above its eligibility cap anyway, and
  /// at fine scales that ball is tiny. The default cap disables pruning
  /// and yields the classic full-graph labels.
  void dijkstra(const CsrGraph& g, NodeId s, std::vector<Dist>& out,
                Dist cap = kInfDist);

  /// Lexicographic (weight, hops) Dijkstra from s; see dijkstra_with_hops.
  void dijkstra_with_hops(const CsrGraph& g, NodeId s,
                          std::vector<Dist>& dist_out,
                          std::vector<Dist>& hops_out);

  /// ℓ-hop-bounded distances (truncated Bellman–Ford). Resizes `out`.
  void bounded_hop(const CsrGraph& g, NodeId s, std::uint64_t ell,
                   std::vector<Dist>& out);

 private:
  /// Queue storage of one entry type: a plain run queues the node, a
  /// lexicographic run the (node, hops) pair it was reached with.
  template <typename Entry>
  struct Queues {
    std::vector<std::vector<Entry>> buckets;
    std::vector<std::pair<Dist, Entry>> heap;
  };

  void prepare(NodeId n);
  void reset_touched(bool hops);
  /// Settles from `source` (queued at distance 0) on the engine W picks;
  /// `relax(d, entry, push)` skips a stale entry and queues every
  /// improvement with push(distance, entry).
  template <typename Entry, typename Relax>
  void settle(const CsrGraph& g, Entry source, Queues<Entry>& q,
              const Relax& relax);

  // Label arrays: all-kInfDist outside a run (touched-list invariant).
  std::vector<Dist> dist_;
  std::vector<Dist> hops_;
  /// Nodes whose labels were set this run, in discovery order (doubles
  /// as the BFS queue).
  std::vector<NodeId> touched_;
  Queues<NodeId> plain_;
  Queues<std::pair<NodeId, Dist>> lex_;
  std::vector<Dist> bf_cur_;
  std::vector<Dist> bf_next_;
};

/// Hop distances (unweighted BFS) from s. Unreachable -> kInfDist.
std::vector<Dist> bfs_distances(const WeightedGraph& g, NodeId s);
std::vector<Dist> bfs_distances(const CsrGraph& g, NodeId s);

/// Weighted single-source distances (Dijkstra). Unreachable -> kInfDist.
std::vector<Dist> dijkstra(const WeightedGraph& g, NodeId s);
std::vector<Dist> dijkstra(const CsrGraph& g, NodeId s);

/// Weighted distances plus, for each node, the minimum number of edges
/// over all *shortest* (by weight) paths from s — the hop distance
/// h_{G,w}(s, v) of Section 3.1 (lexicographic Dijkstra).
struct DistHops {
  std::vector<Dist> dist;
  std::vector<Dist> hops;
};
DistHops dijkstra_with_hops(const WeightedGraph& g, NodeId s);
DistHops dijkstra_with_hops(const CsrGraph& g, NodeId s);

/// ℓ-hop-bounded distances d^ℓ_{G,w}(s, ·): least length over paths with
/// at most ℓ edges (Bellman–Ford truncated to ℓ relaxation rounds).
std::vector<Dist> bounded_hop_distances(const WeightedGraph& g, NodeId s,
                                        std::uint64_t ell);
std::vector<Dist> bounded_hop_distances(const CsrGraph& g, NodeId s,
                                        std::uint64_t ell);

// Multi-source kernels. The CSR overloads take an optional pool: pass
// one to control the worker count explicitly; pass nullptr to let the
// kernel use the process-wide shared pool for large graphs and run
// serially for small ones. Either way the per-source results land in
// index-ordered slots, so outputs never depend on scheduling.

/// All-pairs weighted distances (row per source).
std::vector<std::vector<Dist>> all_pairs_distances(const WeightedGraph& g);
std::vector<std::vector<Dist>> all_pairs_distances(
    const CsrGraph& g, runtime::ThreadPool* pool = nullptr);

/// Weighted eccentricity of every node; kInfDist on disconnected graphs.
std::vector<Dist> eccentricities(const WeightedGraph& g);
std::vector<Dist> eccentricities(const CsrGraph& g,
                                 runtime::ThreadPool* pool = nullptr);

/// Weighted eccentricities of a chosen source subset: out[i] is the
/// eccentricity of sources[i]. The full-graph overload above is n
/// Dijkstras — infeasible at the dataset layer's n = 10^5..10^6 scale —
/// while k sampled sources give the diameter/radius *lower/upper
/// envelope* the large-n benches track in O(k (m + n log n)). Same
/// index-ordered pool fan-out as every multi-source kernel: results are
/// byte-identical at any worker count. Duplicate sources are allowed;
/// ids must be < node_count().
std::vector<Dist> eccentricities(const CsrGraph& g,
                                 std::span<const NodeId> sources,
                                 runtime::ThreadPool* pool = nullptr);

/// Unweighted (hop) eccentricity of every node — the BFS twin of
/// `eccentricities`, used by the unweighted baselines.
std::vector<Dist> unweighted_eccentricities(const WeightedGraph& g);
std::vector<Dist> unweighted_eccentricities(
    const CsrGraph& g, runtime::ThreadPool* pool = nullptr);

/// Hop eccentricities of a chosen source subset — the BFS twin of the
/// subset overload above, with the same contract. The service layer's
/// incremental update path repairs only the table rows an edge batch
/// invalidated through this.
std::vector<Dist> unweighted_eccentricities(const CsrGraph& g,
                                            std::span<const NodeId> sources,
                                            runtime::ThreadPool* pool = nullptr);

/// Weighted diameter D_{G,w} = max eccentricity.
Dist weighted_diameter(const WeightedGraph& g);

/// Weighted radius R_{G,w} = min eccentricity.
Dist weighted_radius(const WeightedGraph& g);

/// Unweighted diameter D_G (topology only) — the paper's parameter D.
Dist unweighted_diameter(const WeightedGraph& g);
Dist unweighted_diameter(const CsrGraph& g,
                         runtime::ThreadPool* pool = nullptr);

/// Hop diameter H_{G,w}: max over pairs of h_{G,w}(u, v).
Dist hop_diameter(const WeightedGraph& g);
Dist hop_diameter(const CsrGraph& g, runtime::ThreadPool* pool = nullptr);

/// Result of contracting all weight-1 edges (Lemma 4.3).
struct Contraction {
  WeightedGraph graph;          ///< G' (parallel edges keep min weight).
  std::vector<NodeId> node_map; ///< original node -> contracted node.
};

/// Contracts every weight-1 edge; merged super-nodes keep, for each pair,
/// only the cheapest connecting edge, per Lemma 4.3's convention.
Contraction contract_unit_edges(const WeightedGraph& g);

}  // namespace qc
