// Centralized reference implementation of Nanongkai's toolkit quantities
// (Lemma 3.2 and Lemma 3.3 of the paper).
//
// Everything is computed in exact fixed-point integer units (see
// params.h): first-level approximate distances d̃^ℓ carry a factor
// σ = 2·ℓ·eps_inv; second-level (overlay) approximate distances carry
// σ·σ″ with σ″ = 2·ℓ″·eps_inv. The distributed implementations in
// distributed.h compute the same integers via CONGEST messages; tests
// assert bit-exact agreement.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "paths/params.h"
#include "util/mathx.h"

namespace qc::runtime {
class ThreadPool;  // runtime/thread_pool.h
}

namespace qc::paths {

/// d̃^ℓ_{G,w}(s, ·) in σ-scaled units (Lemma 3.2):
///   min_i { d_{G,w_i}(s,v) · 2^i  :  d_{G,w_i}(s,v) <= (1+2/ε)·ℓ }
/// kInfDist where no scale is eligible.
std::vector<Dist> approx_bounded_hop_from(const WeightedGraph& g, NodeId s,
                                          const HopScale& scale);

/// Lemma 3.2 on an abstract complete-ish graph given as a distance
/// matrix `w` (kInfDist entries = no edge). Returns the full matrix of
/// approximate ℓ-hop distances, in σ(scale)-scaled units *relative to
/// the units of `w`*.
std::vector<std::vector<Dist>> approx_bounded_hop_matrix(
    const std::vector<std::vector<Dist>>& w, const HopScale& scale);

/// Exact Dijkstra on a dense matrix graph (kInfDist = no edge).
std::vector<Dist> dijkstra_matrix(const std::vector<std::vector<Dist>>& w,
                                  std::uint32_t s);

/// In-place min-plus closure (Floyd–Warshall) of a square matrix whose
/// entries are at most kInfDist (kInfDist = no edge): on return d[a][c]
/// is the shortest a–c distance and the diagonal is 0. Shortest
/// distances are unique, so every row equals `dijkstra_matrix`'s.
void min_plus_closure(std::vector<std::vector<Dist>>& d);

/// The at most k lightest finite entries of `row` other than `self`, as
/// indices ordered by (weight, index), into `out`: a member's k-star
/// (Algorithm 4) and, on a closed row, its k nearest N^k.
void lightest_k(const std::vector<Dist>& row, std::uint32_t self,
                std::uint64_t k, std::vector<std::uint32_t>& out);

/// Observation 3.12's shortcut step on the k-star union `h` (kInfDist =
/// no edge): closes `h` in place, then for each member a takes its k
/// nearest others by (d_H, index), lowers w2[a][c] and w2[c][a] to
/// d_H(a, c) on those pairs and, with `nearest` non-null, records them
/// as (*nearest)[a]. `pick` is scratch.
void shortcut_step(std::vector<std::vector<Dist>>& h, std::uint64_t k,
                   std::vector<std::vector<Dist>>& w2,
                   std::vector<std::vector<std::uint32_t>>* nearest,
                   std::vector<std::uint32_t>& pick);

/// Hop diameter of a dense matrix graph under its weights: the maximum,
/// over connected pairs, of the minimum edge count among weight-shortest
/// paths. Used to check the k-shortcut property (Theorem 3.10 of [21])
/// that Lemma 3.3's proof relies on: H_{G″,w″} < 4·|S|/k.
Dist hop_diameter_matrix(const std::vector<std::vector<Dist>>& w);

/// All skeleton structures of Lemma 3.3 for one vertex set S.
struct Skeleton {
  Params params;
  std::vector<NodeId> members;  ///< S, sorted ascending

  HopScale base_scale;     ///< Lemma 3.2 scale on G (units: w)
  HopScale overlay_scale;  ///< Lemma 3.2 scale on G″ (units: σ·w)

  /// approx_hop[a][v] = d̃^ℓ_{G,w}(S[a], v), σ units.
  std::vector<std::vector<Dist>> approx_hop;
  /// overlay_w1[a][b] = w′_S({S[a],S[b]}) = d̃^ℓ(S[a],S[b]), σ units.
  std::vector<std::vector<Dist>> overlay_w1;
  /// overlay_dist1[a][b] = d_{G′_S,w′_S}(S[a],S[b]), σ units.
  std::vector<std::vector<Dist>> overlay_dist1;
  /// nearest_k[a] = indices (into members) of the k closest other
  /// members of a on (G′_S, w′_S), ties broken by index.
  std::vector<std::vector<std::uint32_t>> nearest_k;
  /// overlay_w2[a][b] = w″_S({S[a],S[b]}), σ units.
  std::vector<std::vector<Dist>> overlay_w2;
  /// overlay_approx[a][b] = d̃^{ℓ″}_{G″,w″}(S[a],S[b]), σ·σ″ units.
  std::vector<std::vector<Dist>> overlay_approx;

  std::size_t size() const { return members.size(); }

  /// σ·σ″ — the fixed-point scale of approx_distance values.
  std::uint64_t total_scale() const {
    return base_scale.sigma() * overlay_scale.sigma();
  }

  /// d̃_{G,w,S}(S[s_idx], v) in σ·σ″ units (Lemma 3.3):
  ///   min_u { d̃″(s,u) + σ″ · d̃^ℓ(u,v) }.
  Dist approx_distance(std::uint32_t s_idx, NodeId v) const;

  /// ẽ_{G,w,S}(S[s_idx]) = max_v d̃_{G,w,S}(S[s_idx], v), σ·σ″ units.
  Dist approx_eccentricity(std::uint32_t s_idx) const;
};

/// Builds every Lemma 3.3 structure for the set S (must be non-empty,
/// sorted or not — it is sorted internally).
Skeleton build_skeleton(const WeightedGraph& g, const Params& params,
                        std::vector<NodeId> set);

/// What the Theorem 1.1 oracle actually consumes from a set: the scale of
/// its approximate distances and the approximate eccentricity of every
/// member (kInfDist where Lemma 3.3 fails to certify a finite value).
/// Produced by `ToolkitCache::evaluate_set` without materializing a
/// `Skeleton` — see that method for what is skipped.
struct SetEvaluation {
  std::uint64_t total_scale = 0;  ///< σ·σ″, == Params::total_scale(|S|)
  std::vector<Dist> member_ecc;   ///< indexed like the sorted set
};

/// Reusable scratch for `ToolkitCache::evaluate_set`: the overlay
/// matrices, the per-scale rounded-weight copy and the pick and sort
/// index buffers all keep their capacity across calls, so repeated
/// evaluations allocate nothing after warm-up. Not thread-safe — one
/// workspace per worker.
class SetEvalWorkspace {
 public:
  SetEvalWorkspace() = default;

 private:
  friend class ToolkitCache;
  std::vector<std::vector<Dist>> w1_;      // overlay weights w′
  std::vector<std::vector<Dist>> h_;       // k-star union H, then d_H
  std::vector<std::vector<Dist>> w2_;      // shortcut weights w″
  std::vector<std::vector<Dist>> overlay_; // d̃^{ℓ″} on (G″, w″)
  std::vector<std::vector<Dist>> wi_;      // per-scale rounded matrix
  std::vector<std::uint32_t> order_;
  std::vector<const std::vector<Dist>*> row_ptrs_;
  std::vector<std::uint32_t> bmin_arg_;    // per-target best hub by B
  std::vector<Dist> bmin1_;                // smallest B(u, v) per target v
  std::vector<std::uint32_t> tord_;        // targets by descending B₁
};

/// Shared backend for building many skeletons on the same (G, w, Params):
/// the first-level rows d̃^ℓ(u, ·) depend only on the member u (ℓ and ε
/// are global), so they are computed once per distinct member across all
/// sets. Used by the Theorem 1.1 driver, which needs n skeletons.
///
/// Thread-safety: `approx_row`, `ensure_rows`, and `evaluate_set` may be
/// called concurrently — row publication is guarded by sharded mutexes
/// with an atomic ready flag per node (double-checked, acquire/release),
/// and `evaluate_set` only reads published rows plus caller-owned
/// scratch. `skeleton` is also safe under the same rules but copies its
/// rows, so prefer `evaluate_set` on hot paths.
class ToolkitCache {
 public:
  ToolkitCache(const WeightedGraph& g, const Params& params);

  ToolkitCache(const ToolkitCache&) = delete;
  ToolkitCache& operator=(const ToolkitCache&) = delete;

  const WeightedGraph& graph() const { return *g_; }
  const Params& params() const { return params_; }
  const HopScale& base_scale() const { return base_scale_; }

  /// d̃^ℓ(u, ·) in σ units; computed on first use, then cached.
  const std::vector<Dist>& approx_row(NodeId u);

  /// Batch-fills the first-level rows of every node in `nodes` that is
  /// not cached yet. With a pool, missing rows are chunked across
  /// workers (one Dijkstra workspace and reweighted CSR per chunk); the
  /// cached rows are identical either way, so downstream results never
  /// depend on the worker count. Call this once with the union of
  /// members before fanning `evaluate_set` out over a pool — it keeps
  /// the per-row mutex path contention-free.
  void ensure_rows(const std::vector<NodeId>& nodes,
                   runtime::ThreadPool* pool = nullptr);

  /// Same construction as build_skeleton but reading first-level rows
  /// from the cache.
  Skeleton skeleton(std::vector<NodeId> set);

  /// Trimmed construction for the Theorem 1.1 oracle: computes exactly
  /// the `SetEvaluation` a value query needs, in exactly the integers
  /// `skeleton(set)` would produce, but skips everything the oracle
  /// never reads — the exact overlay metric `overlay_dist1` (kept on
  /// `Skeleton` only to validate Observation 3.12), the `nearest_k`
  /// lists, the per-member row copies, and the `Skeleton` itself. The
  /// eccentricity scan precomputes, per target v, the smallest
  /// B(u,v) = σ″·d̃^ℓ(u,v) over hubs u (one b·n pass shared by all
  /// members) and visits targets in descending-B₁ order, so each
  /// member's max converges within the first few targets: a target whose
  /// best-B candidate cannot beat the running max is skipped outright,
  /// and the whole scan stops once even A_max(s) + B₁(v) cannot. When a
  /// target does need its exact minimum, hubs are scanned in ascending
  /// d̃″(s,u) order and the scan breaks at d̃″(s,u) + B₁(v) ≥ best. All
  /// bounds are monotone under the saturating `dist_add`, so the pruned
  /// integers equal the full scan's exactly.
  SetEvaluation evaluate_set(std::vector<NodeId> set, SetEvalWorkspace& ws);

  /// Number of cached first-level rows (reporting only).
  std::size_t cached_row_count() const;

  /// Delta-aware invalidation after an edge batch touching `endpoints`
  /// (sorted or not; the set of all endpoints of changed edges).
  /// Cached row u survives iff its entry for every endpoint is
  /// kInfDist: a scale-i capped search from u whose result an edge
  /// change could alter must settle one endpoint of the first changed
  /// edge on the path within the cap — in the old or the new graph —
  /// and the new-graph case reduces to the old by taking the first
  /// changed edge along the new path (its prefix uses old weights).
  /// So all-infinite endpoint entries certify the row exact. Returns
  /// the number of rows dropped. NOT thread-safe against concurrent
  /// readers — the service layer calls it under its exclusive
  /// per-graph update lock.
  std::size_t invalidate_rows(std::span<const NodeId> endpoints);

  /// Adopts fresh Params after a graph mutation when the row identity
  /// (ℓ, 1/ε, max weight) is unchanged — d̂ (and thus r, k) drift with
  /// topology, but rows depend only on the base scale, so surviving
  /// rows stay byte-exact. Returns false without changing anything
  /// when the identity differs; the caller must rebuild the cache.
  bool rebind_params(const Params& params);

 private:
  static constexpr std::size_t kRowShards = 16;

  void publish_row(NodeId u, std::vector<Dist>&& row);

  const WeightedGraph* g_;
  Params params_;
  HopScale base_scale_;
  std::vector<std::vector<Dist>> rows_;   // indexed by node; empty = unset
  /// rows_[u] is readable iff row_ready_[u] (acquire) is nonzero.
  std::unique_ptr<std::atomic<std::uint8_t>[]> row_ready_;
  mutable std::array<std::mutex, kRowShards> row_mutex_;
};

}  // namespace qc::paths
