// Weighted undirected graph type used by every layer of the library.
//
// Matches the paper's setting: G = (V, E) undirected, weights w : E -> N+
// (positive integers). Node ids are dense `[0, n)`. The communication
// network and the problem graph are the same object (CONGEST model), so
// this type carries both the topology (used by the simulator) and the
// weights (used by the distance problems).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/mathx.h"

namespace qc {

class CsrGraph;       // graph/csr.h
class EdgeSlotIndex;  // graph/slot_index.h
class GraphUpdate;    // graph/update.h

using NodeId = std::uint32_t;
using Weight = std::uint64_t;

/// The one edge-weight rule of every input surface: 1 <= w < kInfDist.
/// The paper's weights are positive integers, and every distance kernel
/// reads a weight at or past kInfDist as a missing edge.
constexpr bool is_edge_weight(Weight w) { return w >= 1 && w < kInfDist; }

/// Throws ArgumentError naming `w` and the rule unless is_edge_weight(w).
/// `where` prefixes the message (a line, a file and byte); a hot loop
/// tests is_edge_weight first so it builds `where` only for a bad one.
void require_edge_weight(Weight w, std::string_view where = {});

/// What WeightedGraph::apply did. Counts are *net* effects (an edge
/// inserted and removed in the same batch cancels).
struct UpdateStats {
  std::size_t inserted = 0;
  std::size_t removed = 0;
  std::size_t reweighted = 0;
  bool topology_changed = false;
  /// A known connectivity verdict survived the batch.
  bool connectivity_kept = false;
  /// The graph was serving reads from a memory-mapped bcsr view and
  /// this update performed the copy-on-write detach into owned storage
  /// (set by the service layer's GraphContext, at most once per
  /// mapped graph — see docs/service.md).
  bool mapped_detached = false;
};

/// One incident edge as seen from a node.
struct HalfEdge {
  NodeId to;
  Weight weight;

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

/// One full edge (u < v canonical order once finalized).
struct Edge {
  NodeId u;
  NodeId v;
  Weight weight;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Undirected weighted graph with dense node ids.
///
/// Invariants (checked in debug paths / on demand via `validate()`):
///  * no self loops, no parallel edges;
///  * every weight in [1, kInfDist) (require_edge_weight).
class WeightedGraph {
 public:
  WeightedGraph() = default;
  explicit WeightedGraph(NodeId n) : adjacency_(n) {}

  // Copies/moves transfer only the graph data; the lazily-built CSR cache
  // travels with moves (sole owner) but is rebuilt on demand for copies.
  WeightedGraph(const WeightedGraph& o)
      : adjacency_(o.adjacency_), edges_(o.edges_) {}
  WeightedGraph& operator=(const WeightedGraph& o) {
    if (this != &o) {
      adjacency_ = o.adjacency_;
      edges_ = o.edges_;
      std::lock_guard<std::mutex> lock(csr_mutex_);
      csr_cache_.reset();
      slot_index_cache_.reset();
      // Arbitrary replacement data: the old verdict says nothing.
      connected_cache_ = ConnCache::kUnknown;
    }
    return *this;
  }
  WeightedGraph(WeightedGraph&& o) noexcept
      : adjacency_(std::move(o.adjacency_)),
        edges_(std::move(o.edges_)),
        csr_cache_(std::move(o.csr_cache_)),
        slot_index_cache_(std::move(o.slot_index_cache_)),
        connected_cache_(o.connected_cache_) {}
  WeightedGraph& operator=(WeightedGraph&& o) noexcept {
    adjacency_ = std::move(o.adjacency_);
    edges_ = std::move(o.edges_);
    csr_cache_ = std::move(o.csr_cache_);
    slot_index_cache_ = std::move(o.slot_index_cache_);
    connected_cache_ = o.connected_cache_;
    return *this;
  }

  /// Builds a graph directly from a canonical edge list: every edge must
  /// have u < v < n, weight >= 1, and the list must be duplicate-free
  /// (the caller's responsibility — unlike add_edge there is no O(deg)
  /// duplicate scan, which is what makes this O(n + m)). Adjacency rows
  /// come out in edge-list order, exactly as repeated add_edge would
  /// produce them.
  static WeightedGraph from_edges(NodeId n, std::vector<Edge> edges);

  NodeId node_count() const {
    return static_cast<NodeId>(adjacency_.size());
  }
  std::size_t edge_count() const { return edges_.size(); }

  /// Applies a batch of edge mutations (graph/update.h). The whole
  /// batch is validated against the graph's invariants *before* any
  /// mutation — an ArgumentError leaves the graph (and its caches)
  /// untouched, like from_edges. Semantics are the batch's net effect:
  /// inserting and removing the same edge in one batch cancels.
  ///
  /// A batch with a net change drops the cached CSR and slot index
  /// (the next csr() / slot_index() rebuilds them flat) and keeps a
  /// cached connectivity verdict whenever the batch provably preserves
  /// it — removals keep "connected" when every removed edge's
  /// endpoints still share a common neighbor afterwards (the 2-hop
  /// replacement path certificate).
  UpdateStats apply(const GraphUpdate& update);

  /// Runs apply()'s validation alone: throws the ArgumentError that
  /// apply(update) would throw, and mutates nothing either way.
  void check_update(const GraphUpdate& update) const;

  /// Adds an undirected edge {u, v} with weight w >= 1.
  /// Throws ArgumentError on self loops, out-of-range ids, zero weight,
  /// or duplicate edges. Sugar for a one-op apply().
  void add_edge(NodeId u, NodeId v, Weight w = 1);

  /// Removes the edge {u, v}. Throws ArgumentError on out-of-range ids,
  /// self loops, or a missing edge ("remove_edge: no such edge"). Sugar
  /// for a one-op apply().
  void remove_edge(NodeId u, NodeId v);

  /// True if {u, v} is an edge.
  bool has_edge(NodeId u, NodeId v) const;

  /// Weight of edge {u, v}; throws if absent.
  Weight edge_weight(NodeId u, NodeId v) const;

  /// Replaces the weight of an existing edge. Sugar for a one-op
  /// apply().
  void set_edge_weight(NodeId u, NodeId v, Weight w);

  std::span<const HalfEdge> neighbors(NodeId u) const {
    QC_REQUIRE(u < node_count(), "node id out of range");
    return adjacency_[u];
  }

  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  const std::vector<Edge>& edges() const { return edges_; }

  /// Max edge weight W (1 if the graph has no edges).
  Weight max_weight() const;

  /// Same topology with all weights replaced by 1 (the w* of Section 2.1).
  WeightedGraph unweighted_copy() const;

  /// Applies f to every weight: used for the w_i roundings of Lemma 3.2.
  /// Builds the copy directly (this graph's invariants already guarantee
  /// canonical, duplicate-free edges) with adjacency rows and the edge
  /// vector reserved up front, so no per-edge duplicate scan and no row
  /// reallocation churn. f must return weights >= 1.
  template <typename Fn>
  WeightedGraph reweighted(Fn&& f) const {
    WeightedGraph g(node_count());
    g.edges_.reserve(edges_.size());
    for (NodeId u = 0; u < node_count(); ++u) {
      g.adjacency_[u].reserve(adjacency_[u].size());
    }
    for (const Edge& e : edges_) {
      const Weight w = f(e.weight);
      QC_REQUIRE(w >= 1, "weights must be positive integers");
      g.adjacency_[e.u].push_back({e.v, w});
      g.adjacency_[e.v].push_back({e.u, w});
      g.edges_.push_back({e.u, e.v, w});
    }
    return g;
  }

  /// Flat CSR view of this graph, built lazily on first use and cached;
  /// a mutation that changes the graph drops it, and the next call
  /// rebuilds it. The reference stays valid until the next mutation.
  /// Thread-safe to call concurrently; building happens once.
  const CsrGraph& csr() const;

  /// Directed-edge index over csr(): dense edge ids and the reverse
  /// slot of every directed edge (graph/slot_index.h), built lazily and
  /// cached with the same lifetime/invalidation rules as csr(). The
  /// CONGEST simulator meters bandwidth and hands each delivery its
  /// receiver's slot through it; the qubit network meters qubits.
  const EdgeSlotIndex& slot_index() const;

  /// True when every pair of nodes is connected (n <= 1 counts as
  /// connected). The BFS runs once; the answer is cached (the CONGEST
  /// primitives call this on every aggregate/flood, thousands of times
  /// per run). Unlike csr(), the verdict survives mutations that cannot
  /// change it: reweights never touch topology, inserts keep
  /// "connected", removals keep "disconnected" — and apply()
  /// additionally keeps "connected" across removals whose endpoints
  /// retain a common neighbor. Every other combination downgrades the
  /// cache to dirty.
  bool is_connected() const;

  /// True when is_connected() would be answered from the cached verdict
  /// without re-running the BFS. Diagnostic hook for the dirty-bit
  /// invalidation tests and the service warm-state report.
  bool connectivity_cached() const {
    std::lock_guard<std::mutex> lock(csr_mutex_);
    return connected_cache_ != ConnCache::kUnknown;
  }

  /// Throws InvariantError if internal structures are inconsistent.
  void validate() const;

  /// Human-readable one-line summary ("n=32 m=64 W=9").
  std::string summary() const;

 private:
  /// Cached is_connected() verdict. A tri-state rather than the CSR
  /// caches' build-or-null because apply() *downgrades* it selectively
  /// instead of always discarding it.
  enum class ConnCache : std::uint8_t { kUnknown, kConnected, kDisconnected };

  std::vector<std::vector<HalfEdge>> adjacency_;
  std::vector<Edge> edges_;
  mutable std::mutex csr_mutex_;
  mutable std::shared_ptr<CsrGraph> csr_cache_;
  mutable std::shared_ptr<EdgeSlotIndex> slot_index_cache_;
  mutable ConnCache connected_cache_ = ConnCache::kUnknown;
};

/// Graphviz DOT rendering (undirected). Weight-1 edges are drawn plain;
/// heavier edges are labelled. Used by the figure benches.
std::string to_dot(const WeightedGraph& g, const std::string& name = "G");

}  // namespace qc
