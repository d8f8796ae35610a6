// Flat compressed-sparse-row adjacency for the shortest-path kernels.
//
// `WeightedGraph` stores one heap-allocated `std::vector<HalfEdge>` per
// node, which is convenient for incremental construction but costs one
// pointer indirection (and usually a cache miss) per visited node. The
// distance kernels in algorithms.h sweep the whole adjacency once per
// source, so every multi-source quantity (eccentricities, APSP, the
// Lemma 3.2 scale loop) pays that miss n times per node. `CsrGraph`
// packs the same half-edges into a single contiguous array indexed by an
// offset table: one allocation, sequential scans, and a topology that
// can be shared across weight transforms (the per-scale reweightings of
// Lemma 3.2 rewrite only the weights, never the structure).
//
// Neighbor order is identical to the source `WeightedGraph`'s rows, so
// any tie-broken traversal (lexicographic Dijkstra, BFS queue order)
// visits nodes in exactly the same order on either representation.
//
// Storage comes in two flavors behind one read interface: *owned*
// (the usual vectors, built from a WeightedGraph or adopted from the
// streaming bgraph loader) and *mapped* (read-only spans over a
// memory-mapped bcsr file, kept alive by a shared handle — see
// graph/io.h `map_csr`). All accessors read through spans, so the
// kernels never know the difference; the one mutating operation,
// `assign_reweighted`, detaches a mapped view into owned storage
// first. Offsets are `std::size_t` (64-bit on every supported target)
// and the edge axis never passes through `NodeId`, so graphs with
// hundreds of millions of half-edges are representable.
//
// An edge update never edits a CsrGraph in place: WeightedGraph::apply
// drops the graph's cached view, and the next WeightedGraph::csr()
// packs the updated rows flat again.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/error.h"

namespace qc {

class CsrGraph {
 public:
  CsrGraph() : own_offsets_(1, 0) { rebind_views(); }

  /// Packs g's adjacency. O(n + m); weights are copied as-is.
  explicit CsrGraph(const WeightedGraph& g);

  // Copies duplicate mapped views cheaply (they share the mapping) and
  // owned storage deeply; in both cases the spans must rebind to the
  // destination's own arrays, which the defaulted members would get
  // wrong. Moves steal the vectors (heap buffers survive a vector
  // move, so the spans stay valid) and neuter the source's views.
  CsrGraph(const CsrGraph& o) { assign_from(o); }
  CsrGraph& operator=(const CsrGraph& o) {
    if (this != &o) assign_from(o);
    return *this;
  }
  CsrGraph(CsrGraph&& o) noexcept
      : own_offsets_(std::move(o.own_offsets_)),
        own_halves_(std::move(o.own_halves_)),
        mapping_(std::move(o.mapping_)),
        offsets_(o.offsets_),
        halves_(o.halves_),
        max_weight_(o.max_weight_) {
    o.own_offsets_.assign(1, 0);
    o.rebind_views();
  }
  CsrGraph& operator=(CsrGraph&& o) noexcept {
    if (this != &o) {
      own_offsets_ = std::move(o.own_offsets_);
      own_halves_ = std::move(o.own_halves_);
      mapping_ = std::move(o.mapping_);
      offsets_ = o.offsets_;
      halves_ = o.halves_;
      max_weight_ = o.max_weight_;
      o.own_offsets_.assign(1, 0);
      o.own_halves_.clear();
      o.rebind_views();
    }
    return *this;
  }

  /// Adopts prebuilt arrays: `offsets` must be a monotone prefix array
  /// of size n+1 whose last entry equals halves.size(). The streaming
  /// two-pass loader (graph/io.h `csr_from_bgraph`) and the bcsr file
  /// reader build through this. O(1) beyond the validation scan.
  static CsrGraph from_parts(std::vector<std::size_t> offsets,
                             std::vector<HalfEdge> halves, Weight max_weight);

  /// Wraps externally owned, read-only arrays (the memory-mapped bcsr
  /// payload); `keep_alive` holds the mapping for the lifetime of this
  /// graph and all its copies. The caller (map_csr) is responsible for
  /// having validated the arrays.
  static CsrGraph mapped(std::span<const std::size_t> offsets,
                         std::span<const HalfEdge> halves, Weight max_weight,
                         std::shared_ptr<const void> keep_alive);

  /// True when the storage is a read-only mapped view (no copy was
  /// made; pages are shared with every other mapper of the file).
  bool is_mapped() const { return mapping_ != nullptr; }

  /// Identity of the underlying mapping (nullptr when owned): two
  /// graphs reporting the same address serve reads from the same
  /// mapped pages — the service layer uses this to prove N resident
  /// graphs of one bcsr file share a single mapping.
  const void* mapping_address() const { return mapping_.get(); }

  /// Number of live views holding the mapping open (0 when owned).
  long mapping_use_count() const { return mapping_.use_count(); }

  NodeId node_count() const {
    return static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Number of undirected edges (half-edge count / 2).
  std::size_t edge_count() const { return halves_.size() / 2; }

  std::span<const HalfEdge> neighbors(NodeId u) const {
    QC_REQUIRE(u < node_count(), "node id out of range");
    return {halves_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  /// The raw arrays (diagnostics, serialization). Row u is
  /// halves()[offsets()[u] .. offsets()[u+1]).
  std::span<const std::size_t> offsets() const { return offsets_; }
  std::span<const HalfEdge> halves() const { return halves_; }

  /// Max edge weight W (1 if the graph has no edges).
  Weight max_weight() const { return max_weight_; }

  /// Partitions the node range into `shards` contiguous, degree-balanced
  /// ranges: returns k+1 boundaries (k = min(shards, n), k >= 1) with
  /// shard s covering nodes [b[s], b[s+1]). Balance mass is deg(v) + 1
  /// (the +1 keeps long runs of isolated nodes from piling into one
  /// shard), cut by a prefix-sum walk over the degree histogram — the
  /// offsets array is exactly that prefix sum, so each boundary is one
  /// binary search. Deterministic in the topology alone. The CONGEST
  /// simulator's shard-parallel mailbox delivery keys its receiver
  /// ownership off these ranges (docs/perf.md).
  std::vector<NodeId> balanced_node_shards(unsigned shards) const;

  /// Rebuilds *this as `base` with every weight replaced by f(weight).
  /// The topology arrays are reused across calls (vector assignment keeps
  /// capacity), so a caller looping over the Lemma 3.2 scales pays zero
  /// allocations after the first scale. `f` must return weights >= 1.
  /// `this == &base` is allowed; `f` then receives the *current* (already
  /// transformed) weights, so per-scale callers should keep a pristine
  /// base and a separate scratch. A mapped base (or a mapped *this on
  /// the self path) is copied into owned storage first — the mapping
  /// itself is never written.
  template <typename Fn>
  void assign_reweighted(const CsrGraph& base, Fn&& f) {
    if (this != &base) {
      own_offsets_.assign(base.offsets_.begin(), base.offsets_.end());
      own_halves_.assign(base.halves_.begin(), base.halves_.end());
      mapping_.reset();
      rebind_views();
    } else if (mapping_ != nullptr) {
      detach();
    }
    Weight mx = 1;
    for (HalfEdge& h : own_halves_) {
      h.weight = f(h.weight);
      QC_CHECK(h.weight >= 1, "reweight produced a zero weight");
      mx = std::max(mx, h.weight);
    }
    max_weight_ = mx;
  }

 private:
  void rebind_views() {
    offsets_ = own_offsets_;
    halves_ = own_halves_;
  }

  /// Copies a mapped view into owned storage and drops the mapping.
  void detach();

  void assign_from(const CsrGraph& o) {
    if (o.mapping_ != nullptr) {
      own_offsets_.clear();
      own_halves_.clear();
      mapping_ = o.mapping_;
      offsets_ = o.offsets_;
      halves_ = o.halves_;
    } else {
      own_offsets_.assign(o.offsets_.begin(), o.offsets_.end());
      own_halves_.assign(o.halves_.begin(), o.halves_.end());
      mapping_.reset();
      rebind_views();
    }
    max_weight_ = o.max_weight_;
  }

  std::vector<std::size_t> own_offsets_;  ///< owned mode: size n+1
  std::vector<HalfEdge> own_halves_;      ///< owned mode: 2m half-edges
  std::shared_ptr<const void> mapping_;   ///< mapped mode: keep-alive
  std::span<const std::size_t> offsets_;  ///< active view (either mode)
  std::span<const HalfEdge> halves_;      ///< active view (either mode)
  Weight max_weight_ = 1;
};

}  // namespace qc
