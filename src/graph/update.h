// First-class edge mutations for WeightedGraph.
//
// The paper's setting is static, but the service layer (ROADMAP
// "Dynamic graphs") keeps N resident graphs warm — CSR, slot index,
// eccentricity tables, toolkit rows. `GraphUpdate` batches
// insert/remove/reweight ops behind one validated entry point,
// `WeightedGraph::apply`, which mutates the adjacency rows and the
// edge list, keeps the connectivity verdict where a certificate allows,
// and drops the CSR view and slot index for a flat rebuild on next use.
// The expensive warm tables (eccentricities, toolkit rows) are repaired
// by the service layer, keyed off the batch's endpoints. The legacy
// mutators (add_edge, remove_edge, set_edge_weight) are one-op sugar
// over the same path, so apply() is the single sanctioned mutation
// surface.
//
// Batch semantics are the *net* effect: ops validate sequentially
// against the simulated intermediate state (so "insert then reweight"
// is legal and "insert twice" is a parallel-edge error), but the graph
// only ever assumes the final state — inserting and removing the same
// edge in one batch cancels. Validation runs to completion before the
// first mutation; an ArgumentError leaves the graph and every cache
// untouched, like from_edges.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace qc {

enum class EdgeOpKind : std::uint8_t { kInsert, kRemove, kReweight };

/// One edge mutation. Endpoints are unordered ({u, v} names the same
/// edge as {v, u}); weight is ignored by kRemove.
struct EdgeOp {
  EdgeOpKind kind = EdgeOpKind::kInsert;
  NodeId u = 0;
  NodeId v = 0;
  Weight weight = 1;

  static EdgeOp insert(NodeId u, NodeId v, Weight w = 1) {
    return {EdgeOpKind::kInsert, u, v, w};
  }
  static EdgeOp remove(NodeId u, NodeId v) {
    return {EdgeOpKind::kRemove, u, v, 1};
  }
  static EdgeOp reweight(NodeId u, NodeId v, Weight w) {
    return {EdgeOpKind::kReweight, u, v, w};
  }

  friend bool operator==(const EdgeOp&, const EdgeOp&) = default;
};

/// An ordered batch of edge ops for WeightedGraph::apply. Fluent
/// builder: `GraphUpdate{}.insert(0, 1, 5).remove(2, 3)`.
class GraphUpdate {
 public:
  GraphUpdate() = default;

  GraphUpdate& insert(NodeId u, NodeId v, Weight w = 1) {
    ops_.push_back(EdgeOp::insert(u, v, w));
    return *this;
  }
  GraphUpdate& remove(NodeId u, NodeId v) {
    ops_.push_back(EdgeOp::remove(u, v));
    return *this;
  }
  GraphUpdate& reweight(NodeId u, NodeId v, Weight w) {
    ops_.push_back(EdgeOp::reweight(u, v, w));
    return *this;
  }
  GraphUpdate& push(EdgeOp op) {
    ops_.push_back(op);
    return *this;
  }

  const std::vector<EdgeOp>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  void clear() { ops_.clear(); }

  /// Sorted unique node ids touched by any op — the conservative
  /// invalidation frontier the cache layers key off (paths/reference.h
  /// `invalidate_rows`, the service's eccentricity delta repair).
  std::vector<NodeId> endpoints() const;

 private:
  std::vector<EdgeOp> ops_;
};

}  // namespace qc
