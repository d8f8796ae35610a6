// Directed-edge indexing over a CSR adjacency: dense edge indices and
// the reverse slot of every directed edge.
//
// The CONGEST simulator meters bandwidth per (edge, direction) and the
// qubit-level network meters per-edge qubit budgets the same way; both
// keep that accounting in one flat array indexed by
// `edge_index(from, slot)`, a directed edge's position in CSR row
// order, in [0, 2m).
//
// `reverse_slot(e)` answers the receiver's question for directed edge
// e = (u, i): at which slot of its own row does the neighbour
// v = neighbors(u)[i].to keep u? The simulator's merge walks e for every
// delivery, so it hands each receiver that slot with the message
// (`Incoming::slot`), and per-arrival lookups become one indexed load.
// The table is 2m `uint32_t`, built in O(n + m) with no hashing: a
// counting sort of the in-edges by receiver plus one n-entry position
// scratch per row.
//
// `slot(from, to)` — "which slot of from's row is neighbour to?" — is an
// O(deg) scan of from's row. It serves only cold paths (id-addressed
// sends, fault-plan validation, qubit routing); delivery-path code reads
// the slot it was handed instead.
//
// Like the CSR view it indexes, the index is built once per graph
// version: WeightedGraph::apply drops the cached index, and the next
// slot_index() rebuilds it from the rebuilt CSR. It is derived in
// memory only, never part of the CSR or of the bcsr format.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace qc {

class EdgeSlotIndex {
 public:
  /// Returned by slot() when (from, to) is not a directed edge.
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  /// Builds the index for g's adjacency, which must be symmetric (every
  /// CSR built from a WeightedGraph is). O(n + m). The index reads g's
  /// rows and offsets in place, so g must outlive it.
  explicit EdgeSlotIndex(const CsrGraph& g);

  /// Slot of `to` within `from`'s adjacency row (the i such that
  /// neighbors(from)[i].to == to), or kNoSlot if {from, to} is not an
  /// edge. O(deg(from)): a scan of the row. `from` must be <
  /// node_count(); any `to` is allowed.
  std::uint32_t slot(NodeId from, NodeId to) const {
    const auto row = csr_->neighbors(from);
    for (std::uint32_t s = 0; s < row.size(); ++s) {
      if (row[s].to == to) return s;
    }
    return kNoSlot;
  }

  /// Dense index of directed edge (from, slot-of-from's-row) in
  /// [0, directed_edge_count()) — the CSR's own row offsets.
  std::size_t edge_index(NodeId from, std::uint32_t slot) const {
    return offsets_[from] + slot;
  }

  /// For directed edge e = edge_index(u, i) with v = neighbors(u)[i].to:
  /// the slot of u in v's row.
  std::uint32_t reverse_slot(std::size_t e) const { return reverse_[e]; }

  /// 2m: one entry per (edge, direction).
  std::size_t directed_edge_count() const { return reverse_.size(); }

 private:
  const CsrGraph* csr_;
  std::span<const std::size_t> offsets_;  ///< csr_'s, size n+1
  std::vector<std::uint32_t> reverse_;    ///< 2m, by edge_index
};

}  // namespace qc
