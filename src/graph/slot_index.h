// O(1) directed-edge slot lookup over a CSR adjacency.
//
// Several engines need to answer "which slot of u's adjacency row is
// neighbour v?" on every message: the CONGEST simulator meters bandwidth
// per (edge, direction) and must locate the slot for every send, and the
// qubit-level network meters per-edge qubit budgets the same way. The
// naive answer is an O(degree) row scan — which turns a broadcast into
// O(deg²) and a high-degree hub into a hot spot. `EdgeSlotIndex` packs
// all 2m directed edges into one open-addressing hash table keyed by
// (from, to), built once in O(n + m), answering lookups in O(1) with no
// per-query allocation.
//
// `edge_index(from, slot)` additionally maps a directed edge to a dense
// index in [0, 2m), so per-directed-edge accounting (bandwidth bits,
// qubits in flight) can live in one flat array instead of a
// vector-of-vectors.
//
// Like the CSR view it indexes, the index is built once per graph
// version: WeightedGraph::apply drops the cached index, and the next
// slot_index() rebuilds it from the rebuilt CSR.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace qc {

class EdgeSlotIndex {
 public:
  /// Returned by slot() when (from, to) is not a directed edge.
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  EdgeSlotIndex() = default;

  /// Builds the index for g's adjacency. O(n + m).
  explicit EdgeSlotIndex(const CsrGraph& g);

  /// Slot of `to` within `from`'s adjacency row (the i such that
  /// neighbors(from)[i].to == to), or kNoSlot if {from, to} is not an
  /// edge. `from` must be < node_count(); any `to` is allowed.
  std::uint32_t slot(NodeId from, NodeId to) const {
    const std::uint64_t key = make_key(from, to);
    std::size_t i = hash_key(key) & mask_;
    for (;;) {
      const Entry& e = table_[i];
      if (e.key == key) return e.slot;
      if (e.key == kEmptyKey) return kNoSlot;
      i = (i + 1) & mask_;
    }
  }

  /// Dense index of directed edge (from, slot-of-from's-row) in
  /// [0, directed_edge_count()) — offsets follow CSR row order.
  std::size_t edge_index(NodeId from, std::uint32_t slot) const {
    return offsets_[from] + slot;
  }

  /// 2m: one entry per (edge, direction).
  std::size_t directed_edge_count() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

 private:
  struct Entry {
    std::uint64_t key = kEmptyKey;
    std::uint32_t slot = 0;
  };

  // NodeId is 32-bit and kEmptyKey packs an impossible from (=2^32-1
  // would need n = 2^32 nodes, beyond NodeId's dense-range contract).
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  static std::uint64_t make_key(NodeId from, NodeId to) {
    return (std::uint64_t{from} << 32) | std::uint64_t{to};
  }

  // splitmix64 finalizer: full-avalanche, cheap, public domain.
  static std::uint64_t hash_key(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::vector<Entry> table_;          ///< power-of-two, load factor <= 1/2
  std::vector<std::size_t> offsets_;  ///< size n+1; row from = [off, off+deg)
  std::size_t mask_ = 0;
};

}  // namespace qc
