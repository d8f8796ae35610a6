#include "graph/slot_index.h"

namespace qc {

EdgeSlotIndex::EdgeSlotIndex(const CsrGraph& g) {
  const NodeId n = g.node_count();
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t halves = 0;
  for (NodeId u = 0; u < n; ++u) {
    halves += g.degree(u);
    offsets_[u + 1] = halves;
  }

  // Size the table to keep the load factor at or below 1/2, so probe
  // chains stay short and every probe loop hits an empty slot.
  std::size_t cap = 1;
  while (cap < 2 * halves + 1) cap <<= 1;
  table_.assign(cap, Entry{});
  mask_ = cap - 1;

  for (NodeId u = 0; u < n; ++u) {
    const auto row = g.neighbors(u);
    for (std::uint32_t s = 0; s < row.size(); ++s) {
      const std::uint64_t key = make_key(u, row[s].to);
      std::size_t i = hash_key(key) & mask_;
      while (table_[i].key != kEmptyKey) i = (i + 1) & mask_;
      table_[i] = Entry{key, s};
    }
  }
}

const EdgeSlotIndex& WeightedGraph::slot_index() const {
  // Build (or fetch) the CSR view first: csr() takes csr_mutex_, so the
  // lock below must not be held yet.
  const CsrGraph& c = csr();
  std::lock_guard<std::mutex> lock(csr_mutex_);
  if (!slot_index_cache_) {
    slot_index_cache_ = std::make_shared<EdgeSlotIndex>(c);
  }
  return *slot_index_cache_;
}

}  // namespace qc
