#include "graph/slot_index.h"

#include <algorithm>
#include <memory>
#include <mutex>

namespace qc {

EdgeSlotIndex::EdgeSlotIndex(const CsrGraph& g)
    : csr_(&g), offsets_(g.offsets()) {
  const NodeId n = g.node_count();
  const std::size_t halves = offsets_[n];

  // Counting sort of the in-edges by receiver. Every node has as many
  // in-edges as neighbours, so v's bucket can take v's own row range of
  // a 2m array; senders are visited in ascending order, so each bucket
  // lists its in-neighbours by ascending id.
  std::vector<NodeId> in(halves);
  std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (const HalfEdge& h : g.neighbors(u)) in[fill[h.to]++] = u;
  }

  // Row by row, replace each in-neighbour by its slot in the receiver's
  // row, read from a position scratch that the row itself fills.
  std::vector<std::uint32_t> pos(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto row = g.neighbors(v);
    for (std::uint32_t s = 0; s < row.size(); ++s) pos[row[s].to] = s;
    for (std::size_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
      const std::uint32_t s = pos[in[k]];
      QC_CHECK(s < row.size() && row[s].to == in[k],
               "slot index needs a symmetric adjacency");
      in[k] = s;
    }
  }

  // Replay the sort's visiting order: the k-th in-edge of v met here is
  // the k-th entry of v's bucket.
  reverse_.resize(halves);
  std::copy(offsets_.begin(), offsets_.end() - 1, fill.begin());
  for (NodeId u = 0; u < n; ++u) {
    const auto row = g.neighbors(u);
    std::uint32_t* out = reverse_.data() + offsets_[u];
    for (const HalfEdge& h : row) *out++ = in[fill[h.to]++];
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
