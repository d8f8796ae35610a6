#include "graph/csr.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

namespace qc {

CsrGraph::CsrGraph(const WeightedGraph& g) {
  const NodeId n = g.node_count();
  own_offsets_.assign(std::size_t{n} + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    own_offsets_[std::size_t{u} + 1] = own_offsets_[u] + g.degree(u);
  }
  own_halves_.resize(own_offsets_[n]);
  Weight mx = 1;
  for (NodeId u = 0; u < n; ++u) {
    std::size_t pos = own_offsets_[u];
    for (const HalfEdge& h : g.neighbors(u)) {
      own_halves_[pos++] = h;
      mx = std::max(mx, h.weight);
    }
  }
  max_weight_ = mx;
  rebind_views();
}

CsrGraph CsrGraph::from_parts(std::vector<std::size_t> offsets,
                              std::vector<HalfEdge> halves,
                              Weight max_weight) {
  QC_REQUIRE(!offsets.empty() && offsets.front() == 0,
             "offsets must start with 0");
  QC_REQUIRE(offsets.back() == halves.size(),
             "offsets must end at the half-edge count");
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    QC_REQUIRE(offsets[i - 1] <= offsets[i], "offsets must be monotone");
  }
  QC_REQUIRE(max_weight >= 1, "max_weight must be >= 1");
  CsrGraph g;
  g.own_offsets_ = std::move(offsets);
  g.own_halves_ = std::move(halves);
  g.max_weight_ = max_weight;
  g.rebind_views();
  return g;
}

CsrGraph CsrGraph::mapped(std::span<const std::size_t> offsets,
                          std::span<const HalfEdge> halves, Weight max_weight,
                          std::shared_ptr<const void> keep_alive) {
  QC_REQUIRE(!offsets.empty() && offsets.front() == 0,
             "offsets must start with 0");
  QC_REQUIRE(offsets.back() == halves.size(),
             "offsets must end at the half-edge count");
  QC_REQUIRE(max_weight >= 1, "max_weight must be >= 1");
  QC_REQUIRE(keep_alive != nullptr, "mapped view needs a keep-alive handle");
  CsrGraph g;
  g.own_offsets_.clear();
  g.own_halves_.clear();
  g.mapping_ = std::move(keep_alive);
  g.offsets_ = offsets;
  g.halves_ = halves;
  g.max_weight_ = max_weight;
  return g;
}

void CsrGraph::detach() {
  own_offsets_.assign(offsets_.begin(), offsets_.end());
  own_halves_.assign(halves_.begin(), halves_.end());
  mapping_.reset();
  rebind_views();
}

std::vector<NodeId> CsrGraph::balanced_node_shards(unsigned shards) const {
  const NodeId n = node_count();
  const NodeId k = static_cast<NodeId>(
      std::max<unsigned>(1, std::min<unsigned>(shards, std::max<NodeId>(n, 1))));
  std::vector<NodeId> bounds;
  bounds.reserve(std::size_t{k} + 1);
  bounds.push_back(0);
  // mass(v) = deg(v) + 1, so the cumulative mass of [0, v) is
  // offsets_[v] + v; the total is 2m + n.
  const std::uint64_t total = static_cast<std::uint64_t>(offsets_[n]) + n;
  for (NodeId s = 1; s < k; ++s) {
    // Overflow-free floor(total*s/k): total = q*k + r with r, s < k.
    const std::uint64_t target = (total / k) * s + (total % k) * s / k;
    // Smallest v with cumulative mass >= target; clamped so every shard
    // keeps at least one node.
    NodeId lo = bounds.back() + 1;
    NodeId hi = n - (k - s);
    while (lo < hi) {
      const NodeId mid = lo + (hi - lo) / 2;
      if (static_cast<std::uint64_t>(offsets_[mid]) + mid >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    bounds.push_back(lo);
  }
  bounds.push_back(n);
  return bounds;
}

const CsrGraph& WeightedGraph::csr() const {
  std::lock_guard<std::mutex> lock(csr_mutex_);
  if (!csr_cache_) {
    csr_cache_ = std::make_shared<CsrGraph>(*this);
  }
  return *csr_cache_;
}

}  // namespace qc
