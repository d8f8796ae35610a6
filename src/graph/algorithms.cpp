#include "graph/algorithms.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "runtime/thread_pool.h"

namespace qc {

namespace {

/// Largest max edge weight the bucket engine takes: the W distances
/// ahead of its sweep fit a two-word occupancy bitmap.
constexpr Weight kDialMaxWeight = 128;

/// Below this source count a caller without a pool stays on its own
/// thread: per-source work is too small to amortize the fork/join.
constexpr NodeId kParallelSourceThreshold = 256;

runtime::ThreadPool& shared_pool() {
  // Default pool for the graph kernels when the caller brings none and
  // the source count is large enough to pay for the fork/join.
  static runtime::ThreadPool pool;
  return pool;
}

/// Runs fn(s, ws) for s = 0..n-1 in `runtime::chunk_count` contiguous
/// chunks over a pool (one chunk, on the calling thread, without one).
/// Each chunk owns a workspace; fn must write only to slots indexed by
/// s, so the combined result is byte-identical at any worker count.
template <typename Fn>
void over_sources(NodeId n, runtime::ThreadPool* pool, const Fn& fn) {
  if (pool == nullptr && n >= kParallelSourceThreshold) {
    pool = &shared_pool();
  }
  const std::size_t chunks = runtime::chunk_count(pool, n);
  runtime::parallel_for(pool, chunks, [&](std::size_t c) {
    DijkstraWorkspace ws;
    const NodeId lo = static_cast<NodeId>(n * c / chunks);
    const NodeId hi = static_cast<NodeId>(n * (c + 1) / chunks);
    for (NodeId s = lo; s < hi; ++s) fn(s, ws);
  });
}

}  // namespace

// --- DijkstraWorkspace -----------------------------------------------

void DijkstraWorkspace::prepare(NodeId n) {
  if (dist_.size() != n) {
    dist_.assign(n, kInfDist);
    touched_.clear();
  }
}

void DijkstraWorkspace::reset_touched(bool hops) {
  for (const NodeId v : touched_) dist_[v] = kInfDist;
  if (hops) {
    for (const NodeId v : touched_) hops_[v] = kInfDist;
  }
  touched_.clear();
}

template <typename Entry, typename Relax>
void DijkstraWorkspace::settle(const CsrGraph& g, Entry source,
                               Queues<Entry>& q, const Relax& relax) {
  if (g.max_weight() > kDialMaxWeight) {
    auto& heap = q.heap;
    heap.clear();
    const auto push = [&](Dist d, const Entry& e) {
      heap.emplace_back(d, e);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    };
    heap.emplace_back(0, source);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, e] = heap.back();
      heap.pop_back();
      relax(d, e, push);
    }
    return;
  }
  // Bucket d & mask holds the entries queued at distance d. A settled
  // distance d only queues d+1..d+W (no weight exceeds max_weight(), a
  // CsrGraph invariant that map_csr's edge validation checks), and
  // W < window, so the window never mixes two distances, and bucket d
  // gains no entry while it is swept.
  const std::size_t window =
      std::bit_ceil(static_cast<std::size_t>(g.max_weight()) + 1);
  const std::size_t mask = window - 1;
  if (q.buckets.size() < window) q.buckets.resize(window);
  // Occupancy relative to the sweep: bit r of (hi:lo) is set iff
  // distance d + 1 + r has a queued entry. r < W <= 128, so the bitmap
  // is two words and stays in registers; the next non-empty bucket is
  // its lowest set bit, whatever the gap to it.
  Dist d = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  const auto push = [&](Dist nd, const Entry& e) {
    const Dist r = nd - d - 1;
    lo |= std::uint64_t{r < 64} << (r & 63);
    hi |= std::uint64_t{r >= 64} << (r & 63);
    q.buckets[nd & mask].push_back(e);
  };
  q.buckets[0].push_back(source);
  for (;;) {
    auto& bucket = q.buckets[d & mask];
    for (const Entry& e : bucket) relax(d, e, push);
    bucket.clear();
    if ((lo | hi) == 0) return;  // every bucket is empty
    // Advance to d + 1 + k for the lowest set bit k and shift the bitmap
    // right by k + 1 (split into shifts below 64).
    if (lo != 0) {
      const int k = std::countr_zero(lo);
      lo = ((lo >> k) >> 1) | (hi << (63 - k));
      hi = (hi >> k) >> 1;
      d += static_cast<Dist>(k) + 1;
    } else {
      const int k = std::countr_zero(hi);
      lo = (hi >> k) >> 1;
      hi = 0;
      d += static_cast<Dist>(k) + 65;
    }
  }
}

void DijkstraWorkspace::bfs(const CsrGraph& g, NodeId s,
                            std::vector<Dist>& out) {
  QC_REQUIRE(s < g.node_count(), "source out of range");
  prepare(g.node_count());
  dist_[s] = 0;
  touched_.push_back(s);  // touched_ doubles as the FIFO frontier
  for (std::size_t head = 0; head < touched_.size(); ++head) {
    const NodeId u = touched_[head];
    const Dist du = dist_[u];
    for (const HalfEdge& h : g.neighbors(u)) {
      if (dist_[h.to] == kInfDist) {
        dist_[h.to] = du + 1;
        touched_.push_back(h.to);
      }
    }
  }
  out.assign(dist_.begin(), dist_.end());
  reset_touched(false);
}

void DijkstraWorkspace::dijkstra(const CsrGraph& g, NodeId s,
                                 std::vector<Dist>& out, Dist cap) {
  QC_REQUIRE(s < g.node_count(), "source out of range");
  prepare(g.node_count());
  dist_[s] = 0;
  touched_.push_back(s);
  // Relaxations past `cap` are never queued, so the run drains once the
  // cap ball is settled (labels beyond it stay kInfDist, which honours
  // the > cap contract). d and every weight are below kInfDist, so the
  // sum cannot wrap, and a sum at or past kInfDist fails the `<` test.
  settle(g, s, plain_, [&](Dist d, NodeId u, const auto& push) {
    if (dist_[u] != d) return;  // superseded by a later improvement
    for (const HalfEdge& h : g.neighbors(u)) {
      const Dist nd = d + h.weight;
      if (nd < dist_[h.to] && nd <= cap) {
        if (dist_[h.to] == kInfDist) touched_.push_back(h.to);
        dist_[h.to] = nd;
        push(nd, h.to);
      }
    }
  });
  out.assign(dist_.begin(), dist_.end());
  reset_touched(false);
}

void DijkstraWorkspace::dijkstra_with_hops(const CsrGraph& g, NodeId s,
                                           std::vector<Dist>& dist_out,
                                           std::vector<Dist>& hops_out) {
  QC_REQUIRE(s < g.node_count(), "source out of range");
  const NodeId n = g.node_count();
  prepare(n);
  if (hops_.size() != n) hops_.assign(n, kInfDist);
  dist_[s] = 0;
  hops_[s] = 0;
  touched_.push_back(s);
  // Hop improvements at distance d come from predecessors at distance
  // < d (weights are >= 1), so every (d, hops) entry is queued before
  // distance d settles; the entry whose hops match the final label is
  // the one relaxed.
  settle(g, std::pair<NodeId, Dist>{s, 0}, lex_,
         [&](Dist d, std::pair<NodeId, Dist> e, const auto& push) {
           const auto [u, hp] = e;
           if (dist_[u] != d || hops_[u] != hp) return;
           for (const HalfEdge& h : g.neighbors(u)) {
             const Dist nd = dist_add(d, h.weight);
             const Dist nh = hp + 1;
             if (nd < dist_[h.to] ||
                 (nd == dist_[h.to] && nh < hops_[h.to])) {
               if (dist_[h.to] == kInfDist) touched_.push_back(h.to);
               dist_[h.to] = nd;
               hops_[h.to] = nh;
               push(nd, std::pair<NodeId, Dist>{h.to, nh});
             }
           }
         });
  dist_out.assign(dist_.begin(), dist_.end());
  hops_out.assign(hops_.begin(), hops_.end());
  reset_touched(true);
}

void DijkstraWorkspace::bounded_hop(const CsrGraph& g, NodeId s,
                                    std::uint64_t ell,
                                    std::vector<Dist>& out) {
  QC_REQUIRE(s < g.node_count(), "source out of range");
  const NodeId n = g.node_count();
  bf_cur_.assign(n, kInfDist);
  bf_cur_[s] = 0;
  // Bellman-Ford: after round t, cur[v] = d^t(s, v). ell rounds suffice;
  // stop early once a round changes nothing.
  for (std::uint64_t t = 0; t < ell; ++t) {
    bf_next_ = bf_cur_;
    bool changed = false;
    for (NodeId u = 0; u < n; ++u) {
      if (bf_cur_[u] >= kInfDist) continue;
      for (const HalfEdge& h : g.neighbors(u)) {
        const Dist nd = dist_add(bf_cur_[u], h.weight);
        if (nd < bf_next_[h.to]) {
          bf_next_[h.to] = nd;
          changed = true;
        }
      }
    }
    bf_cur_.swap(bf_next_);
    if (!changed) break;
  }
  out = bf_cur_;
}

// --- single-source conveniences --------------------------------------

std::vector<Dist> bfs_distances(const CsrGraph& g, NodeId s) {
  DijkstraWorkspace ws;
  std::vector<Dist> out;
  ws.bfs(g, s, out);
  return out;
}

std::vector<Dist> bfs_distances(const WeightedGraph& g, NodeId s) {
  return bfs_distances(g.csr(), s);
}

std::vector<Dist> dijkstra(const CsrGraph& g, NodeId s) {
  DijkstraWorkspace ws;
  std::vector<Dist> out;
  ws.dijkstra(g, s, out);
  return out;
}

std::vector<Dist> dijkstra(const WeightedGraph& g, NodeId s) {
  return dijkstra(g.csr(), s);
}

DistHops dijkstra_with_hops(const CsrGraph& g, NodeId s) {
  DijkstraWorkspace ws;
  DistHops out;
  ws.dijkstra_with_hops(g, s, out.dist, out.hops);
  return out;
}

DistHops dijkstra_with_hops(const WeightedGraph& g, NodeId s) {
  return dijkstra_with_hops(g.csr(), s);
}

std::vector<Dist> bounded_hop_distances(const CsrGraph& g, NodeId s,
                                        std::uint64_t ell) {
  DijkstraWorkspace ws;
  std::vector<Dist> out;
  ws.bounded_hop(g, s, ell, out);
  return out;
}

std::vector<Dist> bounded_hop_distances(const WeightedGraph& g, NodeId s,
                                        std::uint64_t ell) {
  return bounded_hop_distances(g.csr(), s, ell);
}

// --- multi-source drivers --------------------------------------------

std::vector<std::vector<Dist>> all_pairs_distances(
    const CsrGraph& g, runtime::ThreadPool* pool) {
  std::vector<std::vector<Dist>> rows(g.node_count());
  over_sources(g.node_count(), pool, [&](NodeId s, DijkstraWorkspace& ws) {
    ws.dijkstra(g, s, rows[s]);
  });
  return rows;
}

std::vector<std::vector<Dist>> all_pairs_distances(const WeightedGraph& g) {
  return all_pairs_distances(g.csr());
}

std::vector<Dist> eccentricities(const CsrGraph& g,
                                 runtime::ThreadPool* pool) {
  std::vector<Dist> ecc(g.node_count(), 0);
  over_sources(g.node_count(), pool, [&](NodeId s, DijkstraWorkspace& ws) {
    thread_local std::vector<Dist> row;
    ws.dijkstra(g, s, row);
    ecc[s] = *std::max_element(row.begin(), row.end());
  });
  return ecc;
}

std::vector<Dist> eccentricities(const WeightedGraph& g) {
  return eccentricities(g.csr());
}

std::vector<Dist> eccentricities(const CsrGraph& g,
                                 std::span<const NodeId> sources,
                                 runtime::ThreadPool* pool) {
  for (const NodeId s : sources) {
    QC_REQUIRE(s < g.node_count(), "source id out of range");
  }
  std::vector<Dist> ecc(sources.size(), 0);
  over_sources(static_cast<NodeId>(sources.size()), pool,
               [&](NodeId i, DijkstraWorkspace& ws) {
                 thread_local std::vector<Dist> row;
                 ws.dijkstra(g, sources[i], row);
                 ecc[i] = *std::max_element(row.begin(), row.end());
               });
  return ecc;
}

std::vector<Dist> unweighted_eccentricities(const CsrGraph& g,
                                            runtime::ThreadPool* pool) {
  std::vector<Dist> ecc(g.node_count(), 0);
  over_sources(g.node_count(), pool, [&](NodeId s, DijkstraWorkspace& ws) {
    thread_local std::vector<Dist> row;
    ws.bfs(g, s, row);
    ecc[s] = *std::max_element(row.begin(), row.end());
  });
  return ecc;
}

std::vector<Dist> unweighted_eccentricities(const CsrGraph& g,
                                            std::span<const NodeId> sources,
                                            runtime::ThreadPool* pool) {
  for (const NodeId s : sources) {
    QC_REQUIRE(s < g.node_count(), "source id out of range");
  }
  std::vector<Dist> ecc(sources.size(), 0);
  over_sources(static_cast<NodeId>(sources.size()), pool,
               [&](NodeId i, DijkstraWorkspace& ws) {
                 thread_local std::vector<Dist> row;
                 ws.bfs(g, sources[i], row);
                 ecc[i] = *std::max_element(row.begin(), row.end());
               });
  return ecc;
}

std::vector<Dist> unweighted_eccentricities(const WeightedGraph& g) {
  return unweighted_eccentricities(g.csr());
}

Dist weighted_diameter(const WeightedGraph& g) {
  const auto ecc = eccentricities(g);
  return ecc.empty() ? 0 : *std::max_element(ecc.begin(), ecc.end());
}

Dist weighted_radius(const WeightedGraph& g) {
  const auto ecc = eccentricities(g);
  return ecc.empty() ? 0 : *std::min_element(ecc.begin(), ecc.end());
}

Dist unweighted_diameter(const CsrGraph& g, runtime::ThreadPool* pool) {
  const auto ecc = unweighted_eccentricities(g, pool);
  return ecc.empty() ? 0 : *std::max_element(ecc.begin(), ecc.end());
}

Dist unweighted_diameter(const WeightedGraph& g) {
  return unweighted_diameter(g.csr());
}

Dist hop_diameter(const CsrGraph& g, runtime::ThreadPool* pool) {
  const NodeId n = g.node_count();
  std::vector<Dist> per_source(n, 0);
  over_sources(n, pool, [&](NodeId s, DijkstraWorkspace& ws) {
    thread_local std::vector<Dist> dist;
    thread_local std::vector<Dist> hops;
    ws.dijkstra_with_hops(g, s, dist, hops);
    Dist h = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (hops[v] < kInfDist) h = std::max(h, hops[v]);
    }
    per_source[s] = h;
  });
  Dist h = 0;
  for (const Dist v : per_source) h = std::max(h, v);
  return h;
}

Dist hop_diameter(const WeightedGraph& g) { return hop_diameter(g.csr()); }

// --- contraction ------------------------------------------------------

Contraction contract_unit_edges(const WeightedGraph& g) {
  const NodeId n = g.node_count();
  // Union-find over weight-1 edges.
  std::vector<NodeId> parent(n);
  for (NodeId i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](NodeId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : g.edges()) {
    if (e.weight == 1) {
      const NodeId ru = find(e.u);
      const NodeId rv = find(e.v);
      if (ru != rv) parent[ru] = rv;
    }
  }
  // Dense renumbering of components.
  std::vector<NodeId> node_map(n, 0);
  NodeId next_id = 0;
  std::vector<NodeId> rep_to_id(n, n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId r = find(v);
    if (rep_to_id[r] == n) rep_to_id[r] = next_id++;
    node_map[v] = rep_to_id[r];
  }
  // Fold parallel edges to their min weight via one hash lookup per edge
  // (first-seen order, so the contracted edge list is deterministic and
  // matches what repeated add_edge/set_edge_weight used to produce).
  std::vector<Edge> folded;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(g.edge_count());
  for (const Edge& e : g.edges()) {
    if (e.weight == 1) continue;  // internal to a super-node
    const NodeId cu = node_map[e.u];
    const NodeId cv = node_map[e.v];
    if (cu == cv) continue;  // endpoints merged by unit edges
    const NodeId a = std::min(cu, cv);
    const NodeId b = std::max(cu, cv);
    const std::uint64_t key = (std::uint64_t{a} << 32) | b;
    const auto [it, inserted] = index.try_emplace(key, folded.size());
    if (inserted) {
      folded.push_back({a, b, e.weight});
    } else if (e.weight < folded[it->second].weight) {
      // Parallel edge: keep the lowest weight (Lemma 4.3 convention).
      folded[it->second].weight = e.weight;
    }
  }
  return {WeightedGraph::from_edges(next_id, std::move(folded)),
          std::move(node_map)};
}

}  // namespace qc
