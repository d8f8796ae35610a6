#include "paths/reference.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "graph/algorithms.h"
#include "runtime/thread_pool.h"

namespace qc::paths {

namespace {

/// Per source, the number of targets within `cap` hops (itself
/// included): exactly the targets that ever get a Lemma 3.2 label. The
/// top scale rounds every weight to 1, so each of them is labelled
/// there, and no rounded weight is below 1, so nothing farther ever is.
/// With cap >= n-1 a ball is the source's whole component, and one BFS
/// serves every source in it.
std::vector<NodeId> ball_sizes(const CsrGraph& base,
                               const std::vector<NodeId>& sources, Dist cap,
                               DijkstraWorkspace& ws, std::vector<Dist>& hop) {
  const NodeId n = base.node_count();
  const bool whole_component = cap + 1 >= n;
  std::vector<NodeId> component_size(whole_component ? n : 0, 0);
  std::vector<NodeId> sizes;
  sizes.reserve(sources.size());
  for (const NodeId s : sources) {
    if (whole_component && component_size[s] != 0) {
      sizes.push_back(component_size[s]);
      continue;
    }
    ws.bfs(base, s, hop);
    const auto size = static_cast<NodeId>(std::count_if(
        hop.begin(), hop.end(), [&](Dist h) { return h <= cap; }));
    if (whole_component) {
      for (NodeId v = 0; v < n; ++v) {
        if (hop[v] < kInfDist) component_size[v] = size;
      }
    }
    sizes.push_back(size);
  }
  return sizes;
}

/// Multi-source variant: one reweighted view per scale, shared across
/// sources. Returns rows indexed like `sources`. The per-scale rounding
/// w_i only changes weights, so instead of rebuilding a WeightedGraph per
/// scale (O(m·deg) duplicate-checked add_edge) the shared CSR topology is
/// kept and only its weight entries are rewritten; the scratch CSR, the
/// Dijkstra workspace, and the row buffer are all reused across the
/// scale × source loop, so iterations allocate nothing after the first.
///
/// Exact early stop (docs/perf.md, "Exact scale-loop stop"). Because
/// ⌈⌈x⌉/2⌉ = ⌈x/2⌉, w_{i+1} = ⌈w_i/2⌉ ≥ w_i/2, so a label d_i(v)·2^i
/// never decreases as i grows while d_i(v) itself never increases: the
/// first scale with d_i(v) <= cap already holds the minimum over all
/// scales. A source is therefore done once every target in its cap-hop
/// ball has a label, and the loop (reweighting included) ends once every
/// source is done. The rows equal the full scale loop's integers.
std::vector<std::vector<Dist>> approx_bounded_hop_multi(
    const WeightedGraph& g, const std::vector<NodeId>& sources,
    const HopScale& scale) {
  const NodeId n = g.node_count();
  std::vector<std::vector<Dist>> best(sources.size(),
                                      std::vector<Dist>(n, kInfDist));
  const std::uint32_t scales = scale.scale_count();
  const Dist cap = scale.rounded_cap();
  const CsrGraph& base = g.csr();
  CsrGraph gi;
  DijkstraWorkspace ws;
  std::vector<Dist> di;
  // unlabelled[a]: targets of sources[a] that will get a label but have
  // none yet; open: indices of the sources with any left.
  std::vector<NodeId> unlabelled = ball_sizes(base, sources, cap, ws, di);
  std::vector<std::size_t> open(sources.size());
  std::iota(open.begin(), open.end(), std::size_t{0});
  for (std::uint32_t i = 0; i < scales && !open.empty(); ++i) {
    gi.assign_reweighted(
        base, [&](Weight w) { return scale.rounded_weight(w, i); });
    std::size_t keep = 0;
    for (const std::size_t a : open) {
      // Labels above the eligibility cap are discarded by the filter
      // below, so the capped run (exact up to `cap`, see algorithms.h)
      // yields identical rows while settling only the cap ball — at
      // fine scales that ball is a small fraction of the graph.
      ws.dijkstra(gi, sources[a], di, cap);
      for (NodeId v = 0; v < n; ++v) {
        if (di[v] > cap || best[a][v] < kInfDist) continue;
        best[a][v] = scaled_label(di[v], i);
        --unlabelled[a];
      }
      if (unlabelled[a] != 0) open[keep++] = a;
    }
    open.resize(keep);
  }
  return best;
}

/// Scratch-reusing body of approx_bounded_hop_matrix: Lemma 3.2 on a
/// dense matrix. Each scale's APSP is one in-place Floyd-Warshall over
/// the rounded matrix (dense graph: cheaper than per-source Dijkstras),
/// with the eligibility cap applied when folding. `best` is resized
/// and overwritten.
void approx_matrix_into(const std::vector<std::vector<Dist>>& w,
                        const HopScale& scale,
                        std::vector<std::vector<Dist>>& wi,
                        std::vector<std::vector<Dist>>& best) {
  const std::size_t n = w.size();
  best.assign(n, std::vector<Dist>(n, kInfDist));
  const std::uint32_t scales = scale.scale_count();
  const Dist cap = scale.rounded_cap();
  wi.assign(n, std::vector<Dist>(n, kInfDist));
  // Useful-scale band, exact on both ends: a scale whose lightest
  // rounded edge already exceeds the eligibility cap settles nothing
  // beyond the diagonal (skip it), and once every off-diagonal pair is
  // finite no later scale can change any entry (stop): as in
  // approx_bounded_hop_multi, a pair's first eligible label is its
  // minimum over all scales. Skipped and stopped scales reproduce the
  // full loop's integers exactly.
  std::size_t unlabelled = n * (n - 1);  // off-diagonal pairs still kInfDist
  Dist min_w = kInfDist;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) min_w = std::min(min_w, w[a][b]);
    }
  }
  for (std::uint32_t i = 0; i < scales; ++i) {
    if (min_w < kInfDist && scale.rounded_weight(min_w, i) > cap) {
      for (std::size_t a = 0; a < n; ++a) best[a][a] = 0;
      continue;
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        wi[a][b] = (a != b && w[a][b] < kInfDist)
                       ? scale.rounded_weight(w[a][b], i)
                       : kInfDist;
      }
    }
    // A pair is folded into `best` iff its closed distance is <= cap:
    // exactly the pairs a cap-pruned Dijkstra would settle (every prefix
    // of a <= cap path is <= cap), so the integers cannot differ.
    min_plus_closure(wi);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (wi[a][b] > cap || best[a][b] < kInfDist) continue;
        best[a][b] = scaled_label(wi[a][b], i);
        if (a != b) --unlabelled;
      }
    }
    if (unlabelled == 0) break;
  }
}

}  // namespace

std::vector<Dist> approx_bounded_hop_from(const WeightedGraph& g, NodeId s,
                                          const HopScale& scale) {
  return approx_bounded_hop_multi(g, {s}, scale).front();
}

// Binary heap with lazy deletion, matching the graph kernels: each
// settle is O(log n) instead of an O(n) linear scan (the relaxation
// pass over the row stays O(n) — it's a dense matrix).
std::vector<Dist> dijkstra_matrix(const std::vector<std::vector<Dist>>& w,
                                  std::uint32_t s) {
  const std::size_t n = w.size();
  QC_REQUIRE(s < n, "matrix Dijkstra source out of range");
  std::vector<Dist> dist(n, kInfDist);
  std::vector<char> fixed(n, 0);
  std::vector<std::pair<Dist, std::uint32_t>> heap{{0, s}};
  const auto cmp = std::greater<>{};
  dist[s] = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const auto [du, u] = heap.back();
    heap.pop_back();
    if (fixed[u] || du != dist[u]) continue;
    fixed[u] = 1;
    const auto& row = w[u];
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u || row[v] >= kInfDist) continue;
      const Dist nd = dist_add(du, row[v]);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.emplace_back(nd, static_cast<std::uint32_t>(v));
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
  return dist;
}

// Sums cannot overflow: every entry stays <= kInfDist = 2^64/4, and a
// row through a kInfDist pivot entry is skipped.
void min_plus_closure(std::vector<std::vector<Dist>>& d) {
  const std::size_t n = d.size();
  for (std::size_t a = 0; a < n; ++a) d[a][a] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::vector<Dist>& dk = d[k];
    for (std::size_t a = 0; a < n; ++a) {
      const Dist dak = d[a][k];
      if (dak >= kInfDist) continue;
      std::vector<Dist>& da = d[a];
      for (std::size_t c = 0; c < n; ++c) {
        const Dist nd = dak + dk[c];
        if (nd < da[c]) da[c] = nd;
      }
    }
  }
}

void lightest_k(const std::vector<Dist>& row, std::uint32_t self,
                std::uint64_t k, std::vector<std::uint32_t>& out) {
  out.clear();
  for (std::uint32_t c = 0; c < row.size(); ++c) {
    if (c != self && row[c] < kInfDist) out.push_back(c);
  }
  std::sort(out.begin(), out.end(), [&](std::uint32_t x, std::uint32_t y) {
    return std::pair(row[x], x) < std::pair(row[y], y);
  });
  if (out.size() > k) out.resize(k);
}

void shortcut_step(std::vector<std::vector<Dist>>& h, std::uint64_t k,
                   std::vector<std::vector<Dist>>& w2,
                   std::vector<std::vector<std::uint32_t>>* nearest,
                   std::vector<std::uint32_t>& pick) {
  min_plus_closure(h);
  if (nearest != nullptr) nearest->assign(h.size(), {});
  for (std::uint32_t a = 0; a < h.size(); ++a) {
    lightest_k(h[a], a, k, pick);
    for (const std::uint32_t c : pick) {
      w2[a][c] = std::min(w2[a][c], h[a][c]);
      w2[c][a] = std::min(w2[c][a], h[a][c]);
    }
    if (nearest != nullptr) (*nearest)[a] = pick;
  }
}

Dist hop_diameter_matrix(const std::vector<std::vector<Dist>>& w) {
  const std::size_t n = w.size();
  Dist h = 0;
  for (std::size_t s = 0; s < n; ++s) {
    // Lexicographic Dijkstra on (weight, hops).
    std::vector<Dist> dist(n, kInfDist);
    std::vector<Dist> hops(n, kInfDist);
    std::vector<bool> fixed(n, false);
    dist[s] = 0;
    hops[s] = 0;
    for (std::size_t iter = 0; iter < n; ++iter) {
      std::size_t u = n;
      for (std::size_t v = 0; v < n; ++v) {
        if (fixed[v] || dist[v] >= kInfDist) continue;
        if (u == n || std::pair(dist[v], hops[v]) < std::pair(dist[u], hops[u])) {
          u = v;
        }
      }
      if (u == n) break;
      fixed[u] = true;
      for (std::size_t v = 0; v < n; ++v) {
        if (v == u || w[u][v] >= kInfDist) continue;
        const Dist nd = dist_add(dist[u], w[u][v]);
        const Dist nh = hops[u] + 1;
        if (nd < dist[v] || (nd == dist[v] && nh < hops[v])) {
          dist[v] = nd;
          hops[v] = nh;
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (hops[v] < kInfDist) h = std::max(h, hops[v]);
    }
  }
  return h;
}

std::vector<std::vector<Dist>> approx_bounded_hop_matrix(
    const std::vector<std::vector<Dist>>& w, const HopScale& scale) {
  std::vector<std::vector<Dist>> best;
  std::vector<std::vector<Dist>> wi;
  approx_matrix_into(w, scale, wi, best);
  return best;
}

Dist Skeleton::approx_distance(std::uint32_t s_idx, NodeId v) const {
  QC_REQUIRE(s_idx < size(), "skeleton source index out of range");
  const std::uint64_t sigma2 = overlay_scale.sigma();
  Dist best = kInfDist;
  for (std::uint32_t u = 0; u < size(); ++u) {
    const Dist through = dist_add(
        overlay_approx[s_idx][u],
        approx_hop[u][v] >= kInfDist ? kInfDist : approx_hop[u][v] * sigma2);
    best = std::min(best, through);
  }
  return best;
}

Dist Skeleton::approx_eccentricity(std::uint32_t s_idx) const {
  Dist ecc = 0;
  const NodeId n = params.n;
  for (NodeId v = 0; v < n; ++v) {
    ecc = std::max(ecc, approx_distance(s_idx, v));
  }
  return ecc;
}

namespace {

/// Shared tail of skeleton construction once the first-level rows are
/// known (used by both build_skeleton and ToolkitCache::skeleton).
Skeleton skeleton_from_rows(const WeightedGraph& g, const Params& params,
                            std::vector<NodeId> sorted_set,
                            std::vector<std::vector<Dist>> approx_hop) {
  Skeleton sk;
  sk.params = params;
  sk.members = std::move(sorted_set);
  const std::size_t b = sk.members.size();

  sk.base_scale = HopScale{params.ell, params.eps_inv, g.max_weight()};
  sk.approx_hop = std::move(approx_hop);

  // Overlay G'_S: complete graph, w'({u,v}) = d̃^ℓ(u,v). d̃^ℓ is symmetric
  // in exact arithmetic; enforce defensively by taking the min of the
  // two directed evaluations.
  sk.overlay_w1.assign(b, std::vector<Dist>(b, kInfDist));
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = 0; c < b; ++c) {
      if (a != c) sk.overlay_w1[a][c] = sk.approx_hop[a][sk.members[c]];
    }
  }
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = a + 1; c < b; ++c) {
      const Dist m = std::min(sk.overlay_w1[a][c], sk.overlay_w1[c][a]);
      sk.overlay_w1[a][c] = sk.overlay_w1[c][a] = m;
    }
  }

  // Exact full-metric distances on the overlay (kept for validating
  // Observation 3.12; the construction below uses the H-based procedure
  // the distributed Algorithm 4 runs).
  sk.overlay_dist1.reserve(b);
  for (std::size_t a = 0; a < b; ++a) {
    sk.overlay_dist1.push_back(
        dijkstra_matrix(sk.overlay_w1, static_cast<std::uint32_t>(a)));
  }

  // --- Algorithm 4 / Observation 3.12 construction ---
  // Each member a contributes its k shortest incident overlay edges
  // (ties by neighbour index); H is the union of those stars. Distances
  // in H from a to its k nearest overlay nodes equal the true overlay
  // distances (Observation 3.12 in [21]).
  const std::size_t kk = static_cast<std::size_t>(
      std::min<std::uint64_t>(params.k, b > 0 ? b - 1 : 0));
  std::vector<std::vector<Dist>> h(b, std::vector<Dist>(b, kInfDist));
  for (std::size_t a = 0; a < b; ++a) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t c = 0; c < b; ++c) {
      if (c != a && sk.overlay_w1[a][c] < kInfDist) order.push_back(c);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return std::pair(sk.overlay_w1[a][x], x) <
                       std::pair(sk.overlay_w1[a][y], y);
              });
    if (order.size() > kk) order.resize(kk);
    for (const std::uint32_t c : order) {
      h[a][c] = h[c][a] = sk.overlay_w1[a][c];
    }
  }

  // N^k and shortcut weights from H.
  sk.nearest_k.assign(b, {});
  sk.overlay_w2 = sk.overlay_w1;
  for (std::size_t a = 0; a < b; ++a) {
    const auto dh = dijkstra_matrix(h, static_cast<std::uint32_t>(a));
    std::vector<std::uint32_t> order(b);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return std::pair(dh[x], x) < std::pair(dh[y], y);
              });
    for (const std::uint32_t c : order) {
      if (c == a || dh[c] >= kInfDist) continue;
      if (sk.nearest_k[a].size() == kk) break;
      sk.nearest_k[a].push_back(c);
      sk.overlay_w2[a][c] = std::min(sk.overlay_w2[a][c], dh[c]);
      sk.overlay_w2[c][a] = std::min(sk.overlay_w2[c][a], dh[c]);
    }
  }

  // Lemma 3.2 on the overlay with hop bound ℓ'' = 4|S|/k.
  std::uint64_t max_w2 = 1;
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = 0; c < b; ++c) {
      if (a != c && sk.overlay_w2[a][c] < kInfDist) {
        max_w2 = std::max(max_w2, sk.overlay_w2[a][c]);
      }
    }
  }
  sk.overlay_scale = HopScale{params.overlay_ell(b), params.eps_inv, max_w2};
  sk.overlay_approx =
      approx_bounded_hop_matrix(sk.overlay_w2, sk.overlay_scale);
  return sk;
}

std::vector<NodeId> checked_sorted_set(const WeightedGraph& g,
                                       std::vector<NodeId> set) {
  QC_REQUIRE(!set.empty(), "skeleton set must be non-empty");
  std::sort(set.begin(), set.end());
  QC_REQUIRE(std::adjacent_find(set.begin(), set.end()) == set.end(),
             "skeleton set has duplicates");
  QC_REQUIRE(set.back() < g.node_count(), "skeleton member out of range");
  return set;
}

}  // namespace

Skeleton build_skeleton(const WeightedGraph& g, const Params& params,
                        std::vector<NodeId> set) {
  auto sorted = checked_sorted_set(g, std::move(set));
  const HopScale base{params.ell, params.eps_inv, g.max_weight()};
  auto rows = approx_bounded_hop_multi(g, sorted, base);
  return skeleton_from_rows(g, params, std::move(sorted), std::move(rows));
}

ToolkitCache::ToolkitCache(const WeightedGraph& g, const Params& params)
    : g_(&g),
      params_(params),
      base_scale_{params.ell, params.eps_inv, g.max_weight()},
      rows_(g.node_count()),
      row_ready_(new std::atomic<std::uint8_t>[g.node_count()]) {
  for (NodeId u = 0; u < g.node_count(); ++u) {
    row_ready_[u].store(0, std::memory_order_relaxed);
  }
  // Warm the lazily built CSR view now, while we are provably
  // single-threaded; concurrent row fills then only ever read it.
  (void)g.csr();
}

void ToolkitCache::publish_row(NodeId u, std::vector<Dist>&& row) {
  std::lock_guard<std::mutex> lock(row_mutex_[u % kRowShards]);
  if (row_ready_[u].load(std::memory_order_relaxed)) return;
  rows_[u] = std::move(row);
  row_ready_[u].store(1, std::memory_order_release);
}

const std::vector<Dist>& ToolkitCache::approx_row(NodeId u) {
  QC_REQUIRE(u < g_->node_count(), "node out of range");
  if (!row_ready_[u].load(std::memory_order_acquire)) {
    publish_row(u, approx_bounded_hop_from(*g_, u, base_scale_));
  }
  return rows_[u];
}

void ToolkitCache::ensure_rows(const std::vector<NodeId>& nodes,
                               runtime::ThreadPool* pool) {
  std::vector<NodeId> missing;
  for (const NodeId u : nodes) {
    QC_REQUIRE(u < g_->node_count(), "node out of range");
    if (!row_ready_[u].load(std::memory_order_acquire)) missing.push_back(u);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  if (missing.empty()) return;
  // Chunked fan-out: each chunk shares one Dijkstra workspace and one
  // reweighted scratch CSR (via approx_bounded_hop_multi), and rows land
  // keyed by node id — the cache contents cannot depend on scheduling.
  const std::size_t chunks = runtime::chunk_count(pool, missing.size());
  runtime::parallel_for(pool, chunks, [&](std::size_t c) {
    const std::size_t lo = missing.size() * c / chunks;
    const std::size_t hi = missing.size() * (c + 1) / chunks;
    const std::vector<NodeId> slice(missing.begin() + lo,
                                    missing.begin() + hi);
    auto rows = approx_bounded_hop_multi(*g_, slice, base_scale_);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      publish_row(slice[i], std::move(rows[i]));
    }
  });
}

std::size_t ToolkitCache::cached_row_count() const {
  std::size_t count = 0;
  for (NodeId u = 0; u < g_->node_count(); ++u) {
    if (row_ready_[u].load(std::memory_order_acquire)) ++count;
  }
  return count;
}

std::size_t ToolkitCache::invalidate_rows(std::span<const NodeId> endpoints) {
  for (const NodeId x : endpoints) {
    QC_REQUIRE(x < g_->node_count(), "node out of range");
  }
  std::size_t dropped = 0;
  for (NodeId u = 0; u < g_->node_count(); ++u) {
    if (!row_ready_[u].load(std::memory_order_acquire)) continue;
    const std::vector<Dist>& row = rows_[u];
    bool affected = false;
    for (const NodeId x : endpoints) {
      if (row[x] < kInfDist) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    row_ready_[u].store(0, std::memory_order_release);
    rows_[u].clear();
    rows_[u].shrink_to_fit();
    ++dropped;
  }
  return dropped;
}

bool ToolkitCache::rebind_params(const Params& params) {
  const HopScale fresh{params.ell, params.eps_inv, g_->max_weight()};
  if (fresh.ell != base_scale_.ell || fresh.eps_inv != base_scale_.eps_inv ||
      fresh.max_weight != base_scale_.max_weight) {
    return false;
  }
  params_ = params;
  return true;
}

Skeleton ToolkitCache::skeleton(std::vector<NodeId> set) {
  auto sorted = checked_sorted_set(*g_, std::move(set));
  std::vector<std::vector<Dist>> rows;
  rows.reserve(sorted.size());
  for (const NodeId u : sorted) rows.push_back(approx_row(u));
  return skeleton_from_rows(*g_, params_, std::move(sorted),
                            std::move(rows));
}

SetEvaluation ToolkitCache::evaluate_set(std::vector<NodeId> set,
                                         SetEvalWorkspace& ws) {
  auto sorted = checked_sorted_set(*g_, std::move(set));
  const std::size_t b = sorted.size();
  ws.row_ptrs_.clear();
  ws.row_ptrs_.reserve(b);
  for (const NodeId u : sorted) ws.row_ptrs_.push_back(&approx_row(u));

  // Overlay weights w′({u,v}) = d̃^ℓ(u,v), symmetrized exactly as
  // skeleton_from_rows does.
  ws.w1_.assign(b, std::vector<Dist>(b, kInfDist));
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = 0; c < b; ++c) {
      if (a != c) ws.w1_[a][c] = (*ws.row_ptrs_[a])[sorted[c]];
    }
  }
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = a + 1; c < b; ++c) {
      const Dist m = std::min(ws.w1_[a][c], ws.w1_[c][a]);
      ws.w1_[a][c] = ws.w1_[c][a] = m;
    }
  }

  // k-star union H and shortcut weights w″ (Algorithm 4 / Observation
  // 3.12): the integers skeleton_from_rows computes, from one closure of
  // H instead of a Dijkstra per member, without storing N^k.
  ws.h_.assign(b, std::vector<Dist>(b, kInfDist));
  for (std::uint32_t a = 0; a < b; ++a) {
    lightest_k(ws.w1_[a], a, params_.k, ws.order_);
    for (const std::uint32_t c : ws.order_) {
      ws.h_[a][c] = ws.h_[c][a] = ws.w1_[a][c];
    }
  }
  ws.w2_ = ws.w1_;
  shortcut_step(ws.h_, params_.k, ws.w2_, nullptr, ws.order_);

  std::uint64_t max_w2 = 1;
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = 0; c < b; ++c) {
      if (a != c && ws.w2_[a][c] < kInfDist) {
        max_w2 = std::max(max_w2, ws.w2_[a][c]);
      }
    }
  }
  const HopScale overlay_scale{params_.overlay_ell(b), params_.eps_inv,
                               max_w2};
  approx_matrix_into(ws.w2_, overlay_scale, ws.wi_, ws.overlay_);

  SetEvaluation out;
  out.total_scale = base_scale_.sigma() * overlay_scale.sigma();
  QC_CHECK(out.total_scale == params_.total_scale(b),
           "scale-only pass disagrees with built overlay scale");

  // Member eccentricities, matching Skeleton::approx_eccentricity
  // integer-for-integer: ecc(s) = max_v min_u { A(s,u) + B(u,v) } where
  // A(s,u) = d̃″(s,u) and B(u,v) = σ″·d̃^ℓ(u,v). B is member-independent,
  // so one b·n pass finds each target's smallest B and its hub; that
  // candidate seeds the minimum, and the inner scan — hubs in ascending
  // A order — stops at the first hub with A(s,u) + B₁(v) ≥ best, which
  // lower-bounds everything later in the order. dist_add is monotone and
  // saturating, so the pruned scan returns exactly the full scan's
  // integers (including kInfDist).
  const std::uint64_t sigma2 = overlay_scale.sigma();
  const NodeId n = g_->node_count();
  ws.bmin_arg_.assign(n, 0);
  ws.bmin1_.assign(n, kInfDist);
  for (std::uint32_t u = 0; u < b; ++u) {
    const std::vector<Dist>& row = *ws.row_ptrs_[u];
    for (NodeId v = 0; v < n; ++v) {
      const Dist hop = row[v];
      const Dist bv = hop >= kInfDist ? kInfDist : hop * sigma2;
      if (bv < ws.bmin1_[v]) {
        ws.bmin1_[v] = bv;
        ws.bmin_arg_[v] = u;
      }
    }
  }
  // Targets in descending-B₁ order: the first targets are the ones that
  // can set the max, and once even A_max(s) + B₁(v) cannot beat the
  // running eccentricity no later target can either.
  ws.tord_.resize(n);
  std::iota(ws.tord_.begin(), ws.tord_.end(), 0);
  std::sort(ws.tord_.begin(), ws.tord_.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return std::pair(ws.bmin1_[y], x) < std::pair(ws.bmin1_[x], y);
            });
  out.member_ecc.assign(b, 0);
  for (std::size_t s = 0; s < b; ++s) {
    ws.order_.resize(b);
    std::iota(ws.order_.begin(), ws.order_.end(), 0);
    std::sort(ws.order_.begin(), ws.order_.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return ws.overlay_[s][x] < ws.overlay_[s][y];
              });
    Dist amax = 0;
    for (std::size_t u = 0; u < b; ++u) {
      amax = std::max(amax, ws.overlay_[s][u]);
    }
    Dist ecc = 0;
    for (const std::uint32_t v : ws.tord_) {
      const Dist b1 = ws.bmin1_[v];
      if (dist_add(amax, b1) <= ecc) break;  // bounds all later targets
      Dist best = dist_add(ws.overlay_[s][ws.bmin_arg_[v]], b1);
      if (best <= ecc) continue;  // an upper bound: v cannot raise the max
      for (const std::uint32_t u : ws.order_) {
        const Dist hub = ws.overlay_[s][u];
        if (dist_add(hub, b1) >= best) break;
        const Dist hop = (*ws.row_ptrs_[u])[v];
        best = std::min(
            best, dist_add(hub, hop >= kInfDist ? kInfDist : hop * sigma2));
      }
      ecc = std::max(ecc, best);
    }
    out.member_ecc[s] = ecc;
  }
  return out;
}

}  // namespace qc::paths
