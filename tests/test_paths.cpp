// Tests for the Nanongkai toolkit: parameters, the centralized reference
// (Lemmas 3.2/3.3), the distributed Algorithms 1-5, and bit-exact
// agreement between the two implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "paths/distributed.h"
#include "paths/params.h"
#include "paths/reference.h"
#include "runtime/thread_pool.h"
#include "toolkit_pins.h"
#include "util/rng.h"

namespace qc::paths {
namespace {

WeightedGraph test_graph(std::uint64_t seed, NodeId n, Weight max_w) {
  Rng rng(seed);
  auto g = gen::erdos_renyi_connected(n, 0.15, rng);
  return gen::randomize_weights(g, max_w, rng);
}

TEST(Params, MakeFollowsEquationOne) {
  const auto p = Params::make(1024, 16);
  EXPECT_EQ(p.eps_inv, 10u);
  // r = 1024^0.4 * 16^-0.2 = 16 / 1.741 ~ 9.19 -> 9
  EXPECT_EQ(p.r, 9u);
  // ell = 1024*10/9 ~ 1138 -> clamped to n
  EXPECT_EQ(p.ell, 1024u);
  EXPECT_EQ(p.k, 4u);
  EXPECT_EQ(p.sigma(), 2 * 1024 * 10u);
  EXPECT_EQ(p.rounded_cap(), 21 * 1024u);
}

TEST(Params, ClampsAtSmallN) {
  const auto p = Params::make(4, 1);
  EXPECT_GE(p.r, 1u);
  EXPECT_LE(p.ell, 4u);
  EXPECT_GE(p.k, 1u);
}

TEST(Params, RejectsDegenerateInput) {
  EXPECT_THROW(Params::make(1, 1), ArgumentError);
  EXPECT_THROW(Params::make(8, 0), ArgumentError);
}

TEST(HopScale, RoundedWeightCeiling) {
  HopScale hs{4, 2, 10};  // sigma = 16
  EXPECT_EQ(hs.rounded_weight(1, 0), 16u);
  EXPECT_EQ(hs.rounded_weight(1, 3), 2u);
  EXPECT_EQ(hs.rounded_weight(1, 5), 1u);  // ceil(16/32)
  EXPECT_EQ(hs.rounded_weight(3, 4), 3u);  // ceil(48/16)
}

TEST(HopScale, TopScaleRoundsEveryWeightToOne) {
  HopScale hs{7, 3, 29};
  const std::uint32_t top = hs.scale_count() - 1;
  for (std::uint64_t w = 1; w <= hs.max_weight; ++w) {
    EXPECT_EQ(hs.rounded_weight(w, top), 1u) << "w=" << w;
  }
}

// ---------------------------------------------------------------------
// Lemma 3.2: d <= d̃^ℓ/σ <= (1+ε)·d^ℓ, in exact integer form
//   σ·d <= d̃_σ   and   eps_inv·d̃_σ <= (eps_inv+1)·σ·d^ℓ.
// ---------------------------------------------------------------------
class Lemma32Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma32Test, ApproximationSandwich) {
  const auto g = test_graph(GetParam(), 20, 12);
  for (const std::uint64_t ell : {3ull, 7ull, 19ull}) {
    const HopScale hs{ell, 3, g.max_weight()};
    for (NodeId s = 0; s < g.node_count(); s += 5) {
      const auto dt = approx_bounded_hop_from(g, s, hs);
      const auto exact = dijkstra(g, s);
      const auto hop = bounded_hop_distances(g, s, ell);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (dt[v] >= kInfDist) {
          // No eligible scale: d^ℓ may still be finite only if it is
          // very long; the top scale guarantees eligibility whenever
          // the ℓ-hop distance exists.
          EXPECT_EQ(hop[v], kInfDist) << "s=" << s << " v=" << v;
          continue;
        }
        EXPECT_GE(dt[v], hs.sigma() * exact[v]) << "s=" << s << " v=" << v;
        // The (1+ε) upper bound is stated against d^ℓ, so it only
        // constrains pairs with an ℓ-hop path. (d̃ can still be finite
        // without one: eligibility caps the rounded distance, not the
        // hop count.)
        if (hop[v] < kInfDist) {
          EXPECT_LE(hs.eps_inv * dt[v],
                    (hs.eps_inv + 1) * hs.sigma() * hop[v])
              << "s=" << s << " v=" << v;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma32Test,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Exact early stop in the Lemma 3.2 scale loops: every backend must
// reproduce the full scale loop — one Dijkstra (graphs) or one
// Floyd–Warshall (matrices) per scale, every scale folded.
// ---------------------------------------------------------------------
std::vector<Dist> full_scale_row(const WeightedGraph& g, NodeId s,
                                 const HopScale& hs) {
  std::vector<Dist> best(g.node_count(), kInfDist);
  for (std::uint32_t i = 0; i < hs.scale_count(); ++i) {
    const auto di = dijkstra(
        g.reweighted([&](Weight w) { return hs.rounded_weight(w, i); }), s);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (di[v] <= hs.rounded_cap()) best[v] = std::min(best[v], di[v] << i);
    }
  }
  return best;
}

std::vector<std::vector<Dist>> full_scale_matrix(
    const std::vector<std::vector<Dist>>& w, const HopScale& hs) {
  const std::size_t n = w.size();
  std::vector<std::vector<Dist>> best(n, std::vector<Dist>(n, kInfDist));
  for (std::uint32_t i = 0; i < hs.scale_count(); ++i) {
    std::vector<std::vector<Dist>> d(n, std::vector<Dist>(n, kInfDist));
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) {
          d[a][b] = 0;
        } else if (w[a][b] < kInfDist) {
          d[a][b] = hs.rounded_weight(w[a][b], i);
        }
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
          d[a][b] = std::min(d[a][b], dist_add(d[a][k], d[k][b]));
        }
      }
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (d[a][b] <= hs.rounded_cap()) {
          best[a][b] = std::min(best[a][b], d[a][b] << i);
        }
      }
    }
  }
  return best;
}

struct NamedGraph {
  const char* name;
  WeightedGraph g;
};

// One graph per family, plus one with two components.
std::vector<NamedGraph> early_stop_graphs() {
  Rng rng(2024);
  std::vector<NamedGraph> out;
  out.push_back({"ER", test_graph(11, 40, 12)});
  out.push_back({"grid", gen::randomize_weights(gen::grid(5, 6), 9, rng)});
  out.push_back({"path", gen::randomize_weights(gen::path(24), 20, rng)});
  out.push_back({"cliques",
                 gen::randomize_weights(gen::path_of_cliques(4, 5), 7, rng)});
  out.push_back({"tree", gen::randomize_weights(gen::random_tree(30, rng), 15,
                                                rng)});
  WeightedGraph split(20);  // a path on 0..9 and a cycle on 10..19
  for (NodeId v = 0; v + 1 < 10; ++v) split.add_edge(v, v + 1, 1 + v % 6);
  for (NodeId v = 10; v < 20; ++v) {
    split.add_edge(v, v == 19 ? 10 : v + 1, 1 + (3 * v) % 11);
  }
  out.push_back({"disconnected", std::move(split)});
  return out;
}

// (ℓ, 1/ε) pairs: cap = (1 + 2/ε)·ℓ runs from 3 hops, which leaves most
// of the path and tree beyond reach, to past n.
constexpr std::pair<std::uint64_t, std::uint32_t> kEarlyStopScales[] = {
    {1, 1}, {2, 1}, {3, 3}, {4, 2}, {40, 6}};

TEST(EarlyStop, GraphRowsMatchFullScaleLoop) {
  std::size_t beyond_cap = 0;
  for (const auto& [name, g] : early_stop_graphs()) {
    for (const auto& [ell, eps_inv] : kEarlyStopScales) {
      SCOPED_TRACE(::testing::Message() << name << " ell=" << ell
                                        << " eps_inv=" << eps_inv);
      const HopScale hs{ell, eps_inv, g.max_weight()};
      for (NodeId s = 0; s < g.node_count(); ++s) {
        const auto full = full_scale_row(g, s, hs);
        EXPECT_EQ(approx_bounded_hop_from(g, s, hs), full) << "s=" << s;
        const auto hops = bfs_distances(g, s);
        for (NodeId v = 0; v < g.node_count(); ++v) {
          if (hops[v] < kInfDist && full[v] >= kInfDist) ++beyond_cap;
        }
      }
    }
  }
  // Some reachable targets must lie beyond cap hops, so the test covers
  // sources whose labelled set is smaller than their component.
  EXPECT_GT(beyond_cap, 0u);
}

TEST(EarlyStop, ToolkitRowsMatchFullScaleLoop) {
  runtime::ThreadPool pool(4);
  for (const auto& [name, g] : early_stop_graphs()) {
    std::vector<NodeId> all(g.node_count());
    std::iota(all.begin(), all.end(), NodeId{0});
    for (const auto& [ell, eps_inv] : kEarlyStopScales) {
      Params params;
      params.n = g.node_count();
      params.ell = ell;
      params.eps_inv = eps_inv;
      for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                     &pool}) {
        SCOPED_TRACE(::testing::Message()
                     << name << " ell=" << ell << " eps_inv=" << eps_inv
                     << (p ? " pooled" : " serial"));
        ToolkitCache cache(g, params);
        cache.ensure_rows(all, p);
        ASSERT_EQ(cache.cached_row_count(), all.size());
        for (const NodeId u : all) {
          EXPECT_EQ(cache.approx_row(u),
                    full_scale_row(g, u, cache.base_scale()))
              << "u=" << u;
        }
      }
    }
  }
}

TEST(EarlyStop, MatrixMatchesFullScaleLoop) {
  Rng rng(77);
  std::vector<std::pair<const char*, std::vector<std::vector<Dist>>>> mats;
  // Dense, with ~30% of the pairs missing.
  const std::size_t n = 14;
  std::vector<std::vector<Dist>> dense(n, std::vector<Dist>(n, kInfDist));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (rng.chance(0.3)) continue;
      dense[a][b] = dense[b][a] = 1 + rng.below(500);
    }
  }
  mats.emplace_back("dense", dense);
  // A weighted path: far pairs need many hops.
  std::vector<std::vector<Dist>> chain(n, std::vector<Dist>(n, kInfDist));
  for (std::size_t a = 0; a + 1 < n; ++a) {
    chain[a][a + 1] = chain[a + 1][a] = 1 + (7 * a) % 13;
  }
  mats.emplace_back("chain", chain);
  // Two blocks with no edge between them.
  auto blocks = dense;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if ((a < n / 2) != (b < n / 2)) blocks[a][b] = kInfDist;
    }
  }
  mats.emplace_back("disconnected", blocks);
  for (const auto& [name, w] : mats) {
    Dist max_w = 1;
    for (const auto& row : w) {
      for (const Dist x : row) {
        if (x < kInfDist) max_w = std::max(max_w, x);
      }
    }
    for (const auto& [ell, eps_inv] : kEarlyStopScales) {
      SCOPED_TRACE(::testing::Message() << name << " ell=" << ell
                                        << " eps_inv=" << eps_inv);
      const HopScale hs{ell, eps_inv, max_w};
      EXPECT_EQ(approx_bounded_hop_matrix(w, hs), full_scale_matrix(w, hs));
    }
  }
}

// ---------------------------------------------------------------------
// The overlay steps that Algorithm 4 and the oracle share, against the
// Skeleton's loop: a full sort per member for its k-star, then one
// matrix Dijkstra per member on H and the (d_H, index) selection.
// ---------------------------------------------------------------------
struct ShortcutOutput {
  std::vector<std::vector<std::uint32_t>> nearest;
  std::vector<std::vector<Dist>> w2;
};

ShortcutOutput skeleton_shortcut(const std::vector<std::vector<Dist>>& w1,
                                 std::uint64_t k) {
  const std::size_t b = w1.size();
  const auto kk = static_cast<std::size_t>(std::min<std::uint64_t>(k, b - 1));
  std::vector<std::vector<Dist>> h(b, std::vector<Dist>(b, kInfDist));
  for (std::size_t a = 0; a < b; ++a) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t c = 0; c < b; ++c) {
      if (c != a && w1[a][c] < kInfDist) order.push_back(c);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return std::pair(w1[a][x], x) < std::pair(w1[a][y], y);
              });
    if (order.size() > kk) order.resize(kk);
    for (const std::uint32_t c : order) h[a][c] = h[c][a] = w1[a][c];
  }
  ShortcutOutput out{std::vector<std::vector<std::uint32_t>>(b), w1};
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
      if (out.nearest[a].size() == kk) break;
      out.nearest[a].push_back(c);
      out.w2[a][c] = std::min(out.w2[a][c], dh[c]);
      out.w2[c][a] = std::min(out.w2[c][a], dh[c]);
    }
  }
  return out;
}

// Symmetric b×b matrices, kInfDist on the diagonal: ~30% holes with
// weights 1..4 (ties in every row), the same cut into two blocks with
// no edge between them, and one weight for every edge.
std::vector<std::pair<std::string, std::vector<std::vector<Dist>>>>
overlay_matrices(std::uint64_t seed, std::size_t b) {
  Rng rng(seed);
  std::vector<std::vector<Dist>> holes(b, std::vector<Dist>(b, kInfDist));
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = a + 1; c < b; ++c) {
      if (!rng.chance(0.3)) holes[a][c] = holes[c][a] = 1 + rng.below(4);
    }
  }
  auto blocks = holes;
  auto tied = holes;
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = 0; c < b; ++c) {
      if ((a < b / 2) != (c < b / 2)) blocks[a][c] = kInfDist;
      if (tied[a][c] < kInfDist) tied[a][c] = 7;
    }
  }
  return {{"holes", holes}, {"blocks", blocks}, {"tied", tied}};
}

TEST(OverlaySteps, ClosureMatchesDijkstraRowByRow) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (auto [name, d] : overlay_matrices(seed, 11)) {
      SCOPED_TRACE(::testing::Message() << name << " seed " << seed);
      const auto w = d;
      min_plus_closure(d);
      for (std::uint32_t a = 0; a < w.size(); ++a) {
        EXPECT_EQ(d[a], dijkstra_matrix(w, a)) << "row " << a;
      }
    }
  }
}

TEST(OverlaySteps, ShortcutStepMatchesSkeletonSelection) {
  const std::size_t b = 11;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const auto& [name, w1] : overlay_matrices(seed, b)) {
      for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{1},
                                    std::uint64_t{2}, b - 1, b + 3}) {
        SCOPED_TRACE(::testing::Message()
                     << name << " seed " << seed << " k " << k);
        // H as both callers build it: the union of the members' k-stars.
        std::vector<std::vector<Dist>> h(b, std::vector<Dist>(b, kInfDist));
        std::vector<std::uint32_t> pick;
        for (std::uint32_t a = 0; a < b; ++a) {
          lightest_k(w1[a], a, k, pick);
          for (const std::uint32_t c : pick) h[a][c] = h[c][a] = w1[a][c];
        }
        auto h_again = h;
        ShortcutOutput got{{}, w1};
        shortcut_step(h, k, got.w2, &got.nearest, pick);
        const ShortcutOutput want = skeleton_shortcut(w1, k);
        EXPECT_EQ(got.nearest, want.nearest);
        EXPECT_EQ(got.w2, want.w2);
        // Without `nearest` the step lowers the same w″.
        auto w2 = w1;
        shortcut_step(h_again, k, w2, nullptr, pick);
        EXPECT_EQ(w2, want.w2);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Algorithm 2 vs capped Dijkstra
// ---------------------------------------------------------------------
class Alg2Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Alg2Test, MatchesCappedDijkstra) {
  const auto g = test_graph(GetParam(), 18, 9);
  const Dist cap = 30;
  const auto res = distributed_bounded_distance_sssp(
      g, RunRequest{}.with_source(2).with_cap(cap));
  const auto exact = dijkstra(g, 2);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(res.dist[v], exact[v] <= cap ? exact[v] : kInfDist)
        << "v=" << v;
  }
  EXPECT_EQ(res.stats.rounds, cap + 2);
}

TEST_P(Alg2Test, MatchesCappedDijkstraUnderRounding) {
  const auto g = test_graph(GetParam() + 100, 16, 7);
  const HopScale hs{5, 2, g.max_weight()};
  for (std::uint32_t i = 0; i < hs.scale_count(); i += 2) {
    const auto rounded =
        g.reweighted([&](Weight w) { return hs.rounded_weight(w, i); });
    const auto res = distributed_bounded_distance_sssp(
        rounded, RunRequest{}.with_source(0).with_cap(hs.rounded_cap()));
    const auto exact = dijkstra(rounded, 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(res.dist[v],
                exact[v] <= hs.rounded_cap() ? exact[v] : kInfDist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Alg2Test,
                         ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------
// Algorithm 1 vs reference Lemma 3.2 values (bit exact)
// ---------------------------------------------------------------------
class Alg1Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Alg1Test, MatchesReferenceBitExact) {
  const auto g = test_graph(GetParam() + 40, 16, 8);
  const HopScale hs{6, 3, g.max_weight()};
  for (NodeId s : {NodeId{0}, NodeId{7}}) {
    const auto res = distributed_bounded_hop_sssp(
        g, RunRequest{}.with_source(s).with_scale(hs));
    const auto ref = approx_bounded_hop_from(g, s, hs);
    EXPECT_EQ(res.approx, ref) << "source " << s;
    EXPECT_EQ(res.stats.rounds,
              static_cast<std::uint64_t>(hs.scale_count()) *
                  (hs.rounded_cap() + 2));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Alg1Test,
                         ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------
// Algorithm 3 vs reference (bit exact), including the delay machinery
// ---------------------------------------------------------------------
class Alg3Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Alg3Test, MatchesReferenceForAllSources) {
  const auto g = test_graph(GetParam() + 70, 16, 6);
  const HopScale hs{5, 3, g.max_weight()};
  const std::vector<NodeId> sources{1, 4, 9, 13};
  Rng rng(GetParam());
  const auto res = distributed_multi_source_bhs(
      g, RunRequest{}.with_sources(sources).with_scale(hs).with_rng(rng));
  for (std::size_t a = 0; a < sources.size(); ++a) {
    const auto ref = approx_bounded_hop_from(g, sources[a], hs);
    EXPECT_EQ(res.approx[a], ref) << "source index " << a;
  }
  EXPECT_LE(res.attempts, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Alg3Test,
                         ::testing::Range<std::uint64_t>(1, 6));

// Algorithm 3 fails when some node has more announcements due in one
// delay window than the window has slots (⌈log n⌉). On a star every
// leaf source's wave passes through the hub, so a few colliding delays
// overflow a window. These seeds draw one (star 4) or two (star 8)
// colliding delay vectors before a clean one: each failure is charged
// its full scheduled duration, the retry redraws the delays, and the
// final rows are exact.
TEST(Alg3Retry, FailedAttemptsRetryWithFreshDelaysAndAreCharged) {
  const struct {
    NodeId leaves;
    std::uint64_t seed;
    std::uint32_t attempts;
    std::uint64_t rounds;
  } cases[] = {{3, 29, 2, 74}, {7, 78, 3, 303}};
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "star(" << c.leaves + 1 << ")");
    const auto g = gen::star(c.leaves + 1);
    std::vector<NodeId> sources;
    for (NodeId v = 1; v <= c.leaves; ++v) sources.push_back(v);
    const HopScale hs{1, 1, g.max_weight()};
    Rng rng(c.seed);
    const auto res = distributed_multi_source_bhs(
        g, RunRequest{}.with_sources(sources).with_scale(hs).with_rng(rng));
    EXPECT_EQ(res.attempts, c.attempts);
    EXPECT_EQ(res.stats.rounds, c.rounds);
    ASSERT_EQ(res.approx.size(), sources.size());
    for (std::size_t a = 0; a < sources.size(); ++a) {
      EXPECT_EQ(res.approx[a], approx_bounded_hop_from(g, sources[a], hs))
          << "source index " << a;
    }
  }
}

// Algorithms 1-3 through their entry points, against literals captured
// from the engine that ran every live node in every round, before
// programs could sleep between their scheduled events. Serial and on a
// forced pool (threshold 0), every pin must hold.
TEST(ToolkitGolden, FaultFreeRunsArePinned) {
  const auto g = toolkit_graph();
  for (const unsigned workers : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    congest::Config cfg;
    cfg.execution.workers = workers;
    cfg.execution.pooled_round_min_work = 0;
    const ToolkitPins got = pin_toolkit(g, cfg);
    EXPECT_EQ(got.alg2, (ToolkitPin{{42, 74, 444}, 17984904032555710582ull,
                                    17850365024652785240ull}));
    EXPECT_EQ(got.alg1, (ToolkitPin{{440, 526, 3156}, 2729422593657406332ull,
                                    66673693762680768ull}));
    EXPECT_EQ(got.alg3, (ToolkitPin{{1969, 2760, 24470}, 1532937749662998471ull,
                                    6564369829051063569ull}));
  }
}

// ---------------------------------------------------------------------
// Algorithms 4+5 vs the reference skeleton (bit exact)
// ---------------------------------------------------------------------
struct SkeletonFixture {
  WeightedGraph g;
  Params params;
  std::vector<NodeId> set;
  Skeleton ref;
  MultiSourceResult ms;
  OverlayEmbedding emb;

  explicit SkeletonFixture(std::uint64_t seed, NodeId n = 18)
      : g(test_graph(seed, n, 6)),
        params(Params::make(n, unweighted_diameter(g))) {
    Rng rng(seed * 31 + 1);
    for (NodeId v = 0; v < n; ++v) {
      if (rng.chance(static_cast<double>(params.r) / n)) set.push_back(v);
    }
    if (set.empty()) set.push_back(0);
    ref = build_skeleton(g, params, set);
    const HopScale hs{params.ell, params.eps_inv, g.max_weight()};
    Rng delays(seed * 17 + 3);
    ms = distributed_multi_source_bhs(
        g, RunRequest{}.with_sources(set).with_scale(hs).with_rng(delays));
    emb = distributed_embed_overlay(
        g, ms.approx, RunRequest{}.with_sources(set).with_params(params));
  }
};

class SkeletonTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkeletonTest, EmbeddingMatchesReference) {
  SkeletonFixture fx(GetParam());
  EXPECT_EQ(fx.emb.w1, fx.ref.overlay_w1);
  EXPECT_EQ(fx.emb.nearest_k, fx.ref.nearest_k);
  EXPECT_EQ(fx.emb.w2, fx.ref.overlay_w2);
  EXPECT_EQ(fx.emb.max_w2, fx.ref.overlay_scale.max_weight);
}

// Without a pool and with 1, 2 and 4 workers running Algorithm 5's
// sub-runs: the same ledger, and the reference's row.
TEST_P(SkeletonTest, OverlaySsspMatchesReference) {
  SkeletonFixture fx(GetParam());
  runtime::ThreadPool one(1), two(2), four(4);
  for (std::uint32_t s = 0; s < fx.set.size(); ++s) {
    const auto run = [&](runtime::ThreadPool* pool) {
      congest::Config cfg;
      cfg.execution.pool = pool;
      return distributed_overlay_sssp(fx.g, fx.emb,
                                      RunRequest{}
                                          .with_params(fx.params)
                                          .with_overlay_source(s)
                                          .with_config(cfg));
    };
    const auto serial = run(nullptr);
    EXPECT_EQ(serial.approx, fx.ref.overlay_approx[s]) << "source idx " << s;
    for (runtime::ThreadPool* pool : {&one, &two, &four}) {
      const auto res = run(pool);
      EXPECT_EQ(res.stats, serial.stats)
          << "source idx " << s << " workers " << pool->worker_count();
      EXPECT_EQ(res.approx, fx.ref.overlay_approx[s])
          << "source idx " << s << " workers " << pool->worker_count();
    }
  }
}

TEST_P(SkeletonTest, Observation312HoldsForKNearest) {
  SkeletonFixture fx(GetParam());
  // The H-based k-nearest distances must equal the full-overlay-metric
  // distances for the selected k nearest nodes.
  const std::size_t b = fx.ref.size();
  for (std::size_t a = 0; a < b; ++a) {
    for (const std::uint32_t c : fx.ref.nearest_k[a]) {
      EXPECT_EQ(fx.ref.overlay_w2[a][c],
                std::min(fx.ref.overlay_w1[a][c], fx.ref.overlay_dist1[a][c]))
          << "a=" << a << " c=" << c;
    }
  }
}

// Lemma 3.3 sandwich: σσ″·d <= d̃_{G,w,S} <= (1+ε)²·σσ″·d, integer form.
TEST_P(SkeletonTest, Lemma33ApproximationSandwich) {
  SkeletonFixture fx(GetParam());
  const std::uint64_t total = fx.ref.total_scale();
  const std::uint64_t ei = fx.params.eps_inv;
  for (std::uint32_t s = 0; s < fx.ref.size(); ++s) {
    const auto exact = dijkstra(fx.g, fx.ref.members[s]);
    for (NodeId v = 0; v < fx.g.node_count(); ++v) {
      const Dist ad = fx.ref.approx_distance(s, v);
      ASSERT_LT(ad, kInfDist) << "s=" << s << " v=" << v;
      EXPECT_GE(ad, total * exact[v]);
      EXPECT_LE(ei * ei * ad, (ei + 1) * (ei + 1) * total * exact[v]);
    }
  }
}

TEST_P(SkeletonTest, ApproxEccentricityIsMaxOfApproxDistances) {
  SkeletonFixture fx(GetParam());
  for (std::uint32_t s = 0; s < fx.ref.size(); ++s) {
    Dist mx = 0;
    for (NodeId v = 0; v < fx.g.node_count(); ++v) {
      mx = std::max(mx, fx.ref.approx_distance(s, v));
    }
    EXPECT_EQ(fx.ref.approx_eccentricity(s), mx);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkeletonTest,
                         ::testing::Range<std::uint64_t>(1, 7));

// One Algorithm 5 run as literals: its ledger and an FNV-1a digest of
// the d̃″ row.
struct OverlayPin {
  congest::RunStats stats;
  std::uint64_t approx = 0;

  friend bool operator==(const OverlayPin&, const OverlayPin&) = default;
  friend void PrintTo(const OverlayPin& p, std::ostream* os) {
    *os << "{{" << p.stats.rounds << ", " << p.stats.messages << ", "
        << p.stats.bits << "}, " << p.approx << "ull}";
  }
};

// Algorithm 5 from every overlay source of three skeletons, against
// literals captured from the loop that ran every overlay round's
// sub-runs one after another on the calling thread.
TEST(OverlaySsspGolden, RunsArePinned) {
  struct Case {
    std::uint64_t seed;
    NodeId n;
    std::vector<OverlayPin> pins;
  };
  const std::vector<Case> cases = {
      {1, 18,
       {{{14788, 84499, 433172}, 5438218396520651302ull},
        {{14769, 84453, 432804}, 11307382439902230133ull},
        {{14799, 84499, 433172}, 7352428167824655110ull}}},
      {2, 18,
       {{{27681, 75861, 403164}, 6539913170376257612ull},
        {{27735, 75789, 402516}, 719212079000961797ull},
        {{27763, 75789, 402516}, 14606599841922084133ull},
        {{27684, 75861, 403164}, 17394338929387753516ull}}},
      {3, 40,
       {{{23335, 760500, 5122800}, 16996908221741616193ull},
        {{23322, 760500, 5122800}, 7980806502748109921ull},
        {{23303, 760980, 5127600}, 3340428845450821623ull},
        {{23287, 760500, 5122800}, 11467153845130248215ull}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "seed " << c.seed << " n " << c.n);
    SkeletonFixture fx(c.seed, c.n);
    std::vector<OverlayPin> got;
    for (std::uint32_t s = 0; s < fx.set.size(); ++s) {
      const auto res = distributed_overlay_sssp(
          fx.g, fx.emb,
          RunRequest{}.with_params(fx.params).with_overlay_source(s));
      std::uint64_t digest = congest::fnv1a({});
      for (const Dist d : res.approx) digest = congest::fnv1a({d}, digest);
      got.push_back({res.stats, digest});
    }
    EXPECT_EQ(got, c.pins);
  }
}

// One Algorithm 4 run as literals: its ledger and an FNV-1a digest of
// w1, nearest_k, w2 and max_w2.
struct EmbeddingPin {
  congest::RunStats stats;
  std::uint64_t digest = 0;

  friend bool operator==(const EmbeddingPin&, const EmbeddingPin&) = default;
  friend void PrintTo(const EmbeddingPin& p, std::ostream* os) {
    *os << "{{" << p.stats.rounds << ", " << p.stats.messages << ", "
        << p.stats.bits << "}, " << p.digest << "ull}";
  }
};

EmbeddingPin pin_embedding(const OverlayEmbedding& emb) {
  std::uint64_t h = congest::fnv1a({});
  const auto matrix = [&h](const std::vector<std::vector<Dist>>& m) {
    for (const auto& row : m) {
      for (const Dist d : row) h = congest::fnv1a({d}, h);
    }
  };
  matrix(emb.w1);
  for (const auto& near : emb.nearest_k) {
    h = congest::fnv1a({near.size()}, h);
    for (const std::uint32_t c : near) h = congest::fnv1a({c}, h);
  }
  matrix(emb.w2);
  h = congest::fnv1a({emb.max_w2}, h);
  return {emb.stats, h};
}

// Algorithm 4 on sets where the k-star pick drops overlay edges (k <
// b − 1), against literals captured from the loop that ran its own
// selection sort and one matrix Dijkstra per member on H.
TEST(EmbedOverlayGolden, RunsArePinned) {
  struct Case {
    std::uint64_t seed;
    NodeId n;
    EmbeddingPin pin;
  };
  const std::vector<Case> cases = {
      {1, 128, {{28, 38151, 1264610}, 5176305480344948961ull}},
      {2, 128, {{30, 42847, 1509426}, 2412753432629552866ull}},
      {3, 128, {{24, 26165, 849624}, 7919887812444639713ull}},
      {3, 40, {{23, 2277, 61626}, 6795246551602437457ull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "seed " << c.seed << " n " << c.n);
    SkeletonFixture fx(c.seed, c.n);
    ASSERT_LT(fx.params.k + 1, fx.set.size()) << "the pick keeps every edge";
    EXPECT_EQ(pin_embedding(fx.emb), c.pin);
    EXPECT_EQ(fx.emb.nearest_k, fx.ref.nearest_k);
    EXPECT_EQ(fx.emb.w2, fx.ref.overlay_w2);
  }
}

// Algorithms 3 and 4 reject a source set with a repeat or a node past n,
// naming the entry point and the source, before any round runs.
TEST(SourceValidation, RepeatedOrOutOfRangeSourcesAreRejected) {
  Rng rng(5);
  const auto g =
      gen::randomize_weights(gen::erdos_renyi_connected(24, 0.2, rng), 6, rng);
  const auto params = Params::make(24, unweighted_diameter(g));
  const HopScale hs{params.ell, params.eps_inv, g.max_weight()};
  std::uint64_t rounds = 0;
  congest::Config cfg;
  cfg.hooks.on_round_metrics = [&rounds](const congest::RoundMetrics&) {
    ++rounds;
  };
  const auto rejection = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const ArgumentError& e) {
      return e.what();
    }
    ADD_FAILURE() << "the call returned";
    return {};
  };
  const std::vector<std::pair<std::vector<NodeId>, std::string>> cases = {
      {{3, 7, 29}, "source 29"}, {{3, 7, 3}, "source 3"}};
  for (const auto& [sources, named] : cases) {
    SCOPED_TRACE(::testing::Message() << "bad source: " << named);
    Rng delays(1);
    const auto req = RunRequest{}
                         .with_config(cfg)
                         .with_sources(sources)
                         .with_scale(hs)
                         .with_cap(4)
                         .with_rng(delays)
                         .with_params(params);
    const std::vector<std::vector<Dist>> rows(sources.size(),
                                              std::vector<Dist>(24, 5));
    const std::pair<const char*, std::string> rejections[] = {
        {"distributed_multi_source_bhs",
         rejection([&] { (void)distributed_multi_source_bhs(g, req); })},
        {"distributed_multi_source_hop_bfs",
         rejection([&] { (void)distributed_multi_source_hop_bfs(g, req); })},
        {"distributed_embed_overlay",
         rejection([&] { (void)distributed_embed_overlay(g, rows, req); })}};
    for (const auto& [entry, what] : rejections) {
      EXPECT_NE(what.find(entry), std::string::npos) << what;
      EXPECT_NE(what.find(named), std::string::npos) << what;
    }
  }
  // Algorithm 4 also needs every approx row to span the network.
  const std::vector<std::vector<Dist>> short_rows(3, std::vector<Dist>(23, 5));
  const std::string what = rejection([&] {
    (void)distributed_embed_overlay(
        g, short_rows,
        RunRequest{}.with_config(cfg).with_sources({3, 7, 9}).with_params(
            params));
  });
  EXPECT_NE(what.find("distributed_embed_overlay"), std::string::npos) << what;
  EXPECT_EQ(rounds, 0u);
}

TEST(Skeleton, SingletonSetWorks) {
  const auto g = test_graph(5, 12, 4);
  const auto params = Params::make(12, unweighted_diameter(g));
  const auto sk = build_skeleton(g, params, {3});
  EXPECT_EQ(sk.size(), 1u);
  const auto exact = dijkstra(g, 3);
  for (NodeId v = 0; v < 12; ++v) {
    EXPECT_GE(sk.approx_distance(0, v), sk.total_scale() * exact[v]);
  }
}

TEST(Skeleton, RejectsBadSets) {
  const auto g = test_graph(6, 10, 4);
  const auto params = Params::make(10, unweighted_diameter(g));
  EXPECT_THROW(build_skeleton(g, params, {}), ArgumentError);
  EXPECT_THROW(build_skeleton(g, params, {1, 1}), ArgumentError);
  EXPECT_THROW(build_skeleton(g, params, {10}), ArgumentError);
}

}  // namespace
}  // namespace qc::paths
