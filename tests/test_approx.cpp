// Tests for the additional approximation baselines (core/approx.h):
// distributed weighted SSSP (paths::distributed_weighted_sssp), the
// folklore 2-approximation, pipelined multi-source BFS, and the
// 3/2-approximation of the unweighted diameter, with literal goldens
// for the weighted SSSP and the 2-approximation, for the BFS, and for
// the 3/2-approx and LGM rounds built on it — plus the ε-override knob
// on Theorem 1.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/approx.h"
#include "core/baselines.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "paths/distributed.h"
#include "run_digest.h"
#include "util/rng.h"

namespace qc::core {
namespace {

WeightedGraph wgraph(std::uint64_t seed, NodeId n, Weight w) {
  Rng rng(seed);
  auto g = gen::erdos_renyi_connected(n, 0.12, rng);
  return gen::randomize_weights(g, w, rng);
}

// ---------------------------------------------------------------------
// Weighted SSSP
// ---------------------------------------------------------------------

// The 2-approximation's timed-release SSSP from `source`.
paths::BoundedDistanceResult weighted_sssp(const WeightedGraph& g,
                                           NodeId source,
                                           congest::Config config = {}) {
  return paths::distributed_weighted_sssp(
      g, paths::RunRequest{}.with_source(source).with_config(
             std::move(config)));
}

class WeightedSsspTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedSsspTest, MatchesDijkstraBitExact) {
  const auto g = wgraph(GetParam(), 24, 9);
  for (NodeId s : {NodeId{0}, NodeId{11}, NodeId{23}}) {
    const auto res = weighted_sssp(g, s);
    EXPECT_EQ(res.dist, dijkstra(g, s)) << "source " << s;
  }
}

TEST_P(WeightedSsspTest, RoundsTrackWeightedEccentricity) {
  const auto g = wgraph(GetParam() + 50, 20, 7);
  const auto res = weighted_sssp(g, 0);
  const auto exact = dijkstra(g, 0);
  const Dist ecc = *std::max_element(exact.begin(), exact.end());
  EXPECT_GE(res.stats.rounds, ecc);
  EXPECT_LE(res.stats.rounds, ecc + 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSsspTest,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(WeightedSssp, PathWithHeavyEdges) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 7);
  const auto res = weighted_sssp(g, 0);
  EXPECT_EQ(res.dist, (std::vector<Dist>{0, 5, 6, 13}));
  EXPECT_LE(res.stats.rounds, 16u);
}

// One weighted SSSP or APSP run as literals: the ledger, a digest of
// the per-round traffic and a digest of every node's distances.
struct RunPin {
  congest::RunStats stats;
  std::uint64_t traffic = 0;
  std::uint64_t dist = 0;

  friend bool operator==(const RunPin&, const RunPin&) = default;
  friend void PrintTo(const RunPin& p, std::ostream* os) {
    *os << "{{" << p.stats.rounds << ", " << p.stats.messages << ", "
        << p.stats.bits << "}, " << p.traffic << "ull, " << p.dist << "ull}";
  }
};

RunPin pin_weighted_sssp(const WeightedGraph& g, NodeId source) {
  std::vector<congest::RoundMetrics> log;
  congest::Config cfg;
  cfg.hooks.on_round_metrics = [&log](const congest::RoundMetrics& m) {
    log.push_back(m);
  };
  const auto res = weighted_sssp(g, source, cfg);
  EXPECT_EQ(res.dist, dijkstra(g, source)) << "source " << source;
  std::uint64_t h = congest::fnv1a({});
  for (const Dist d : res.dist) h = congest::fnv1a({d}, h);
  return {res.stats, congest::traffic_digest(log), h};
}

// The ER graphs of the goldens below, at W = 1, 9 and 200.
struct WeightedGoldenCase {
  const char* name;
  WeightedGraph g;
};
std::vector<WeightedGoldenCase> weighted_golden_graphs() {
  std::vector<WeightedGoldenCase> out;
  out.push_back({"er(40) W=1", wgraph(61, 40, 1)});
  out.push_back({"er(48) W=9", wgraph(62, 48, 9)});
  out.push_back({"er(32) W=200", wgraph(63, 32, 200)});
  return out;
}

// RunStats, traffic and distances of the timed-release SSSP from three
// sources, as literals captured from the program that ran every node in
// every round and looked its edge weights up in a map.
TEST(WeightedSsspGolden, RunsArePinned) {
  const RunPin expected[3][3] = {
      {{{6, 182, 1092}, 8152013070648835920ull, 1540612984383001381ull},
       {{7, 182, 1092}, 3275129887313976514ull, 7405623343873749026ull},
       {{6, 182, 1092}, 9685021737641768426ull, 8695108794451917027ull}},
      {{{17, 268, 2412}, 9568260187941589508ull, 7022840777595184168ull},
       {{21, 268, 2412}, 5548402554503533885ull, 14117340418754471692ull},
       {{21, 268, 2412}, 15081957109151790058ull, 3770113092042229418ull}},
      {{{242, 140, 1820}, 2552186403084362327ull, 14819678226741384882ull},
       {{254, 140, 1820}, 14942669537485076313ull, 16246059841217184969ull},
       {{281, 140, 1820}, 5930142321366819175ull, 6028513066264136372ull}},
  };
  const auto graphs = weighted_golden_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(graphs[i].name);
    const NodeId n = graphs[i].g.node_count();
    const NodeId sources[3] = {0, n / 2, n - 1};
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(pin_weighted_sssp(graphs[i].g, sources[k]), expected[i][k])
          << "source " << sources[k];
    }
  }
}

// The 2-approximation's ledger (leader SSSP plus max aggregate) on the
// same graphs, captured alongside the goldens above.
TEST(TwoApproxGolden, StatsArePinned) {
  const congest::RunStats expected[3] = {
      {20, 481, 3250}, {28, 677, 5684}, {253, 373, 3792}};
  const auto graphs = weighted_golden_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(graphs[i].name);
    EXPECT_EQ(two_approx_weighted_diameter(graphs[i].g).stats, expected[i]);
  }
}

// ---------------------------------------------------------------------
// Weighted APSP + classical weighted extremum baselines
// ---------------------------------------------------------------------

class WeightedApspTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedApspTest, MatchesDijkstraForAllPairs) {
  const auto g = wgraph(GetParam() + 400, 18, 6);
  const auto res = distributed_weighted_apsp(g);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto ref = dijkstra(g, s);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(res.dist[v][s], ref[v]) << "s=" << s << " v=" << v;
    }
  }
}

TEST_P(WeightedApspTest, RoundsNearLinearForSmallWeights) {
  const auto g = wgraph(GetParam() + 500, 24, 4);
  const auto res = distributed_weighted_apsp(g);
  const auto ecc = eccentricities(g);
  const Dist max_ecc = *std::max_element(ecc.begin(), ecc.end());
  // Token walk ~3n + weighted wave tail + queue drain slack.
  EXPECT_LE(res.stats.rounds, 8u * g.node_count() + 6 * max_ecc + 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedApspTest,
                         ::testing::Range<std::uint64_t>(1, 6));

RunPin pin_weighted_apsp(const WeightedGraph& g) {
  std::vector<congest::RoundMetrics> log;
  congest::Config cfg;
  cfg.hooks.on_round_metrics = [&log](const congest::RoundMetrics& m) {
    log.push_back(m);
  };
  const auto res = distributed_weighted_apsp(g, cfg);
  std::uint64_t h = congest::fnv1a({});
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto ref = dijkstra(g, s);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(res.dist[v][s], ref[v]) << "s=" << s << " v=" << v;
    }
  }
  for (const auto& row : res.dist) {
    for (const Dist d : row) h = congest::fnv1a({d}, h);
  }
  return {res.stats, congest::traffic_digest(log), h};
}

// RunStats (BFS tree plus the staggered waves), traffic and every
// node's distance row of the weighted APSP on the golden graphs, as
// literals captured from the program that looked its edge weights up
// in a map keyed by sender id.
TEST(WeightedApspGolden, RunsArePinned) {
  const RunPin expected[3] = {
      {{126, 7579, 103389}, 4095289742844147073ull, 8105213287677523557ull},
      {{150, 19130, 320368}, 4970019990665332822ull, 15913597344302718245ull},
      {{102, 7744, 151215}, 9270351923999056225ull, 16522633715633212713ull},
  };
  const auto graphs = weighted_golden_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(graphs[i].name);
    EXPECT_EQ(pin_weighted_apsp(graphs[i].g), expected[i]);
  }
}

TEST(ClassicalWeighted, DiameterAndRadiusExact) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto g = wgraph(seed + 600, 20, 7);
    EXPECT_EQ(classical_weighted_diameter(g).value, weighted_diameter(g));
    EXPECT_EQ(classical_weighted_radius(g).value, weighted_radius(g));
  }
}

TEST(ClassicalWeighted, HeavyEdgeGraph) {
  WeightedGraph g(5);
  g.add_edge(0, 1, 100);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(3, 4, 1);
  g.add_edge(4, 0, 1);
  EXPECT_EQ(classical_weighted_diameter(g).value, weighted_diameter(g));
}

// ---------------------------------------------------------------------
// 2-approximation
// ---------------------------------------------------------------------

class TwoApproxTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoApproxTest, BoundsSandwichDiameterAndRadius) {
  const auto g = wgraph(GetParam() + 100, 22, 8);
  const auto res = two_approx_weighted_diameter(g);
  const Dist d = weighted_diameter(g);
  const Dist r = weighted_radius(g);
  EXPECT_GE(res.ecc_leader, r);           // any ecc >= radius
  EXPECT_LE(res.ecc_leader, d);           // any ecc <= diameter
  EXPECT_GE(res.upper_bound, d);          // 2*ecc >= diameter
  EXPECT_LE(res.upper_bound, 2 * d);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoApproxTest,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Multi-source BFS
// ---------------------------------------------------------------------

class MultiBfsTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiBfsTest, MatchesBfsOnAllTopologies) {
  Rng rng(200 + GetParam());
  WeightedGraph g = GetParam() % 3 == 0   ? gen::path(22)
                    : GetParam() % 3 == 1 ? gen::grid(5, 5)
                                          : gen::erdos_renyi_connected(
                                                28, 0.12, rng);
  const std::vector<NodeId> sources{0, 3, 7,
                                    static_cast<NodeId>(g.node_count() - 1)};
  Rng delays(GetParam());
  const auto res = distributed_multi_source_bfs(g, sources, delays);
  for (std::size_t a = 0; a < sources.size(); ++a) {
    EXPECT_EQ(res.dist[a], bfs_distances(g, sources[a])) << "a=" << a;
  }
  EXPECT_LE(res.attempts, 3u);
}

TEST_P(MultiBfsTest, RoundsScaleAsSourcesPlusDiameter) {
  Rng rng(300 + GetParam());
  const auto g = gen::erdos_renyi_connected(32, 0.15, rng);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < 8; ++v) sources.push_back(v * 4);
  Rng delays(GetParam() + 9);
  const auto res = distributed_multi_source_bfs(g, sources, delays);
  const Dist d = unweighted_diameter(g);
  const std::uint32_t slots = clog2(32);
  // (b*slots delays + 2D cap + overheads) * slots + preamble.
  EXPECT_LE(res.stats.rounds,
            res.attempts * slots * (8 * slots + 2 * d + 4) + 20 * d + 40);
}

INSTANTIATE_TEST_SUITE_P(Cases, MultiBfsTest, ::testing::Range(0, 6));

std::uint64_t rows_digest(const std::vector<std::vector<Dist>>& rows) {
  std::uint64_t h = congest::fnv1a({rows.size()});
  for (const auto& row : rows) {
    for (const Dist d : row) h = congest::fnv1a({d}, h);
  }
  return h;
}

// RunStats, attempts and a digest of every node's distances, as
// literals captured from the random-delay BFS that ran every node in
// every round. The hypercube retries once; on path(8) the leader's
// eccentricity is 7, so the cap is 15 and the distance field needs
// bits_for(17) = 5 bits, one more than bits_for(16).
TEST(MultiBfsGolden, RunsArePinned) {
  Rng er_rng(12);
  const struct {
    const char* name;
    WeightedGraph g;
    std::vector<NodeId> sources;
    std::uint64_t seed;
    congest::RunStats stats;
    std::uint32_t attempts;
    std::uint64_t digest;
  } cases[] = {
      {"hypercube(2)", gen::hypercube(2), {0, 1, 2, 3}, 8, {85, 124, 729}, 2,
       4773020080802085825ull},
      {"path(8)", gen::path(8), {0, 3, 7}, 5, {111, 140, 763}, 1,
       243113072448735586ull},
      {"er(40)", gen::erdos_renyi_connected(40, 0.1, er_rng),
       {0, 5, 10, 15, 20, 25, 30, 35}, 21, {338, 3360, 29043}, 1,
       10556893036022445195ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(c.seed);
    const auto res = distributed_multi_source_bfs(c.g, c.sources, rng);
    EXPECT_EQ(res.stats, c.stats);
    EXPECT_EQ(res.attempts, c.attempts);
    EXPECT_EQ(rows_digest(res.dist), c.digest);
    for (std::size_t a = 0; a < c.sources.size(); ++a) {
      EXPECT_EQ(res.dist[a], bfs_distances(c.g, c.sources[a])) << "a=" << a;
    }
  }
}

// The baselines built on the BFS above, on one ER graph large enough
// that the 3/2-approximation samples a proper subset of the nodes.
TEST(UnweightedBaselineGolden, RoundsArePinned) {
  Rng rng(31);
  const auto g = gen::erdos_renyi_connected(128, 0.05, rng);
  const auto th = three_halves_unweighted_diameter(g, 4);
  EXPECT_EQ(th.stats, (congest::RunStats{6134, 210642, 2909150}));
  EXPECT_EQ(th.estimate, 7u);
  EXPECT_EQ(th.sample_size, 119u);
  const auto dia = lgm_quantum_unweighted_diameter(g, 4);
  EXPECT_EQ(dia.rounds, 33927u);
  EXPECT_EQ(dia.eval_rounds, 445u);
  EXPECT_EQ(dia.value, 7u);
  const auto rad = lgm_quantum_unweighted_radius(g, 4);
  EXPECT_EQ(rad.rounds, 34835u);
  EXPECT_EQ(rad.eval_rounds, 451u);
  EXPECT_EQ(rad.value, 4u);
}

// ---------------------------------------------------------------------
// 3/2-approximation
// ---------------------------------------------------------------------

// Both fields are 64-bit so the struct has no padding: gtest prints an
// unprintable parameter byte by byte into the test name, and padding
// bytes would make that name change from run to run.
struct ThreeHalvesCase {
  std::uint64_t topology;
  std::uint64_t seed;
};

class ThreeHalvesTest : public ::testing::TestWithParam<ThreeHalvesCase> {};

TEST_P(ThreeHalvesTest, EstimateWithinWindow) {
  const auto c = GetParam();
  Rng rng(c.seed);
  WeightedGraph g = c.topology == 0   ? gen::path(40)
                    : c.topology == 1 ? gen::grid(6, 7)
                    : c.topology == 2 ? gen::path_of_cliques(8, 4)
                                      : gen::erdos_renyi_connected(
                                            40, 0.1, rng);
  const auto res = three_halves_unweighted_diameter(g, c.seed);
  EXPECT_LE(res.estimate, res.exact);
  EXPECT_GE(res.estimate, res.exact * 2 / 3)
      << "estimate " << res.estimate << " exact " << res.exact;
  EXPECT_EQ(res.exact, unweighted_diameter(g));
  EXPECT_GE(res.sample_size, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ThreeHalvesTest,
    ::testing::Values(ThreeHalvesCase{0, 1}, ThreeHalvesCase{0, 2},
                      ThreeHalvesCase{1, 3}, ThreeHalvesCase{1, 4},
                      ThreeHalvesCase{2, 5}, ThreeHalvesCase{2, 6},
                      ThreeHalvesCase{3, 7}, ThreeHalvesCase{3, 8}));

TEST(ThreeHalves, SubLinearRoundsOnLowDiameterGraphs) {
  Rng rng(9);
  const auto g = gen::erdos_renyi_connected(64, 0.12, rng);
  const auto res = three_halves_unweighted_diameter(g, 3);
  // Õ(sqrt(n) + D): generous polylog allowance, but strictly below the
  // Θ(n)-ish cost of exact APSP at this size would be ~6n.
  const Dist d = unweighted_diameter(g);
  const double budget =
      (std::sqrt(64.0) * clog2(64) + 2.0 * d) * clog2(64) * 8;
  EXPECT_LE(static_cast<double>(res.stats.rounds), budget);
}

// ---------------------------------------------------------------------
// Theorem 1.1 ε override
// ---------------------------------------------------------------------

TEST(Theorem11Eps, TighterEpsilonTightensBoundAndCostsMore) {
  Rng rng(4);
  auto g = gen::erdos_renyi_connected(28, 0.15, rng);
  g = gen::randomize_weights(g, 6, rng);

  Theorem11Options loose;
  loose.seed = 11;
  loose.census = true;
  loose.eps_inv = 2;  // eps = 1/2
  const auto a = quantum_weighted_diameter(g, loose);

  Theorem11Options tight = loose;
  tight.eps_inv = 12;  // eps = 1/12
  const auto b = quantum_weighted_diameter(g, tight);

  EXPECT_NEAR(a.epsilon, 0.5, 1e-12);
  EXPECT_NEAR(b.epsilon, 1.0 / 12, 1e-12);
  EXPECT_TRUE(a.within_bound);
  EXPECT_TRUE(b.within_bound);
  // The tighter run must charge more rounds (longer caps, more scales).
  EXPECT_GT(b.rounds, a.rounds);
  // And its realized ratio bound is tighter.
  EXPECT_LT((1 + b.epsilon) * (1 + b.epsilon),
            (1 + a.epsilon) * (1 + a.epsilon));
}

}  // namespace
}  // namespace qc::core
