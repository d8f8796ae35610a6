// Tests for the core algorithms: the Theorem 1.1 quantum weighted
// diameter/radius, the classical baselines, and the cost models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/baselines.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace qc::core {
namespace {

WeightedGraph weighted_test_graph(std::uint64_t seed, NodeId n,
                                  Weight max_w) {
  Rng rng(seed);
  auto g = gen::erdos_renyi_connected(n, 0.12, rng);
  return gen::randomize_weights(g, max_w, rng);
}

// ---------------------------------------------------------------------
// Distributed unweighted APSP
// ---------------------------------------------------------------------

class ApspTest : public ::testing::TestWithParam<int> {};

TEST_P(ApspTest, MatchesCentralizedBfsEverywhere) {
  Rng rng(50 + GetParam());
  WeightedGraph g = GetParam() % 3 == 0   ? gen::path(20)
                    : GetParam() % 3 == 1 ? gen::grid(4, 6)
                                          : gen::erdos_renyi_connected(
                                                26, 0.12, rng);
  const auto res = distributed_unweighted_apsp(g);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto ref = bfs_distances(g, s);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(res.dist[v][s], ref[v]) << "s=" << s << " v=" << v;
    }
  }
}

TEST_P(ApspTest, RoundsLinearInN) {
  Rng rng(80 + GetParam());
  const auto g = gen::erdos_renyi_connected(30, 0.15, rng);
  const auto res = distributed_unweighted_apsp(g);
  const Dist d = unweighted_diameter(g);
  // Token walk ~3n plus wave tail; generous constant.
  EXPECT_LE(res.stats.rounds, 6 * 30 + 4 * d + 20);
  EXPECT_GE(res.stats.rounds, 30u);  // must at least walk the token
}

INSTANTIATE_TEST_SUITE_P(Cases, ApspTest, ::testing::Range(0, 6));

TEST(ClassicalBaseline, DiameterAndRadiusExact) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    const auto g = gen::erdos_renyi_connected(24, 0.15, rng);
    const auto d = classical_unweighted_diameter(g);
    const auto r = classical_unweighted_radius(g);
    EXPECT_EQ(d.value, unweighted_diameter(g));
    const auto ecc = eccentricities(g.unweighted_copy());
    EXPECT_EQ(r.value, *std::min_element(ecc.begin(), ecc.end()));
  }
}

TEST(ClassicalBaseline, PathDiameter) {
  const auto g = gen::path(15);
  EXPECT_EQ(classical_unweighted_diameter(g).value, 14u);
  EXPECT_EQ(classical_unweighted_radius(g).value, 7u);
}

// ---------------------------------------------------------------------
// Quantum unweighted search (LGM-style instantiation)
// ---------------------------------------------------------------------

TEST(QuantumUnweighted, FindsDiameterOnStructuredGraphs) {
  int hits = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = gen::grid(5, 6);
    const auto res = quantum_unweighted_diameter(g, seed);
    hits += (res.value == unweighted_diameter(g));
    EXPECT_GT(res.rounds, 0u);
  }
  EXPECT_GE(hits, 9);
}

TEST(QuantumUnweighted, RadiusOnPath) {
  int hits = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto res = quantum_unweighted_radius(gen::path(21), seed);
    hits += (res.value == 10u);
  }
  EXPECT_GE(hits, 9);
}

TEST(QuantumUnweighted, ChargesCallsTimesEval) {
  const auto g = gen::grid(4, 5);
  const auto res = quantum_unweighted_diameter(g, 7);
  EXPECT_GT(res.oracle_calls, 0u);
  EXPECT_GT(res.eval_rounds, 0u);
  // rounds = calls * (setup + eval) with setup <= eval.
  EXPECT_GE(res.rounds, res.oracle_calls * res.eval_rounds);
  EXPECT_LE(res.rounds, 2 * res.oracle_calls * res.eval_rounds);
}

// ---------------------------------------------------------------------
// Theorem 1.1
// ---------------------------------------------------------------------

// gtest prints the raw bytes of a case into its test name, so every field
// is 64 bits wide: a padding hole would put uninitialized bytes there.
struct T11Case {
  std::uint64_t seed;
  std::uint64_t n;
  Weight max_w;
};

class Theorem11Test : public ::testing::TestWithParam<T11Case> {};

TEST_P(Theorem11Test, DiameterWithinApproximationBound) {
  const auto c = GetParam();
  const auto g =
      weighted_test_graph(c.seed, static_cast<NodeId>(c.n), c.max_w);
  Theorem11Options opt;
  opt.seed = c.seed;
  opt.census = true;
  const auto res = quantum_weighted_diameter(g, opt);
  EXPECT_TRUE(res.distributed_value_matches);
  EXPECT_GE(res.good_sets, 1u) << "no good set sampled (seed effect)";
  EXPECT_GE(res.ratio, 1.0 - 1e-9);
  EXPECT_LE(res.ratio, (1 + res.epsilon) * (1 + res.epsilon) + 1e-9);
  EXPECT_TRUE(res.within_bound);
  EXPECT_GT(res.rounds, 0u);
  EXPECT_EQ(res.rounds, res.t0_outer +
                            res.outer_calls * (res.t1_outer + res.t2_outer));
  EXPECT_EQ(res.t2_outer,
            res.measured.t0_rounds +
                res.inner_budget_calls * (res.measured.t_setup_rounds +
                                          res.measured.t_eval_rounds));
}

TEST_P(Theorem11Test, RadiusWithinApproximationBound) {
  const auto c = GetParam();
  const auto g = weighted_test_graph(c.seed + 1000, static_cast<NodeId>(c.n),
                                     c.max_w);
  Theorem11Options opt;
  opt.seed = c.seed;
  opt.census = true;
  const auto res = quantum_weighted_radius(g, opt);
  EXPECT_TRUE(res.distributed_value_matches);
  EXPECT_GE(res.ratio, 1.0 - 1e-9);
  EXPECT_LE(res.ratio, (1 + res.epsilon) * (1 + res.epsilon) + 1e-9);
  EXPECT_GT(res.rounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Theorem11Test,
    ::testing::Values(T11Case{1, 24, 6}, T11Case{2, 32, 8},
                      T11Case{3, 32, 4}, T11Case{4, 40, 10},
                      T11Case{5, 48, 6}));

TEST(Theorem11, DeterministicGivenSeed) {
  const auto g = weighted_test_graph(9, 28, 5);
  Theorem11Options opt;
  opt.seed = 33;
  const auto a = quantum_weighted_diameter(g, opt);
  const auto b = quantum_weighted_diameter(g, opt);
  EXPECT_EQ(a.estimate_scaled, b.estimate_scaled);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.chosen_set, b.chosen_set);
}

TEST(Theorem11, WorksOnLowDiameterFamilies) {
  // Star-like family: D = 2, the regime where the paper's bound shines.
  Rng rng(4);
  auto g = gen::star(30);
  for (NodeId v = 1; v + 1 < 30; v += 3) g.add_edge(v, v + 1);
  g = gen::randomize_weights(g, 9, rng);
  Theorem11Options opt;
  opt.seed = 5;
  opt.census = true;
  const auto res = quantum_weighted_diameter(g, opt);
  EXPECT_LE(res.d_hat, 2u);
  EXPECT_TRUE(res.within_bound);
}

TEST(Theorem11, WorksOnHighDiameterFamilies) {
  Rng rng(6);
  auto g = gen::path_of_cliques(6, 5);
  g = gen::randomize_weights(g, 5, rng);
  Theorem11Options opt;
  opt.seed = 7;
  opt.census = true;
  const auto res = quantum_weighted_diameter(g, opt);
  EXPECT_TRUE(res.within_bound);
  EXPECT_TRUE(res.distributed_value_matches);
}

TEST(Theorem11, CrossFamilyStress) {
  // Topology families with very different D and weight regimes.
  Rng rng(21);
  std::vector<std::pair<const char*, WeightedGraph>> families;
  families.emplace_back("hypercube",
                        gen::randomize_weights(gen::hypercube(5), 9, rng));
  families.emplace_back("barbell",
                        gen::randomize_weights(gen::barbell(8, 6), 9, rng));
  families.emplace_back(
      "random tree", gen::randomize_weights(gen::random_tree(30, rng), 9,
                                            rng));
  families.emplace_back("planted heavy pair",
                        gen::planted_heavy_pair(30, 5, 400, rng));
  families.emplace_back(
      "random regular",
      gen::randomize_weights(gen::random_regular(32, 4, rng), 9, rng));
  for (auto& [name, g] : families) {
    Theorem11Options opt;
    opt.seed = 13;
    opt.census = true;
    const auto res = quantum_weighted_diameter(g, opt);
    EXPECT_TRUE(res.within_bound) << name << ": ratio " << res.ratio;
    EXPECT_TRUE(res.distributed_value_matches) << name;
    const auto rad = quantum_weighted_radius(g, opt);
    EXPECT_TRUE(rad.within_bound) << name << " (radius)";
    // The radius witness must be a decent center: its true eccentricity
    // is within the approximation window of the radius.
    const auto ecc = eccentricities(g);
    EXPECT_LE(static_cast<double>(ecc[rad.witness]),
              (1 + rad.epsilon) * (1 + rad.epsilon) *
                      static_cast<double>(rad.exact) +
                  1e-9)
        << name;
  }
}

TEST(Theorem11, RejectsDisconnectedOrTrivial) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW(quantum_weighted_diameter(g), ArgumentError);
  EXPECT_THROW(quantum_weighted_diameter(WeightedGraph(1)), ArgumentError);
}

// ---------------------------------------------------------------------
// Cost models
// ---------------------------------------------------------------------

TEST(CostModel, Theorem11BeatsClassicalAtLowDiameter) {
  // D = polylog: n^{9/10} D^{3/10} << n for large n.
  const std::uint64_t n = 1 << 20;
  EXPECT_LT(model::theorem11_rounds(n, 10),
            model::classical_weighted_rounds(n));
}

TEST(CostModel, Theorem11CapsAtLinear) {
  const std::uint64_t n = 4096;
  // Huge D: the min{...} caps the bound at n (times polylog).
  EXPECT_LE(model::theorem11_rounds(n, n),
            static_cast<double>(n) * model::polylog(n) + 1);
}

TEST(CostModel, CrossoverNearCubeRootRegime) {
  // The advantage region is D = o(n^{1/3}): check both sides.
  const std::uint64_t n = 1 << 24;
  const auto d_small = static_cast<std::uint64_t>(std::pow(n, 1.0 / 3.0) / 8);
  const auto d_large = static_cast<std::uint64_t>(std::pow(n, 1.0 / 3.0) * 8);
  EXPECT_LT(model::theorem11_rounds(n, d_small) / model::polylog(n),
            static_cast<double>(n));
  EXPECT_GE(model::theorem11_rounds(n, d_large) / model::polylog(n),
            static_cast<double>(n) * 0.99);
}

TEST(CostModel, LowerBoundBelowUpperBound) {
  for (std::uint64_t n : {1u << 10, 1u << 14, 1u << 18}) {
    EXPECT_LT(model::theorem12_lower_bound(n), model::theorem11_rounds(n, 4));
    EXPECT_LT(model::theorem12_lower_bound(n), model::classical_lower_bound(n));
  }
}

TEST(CostModel, QuantumUnweightedBeatsThisWorkBound) {
  // Table 1's separation: unweighted sqrt(nD) is far below the weighted
  // n^{9/10} D^{3/10} at low D — weighted is strictly harder.
  const std::uint64_t n = 1 << 20;
  EXPECT_LT(model::lgm_unweighted_rounds(n, 16),
            model::theorem11_rounds(n, 16));
  // And the weighted lower bound n^{2/3} exceeds the unweighted upper
  // bound sqrt(nD) for small D (up to polylogs) — the separation claim.
  EXPECT_GT(model::theorem12_lower_bound(n) * model::polylog(n) *
                model::polylog(n) * model::polylog(n),
            model::lgm_unweighted_rounds(n, 4));
}

}  // namespace
}  // namespace qc::core
