// Tests for the Theorem 1.1 driver's oracle fast path (docs/perf.md):
// pinned results and worker-count invariance, the census flag, the
// trimmed set evaluation, and the first-index tie-breaking convention
// of the witness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "paths/params.h"
#include "paths/reference.h"
#include "util/error.h"
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
// Pinned results and worker-count invariance
// ---------------------------------------------------------------------

/// One pinned run: census on, `opt.seed = seed + 17`, on
/// weighted_test_graph(seed, n, 7). The suite and test names date from
/// when the driver had four oracle modes; the literals below are what
/// the eager-serial mode returned, and all four modes agreed on them.
struct ModeCase {
  std::uint64_t seed;
  NodeId n;
  std::uint32_t radius;  // 0 = diameter; 32 bits so no padding bytes
                         // leak into the printed test name
};

struct Golden {
  ModeCase run;
  Dist estimate_scaled;
  std::uint64_t total_scale;
  std::uint64_t rounds;
  std::uint64_t outer_calls;
  std::size_t chosen_set;
  std::size_t chosen_set_size;
  NodeId witness;
  Dist exact;
  std::uint64_t good_sets;
};

constexpr Golden kGoldens[] = {
    {{1, 26, 0}, 702720, 31200, 40399049, 49, 11, 4, 13, 22, 13},
    {{2, 32, 0}, 672000, 32000, 49120622, 51, 21, 5, 12, 21, 11},
    {{3, 26, 1}, 479360, 36400, 23761715, 47, 15, 3, 22, 13, 0},
    {{4, 32, 1}, 460800, 38400, 84408553, 54, 9, 6, 13, 12, 1},
};

class OracleModeTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(OracleModeTest, AllModesAgreeWithEagerSerial) {
  const ModeCase c = GetParam();
  const auto* want =
      std::find_if(std::begin(kGoldens), std::end(kGoldens),
                   [&](const Golden& gd) { return gd.run.seed == c.seed; });
  ASSERT_NE(want, std::end(kGoldens));
  const auto g = weighted_test_graph(c.seed, c.n, 7);
  for (const unsigned w : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "workers " << w);
    Theorem11Options opt;
    opt.seed = c.seed + 17;
    opt.census = true;
    opt.oracle_workers = w;
    const auto res = c.radius ? quantum_weighted_radius(g, opt)
                              : quantum_weighted_diameter(g, opt);
    EXPECT_EQ(res.estimate_scaled, want->estimate_scaled);
    EXPECT_EQ(res.total_scale, want->total_scale);
    EXPECT_EQ(res.rounds, want->rounds);
    EXPECT_EQ(res.outer_calls, want->outer_calls);
    EXPECT_EQ(res.chosen_set, want->chosen_set);
    EXPECT_EQ(res.chosen_set_size, want->chosen_set_size);
    EXPECT_EQ(res.witness, want->witness);
    EXPECT_EQ(res.exact, want->exact);
    EXPECT_EQ(res.good_sets, want->good_sets);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, OracleModeTest,
                         ::testing::Values(kGoldens[0].run, kGoldens[1].run,
                                           kGoldens[2].run, kGoldens[3].run));

TEST(Theorem11Oracle, WorkerCountNeverChangesTheResult) {
  const auto g = weighted_test_graph(11, 30, 6);
  for (const bool radius : {false, true}) {
    Theorem11Options opt;
    opt.seed = 23;
    opt.census = true;
    opt.oracle_workers = 1;
    const auto one = radius ? quantum_weighted_radius(g, opt)
                            : quantum_weighted_diameter(g, opt);
    for (const unsigned w : {2u, 8u}) {
      opt.oracle_workers = w;
      const auto many = radius ? quantum_weighted_radius(g, opt)
                               : quantum_weighted_diameter(g, opt);
      EXPECT_TRUE(semantically_equal(one, many))
          << "workers " << w << (radius ? " (radius)" : " (diameter)");
      EXPECT_EQ(many.oracle.value_evaluations, one.oracle.value_evaluations);
      EXPECT_EQ(many.oracle.memo_hits, one.oracle.memo_hits);
    }
  }
}

// ---------------------------------------------------------------------
// Census flag
// ---------------------------------------------------------------------

TEST(Census, OffLeavesOnlyReportingFieldsEmpty) {
  const auto g = weighted_test_graph(7, 28, 8);
  Theorem11Options opt;
  opt.seed = 9;
  opt.census = true;
  const auto on = quantum_weighted_diameter(g, opt);
  opt.census = false;
  const auto off = quantum_weighted_diameter(g, opt);

  // The census populates exactly its four reporting fields...
  EXPECT_GT(on.exact, 0u);
  EXPECT_GT(on.ratio, 0.0);
  EXPECT_TRUE(on.within_bound);
  EXPECT_GE(on.good_sets, 1u);
  EXPECT_EQ(off.exact, 0u);
  EXPECT_EQ(off.ratio, 0.0);
  EXPECT_FALSE(off.within_bound);
  EXPECT_EQ(off.good_sets, 0u);

  // ...and nothing else: answer, costs, and diagnostics are untouched.
  EXPECT_EQ(on.estimate_scaled, off.estimate_scaled);
  EXPECT_EQ(on.total_scale, off.total_scale);
  EXPECT_EQ(on.estimate, off.estimate);
  EXPECT_EQ(on.epsilon, off.epsilon);
  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.t0_outer, off.t0_outer);
  EXPECT_EQ(on.t1_outer, off.t1_outer);
  EXPECT_EQ(on.t2_outer, off.t2_outer);
  EXPECT_EQ(on.outer_calls, off.outer_calls);
  EXPECT_EQ(on.inner_budget_calls, off.inner_budget_calls);
  EXPECT_EQ(on.measured.t0_rounds, off.measured.t0_rounds);
  EXPECT_EQ(on.measured.t_setup_rounds, off.measured.t_setup_rounds);
  EXPECT_EQ(on.measured.t_eval_rounds, off.measured.t_eval_rounds);
  EXPECT_EQ(on.d_hat, off.d_hat);
  EXPECT_EQ(on.chosen_set, off.chosen_set);
  EXPECT_EQ(on.chosen_set_size, off.chosen_set_size);
  EXPECT_EQ(on.witness, off.witness);
  EXPECT_EQ(on.distributed_value_matches, off.distributed_value_matches);
}

// ---------------------------------------------------------------------
// Witness tie-breaking
// ---------------------------------------------------------------------

// On a uniform-weight complete graph every node has the same (exact and
// approximate) eccentricity, so every member of the chosen set ties.
// The documented convention (theorem11.h) is that ties go to the lowest
// member index — replaying the driver's sampling stream recovers the
// chosen set's members and pins the witness to its first one.
TEST(Ties, WitnessIsLowestMemberOnUniformCompleteGraph) {
  const NodeId n = 24;
  const auto g = gen::complete(n);
  for (const bool radius : {false, true}) {
    Theorem11Options opt;
    opt.seed = 31;
    opt.census = true;
    const auto res = radius ? quantum_weighted_radius(g, opt)
                            : quantum_weighted_diameter(g, opt);
    // Replay the sampling: same d_hat -> same params -> same p, and the
    // driver draws the n sets first on a fresh Rng(seed).
    const auto params = paths::Params::make(n, res.d_hat, opt.eps_inv);
    ASSERT_EQ(params.r, res.params.r);
    Rng rng(opt.seed);
    const double p = static_cast<double>(params.r) / n;
    std::vector<std::vector<NodeId>> sets(n);
    for (std::size_t i = 0; i < n; ++i) sets[i] = rng.sample_indices(n, p);
    const auto& chosen = sets[res.chosen_set];
    ASSERT_EQ(chosen.size(), res.chosen_set_size);
    ASSERT_FALSE(chosen.empty());
    EXPECT_EQ(res.witness, chosen.front())
        << (radius ? "radius" : "diameter")
        << ": all members tie, so the witness must be the first";
  }
}

// ---------------------------------------------------------------------
// Trimmed set evaluation vs full skeleton construction
// ---------------------------------------------------------------------

TEST(EvaluateSet, MatchesBuildSkeletonExactly) {
  const auto g = weighted_test_graph(13, 30, 9);
  const auto params =
      paths::Params::make(g.node_count(), unweighted_diameter(g));
  paths::ToolkitCache cache(g, params);
  paths::SetEvalWorkspace ws;
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const auto set = rng.sample_indices(g.node_count(), 0.2);
    if (set.empty()) continue;
    const auto sk = paths::build_skeleton(
        g, params, std::vector<NodeId>(set.begin(), set.end()));
    const auto ev =
        cache.evaluate_set(std::vector<NodeId>(set.begin(), set.end()), ws);
    EXPECT_EQ(ev.total_scale, sk.total_scale());
    EXPECT_EQ(ev.total_scale, params.total_scale(set.size()));
    ASSERT_EQ(ev.member_ecc.size(), sk.size());
    for (std::uint32_t a = 0; a < sk.size(); ++a) {
      EXPECT_EQ(ev.member_ecc[a], sk.approx_eccentricity(a))
          << "trial " << trial << " member " << a;
    }
  }
}

// ---------------------------------------------------------------------
// Geometric skip sampling (Rng::sample_indices)
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Resident toolkit cache (Theorem11Options::toolkit)
// ---------------------------------------------------------------------

TEST(ResidentToolkit, MatchesPerRunCacheAndIsReused) {
  const auto g = weighted_test_graph(21, 26, 9);
  Theorem11Options opt;
  opt.seed = 4;
  opt.oracle_workers = 1;
  const auto baseline = quantum_weighted_diameter(g, opt);

  // derive_params must be exactly what the run derived.
  const auto params = derive_params(g, opt);
  EXPECT_EQ(params.eps_inv, baseline.params.eps_inv);
  EXPECT_EQ(params.r, baseline.params.r);
  EXPECT_EQ(params.ell, baseline.params.ell);
  EXPECT_EQ(params.k, baseline.params.k);

  paths::ToolkitCache cache(g, params);
  EXPECT_EQ(cache.cached_row_count(), 0u);
  opt.toolkit = &cache;
  const auto resident = quantum_weighted_diameter(g, opt);
  EXPECT_TRUE(semantically_equal(baseline, resident));
  const auto rows = cache.cached_row_count();
  EXPECT_GT(rows, 0u);

  // Second run against the warm rows: identical answer, rows retained.
  const auto again = quantum_weighted_diameter(g, opt);
  EXPECT_TRUE(semantically_equal(baseline, again));
  EXPECT_GE(cache.cached_row_count(), rows);

  // The radius run shares the same cache — Params don't depend on
  // which problem is being solved.
  Theorem11Options no_cache = opt;
  no_cache.toolkit = nullptr;
  EXPECT_TRUE(semantically_equal(quantum_weighted_radius(g, opt),
                                 quantum_weighted_radius(g, no_cache)));
}

TEST(ResidentToolkit, RejectsMismatchedCache) {
  const auto g = weighted_test_graph(22, 24, 7);
  Theorem11Options opt;
  opt.oracle_workers = 1;

  // Same data, different graph object: identity is the contract (the
  // cache holds a pointer into the graph it was built on).
  const WeightedGraph copy = g;
  paths::ToolkitCache other_graph(copy, derive_params(copy, opt));
  opt.toolkit = &other_graph;
  EXPECT_THROW(quantum_weighted_diameter(g, opt), ArgumentError);

  // Right graph, wrong Params (built under an eps_inv override the run
  // won't use).
  Theorem11Options overridden;
  overridden.eps_inv = 16;
  paths::ToolkitCache wrong_params(g, derive_params(g, overridden));
  opt.toolkit = &wrong_params;
  EXPECT_THROW(quantum_weighted_diameter(g, opt), ArgumentError);
}

TEST(SampleIndices, SortedUniqueAndEdgeCases) {
  Rng rng(5);
  EXPECT_TRUE(rng.sample_indices(0, 0.5).empty());
  EXPECT_TRUE(rng.sample_indices(100, 0.0).empty());
  const auto all = rng.sample_indices(50, 1.0);
  ASSERT_EQ(all.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(all[i], i);
  for (int t = 0; t < 20; ++t) {
    const auto s = rng.sample_indices(200, 0.3);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    for (const auto v : s) EXPECT_LT(v, 200u);
  }
}

TEST(SampleIndices, MeanTracksNP) {
  Rng rng(8);
  const std::uint32_t n = 400;
  const double p = 0.15;
  double total = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    total += static_cast<double>(rng.sample_indices(n, p).size());
  }
  const double mean = total / trials;
  // E = np = 60, sd of the mean = sqrt(np(1-p)/trials) ~ 0.5; 5 sigma.
  EXPECT_NEAR(mean, n * p, 2.5);
}

}  // namespace
}  // namespace qc::core
