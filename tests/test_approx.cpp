// Tests for the additional approximation baselines (core/approx.h):
// distributed weighted SSSP (paths::distributed_weighted_sssp), the
// folklore 2-approximation, pipelined multi-source BFS, and the
// 3/2-approximation of the unweighted diameter, with literal goldens
// for the weighted SSSP and the 2-approximation, for the BFS, and for
// the 3/2-approx and LGM rounds built on it; the token-walk APSP behind
// both classical exact rows of Table 1 (core/baselines.h), pinned,
// under delays, on the pool and against the fault plans it refuses —
// plus the ε-override knob on Theorem 1.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

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
// Token-walk APSP: both classical exact rows of Table 1
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

// The unweighted (`unit`) or weighted APSP under `cfg`, pinned: every
// node's row is checked against BFS or Dijkstra and digested.
RunPin pin_apsp(const WeightedGraph& g, bool unit, congest::Config cfg = {}) {
  std::vector<congest::RoundMetrics> log;
  cfg.hooks.on_round_metrics = [&log](const congest::RoundMetrics& m) {
    log.push_back(m);
  };
  const auto res = unit ? distributed_unweighted_apsp(g, cfg)
                        : distributed_weighted_apsp(g, cfg);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto ref = unit ? bfs_distances(g, s) : dijkstra(g, s);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(res.dist[v][s], ref[v]) << "s=" << s << " v=" << v;
    }
  }
  std::uint64_t h = congest::fnv1a({});
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
    EXPECT_EQ(pin_apsp(graphs[i].g, false), expected[i]);
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

// The weighted golden graphs plus four structured ones.
std::vector<WeightedGoldenCase> apsp_golden_graphs() {
  auto out = weighted_golden_graphs();
  out.push_back({"path(20)", gen::path(20)});
  out.push_back({"grid(4,6)", gen::grid(4, 6)});
  out.push_back({"hypercube(5)", gen::hypercube(5)});
  out.push_back({"star(24)", gen::star(24)});
  return out;
}

// The unweighted APSP's RunStats and distance rows, as literals captured
// from the program that broadcast every improvement on arrival. The
// traffic digests are the token walk's: its root's first wave leaves
// through the label queue in round 0 rather than from on_start, which
// moves the first rounds' traffic and no total.
TEST(UnweightedApspGolden, RunsArePinned) {
  const RunPin expected[7] = {
      {{126, 7579, 110669}, 15761988843599752223ull, 8105213287677523557ull},
      {{149, 13273, 195071}, 3940167443101515813ull, 7257093834633799525ull},
      {{99, 4713, 59235}, 9608532765587794178ull, 12910217806475264997ull},
      {{79, 855, 10203}, 13815596470830570502ull, 13563880110488323045ull},
      {{85, 1969, 24283}, 5360044835777841505ull, 15034466296830319653ull},
      {{105, 5373, 67675}, 1142655251920144427ull, 14699706687407252261ull},
      {{74, 1219, 14743}, 15792935810595378016ull, 7109872545545675429ull},
  };
  const auto graphs = apsp_golden_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(graphs[i].name);
    EXPECT_EQ(pin_apsp(graphs[i].g, true), expected[i]);
  }
}

struct ExtremumPin {
  congest::RunStats stats;
  Dist value = 0;

  friend bool operator==(const ExtremumPin&, const ExtremumPin&) = default;
  friend void PrintTo(const ExtremumPin& p, std::ostream* os) {
    *os << "{{" << p.stats.rounds << ", " << p.stats.messages << ", "
        << p.stats.bits << "}, " << p.value << "}";
  }
};

// RunStats and value of the unweighted diameter and radius and the
// weighted diameter and radius, as literals captured when each row of
// Table 1 had its own program and extremum function.
TEST(ClassicalExtremumGolden, StatsArePinned) {
  const ExtremumPin expected[7][4] = {
      {{{140, 7878, 112827}, 5}, {{140, 7878, 112827}, 3},
       {{140, 7878, 105547}, 5}, {{140, 7878, 105547}, 3}},
      {{{160, 13682, 198061}, 4}, {{160, 13682, 198061}, 3},
       {{161, 19539, 323640}, 22}, {{161, 19539, 323640}, 12}},
      {{{110, 4946, 60711}, 5}, {{110, 4946, 60711}, 3},
       {{113, 7977, 153187}, 354}, {{113, 7977, 153187}, 209}},
      {{{138, 950, 10773}, 19}, {{138, 950, 10773}, 10},
       {{138, 950, 10013}, 19}, {{138, 950, 10013}, 10}},
      {{{111, 2114, 25183}, 8}, {{111, 2114, 25183}, 5},
       {{111, 2114, 23359}, 8}, {{111, 2114, 23359}, 5}},
      {{{122, 5626, 69291}, 5}, {{122, 5626, 69291}, 5},
       {{122, 5626, 69353}, 5}, {{122, 5626, 69353}, 5}},
      {{{79, 1334, 15433}, 2}, {{79, 1334, 15433}, 1},
       {{79, 1334, 14329}, 2}, {{79, 1334, 14329}, 1}},
  };
  const auto graphs = apsp_golden_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(graphs[i].name);
    const WeightedGraph& g = graphs[i].g;
    const ClassicalExtremumResult runs[4] = {
        classical_unweighted_diameter(g), classical_unweighted_radius(g),
        classical_weighted_diameter(g), classical_weighted_radius(g)};
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ((ExtremumPin{runs[k].stats, runs[k].value}), expected[i][k])
          << "extremum " << k;
    }
  }
}

// Labels relax Bellman–Ford style, so delays move rounds but never a
// distance. Broadcasting every improvement on arrival would overrun the
// bandwidth here (52 bits > B = 40 on seed 2); the label queue keeps
// each round within it.
TEST(TokenWalkApsp, ExactUnderDelayOnlyPlans) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    auto g = gen::erdos_renyi_connected(30, 0.15, rng);
    g = gen::randomize_weights(g, 9, rng);
    congest::Config cfg;
    cfg.faults.seed = seed;
    cfg.faults.probabilities.delay = 0.3;
    cfg.faults.probabilities.delay_rounds =
        1 + static_cast<std::uint32_t>(seed % 4);
    for (const bool unit : {true, false}) {
      (void)pin_apsp(g, unit, cfg);
    }
  }
}

TEST(TokenWalkApsp, IdenticalAtAnyWorkerCount) {
  const auto g = wgraph(64, 48, 9);
  congest::FaultPlan delays;
  delays.seed = 3;
  delays.probabilities.delay = 0.3;
  delays.probabilities.delay_rounds = 2;
  for (const bool unit : {true, false}) {
    SCOPED_TRACE(unit ? "unweighted" : "weighted");
    congest::Config serial;
    congest::Config pooled;
    pooled.execution.workers = 4;
    pooled.execution.pooled_round_min_work = 0;
    const RunPin fault_free = pin_apsp(g, unit, serial);
    EXPECT_EQ(pin_apsp(g, unit, pooled), fault_free);
    serial.faults = delays;
    pooled.faults = delays;
    const RunPin delayed = pin_apsp(g, unit, serial);
    EXPECT_NE(delayed.traffic, fault_free.traffic);  // the plan fired
    EXPECT_EQ(pin_apsp(g, unit, pooled), delayed);
  }
}

// A plan the walk cannot survive is refused by both APSPs and the
// extrema on them, naming the entry point, before any round runs.
// The events name grid edge {0, 1}.
void expect_token_walk_rejects(const congest::FaultPlan& plan) {
  Rng rng(65);
  const auto g = gen::randomize_weights(gen::grid(4, 6), 9, rng);
  std::uint64_t rounds_run = 0;
  congest::Config cfg;
  cfg.faults = plan;
  cfg.hooks.on_round_metrics = [&](const congest::RoundMetrics&) {
    ++rounds_run;
  };
  const struct {
    const char* primitive;
    std::function<void()> run;
  } calls[] = {
      {"distributed_unweighted_apsp",
       [&] { (void)distributed_unweighted_apsp(g, cfg); }},
      {"distributed_weighted_apsp",
       [&] { (void)distributed_weighted_apsp(g, cfg); }},
      {"distributed_unweighted_apsp",
       [&] { (void)classical_unweighted_radius(g, cfg); }},
      {"distributed_weighted_apsp",
       [&] { (void)classical_weighted_diameter(g, cfg); }},
  };
  for (const auto& call : calls) {
    try {
      call.run();
      ADD_FAILURE() << call.primitive << " ran under the plan";
    } catch (const ArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(call.primitive), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(rounds_run, 0u);
}

congest::FaultPlan event_plan(congest::FaultKind kind) {
  congest::FaultPlan plan;
  plan.events.push_back({.round = 3, .from = 0, .to = 1, .kind = kind});
  return plan;
}

// Without retransmission a dropped token never arrives.
TEST(TokenWalkApsp, RejectsDropPlans) {
  congest::FaultPlan p;
  p.probabilities.drop = 0.05;
  expect_token_walk_rejects(p);
  expect_token_walk_rejects(event_plan(congest::FaultKind::kDrop));
}

// A duplicated adopt lists a child twice in the BFS tree, and the
// token never returns from its second visit.
TEST(TokenWalkApsp, RejectsDuplicatePlans) {
  congest::FaultPlan p;
  p.probabilities.duplicate = 0.1;
  expect_token_walk_rejects(p);
  expect_token_walk_rejects(event_plan(congest::FaultKind::kDuplicate));
}

// A corrupted source id would index a node's label table past n.
TEST(TokenWalkApsp, RejectsCorruptPlans) {
  congest::FaultPlan p;
  p.probabilities.corrupt = 0.01;
  expect_token_walk_rejects(p);
  expect_token_walk_rejects(event_plan(congest::FaultKind::kCorrupt));
}

TEST(TokenWalkApsp, RejectsLinkDownPlans) {
  congest::FaultPlan p;
  p.link_down.push_back({.a = 0, .b = 1, .first_round = 2, .last_round = 5});
  expect_token_walk_rejects(p);
}

TEST(TokenWalkApsp, RejectsCrashPlans) {
  congest::FaultPlan p;
  p.crashes.push_back({.node = 5, .round = 10});
  expect_token_walk_rejects(p);
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
