// Tests for graph serialization (wgraph v1) and leader election.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "congest/primitives.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/rng.h"

namespace qc {
namespace {

TEST(GraphIo, RoundTripsExactly) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = gen::erdos_renyi_connected(20, 0.2, rng);
    g = gen::randomize_weights(g, 50, rng);
    const auto parsed = parse_edge_list(to_edge_list(g));
    EXPECT_EQ(parsed.node_count(), g.node_count());
    ASSERT_EQ(parsed.edge_count(), g.edge_count());
    EXPECT_EQ(parsed.edges(), g.edges());
  }
}

TEST(GraphIo, AcceptsCommentsAndBlankLines) {
  const auto g = parse_edge_list(
      "# a comment\n\nwgraph 3 2\n0 1 5\n# another\n1 2 1\n\n");
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_weight(0, 1), 5u);
  EXPECT_EQ(g.edge_weight(1, 2), 1u);
}

TEST(GraphIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_edge_list(""), ArgumentError);               // no header
  EXPECT_THROW(parse_edge_list("graph 2 1\n0 1 1\n"), ArgumentError);
  EXPECT_THROW(parse_edge_list("wgraph 2 2\n0 1 1\n"), ArgumentError);
  EXPECT_THROW(parse_edge_list("wgraph 2 1\n0 2 1\n"), ArgumentError);
  EXPECT_THROW(parse_edge_list("wgraph 2 1\n0 1 0\n"), ArgumentError);
  EXPECT_THROW(parse_edge_list("wgraph 2 1\n0 1 1 9\n"), ArgumentError);
  EXPECT_THROW(parse_edge_list("wgraph 3 2\n0 1 1\n1 0 2\n"),
               ArgumentError);  // duplicate edge
}

// Every wgraph number goes through the strict parser: `-1` used to load
// as weight 2^64 - 1, an edge every distance kernel ignores.
TEST(EdgeWeightRule, WgraphNegativeWeightNamesItsLine) {
  try {
    (void)parse_edge_list("wgraph 3 2\n0 1 -1\n1 2 1\n");
    ADD_FAILURE() << "a negative weight loaded";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_edge_list("wgraph 2 1\n0 1 4611686018427387903\n"),
               ArgumentError);  // kInfDist
  EXPECT_THROW(parse_edge_list("wgraph 2 1\n0 1 +3\n"), ArgumentError);
  EXPECT_THROW(parse_edge_list("wgraph 2 1x\n0 1 3\n"), ArgumentError);
}

TEST(GraphIo, FileRoundTrip) {
  Rng rng(5);
  auto g = gen::grid(4, 4);
  g = gen::randomize_weights(g, 9, rng);
  const auto path =
      (std::filesystem::temp_directory_path() / "qc_io_test.wg").string();
  save_graph(g, path);
  const auto loaded = load_graph(path);
  EXPECT_EQ(loaded.edges(), g.edges());
  std::filesystem::remove(path);
  EXPECT_THROW(load_graph(path + ".missing"), ArgumentError);
}

class ElectionTest : public ::testing::TestWithParam<int> {};

TEST_P(ElectionTest, AgreesOnMinIdWithinHorizon) {
  Rng rng(70 + GetParam());
  WeightedGraph g = GetParam() % 3 == 0   ? gen::path(17)
                    : GetParam() % 3 == 1 ? gen::star(12)
                                          : gen::erdos_renyi_connected(
                                                20, 0.2, rng);
  const Dist d = unweighted_diameter(g);
  const auto res = congest::elect_leader(g, d + 1);
  EXPECT_EQ(res.leader, 0u);  // min id in a dense id space
  EXPECT_LE(res.stats.rounds, d + 2);
}

INSTANTIATE_TEST_SUITE_P(Cases, ElectionTest, ::testing::Range(0, 6));

TEST(Election, ShortHorizonFailsLoudly) {
  const auto g = gen::path(12);  // D = 11
  EXPECT_THROW(congest::elect_leader(g, 2), InvariantError);
}

TEST(Election, HorizonNIsAlwaysSafe) {
  Rng rng(9);
  const auto g = gen::erdos_renyi_connected(25, 0.08, rng);
  const auto res = congest::elect_leader(g, g.node_count());
  EXPECT_EQ(res.leader, 0u);
}

}  // namespace
}  // namespace qc
