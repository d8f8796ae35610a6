// Unit and property tests for src/graph: the graph type, generators,
// centralized reference algorithms, and the Lemma 4.3 contraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <numeric>
#include <queue>
#include <string>
#include <utility>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/slot_index.h"
#include "graph/update.h"
#include "util/rng.h"

namespace qc {
namespace {

TEST(WeightedGraph, AddAndQueryEdges) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_weight(0, 1), 5u);
  EXPECT_EQ(g.edge_weight(2, 1), 1u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  g.validate();
}

TEST(WeightedGraph, RejectsBadEdges) {
  WeightedGraph g(3);
  EXPECT_THROW(g.add_edge(0, 0), ArgumentError);       // self loop
  EXPECT_THROW(g.add_edge(0, 3), ArgumentError);       // out of range
  EXPECT_THROW(g.add_edge(0, 1, 0), ArgumentError);    // zero weight
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), ArgumentError);       // parallel
}

// Weights are integers in [1, kInfDist): every distance kernel reads a
// weight at or past kInfDist as a missing edge.
TEST(EdgeWeightRule, FromEdgesRejectsInfDist) {
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, kInfDist}}),
               ArgumentError);
  EXPECT_EQ(WeightedGraph::from_edges(2, {{0, 1, kInfDist - 1}}).max_weight(),
            kInfDist - 1);
}

TEST(EdgeWeightRule, UpdateRejectsInfDist) {
  WeightedGraph g = gen::path(3);
  EXPECT_THROW(g.apply(GraphUpdate{}.insert(0, 2, kInfDist)), ArgumentError);
  EXPECT_THROW(g.apply(GraphUpdate{}.reweight(0, 1, kInfDist)),
               ArgumentError);
  EXPECT_THROW(g.set_edge_weight(0, 1, kInfDist), ArgumentError);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge_weight(0, 1), 1u);
}

TEST(WeightedGraph, SetEdgeWeight) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 4);
  g.set_edge_weight(1, 0, 9);
  EXPECT_EQ(g.edge_weight(0, 1), 9u);
  EXPECT_EQ(g.edges()[0].weight, 9u);
  EXPECT_THROW(g.set_edge_weight(0, 2, 1), ArgumentError);
  g.validate();
}

TEST(WeightedGraph, UnweightedCopyAndReweight) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 7);
  g.add_edge(1, 2, 3);
  const auto u = g.unweighted_copy();
  EXPECT_EQ(u.edge_weight(0, 1), 1u);
  const auto d = g.reweighted([](Weight w) { return 2 * w; });
  EXPECT_EQ(d.edge_weight(0, 1), 14u);
  EXPECT_EQ(g.max_weight(), 7u);
}

TEST(WeightedGraph, Connectivity) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(WeightedGraph(1).is_connected());
}

TEST(WeightedGraph, DotExportMentionsWeights) {
  WeightedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2, 5);
  const std::string dot = to_dot(g, "T");
  EXPECT_NE(dot.find("graph T"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("[label=5]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

TEST(Generators, PathShape) {
  const auto g = gen::path(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(unweighted_diameter(g), 4u);
}

TEST(Generators, CycleShape) {
  const auto g = gen::cycle(6);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(unweighted_diameter(g), 3u);
}

TEST(Generators, StarShape) {
  const auto g = gen::star(9);
  EXPECT_EQ(g.edge_count(), 8u);
  EXPECT_EQ(unweighted_diameter(g), 2u);
}

TEST(Generators, CompleteShape) {
  const auto g = gen::complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(unweighted_diameter(g), 1u);
}

TEST(Generators, BalancedTreeShape) {
  const auto g = gen::balanced_binary_tree(15);
  EXPECT_EQ(g.edge_count(), 14u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(unweighted_diameter(g), 6u);  // leaf-to-leaf via root
}

TEST(Generators, GridShape) {
  const auto g = gen::grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3u + 2u * 4u);
  EXPECT_EQ(unweighted_diameter(g), 5u);
}

TEST(Generators, PathOfCliques) {
  const auto g = gen::path_of_cliques(4, 5);
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_TRUE(g.is_connected());
  // Diameter is about one hop per clique plus bridges.
  EXPECT_GE(unweighted_diameter(g), 4u);
  EXPECT_LE(unweighted_diameter(g), 8u);
}

class ErdosRenyiTest : public ::testing::TestWithParam<double> {};

TEST_P(ErdosRenyiTest, AlwaysConnected) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = gen::erdos_renyi_connected(40, GetParam(), rng);
    EXPECT_TRUE(g.is_connected());
    g.validate();
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, ErdosRenyiTest,
                         ::testing::Values(0.0, 0.02, 0.1, 0.3, 0.9));

TEST(Generators, RandomTreeIsTree) {
  Rng rng(7);
  for (NodeId n : {NodeId{1}, NodeId{2}, NodeId{17}, NodeId{60}}) {
    const auto g = gen::random_tree(n, rng);
    EXPECT_EQ(g.edge_count(), std::size_t{n} - 1);
    EXPECT_TRUE(g.is_connected());
    g.validate();
  }
}

TEST(Generators, BarbellShape) {
  const auto g = gen::barbell(5, 3);
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_TRUE(g.is_connected());
  // D = 1 (in-clique) + 1 + bridge + 1 + 1 = bridge + 4? Endpoints of
  // opposite cliques: 1 hop to the bridge attachment, bridge+1 hops
  // across, 1 hop in.
  EXPECT_EQ(unweighted_diameter(g), 3u + 3u);
  const auto g0 = gen::barbell(4, 0);
  EXPECT_TRUE(g0.is_connected());
  EXPECT_EQ(g0.node_count(), 8u);
}

TEST(Generators, HypercubeShape) {
  const auto g = gen::hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.edge_count(), 32u);  // n * d / 2
  EXPECT_EQ(unweighted_diameter(g), 4u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, RandomRegularNearRegularAndConnected) {
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = gen::random_regular(40, 4, rng);
    EXPECT_TRUE(g.is_connected());
    g.validate();
    std::size_t total_degree = 0;
    for (NodeId v = 0; v < 40; ++v) total_degree += g.degree(v);
    // Approximately 4-regular (loops/duplicates dropped, repair added).
    EXPECT_GE(total_degree, 40u * 3);
    EXPECT_LE(total_degree, 40u * 5);
    // Expander-like: low diameter.
    EXPECT_LE(unweighted_diameter(g), 8u);
  }
}

TEST(Generators, PlantedHeavyPairStretchesTheMetric) {
  Rng rng(17);
  const auto plain = gen::randomize_weights(
      gen::erdos_renyi_connected(30, 0.1, rng), 5, rng);
  Rng rng2(17);
  const auto planted = gen::planted_heavy_pair(30, 5, 500, rng2);
  // Node n-1 is far from everyone in the planted graph.
  const auto d = dijkstra(planted, 0);
  EXPECT_GT(d[29], 500u);
  EXPECT_GE(weighted_diameter(planted), 500u);
  EXPECT_LT(weighted_diameter(plain), 200u);
}

TEST(Generators, RandomWeightsStayInRange) {
  Rng rng(5);
  const auto g = gen::randomize_weights(gen::grid(4, 4), 10, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 1u);
    EXPECT_LE(e.weight, 10u);
  }
}

// ---------------------------------------------------------------------
// Reference algorithms
// ---------------------------------------------------------------------

TEST(Algorithms, BfsOnPath) {
  const auto g = gen::path(6);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Algorithms, BfsUnreachableIsInf) {
  WeightedGraph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(bfs_distances(g, 0)[2], kInfDist);
}

TEST(Algorithms, DijkstraMatchesBfsOnUnitWeights) {
  Rng rng(3);
  const auto g = gen::erdos_renyi_connected(30, 0.1, rng);
  for (NodeId s = 0; s < 30; s += 7) {
    EXPECT_EQ(dijkstra(g, s), bfs_distances(g, s));
  }
}

TEST(Algorithms, DijkstraWeightedPath) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  g.add_edge(0, 2, 10);
  g.add_edge(2, 3, 1);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], 5u);  // through node 1, not the direct 10-edge
  EXPECT_EQ(d[3], 6u);
}

TEST(Algorithms, DijkstraWithHopsPrefersFewerEdgesAmongShortest) {
  // Two shortest paths of weight 4: 0-1-2-3 (3 hops) and 0-4-3 (2 hops).
  WeightedGraph g(5);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 1);
  g.add_edge(0, 4, 2);
  g.add_edge(4, 3, 2);
  const auto dh = dijkstra_with_hops(g, 0);
  EXPECT_EQ(dh.dist[3], 4u);
  EXPECT_EQ(dh.hops[3], 2u);
}

TEST(Algorithms, BoundedHopDistancesConverge) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(0, 2, 5);
  g.add_edge(2, 3, 1);
  EXPECT_EQ(bounded_hop_distances(g, 0, 1)[2], 5u);   // direct edge only
  EXPECT_EQ(bounded_hop_distances(g, 0, 2)[2], 2u);   // two-hop path
  EXPECT_EQ(bounded_hop_distances(g, 0, 1)[3], kInfDist);
  EXPECT_EQ(bounded_hop_distances(g, 0, 8)[3], 3u);
}

TEST(Algorithms, BoundedHopMonotoneInEll) {
  Rng rng(21);
  auto g = gen::erdos_renyi_connected(24, 0.12, rng);
  g = gen::randomize_weights(g, 9, rng);
  const auto exact = dijkstra(g, 0);
  std::vector<Dist> prev(24, kInfDist);
  for (std::uint64_t ell = 1; ell <= 24; ++ell) {
    const auto cur = bounded_hop_distances(g, 0, ell);
    for (NodeId v = 0; v < 24; ++v) {
      EXPECT_LE(cur[v], prev[v]);
      EXPECT_GE(cur[v], exact[v]);
    }
    prev = cur;
  }
  EXPECT_EQ(prev, exact);  // n-1 hops suffice
}

TEST(Algorithms, EccentricityDiameterRadiusConsistency) {
  Rng rng(31);
  auto g = gen::erdos_renyi_connected(25, 0.15, rng);
  g = gen::randomize_weights(g, 7, rng);
  const auto ecc = eccentricities(g);
  const auto apsp = all_pairs_distances(g);
  for (NodeId u = 0; u < 25; ++u) {
    const Dist row_max = *std::max_element(apsp[u].begin(), apsp[u].end());
    EXPECT_EQ(ecc[u], row_max);
  }
  EXPECT_EQ(weighted_diameter(g), *std::max_element(ecc.begin(), ecc.end()));
  EXPECT_EQ(weighted_radius(g), *std::min_element(ecc.begin(), ecc.end()));
  EXPECT_LE(weighted_radius(g), weighted_diameter(g));
  EXPECT_LE(weighted_diameter(g), 2 * weighted_radius(g));
}

TEST(Algorithms, HopDiameterBounds) {
  const auto g = gen::path(7);
  EXPECT_EQ(hop_diameter(g), 6u);
  const auto k = gen::complete(5);
  EXPECT_EQ(hop_diameter(k), 1u);
}

TEST(Algorithms, HopDiameterWeightedForcesLongPaths) {
  // Heavy direct edge: shortest paths go the long way around.
  WeightedGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(0, 3, 100);
  EXPECT_EQ(hop_diameter(g), 3u);
}

// ---------------------------------------------------------------------
// Contraction (Lemma 4.3)
// ---------------------------------------------------------------------

TEST(Contraction, MergesUnitComponents) {
  WeightedGraph g(5);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 4);
  g.add_edge(3, 4, 1);
  const auto c = contract_unit_edges(g);
  EXPECT_EQ(c.graph.node_count(), 2u);
  EXPECT_EQ(c.node_map[0], c.node_map[1]);
  EXPECT_EQ(c.node_map[1], c.node_map[2]);
  EXPECT_EQ(c.node_map[3], c.node_map[4]);
  EXPECT_NE(c.node_map[0], c.node_map[3]);
  EXPECT_EQ(c.graph.edge_weight(c.node_map[0], c.node_map[3]), 4u);
}

TEST(Contraction, ParallelEdgesKeepMinimum) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1);  // merges 0,1
  g.add_edge(2, 3, 1);  // merges 2,3
  g.add_edge(0, 2, 9);
  g.add_edge(1, 3, 5);  // parallel after contraction; keep 5
  const auto c = contract_unit_edges(g);
  EXPECT_EQ(c.graph.node_count(), 2u);
  EXPECT_EQ(c.graph.edge_count(), 1u);
  EXPECT_EQ(c.graph.edges()[0].weight, 5u);
}

// Lemma 4.3 property: D_{G'} <= D_G <= D_{G'} + n, same for radius.
class ContractionLemmaTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContractionLemmaTest, SandwichBounds) {
  Rng rng(GetParam());
  auto g = gen::erdos_renyi_connected(20, 0.15, rng);
  // Mix unit and heavy weights.
  g = g.reweighted([&](Weight) {
    return rng.chance(0.5) ? Weight{1} : Weight{50 + rng.below(50)};
  });
  const auto c = contract_unit_edges(g);
  if (c.graph.node_count() < 2) return;  // fully contracted: trivial
  const Dist dg = weighted_diameter(g);
  const Dist dc = weighted_diameter(c.graph);
  EXPECT_LE(dc, dg);
  EXPECT_LE(dg, dc + g.node_count());
  const Dist rg = weighted_radius(g);
  const Dist rc = weighted_radius(c.graph);
  EXPECT_LE(rc, rg);
  EXPECT_LE(rg, rc + g.node_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractionLemmaTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------
// CSR adjacency layer (graph/csr.h) and the workspace kernels
// ---------------------------------------------------------------------

// Textbook Dijkstra, independent of the workspace engines, used as the
// oracle for the bucket-vs-heap equivalence properties below.
std::vector<Dist> oracle_dijkstra(const WeightedGraph& g, NodeId s) {
  std::vector<Dist> dist(g.node_count(), kInfDist);
  using Item = std::pair<Dist, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[s] = 0;
  pq.emplace(0, s);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const HalfEdge& h : g.neighbors(u)) {
      const Dist nd = dist_add(d, h.weight);
      if (nd < dist[h.to]) {
        dist[h.to] = nd;
        pq.emplace(nd, h.to);
      }
    }
  }
  return dist;
}

TEST(Csr, MirrorsAdjacencyInOrder) {
  Rng rng(7);
  const auto g = gen::randomize_weights(
      gen::erdos_renyi_connected(40, 0.2, rng), 30, rng);
  const CsrGraph csr(g);
  ASSERT_EQ(csr.node_count(), g.node_count());
  EXPECT_EQ(csr.edge_count(), g.edge_count());
  Weight mx = 1;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = csr.neighbors(u);
    const auto& ref = g.neighbors(u);
    ASSERT_EQ(row.size(), ref.size());
    ASSERT_EQ(csr.degree(u), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(row[i].to, ref[i].to);
      EXPECT_EQ(row[i].weight, ref[i].weight);
      mx = std::max(mx, ref[i].weight);
    }
  }
  EXPECT_EQ(csr.max_weight(), mx);
}

TEST(Csr, CachedViewTracksMutation) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 2, 3);
  EXPECT_EQ(g.csr().edge_count(), 2u);
  g.add_edge(2, 3, 5);  // must invalidate the cached view
  EXPECT_EQ(g.csr().edge_count(), 3u);
  EXPECT_EQ(dijkstra(g.csr(), 0)[3], 11u);
  g.set_edge_weight(2, 3, 1);  // likewise
  EXPECT_EQ(dijkstra(g.csr(), 0)[3], 7u);
  // Copies drop the cache but not the data; moves carry it.
  WeightedGraph h = g;
  EXPECT_EQ(h.csr().edge_count(), 3u);
}

TEST(Csr, AssignReweightedMatchesGraphReweighted) {
  Rng rng(11);
  const auto g = gen::randomize_weights(
      gen::erdos_renyi_connected(30, 0.2, rng), 40, rng);
  const auto f = [](Weight w) { return Weight{2} * w + 1; };
  CsrGraph scaled;
  scaled.assign_reweighted(g.csr(), f);
  const auto expect = g.reweighted(f);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    EXPECT_EQ(dijkstra(scaled, s), oracle_dijkstra(expect, s));
  }
  // Re-assigning from the same pristine base must not compound.
  scaled.assign_reweighted(g.csr(), f);
  EXPECT_EQ(dijkstra(scaled, 0), oracle_dijkstra(expect, 0));
}

// Invariants every shard cut must satisfy: a partition of [0, n) into
// k = min(shards, n) >= 1 non-empty contiguous ranges.
void check_shards(const CsrGraph& csr, const std::vector<NodeId>& b,
                  unsigned shards) {
  const NodeId n = csr.node_count();
  const auto k = static_cast<std::size_t>(
      std::min<NodeId>(std::max(1u, shards), std::max<NodeId>(n, 1)));
  ASSERT_EQ(b.size(), k + 1);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), n);
  for (std::size_t s = 0; s + 1 < b.size(); ++s) EXPECT_LT(b[s], b[s + 1]);
}

TEST(Csr, BalancedNodeShardsPartitionAndBalance) {
  Rng rng(23);
  const auto g = gen::erdos_renyi_connected(200, 0.05, rng);
  const CsrGraph& csr = g.csr();
  for (const unsigned shards : {1u, 2u, 3u, 8u}) {
    const auto b = csr.balanced_node_shards(shards);
    check_shards(csr, b, shards);
    // No shard carries more than twice the average mass (deg + 1) — the
    // prefix-sum cut can overshoot by at most one node's mass, and no
    // ER(200, 0.05) node is anywhere near a full shard's worth.
    std::uint64_t total = 0;
    for (NodeId v = 0; v < csr.node_count(); ++v) total += csr.degree(v) + 1;
    for (std::size_t s = 0; s + 1 < b.size(); ++s) {
      std::uint64_t mass = 0;
      for (NodeId v = b[s]; v < b[s + 1]; ++v) mass += csr.degree(v) + 1;
      EXPECT_LE(mass, 2 * total / shards + total % shards)
          << "shard " << s << " of " << shards;
    }
  }
}

TEST(Csr, BalancedNodeShardsAbsorbsHubWithoutUnbalancing) {
  // A star's hub alone is a third of all mass. A node-count split would
  // give shard 0 the hub plus half the leaves (~2/3 of the mass); the
  // mass cut instead stops within one leaf of an even split.
  const auto g = gen::star(64);
  const CsrGraph& csr = g.csr();
  const auto b = csr.balanced_node_shards(2);
  ASSERT_EQ(b.size(), 3u);
  const auto mass = [&](NodeId lo, NodeId hi) {
    std::uint64_t m = 0;
    for (NodeId v = lo; v < hi; ++v) m += csr.degree(v) + 1;
    return m;
  };
  const std::uint64_t m0 = mass(b[0], b[1]);
  const std::uint64_t m1 = mass(b[1], b[2]);
  EXPECT_LE(m0 > m1 ? m0 - m1 : m1 - m0, 4u);
}

TEST(Csr, BalancedNodeShardsClampsToNodeCount) {
  const auto g = gen::path(3);
  const auto b = g.csr().balanced_node_shards(8);
  EXPECT_EQ(b, (std::vector<NodeId>{0, 1, 2, 3}));  // one node per shard
  const auto one = g.csr().balanced_node_shards(0);
  EXPECT_EQ(one, (std::vector<NodeId>{0, 3}));  // 0 means "one shard"
}

TEST(WeightedGraph, FromEdgesMatchesAddEdge) {
  std::vector<Edge> edges{{0, 1, 4}, {1, 3, 2}, {0, 2, 7}, {2, 3, 1}};
  const auto g = WeightedGraph::from_edges(5, edges);
  WeightedGraph ref(5);
  for (const Edge& e : edges) ref.add_edge(e.u, e.v, e.weight);
  ASSERT_EQ(g.node_count(), ref.node_count());
  ASSERT_EQ(g.edge_count(), ref.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto& a = g.neighbors(u);
    const auto& b = ref.neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
  g.validate();
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, 0}}), ArgumentError);
  EXPECT_THROW(WeightedGraph::from_edges(2, {{1, 0, 1}}), ArgumentError);
  EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 2, 1}}), ArgumentError);
}

// Randomized equivalence: every CSR kernel agrees with its WeightedGraph
// shim and with the oracle, on one workspace reused across all sources
// and both weight regimes (small weights take the bucket engine, large
// weights the binary heap — the labels must be identical either way).
class CsrEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrEquivalenceTest, KernelsMatchAcrossEnginesAndReuse) {
  Rng rng(GetParam());
  const NodeId n = 12 + static_cast<NodeId>(rng.below(40));
  auto g = gen::erdos_renyi_connected(n, 0.05 + rng.uniform() * 0.25, rng);
  // Odd seeds get gadget-scale weights to force the heap engine; even
  // seeds stay within the bucket window.
  const Weight max_w =
      (GetParam() % 2 != 0) ? Weight{1} << 20 : Weight{60};
  g = gen::randomize_weights(g, max_w, rng);
  const CsrGraph& csr = g.csr();

  DijkstraWorkspace ws;  // one workspace, reused for every run below
  std::vector<Dist> out;
  std::vector<Dist> hops;
  for (NodeId s = 0; s < n; ++s) {
    const auto oracle = oracle_dijkstra(g, s);
    ws.dijkstra(csr, s, out);
    EXPECT_EQ(out, oracle);
    EXPECT_EQ(dijkstra(g, s), oracle);

    ws.bfs(csr, s, out);
    EXPECT_EQ(out, bfs_distances(g, s));

    ws.dijkstra_with_hops(csr, s, out, hops);
    const auto dh = dijkstra_with_hops(g, s);
    EXPECT_EQ(out, dh.dist);
    EXPECT_EQ(hops, dh.hops);
    EXPECT_EQ(out, oracle);  // lexicographic run keeps exact distances

    const std::uint64_t ell = 1 + rng.below(n);
    ws.bounded_hop(csr, s, ell, out);
    EXPECT_EQ(out, bounded_hop_distances(g, s, ell));
    ws.bounded_hop(csr, s, n, out);
    EXPECT_EQ(out, oracle);  // ell >= n-1 hops recovers true distances
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// Bucket-engine equivalence where n·W is above 2^22 with W <= 128: a
// sweep that stepped through every distance up to the farthest would
// cost O(n·W) here, so these shapes pin the jump to the next non-empty
// bucket. Every cap, the lexicographic mode, and one workspace carried
// across graphs whose bucket windows grow and shrink.

// Lexicographic hop labels from exact distances: one more than the
// fewest hops of a shortest-path predecessor, and every predecessor is
// strictly closer (weights are >= 1), so distance order settles it.
std::vector<Dist> oracle_hops(const WeightedGraph& g, NodeId s,
                              const std::vector<Dist>& dist) {
  std::vector<NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });
  std::vector<Dist> hops(g.node_count(), kInfDist);
  hops[s] = 0;
  for (const NodeId v : order) {
    if (v == s || dist[v] == kInfDist) continue;
    for (const HalfEdge& h : g.neighbors(v)) {
      if (dist[h.to] < dist[v] && dist[h.to] + h.weight == dist[v]) {
        hops[v] = std::min(hops[v], hops[h.to] + 1);
      }
    }
  }
  return hops;
}

// Runs `ws` from each source at caps {0, 1, W, half the farthest
// distance, kInfDist} and in lexicographic mode, against the oracles. A
// capped run keeps exactly the labels <= cap and leaves the rest
// kInfDist.
void expect_engines_match(DijkstraWorkspace& ws, const WeightedGraph& g,
                          std::initializer_list<NodeId> sources) {
  const CsrGraph& csr = g.csr();
  std::vector<Dist> out;
  std::vector<Dist> hops;
  for (const NodeId s : sources) {
    SCOPED_TRACE("source " + std::to_string(s));
    const auto oracle = oracle_dijkstra(g, s);
    Dist farthest = 0;
    for (const Dist d : oracle) {
      if (d < kInfDist) farthest = std::max(farthest, d);
    }
    for (const Dist cap :
         {Dist{0}, Dist{1}, Dist{csr.max_weight()}, farthest / 2, kInfDist}) {
      ws.dijkstra(csr, s, out, cap);
      auto expect = oracle;
      for (Dist& d : expect) {
        if (d > cap) d = kInfDist;
      }
      EXPECT_TRUE(out == expect) << "cap " << cap;
    }
    ws.dijkstra_with_hops(csr, s, out, hops);
    EXPECT_TRUE(out == oracle);
    EXPECT_TRUE(hops == oracle_hops(g, s, oracle));
  }
}

// A graph on n nodes from canonical edges with weights uniform in
// [1, max_w]; the first edge gets max_w, so W is exactly max_w.
WeightedGraph with_weights(NodeId n, std::vector<Edge> edges, Weight max_w,
                           Rng& rng) {
  for (Edge& e : edges) e.weight = 1 + rng.below(max_w);
  if (!edges.empty()) edges.front().weight = max_w;
  return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph heavy_path(NodeId n, Weight max_w, Rng& rng) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 1});
  return with_weights(n, std::move(edges), max_w, rng);
}

WeightedGraph weighted_star(NodeId leaves) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= leaves; ++v) {
    edges.push_back({0, v, 1 + (v - 1) % 100});
  }
  return WeightedGraph::from_edges(leaves + 1, std::move(edges));
}

// m distinct random pairs: a giant component plus stragglers, so some
// labels stay kInfDist.
WeightedGraph sparse_random(NodeId n, std::size_t m, Weight max_w, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < m) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u != v) pairs.emplace_back(std::min(u, v), std::max(u, v));
    if (pairs.size() == m) {
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    }
  }
  std::vector<Edge> edges;
  for (const auto& [u, v] : pairs) edges.push_back({u, v, 1});
  return with_weights(n, std::move(edges), max_w, rng);
}

Dist n_times_w(const WeightedGraph& g) {
  return Dist{g.node_count()} * g.csr().max_weight();
}

TEST(DijkstraEngines, HeavyPathAtTheLargestBucketWeight) {
  Rng rng(41);
  const auto g = heavy_path(40000, 128, rng);
  ASSERT_EQ(g.csr().max_weight(), 128u);
  EXPECT_GT(n_times_w(g), Dist{1} << 22);
  DijkstraWorkspace ws;
  expect_engines_match(ws, g, {0, 12345, 20000, 39999});
}

TEST(DijkstraEngines, StarOfManyLeaves) {
  const auto g = weighted_star(NodeId{1} << 16);
  ASSERT_EQ(g.csr().max_weight(), 100u);
  EXPECT_GT(n_times_w(g), Dist{1} << 22);
  DijkstraWorkspace ws;
  expect_engines_match(ws, g, {0, 1, 100, NodeId{1} << 16});
}

TEST(DijkstraEngines, SparseRandomGraphWithUnreachableNodes) {
  Rng rng(43);
  const auto g = sparse_random(50000, 100000, 100, rng);
  EXPECT_GT(n_times_w(g), Dist{1} << 22);
  EXPECT_FALSE(g.is_connected());
  DijkstraWorkspace ws;
  expect_engines_match(ws, g, {0, 1, 25000, 49999});
}

TEST(DijkstraEngines, OneNodeAndEdgelessGraphs) {
  DijkstraWorkspace ws;
  expect_engines_match(ws, WeightedGraph(1), {0});
  expect_engines_match(ws, WeightedGraph(7), {0, 3, 6});
}

// Windows of 256, 2, 128 and 4 buckets, a heap run, then 2 and 128
// buckets, twice over. An entry left in a bucket by one run is read by
// the next: a wrong label, or a node id past a smaller graph's end that
// the sanitizer build's bounds checks stop.
TEST(DijkstraEngines, OneWorkspaceAcrossGrowingAndShrinkingWindows) {
  Rng rng(44);
  const auto path = heavy_path(40000, 128, rng);
  const auto star = weighted_star(NodeId{1} << 16);
  const auto sparse = sparse_random(50000, 100000, 100, rng);
  auto er_small = gen::erdos_renyi_connected(300, 0.03, rng);
  er_small = gen::randomize_weights(er_small, 3, rng);
  auto gadget = gen::randomize_weights(er_small, Weight{1} << 20, rng);
  ASSERT_GT(gadget.csr().max_weight(), 128u);
  DijkstraWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    expect_engines_match(ws, path, {0, 20000});
    expect_engines_match(ws, WeightedGraph(7), {3});
    expect_engines_match(ws, star, {0, 7});
    expect_engines_match(ws, er_small, {0, 299});
    expect_engines_match(ws, gadget, {5});
    expect_engines_match(ws, WeightedGraph(1), {0});
    expect_engines_match(ws, sparse, {1, 49999});
  }
}

TEST(EdgeSlotIndex, MatchesRowScanOnRandomGraph) {
  Rng rng(7);
  const auto g = gen::erdos_renyi_connected(64, 0.12, rng);
  const CsrGraph& csr = g.csr();
  const EdgeSlotIndex& idx = g.slot_index();

  EXPECT_EQ(idx.directed_edge_count(), 2 * g.edge_count());
  std::vector<char> seen(idx.directed_edge_count(), 0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = csr.neighbors(u);
    for (std::uint32_t s = 0; s < row.size(); ++s) {
      EXPECT_EQ(idx.slot(u, row[s].to), s);
      const std::size_t e = idx.edge_index(u, s);
      ASSERT_LT(e, seen.size());
      EXPECT_EQ(seen[e], 0) << "edge_index must be a bijection";
      seen[e] = 1;
      // The reverse slot is u's slot in the receiver's row, and
      // reversing twice comes back to s.
      const NodeId v = row[s].to;
      const std::uint32_t r = idx.reverse_slot(e);
      ASSERT_LT(r, csr.degree(v));
      EXPECT_EQ(csr.neighbors(v)[r].to, u);
      EXPECT_EQ(idx.reverse_slot(idx.edge_index(v, r)), s);
    }
    // Non-neighbours (including u itself) must miss.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v == u || g.has_edge(u, v)) continue;
      EXPECT_EQ(idx.slot(u, v), EdgeSlotIndex::kNoSlot);
      break;  // one miss per row keeps the test O(n + m)
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](char c) { return c == 1; }));
}

TEST(EdgeSlotIndex, CachedAndInvalidatedWithCsr) {
  auto g = gen::path(4);
  const EdgeSlotIndex* first = &g.slot_index();
  EXPECT_EQ(first, &g.slot_index()) << "repeated calls reuse the cache";
  EXPECT_EQ(g.slot_index().slot(0, 2), EdgeSlotIndex::kNoSlot);

  g.add_edge(0, 2);  // mutation invalidates the cached index
  const EdgeSlotIndex& rebuilt = g.slot_index();
  const std::uint32_t s = rebuilt.slot(0, 2);
  ASSERT_NE(s, EdgeSlotIndex::kNoSlot);
  EXPECT_EQ(g.csr().neighbors(0)[s].to, 2u);
}

TEST(EdgeSlotIndex, SingleNodeGraphHasNoEdges) {
  WeightedGraph g(1);
  EXPECT_EQ(g.slot_index().directed_edge_count(), 0u);
  EXPECT_EQ(g.slot_index().slot(0, 0), EdgeSlotIndex::kNoSlot);
}

// ---------------------------------------------------------------------
// Connectivity verdict dirty bit: mutations that cannot change the
// answer keep the cache; only a possibly-bridging edge drops it.
// ---------------------------------------------------------------------

TEST(WeightedGraph, ConnectivityVerdictSurvivesSafeMutations) {
  Rng rng(5);
  auto g = gen::erdos_renyi_connected(20, 0.2, rng);
  EXPECT_FALSE(g.connectivity_cached());
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.connectivity_cached());

  // Weight changes never touch topology: verdict retained.
  g.set_edge_weight(g.edges().front().u, g.edges().front().v, 99);
  EXPECT_TRUE(g.connectivity_cached());
  EXPECT_TRUE(g.is_connected());

  // An edge added to a connected graph keeps it connected: retained.
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!g.has_edge(u, (u + 2) % g.node_count()) &&
        u != (u + 2) % g.node_count()) {
      g.add_edge(u, (u + 2) % g.node_count(), 3);
      break;
    }
  }
  EXPECT_TRUE(g.connectivity_cached());
  EXPECT_TRUE(g.is_connected());
}

TEST(WeightedGraph, BridgingEdgeInvalidatesDisconnectedVerdict) {
  // The stale-cache hazard the dirty bit exists for: cache says
  // "disconnected", then an edge bridges the components — the stale
  // verdict must not be served.
  WeightedGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  EXPECT_FALSE(g.is_connected());
  EXPECT_TRUE(g.connectivity_cached());
  g.add_edge(1, 2, 7);  // bridges {0,1} and {2,3}
  EXPECT_FALSE(g.connectivity_cached());  // downgraded, not reused
  EXPECT_TRUE(g.is_connected());

  // A growth edge that still leaves components re-resolves to
  // "disconnected" and re-caches.
  WeightedGraph h(5);
  h.add_edge(0, 1, 1);
  h.add_edge(2, 3, 1);
  EXPECT_FALSE(h.is_connected());
  h.add_edge(3, 4, 1);  // merges {2,3} and {4}; {0,1} still apart
  EXPECT_FALSE(h.connectivity_cached());
  EXPECT_FALSE(h.is_connected());
  EXPECT_TRUE(h.connectivity_cached());
}

TEST(WeightedGraph, CopyAndAssignResetConnectivityVerdict) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  EXPECT_TRUE(g.is_connected());

  WeightedGraph copy = g;  // copies start with cold caches
  EXPECT_FALSE(copy.connectivity_cached());
  EXPECT_TRUE(copy.is_connected());

  WeightedGraph target(2);  // two isolated nodes: cache "disconnected"
  EXPECT_FALSE(target.is_connected());
  EXPECT_TRUE(target.connectivity_cached());
  target = g;  // assignment replaces the data: verdict must reset
  EXPECT_FALSE(target.connectivity_cached());
  EXPECT_TRUE(target.is_connected());

  WeightedGraph moved = std::move(copy);  // moves carry the verdict
  EXPECT_TRUE(moved.connectivity_cached());
  EXPECT_TRUE(moved.is_connected());
}

}  // namespace
}  // namespace qc
