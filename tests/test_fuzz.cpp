// Randomized cross-validation sweeps ("fuzzing" with fixed seeds):
// every distributed algorithm against its centralized twin on random
// graphs, random weights, and random parameters; plus distributional
// checks of the quantum search engine and robustness of the gadget
// lemmas under non-paper parameters.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <string>

#include "congest/primitives.h"
#include "core/approx.h"
#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "lowerbound/boolfn.h"
#include "lowerbound/server.h"
#include "paths/distributed.h"
#include "paths/reference.h"
#include "quantum/search.h"
#include "service/wire.h"
#include "util/error.h"
#include "util/rng.h"

namespace qc {
namespace {

WeightedGraph random_connected(Rng& rng, NodeId max_n, Weight max_w) {
  const auto n = static_cast<NodeId>(8 + rng.below(max_n - 8));
  const double p = 0.05 + rng.uniform() * 0.3;
  auto g = gen::erdos_renyi_connected(n, p, rng);
  return gen::randomize_weights(g, 1 + rng.below(max_w), rng);
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, GraphInvariants) {
  Rng rng(GetParam() * 7 + 1);
  const auto g = random_connected(rng, 40, 30);
  g.validate();
  // Serialization round trip.
  EXPECT_EQ(parse_edge_list(to_edge_list(g)).edges(), g.edges());
  // Diameter/radius relations.
  const Dist d = weighted_diameter(g);
  const Dist r = weighted_radius(g);
  EXPECT_LE(r, d);
  EXPECT_LE(d, 2 * r);
  // Bounded-hop at n-1 hops is exact.
  for (NodeId s = 0; s < g.node_count(); s += 9) {
    EXPECT_EQ(bounded_hop_distances(g, s, g.node_count() - 1),
              dijkstra(g, s));
  }
  // Contraction sandwich.
  const auto c = contract_unit_edges(g);
  if (c.graph.node_count() >= 2) {
    const Dist dc = weighted_diameter(c.graph);
    EXPECT_LE(dc, d);
    EXPECT_LE(d, dc + g.node_count());
  }
}

TEST_P(FuzzSweep, DistributedPrimitivesAgreeWithReference) {
  Rng rng(GetParam() * 13 + 3);
  const auto g = random_connected(rng, 28, 10);
  const auto root = static_cast<NodeId>(rng.below(g.node_count()));
  // BFS tree depths == BFS distances.
  const auto tree = congest::build_bfs_tree(g, root);
  const auto ref = bfs_distances(g, root);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(tree.nodes[v].depth, ref[v]);
  }
  // Aggregate == std::min/max/sum.
  std::vector<std::uint64_t> inputs(g.node_count());
  for (auto& x : inputs) x = rng.below(1000);
  EXPECT_EQ(congest::global_aggregate(g, root, inputs,
                                      congest::AggregateOp::kMax, 10)
                .value,
            *std::max_element(inputs.begin(), inputs.end()));
  EXPECT_EQ(congest::global_aggregate(g, root, inputs,
                                      congest::AggregateOp::kSum, 16)
                .value,
            std::accumulate(inputs.begin(), inputs.end(), 0ull));
  // Weighted SSSP == Dijkstra.
  const auto sssp = paths::distributed_weighted_sssp(
      g, paths::RunRequest{}.with_source(root));
  EXPECT_EQ(sssp.dist, dijkstra(g, root));
}

TEST_P(FuzzSweep, ToolkitAgreesUnderRandomParameters) {
  Rng rng(GetParam() * 17 + 5);
  const auto g = random_connected(rng, 20, 8);
  // Random (not Eq. 1) hop scales must still agree bit-exactly between
  // the distributed and centralized forms.
  const paths::HopScale hs{1 + rng.below(g.node_count()),
                           static_cast<std::uint32_t>(1 + rng.below(6)),
                           g.max_weight()};
  const auto s = static_cast<NodeId>(rng.below(g.node_count()));
  const auto dist_run = paths::distributed_bounded_hop_sssp(
      g, paths::RunRequest{}.with_source(s).with_scale(hs));
  EXPECT_EQ(dist_run.approx, paths::approx_bounded_hop_from(g, s, hs));
}

TEST_P(FuzzSweep, SkeletonPipelineUnderRandomSets) {
  Rng rng(GetParam() * 19 + 7);
  const auto g = random_connected(rng, 18, 6);
  const auto params =
      paths::Params::make(g.node_count(),
                          std::max<Dist>(1, unweighted_diameter(g)),
                          static_cast<std::uint32_t>(1 + rng.below(5)));
  std::vector<NodeId> set;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (rng.chance(0.3)) set.push_back(v);
  }
  if (set.empty()) set.push_back(0);
  const auto sk = paths::build_skeleton(g, params, set);
  // Lower bound of Lemma 3.3 must hold for every pair regardless of
  // parameter choices.
  const std::uint64_t total = sk.total_scale();
  for (std::uint32_t a = 0; a < sk.size(); ++a) {
    const auto exact = dijkstra(g, sk.members[a]);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const Dist ad = sk.approx_distance(a, v);
      if (ad < kInfDist) {
        EXPECT_GE(ad, total * exact[v]) << "a=" << a << " v=" << v;
      }
    }
  }
}

TEST_P(FuzzSweep, GadgetDichotomyUnderNonPaperParameters) {
  Rng rng(GetParam() * 23 + 11);
  // Any alpha < beta < 3*alpha separates the two cases (with slack for
  // the +n of Lemma 4.3 when measuring the full graph — we use G').
  lb::GadgetParams p;
  p.h = 2;
  p.s = static_cast<std::uint32_t>(2 + rng.below(3));
  p.ell = static_cast<std::uint32_t>(2 + rng.below(3));
  const std::uint64_t n2 = p.node_count() * p.node_count();
  p.alpha = n2;
  p.beta = n2 + 1 + rng.below(2 * n2 - 2);  // in (alpha, 3*alpha)
  const auto in = lb::random_input(1ull << p.s, p.ell, rng);
  const auto check = lb::check_diameter_reduction(p, in, false);
  EXPECT_TRUE(check.gap_respected)
      << "s=" << p.s << " ell=" << p.ell << " beta=" << p.beta;
}

TEST_P(FuzzSweep, AmplifiedMeasureConditionalDistribution) {
  Rng rng(GetParam() * 29 + 13);
  // Within the marked class, outcomes must follow the weights.
  std::vector<double> w{0.1, 0.3, 0.2, 0.4};
  auto marked = [](std::size_t x) { return x == 1 || x == 3; };
  std::map<std::size_t, int> counts;
  int found = 0;
  const int trials = 4000;
  // 0 iterations: the marked mass stays 0.7 (a single Grover step
  // would over-rotate far past pi/2 at this mass).
  for (int i = 0; i < trials; ++i) {
    const auto r = quantum::amplified_measure(w, marked, 0, rng);
    if (r.found) {
      ++found;
      counts[r.index]++;
    }
  }
  ASSERT_GT(found, 500);
  // P(1 | marked) = 0.3/0.7, P(3 | marked) = 0.4/0.7.
  EXPECT_NEAR(double(counts[1]) / found, 0.3 / 0.7, 0.06);
  EXPECT_NEAR(double(counts[3]) / found, 0.4 / 0.7, 0.06);
  EXPECT_EQ(counts.count(0) + counts.count(2), 0u);
}

TEST_P(FuzzSweep, MultiSourceBfsRandomSources) {
  Rng rng(GetParam() * 31 + 17);
  const auto g = random_connected(rng, 26, 4);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (rng.chance(0.25)) sources.push_back(v);
  }
  if (sources.empty()) sources.push_back(0);
  Rng delays(GetParam());
  const auto res = core::distributed_multi_source_bfs(g, sources, delays);
  for (std::size_t a = 0; a < sources.size(); ++a) {
    EXPECT_EQ(res.dist[a], bfs_distances(g, sources[a]));
  }
}

// The bgraph streaming parser under byte mutation: flip a handful of
// random bytes in a valid file and reload. Every outcome must be
// either a clean parse (the flips hit record lanes and produced another
// valid graph) or an ArgumentError — never a crash, hang, or any other
// exception type. Mutations are biased half-and-half between the
// 48-byte header and the record payload.
TEST_P(FuzzSweep, BGraphParserSurvivesByteMutations) {
  Rng rng(GetParam() * 97 + 5);
  const auto g = random_connected(rng, 40, 30);
  const std::string path =
      ::testing::TempDir() + "qc_fuzz_bgraph_" + std::to_string(GetParam());
  write_bgraph(g, path);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  for (int trial = 0; trial < 64; ++trial) {
    std::string bytes = good;
    const auto flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at =
          rng.chance(0.5) ? rng.below(kBGraphHeaderBytes)
                          : static_cast<std::size_t>(rng.below(bytes.size()));
      bytes[at] = static_cast<char>(rng.below(256));
    }
    // Occasionally truncate or extend as well.
    if (rng.chance(0.2)) bytes.resize(rng.below(bytes.size() + 9));
    // A mutated n field can pass header validation yet describe billions
    // of (isolated) nodes; loading such a file is *correct* but would
    // allocate per-node state far beyond what a test should. Skip the
    // loaders for giant-n mutants — header/record validation is already
    // covered by every other mutant.
    std::uint64_t mut_n = 0;
    if (bytes.size() >= 24) {
      for (int i = 7; i >= 0; --i) {
        mut_n = (mut_n << 8) |
                static_cast<unsigned char>(bytes[16 + static_cast<std::size_t>(i)]);
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    if (mut_n > (std::uint64_t{1} << 21)) continue;
    try {
      const WeightedGraph parsed = load_bgraph(path);
      EXPECT_LE(parsed.node_count(), std::uint64_t{1} << 32);
    } catch (const ArgumentError&) {
      // Expected for most mutations.
    }
    try {
      (void)summarize_bgraph(path);
    } catch (const ArgumentError&) {
    }
  }
  std::remove(path.c_str());
}

// The NDJSON request parser under byte mutation: flip, insert and
// delete a few bytes of a valid request line, and sometimes truncate
// it. Every mutant must either parse or throw ArgumentError — never
// crash or throw any other exception type. Half the mutated bytes come
// from the characters the parser branches on, half are arbitrary.
TEST_P(FuzzSweep, WireParserSurvivesByteMutations) {
  Rng rng(GetParam() * 89 + 3);
  const std::string lines[] = {
      R"({"id":7,"graph":"g0","type":"sssp","node":5})",
      R"({"id":8,"type":"update","op":"reweight","u":3,"v":9,"w":17})",
      R"({ "type" : "approx_distance", "source":1, "target":2, "seed":42 })",
      R"({"type":"diameter","graph":"a\"b\\c\/d\n\t\r"})",
      R"({"id":18446744073709551615,"type":"eccentricity","node":4294967295})",
  };
  const std::string alphabet = "{}\":,\\ \t\r\n0123456789.eE-+";
  std::uint64_t rejected = 0;
  for (const std::string& good : lines) {
    ASSERT_NO_THROW((void)service::parse_request(good)) << good;
    for (int trial = 0; trial < 64; ++trial) {
      std::string bytes = good;
      const auto edits = 1 + rng.below(4);
      for (std::uint64_t k = 0; k < edits; ++k) {
        const char c = rng.chance(0.5)
                           ? alphabet[rng.below(alphabet.size())]
                           : static_cast<char>(rng.below(256));
        const auto at = static_cast<std::size_t>(rng.below(bytes.size() + 1));
        switch (rng.below(3)) {
          case 0:
            if (at < bytes.size()) bytes[at] = c;
            break;
          case 1:
            bytes.insert(at, 1, c);
            break;
          default:
            if (at < bytes.size()) bytes.erase(at, 1);
            break;
        }
      }
      if (rng.chance(0.2)) bytes.resize(rng.below(bytes.size() + 1));
      try {
        EXPECT_FALSE(service::parse_request(bytes).type.empty()) << bytes;
      } catch (const ArgumentError&) {
        ++rejected;  // expected for most mutants
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

// The wgraph text loader under byte mutation: flip, insert and delete a
// few bytes of a valid file, drawn half from the characters the parser
// branches on. Every mutant must load or throw ArgumentError — never
// crash or throw any other exception type. At most four edits keep a
// mutated node count small enough to allocate.
TEST_P(FuzzSweep, WgraphTextSurvivesByteMutations) {
  Rng rng(GetParam() * 83 + 9);
  const std::string good = to_edge_list(random_connected(rng, 40, 30));
  const std::string alphabet = "0123456789 \t\r\n#-+wgraph";
  std::uint64_t rejected = 0;
  for (int trial = 0; trial < 64; ++trial) {
    std::string bytes = good;
    const auto edits = 1 + rng.below(4);
    for (std::uint64_t k = 0; k < edits; ++k) {
      const char c = rng.chance(0.5) ? alphabet[rng.below(alphabet.size())]
                                     : static_cast<char>(rng.below(256));
      const auto at = static_cast<std::size_t>(rng.below(bytes.size() + 1));
      switch (rng.below(3)) {
        case 0:
          if (at < bytes.size()) bytes[at] = c;
          break;
        case 1:
          bytes.insert(at, 1, c);
          break;
        default:
          if (at < bytes.size()) bytes.erase(at, 1);
          break;
      }
    }
    if (rng.chance(0.2)) bytes.resize(rng.below(bytes.size() + 1));
    try {
      parse_edge_list(bytes).validate();
    } catch (const ArgumentError&) {
      ++rejected;  // expected for most mutants
    }
  }
  EXPECT_GT(rejected, 0u);
}

// map_csr with edge validation under byte mutation, biased half-and-half
// between the 48-byte header and the whole file, sometimes truncated or
// extended. Every mutant must map or throw ArgumentError, and a mapped
// one must be safe to traverse.
TEST_P(FuzzSweep, BcsrMapSurvivesByteMutations) {
  Rng rng(GetParam() * 79 + 13);
  const auto g = random_connected(rng, 40, 30);
  const std::string path = ::testing::TempDir() + "qc_fuzz_bcsr_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(GetParam()) + ".bcsr";
  write_csr(g.csr(), path);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  std::uint64_t rejected = 0;
  for (int trial = 0; trial < 64; ++trial) {
    std::string bytes = good;
    const auto flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at =
          rng.chance(0.5) ? rng.below(kBGraphHeaderBytes)
                          : static_cast<std::size_t>(rng.below(bytes.size()));
      bytes[at] = static_cast<char>(rng.below(256));
    }
    if (rng.chance(0.2)) bytes.resize(rng.below(bytes.size() + 9));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      const CsrGraph mapped = map_csr(path, /*validate_edges=*/true);
      if (mapped.node_count() > 0) (void)dijkstra(mapped, 0);
    } catch (const ArgumentError&) {
      ++rejected;  // expected for most mutants
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace qc
