// Tests for the resident query service (src/service): built-in handler
// correctness against the direct algorithms, the determinism contract
// (byte-identical results at any worker count, client concurrency, and
// batch size), admission control, registry extension, metrics export,
// and the NDJSON wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/update.h"
#include "paths/reference.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "util/rng.h"

namespace qc::service {
namespace {

WeightedGraph test_graph(NodeId n = 40, std::uint64_t seed = 3) {
  Rng rng(seed);
  return gen::from_family("ER", n, 10, rng);
}

WeightedGraph disconnected_graph() {
  WeightedGraph g(6);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  g.add_edge(3, 4, 1);
  g.add_edge(4, 5, 5);
  return g;
}

/// A deterministic mixed workload exercising every built-in plus the
/// unweighted extension types. Pure function of (count, n) — the
/// determinism tests replay it against engines of every shape.
std::vector<Query> mixed_queries(std::size_t count, NodeId n) {
  static const char* kTypes[] = {
      "diameter",        "radius",              "eccentricity",
      "sssp",            "approx_distance",     "unweighted_diameter",
      "unweighted_eccentricity"};
  std::vector<Query> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.id = i + 1;
    q.type = kTypes[i % (sizeof(kTypes) / sizeof(kTypes[0]))];
    q.node = static_cast<NodeId>((i * 13) % n);
    q.target = static_cast<NodeId>((i * 7 + 1) % n);
    q.seed = 1000 + i;
    qs.push_back(q);
  }
  return qs;
}

EngineOptions manual_options(unsigned workers = 1) {
  EngineOptions opt;
  opt.workers = workers;
  opt.auto_dispatch = false;
  return opt;
}

/// Reference answers: one single-worker engine, synchronous queries in
/// order. Everything else must reproduce these exactly.
std::map<std::uint64_t, QueryResult> reference_results(
    const std::vector<Query>& qs, const WeightedGraph& g) {
  QueryEngine engine(manual_options(1));
  register_unweighted_handlers(engine);
  engine.add_graph("g0", g);
  std::map<std::uint64_t, QueryResult> out;
  for (const Query& q : qs) out[q.id] = engine.query(q);
  return out;
}

TEST(QueryEngine, BuiltinsMatchDirectAlgorithms) {
  const auto g = test_graph();
  ASSERT_TRUE(g.is_connected());
  const auto ecc = eccentricities(g);
  const auto hop_ecc = unweighted_eccentricities(g);

  QueryEngine engine(manual_options(2));
  register_unweighted_handlers(engine);
  engine.add_graph("g0", g);

  Query q;
  q.type = "diameter";
  EXPECT_EQ(engine.query(q).value, *std::max_element(ecc.begin(), ecc.end()));
  q.type = "radius";
  EXPECT_EQ(engine.query(q).value, *std::min_element(ecc.begin(), ecc.end()));
  q.type = "eccentricity";
  q.node = 17;
  EXPECT_EQ(engine.query(q).value, ecc[17]);
  q.type = "unweighted_diameter";
  EXPECT_EQ(engine.query(q).value,
            *std::max_element(hop_ecc.begin(), hop_ecc.end()));
  q.type = "unweighted_eccentricity";
  EXPECT_EQ(engine.query(q).value, hop_ecc[17]);

  q.type = "sssp";
  q.node = 5;
  q.target = 23;
  const auto sssp = engine.query(q);
  ASSERT_TRUE(sssp.ok);
  EXPECT_EQ(sssp.dist, dijkstra(g, 5));
  EXPECT_EQ(sssp.value, sssp.dist[23]);

  // Lemma 3.2 sandwich: when the pair is eligible at this ℓ, the
  // σ-scaled approximation bounds the true distance from above within
  // the (1+ε) factor.
  q.type = "approx_distance";
  q.node = 5;
  q.target = 23;
  const auto approx = engine.query(q);
  ASSERT_TRUE(approx.ok);
  const auto& params = engine.find_graph("g0")->toolkit_params();
  EXPECT_GT(approx.scale, 1u);
  if (approx.value < kInfDist) {
    const double d = static_cast<double>(dijkstra(g, 5)[23]);
    const double a =
        static_cast<double>(approx.value) / static_cast<double>(approx.scale);
    EXPECT_GE(a + 1e-9, d);
    EXPECT_LE(a, (1.0 + 1.0 / params.eps_inv) * d + 1e-9);
  }
}

TEST(QueryEngine, ResultsIdenticalAcrossWorkersAndConcurrentClients) {
  const auto g = test_graph();
  const auto qs = mixed_queries(42, g.node_count());
  const auto ref = reference_results(qs, g);

  for (const unsigned workers : {1u, 2u, 8u}) {
    EngineOptions opt;
    opt.workers = workers;  // auto_dispatch on: the background thread drains
    QueryEngine engine(opt);
    register_unweighted_handlers(engine);
    engine.add_graph("g0", g);

    // Four clients submit disjoint interleaved slices concurrently.
    constexpr std::size_t kClients = 4;
    std::vector<std::vector<std::pair<std::uint64_t, std::future<QueryResult>>>>
        futs(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < qs.size(); i += kClients) {
          futs[c].emplace_back(qs[i].id, engine.submit(qs[i]));
        }
      });
    }
    for (auto& t : clients) t.join();
    for (auto& per_client : futs) {
      for (auto& [id, fut] : per_client) {
        const QueryResult got = fut.get();
        ASSERT_EQ(got, ref.at(id)) << "workers=" << workers << " id=" << id;
      }
    }
  }
}

TEST(QueryEngine, BatchSizeDoesNotChangeResults) {
  const auto g = test_graph();
  const auto qs = mixed_queries(30, g.node_count());
  const auto ref = reference_results(qs, g);

  for (const std::size_t max_batch : {std::size_t{1}, qs.size()}) {
    EngineOptions opt;
    opt.workers = 2;
    opt.auto_dispatch = false;
    opt.max_batch = max_batch;
    QueryEngine engine(opt);
    register_unweighted_handlers(engine);
    engine.add_graph("g0", g);

    std::vector<std::pair<std::uint64_t, std::future<QueryResult>>> futs;
    for (const Query& q : qs) futs.emplace_back(q.id, engine.submit(q));
    EXPECT_EQ(engine.in_flight(), qs.size());
    std::size_t drained = 0;
    std::size_t rounds = 0;
    while (const std::size_t n = engine.drain()) {
      drained += n;
      ++rounds;
      ASSERT_LE(n, max_batch);
    }
    EXPECT_EQ(drained, qs.size());
    EXPECT_EQ(rounds, (qs.size() + max_batch - 1) / max_batch);
    EXPECT_EQ(engine.in_flight(), 0u);
    for (auto& [id, fut] : futs) {
      ASSERT_EQ(fut.get(), ref.at(id)) << "max_batch=" << max_batch;
    }
  }
}

TEST(QueryEngine, AdmissionControlBoundsInFlightQueries) {
  runtime::MetricsRegistry registry;
  EngineOptions opt;
  opt.workers = 1;
  opt.auto_dispatch = false;
  opt.max_in_flight = 4;
  opt.metrics = &registry;
  QueryEngine engine(opt);
  engine.add_graph("g0", test_graph(16));

  Query q;
  q.type = "diameter";
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t i = 0; i < 4; ++i) futs.push_back(engine.submit(q));
  EXPECT_EQ(engine.in_flight(), 4u);
  EXPECT_THROW(engine.submit(q), AdmissionError);
  EXPECT_THROW(engine.submit(q), AdmissionError);
  EXPECT_EQ(registry.counter("service.rejected").value(), 2u);

  // Draining frees capacity; the engine admits again.
  EXPECT_GT(engine.drain(), 0u);
  EXPECT_EQ(engine.in_flight(), 0u);
  futs.push_back(engine.submit(q));
  engine.drain();
  for (auto& fut : futs) EXPECT_TRUE(fut.get().ok);
}

TEST(QueryEngine, ShutdownAnswersEveryAdmittedQuery) {
  std::vector<std::future<QueryResult>> futs;
  {
    QueryEngine engine(manual_options());
    engine.add_graph("g0", test_graph(16));
    Query q;
    q.type = "radius";
    for (std::size_t i = 0; i < 3; ++i) {
      q.id = i;
      futs.push_back(engine.submit(q));
    }
    // No drain() before destruction: the destructor must answer them.
  }
  for (auto& fut : futs) {
    const QueryResult r = fut.get();
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.value, 0u);
  }
}

TEST(QueryEngine, ErrorsArriveAsResultsNotExceptions) {
  QueryEngine engine(manual_options());
  engine.add_graph("a", test_graph(16, 1));
  engine.add_graph("b", disconnected_graph());

  Query q;
  q.type = "no_such_type";
  q.graph = "a";
  auto r = engine.query(q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown query type"), std::string::npos);

  q.type = "diameter";
  q.graph = "missing";
  r = engine.query(q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown graph"), std::string::npos);

  // Two graphs loaded: an empty graph name is ambiguous.
  q.graph.clear();
  r = engine.query(q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exactly one"), std::string::npos);

  // Handler precondition failures fail the query, not the engine.
  q.graph = "b";
  r = engine.query(q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not connected"), std::string::npos);

  q.graph = "a";
  q.type = "eccentricity";
  q.node = 999;
  r = engine.query(q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of range"), std::string::npos);

  // The engine still works after every error.
  q.node = 0;
  EXPECT_TRUE(engine.query(q).ok);
}

/// The registry extension point: a new query type plugs in without
/// touching the engine (exactly how the unweighted and Theorem 1.1
/// specializations register).
class NodeCountHandler final : public QueryHandler {
 public:
  std::string type() const override { return "node_count"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i].ok = true;
      results[i].value = ctx.graph.graph().node_count();
    }
  }
};

TEST(QueryEngine, HandlerRegistryAcceptsExtensions) {
  QueryEngine engine(manual_options());
  engine.add_graph("g0", test_graph(16));
  EXPECT_FALSE(engine.has_handler("node_count"));
  engine.register_handler(std::make_unique<NodeCountHandler>());
  EXPECT_TRUE(engine.has_handler("node_count"));

  Query q;
  q.type = "node_count";
  EXPECT_EQ(engine.query(q).value, 16u);

  EXPECT_THROW(engine.register_handler(std::make_unique<NodeCountHandler>()),
               ArgumentError);
  EXPECT_THROW(engine.add_graph("g0", test_graph(8)), ArgumentError);
}

TEST(QueryEngine, MetricsExportCountsAndLatencies) {
  runtime::MetricsRegistry registry;
  EngineOptions opt;
  opt.workers = 1;
  opt.auto_dispatch = false;
  opt.metrics = &registry;
  QueryEngine engine(opt);
  engine.add_graph("g0", test_graph(16));

  Query q;
  q.type = "diameter";
  std::vector<std::future<QueryResult>> futs;
  for (std::size_t i = 0; i < 3; ++i) futs.push_back(engine.submit(q));
  engine.drain();
  for (auto& fut : futs) fut.get();
  q.type = "no_such_type";
  engine.query(q);

  EXPECT_EQ(registry.counter("service.queries").value(), 4u);
  EXPECT_EQ(registry.counter("service.queries.diameter").value(), 3u);
  EXPECT_EQ(registry.counter("service.errors").value(), 1u);
  EXPECT_EQ(registry.counter("service.batches").value(), 1u);
  auto& lat = registry.histogram("service.latency_seconds.diameter",
                                 latency_histogram_bounds());
  EXPECT_EQ(lat.count(), 3u);
  EXPECT_GE(lat.quantile(0.95), lat.quantile(0.5));
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("service.queries"), std::string::npos);
  EXPECT_NE(json.find("service.latency_seconds.diameter"), std::string::npos);
}

TEST(QueryEngine, WarmBuildsArtifactsUpFront) {
  QueryEngine engine(manual_options(2));
  engine.add_graph("g0", test_graph(24));
  auto* ctx = engine.find_graph("g0");
  ASSERT_NE(ctx, nullptr);
  auto w = ctx->warm_state();
  EXPECT_FALSE(w.weighted_ecc);
  EXPECT_FALSE(w.hop_ecc);
  engine.warm_all();
  w = ctx->warm_state();
  EXPECT_TRUE(w.csr);
  EXPECT_TRUE(w.connectivity);
  EXPECT_TRUE(w.weighted_ecc);
  EXPECT_TRUE(w.hop_ecc);

  // Warming a disconnected graph builds what is well-defined and skips
  // the connected-only tables instead of throwing.
  engine.add_graph("parts", disconnected_graph());
  engine.warm("parts");
  EXPECT_FALSE(engine.find_graph("parts")->warm_state().weighted_ecc);
}

TEST(QueryEngine, Theorem11HandlerMatchesDirectRunAndSharesCache) {
  const auto g = test_graph(20, 7);
  QueryEngine engine(manual_options());
  register_theorem11_handlers(engine);
  engine.add_graph("g0", g);

  Query q;
  q.type = "t11_diameter";
  q.seed = 5;
  const auto first = engine.query(q);
  ASSERT_TRUE(first.ok) << first.error;

  core::Theorem11Options opt;
  opt.seed = 5;
  opt.oracle_workers = 1;
  const auto direct = core::quantum_weighted_diameter(g, opt);
  EXPECT_EQ(first.value, direct.estimate_scaled);
  EXPECT_EQ(first.scale, direct.total_scale);

  // The resident cache now holds first-level rows; the repeat query
  // reuses them and must reproduce the answer exactly.
  ASSERT_NE(engine.find_graph("g0"), nullptr);
  EXPECT_GT(engine.find_graph("g0")->warm_state().toolkit_rows, 0u);
  EXPECT_EQ(engine.query(q), first);

  q.type = "t11_radius";
  const auto radius = engine.query(q);
  ASSERT_TRUE(radius.ok) << radius.error;
  EXPECT_LE(radius.value / radius.scale, first.value / first.scale);
}

// ---------------------------------------------------------------------------
// Memory-mapped resident graphs (ISSUE 10)

/// Writes `g` as a bcsr image and returns the path.
std::string write_test_bcsr(const WeightedGraph& g, const std::string& name) {
  const std::string path = ::testing::TempDir() + "qc_service_" + name;
  write_csr(g.csr(), path);
  return path;
}

TEST(QueryEngine, MappedSpecsShareOneMappingAndAnswerIdentically) {
  const auto g = test_graph(32, 9);
  const std::string path = write_test_bcsr(g, "shared.bcsr");

  QueryEngine engine(manual_options());
  register_unweighted_handlers(engine);
  auto& a = engine.add_graph_mapped("g0", path);
  auto& b = engine.add_graph_mapped("g1", path);
  EXPECT_TRUE(a.is_mapped());
  EXPECT_TRUE(b.is_mapped());
  EXPECT_EQ(a.source_path(), path);
  EXPECT_EQ(a.node_count(), g.node_count());
  EXPECT_EQ(a.edge_count(), g.edge_count());

  // Two specs naming one file share one mapping: same base address,
  // and the engine registry plus both context views pin it.
  ASSERT_NE(a.mapping_address(), nullptr);
  EXPECT_EQ(a.mapping_address(), b.mapping_address());
  EXPECT_GE(a.mapping_use_count(), 3);

  EXPECT_THROW(engine.add_graph_mapped("g0", path), ArgumentError);
  EXPECT_THROW(engine.add_graph_mapped("gx", path + ".missing"),
               ArgumentError);

  // The mixed workload (including approx_distance, which materializes
  // the owned WeightedGraph for the toolkit) answers exactly like an
  // owned-copy engine.
  const auto qs = mixed_queries(21, g.node_count());
  const auto ref = reference_results(qs, g);
  for (Query q : qs) {
    q.graph = "g0";
    QueryResult got = engine.query(q);
    QueryResult want = ref.at(q.id);
    want.id = got.id;  // ids match by construction; compare payloads
    ASSERT_EQ(got, want) << "id=" << q.id << " type=" << q.type;
  }

  // Toolkit materialization is not the copy-on-write detach: reads
  // still serve from the mapped view afterwards.
  EXPECT_TRUE(a.is_mapped());
  const auto w = a.warm_state();
  EXPECT_TRUE(w.mapped);
  EXPECT_TRUE(w.materialized);
  EXPECT_FALSE(b.warm_state().materialized);
}

TEST(QueryEngine, MappedUpdateDetachesExactlyOnce) {
  const auto g = test_graph(28, 11);
  ASSERT_GE(g.edge_count(), 1u);
  const Edge e = g.edges().front();
  const std::string path = write_test_bcsr(g, "detach.bcsr");

  QueryEngine engine(manual_options());
  auto& a = engine.add_graph_mapped("a", path);
  auto& b = engine.add_graph_mapped("b", path);

  // Direct apply_update on "a" (rebuild policy): the first update
  // performs the copy-on-write detach and reports it; the second finds
  // owned storage and must not report a detach again.
  runtime::ThreadPool pool(2);
  {
    std::unique_lock<std::shared_mutex> lock(a.state_mutex());
    const auto first =
        a.apply_update(GraphUpdate{}.reweight(e.u, e.v, e.weight + 1), pool,
                       /*incremental=*/false);
    EXPECT_TRUE(first.stats.mapped_detached);
    EXPECT_EQ(first.stats.reweighted, 1u);
    const auto second =
        a.apply_update(GraphUpdate{}.reweight(e.u, e.v, e.weight + 2), pool,
                       /*incremental=*/true);
    EXPECT_FALSE(second.stats.mapped_detached);
  }
  EXPECT_FALSE(a.is_mapped());
  EXPECT_FALSE(a.warm_state().mapped);
  EXPECT_TRUE(a.warm_state().materialized);

  // "b" still serves from the mapping "a" left behind.
  EXPECT_TRUE(b.is_mapped());
  ASSERT_NE(b.mapping_address(), nullptr);

  // The engine's "update" handler drives the same detach on "b".
  Query up;
  up.type = "update";
  up.graph = "b";
  up.op = "reweight";
  up.node = e.u;
  up.target = e.v;
  up.weight = e.weight + 2;
  const auto r = engine.query(up);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, g.edge_count());
  EXPECT_FALSE(b.is_mapped());

  // Both detached copies answer like owned graphs with the same edits.
  WeightedGraph expect_g = g;
  expect_g.apply(GraphUpdate{}.reweight(e.u, e.v, e.weight + 2));
  const auto ecc = eccentricities(expect_g);
  const Dist want = *std::max_element(ecc.begin(), ecc.end());
  Query q;
  q.type = "diameter";
  for (const char* name : {"a", "b"}) {
    q.graph = name;
    const auto res = engine.query(q);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.value, want) << name;
  }
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(Wire, ParsesFullRequest) {
  const Query q = parse_request(
      R"( {"id":7, "graph":"g1", "type":"sssp", "node":5, "target":9,)"
      R"( "seed":42} )");
  EXPECT_EQ(q.id, 7u);
  EXPECT_EQ(q.graph, "g1");
  EXPECT_EQ(q.type, "sssp");
  EXPECT_EQ(q.node, 5u);
  EXPECT_EQ(q.target, 9u);
  EXPECT_EQ(q.seed, 42u);

  // "source" is a synonym for "node"; defaults hold elsewhere.
  const Query s = parse_request(R"({"type":"eccentricity","source":3})");
  EXPECT_EQ(s.node, 3u);
  EXPECT_EQ(s.id, 0u);
  EXPECT_EQ(s.seed, 1u);
  EXPECT_TRUE(s.graph.empty());
}

TEST(Wire, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request(""), ArgumentError);
  EXPECT_THROW(parse_request("{}"), ArgumentError);           // no type
  EXPECT_THROW(parse_request(R"({"type":""})"), ArgumentError);
  EXPECT_THROW(parse_request(R"({"typ":"diameter"})"), ArgumentError);
  EXPECT_THROW(parse_request(R"({"type":"d"} x)"), ArgumentError);
  EXPECT_THROW(parse_request(R"({"type":"d","id":-1})"), ArgumentError);
  EXPECT_THROW(parse_request(R"({"type":"d","id":1.5})"), ArgumentError);
  EXPECT_THROW(parse_request(R"({"type":"d","node":4294967296})"),
               ArgumentError);  // > 32 bits
  EXPECT_THROW(parse_request(R"({"type":"d","node":{}})"), ArgumentError);
  EXPECT_THROW(parse_request(R"({"type":"d")"), ArgumentError);
}

// A line that fails to parse still answers the id it gave before the
// fault; a line with no readable id answers 0.
TEST(Wire, ParseErrorCarriesTheIdReadBeforeIt) {
  const auto id_of = [](std::string_view line) -> std::uint64_t {
    try {
      (void)parse_request(line);
    } catch (const RequestError& e) {
      return e.id();
    }
    ADD_FAILURE() << "parsed: " << line;
    return ~std::uint64_t{0};
  };
  EXPECT_EQ(id_of(R"({"id":2,"graph":"g0","type":"sssp","source":0,"tar)"),
            2u);
  EXPECT_EQ(id_of("hello, world"), 0u);
  EXPECT_EQ(id_of(R"({"id":3,"graph":"g0","kind":"sssp"})"), 3u);
}

TEST(Wire, FormatsResponsesDeterministically) {
  QueryResult r;
  r.id = 3;
  r.type = "diameter";
  r.ok = true;
  r.value = 17;
  EXPECT_EQ(format_response(r),
            R"({"id":3,"ok":true,"type":"diameter","value":17})");

  r.type = "approx_distance";
  r.value = 840;
  r.scale = 120;
  EXPECT_EQ(format_response(r),
            R"({"id":3,"ok":true,"type":"approx_distance","value":840,)"
            R"("scale":120,"approx":7})");

  r.value = kInfDist;  // ineligible pair: the sentinel prints as "inf"
  EXPECT_EQ(format_response(r),
            R"({"id":3,"ok":true,"type":"approx_distance","value":"inf",)"
            R"("scale":120})");

  QueryResult sssp;
  sssp.id = 4;
  sssp.type = "sssp";
  sssp.ok = true;
  sssp.value = 2;
  sssp.dist = {0, 2, kInfDist};
  EXPECT_EQ(format_response(sssp),
            R"({"id":4,"ok":true,"type":"sssp","value":2,)"
            R"("dist":[0,2,"inf"]})");

  QueryResult err;
  err.id = 9;
  err.type = "diameter";
  err.error = "unknown graph: \"g9\"";
  EXPECT_EQ(format_response(err),
            R"({"id":9,"ok":false,"type":"diameter",)"
            R"("error":"unknown graph: \"g9\""})");

  EXPECT_EQ(format_rejection(12, "engine saturated"),
            R"({"id":12,"ok":false,"code":"rejected",)"
            R"("error":"engine saturated"})");
}

TEST(Wire, RoundTripsThroughEngine) {
  QueryEngine engine(manual_options());
  engine.add_graph("g0", test_graph(16));
  const auto r = engine.query(parse_request(R"({"id":5,"type":"radius"})"));
  EXPECT_TRUE(r.ok);
  const std::string line = format_response(r);
  EXPECT_EQ(line.find(R"({"id":5,"ok":true,"type":"radius","value":)"), 0u);
}

}  // namespace
}  // namespace qc::service
