// Warm-vs-cold benchmark of the resident query service (src/service).
//
// The QueryEngine's reason to exist is amortization: resident CSR,
// eccentricity tables, and toolkit rows answer repeated queries at
// lookup cost, where the batch drivers re-paid construction per
// invocation. This bench pins that claim:
//
//  * correctness gates first — the concurrent engine must return
//    byte-identical results to a serial single-worker replay at 1/2/8
//    workers with 4 concurrent clients, at batch size 1 vs max, and
//    from per-query cold engines (the ISSUE's determinism acceptance
//    criteria, also pinned by tests/test_service.cpp);
//  * then timing — closed-loop clients (1, 4, 16) against one warm
//    resident engine vs per-query cold construction (fresh engine +
//    graph copy per query, the old drivers' shape), reporting
//    throughput and p50/p95 latency per configuration;
//  * writes BENCH_service.json in the harness's row schema: workload
//    serve_warm or serve_cold, variant clients=K, seconds = wall time,
//    speedup_vs_baseline = throughput over the 1-client cold row, and
//    identical = all three determinism checks held; qps, p50_ms and
//    p95_ms ride as extra columns. In full mode the bench exits nonzero
//    unless the 1-client warm/cold throughput ratio clears 2x (the
//    acceptance floor — measured ratios are far higher).
//
// Usage: bench_service [--smoke] [--n N] [--queries Q] [--out FILE]
//   --smoke   tiny instance for ctest (correctness + JSON, no timing
//             claims)
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "harness.h"
#include "runtime/sweep.h"
#include "service/query_engine.h"
#include "util/rng.h"

namespace {

using namespace qc;
using service::EngineOptions;
using service::Query;
using service::QueryEngine;
using service::QueryResult;

/// Deterministic mixed workload over every built-in plus the unweighted
/// extension — a pure function of (count, n), so every engine shape
/// replays the identical stream.
std::vector<Query> make_queries(std::size_t count, NodeId n) {
  static const char* kTypes[] = {"diameter",
                                 "radius",
                                 "eccentricity",
                                 "sssp",
                                 "approx_distance",
                                 "unweighted_diameter"};
  std::vector<Query> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.id = i + 1;
    q.type = kTypes[i % (sizeof(kTypes) / sizeof(kTypes[0]))];
    q.node = static_cast<NodeId>((i * 13) % n);
    q.target = static_cast<NodeId>((i * 7 + 1) % n);
    qs.push_back(q);
  }
  return qs;
}

std::unique_ptr<QueryEngine> make_engine(const WeightedGraph& g,
                                         unsigned workers,
                                         bool auto_dispatch) {
  EngineOptions opt;
  opt.workers = workers;
  opt.auto_dispatch = auto_dispatch;
  auto engine = std::make_unique<QueryEngine>(opt);
  service::register_unweighted_handlers(*engine);
  engine->add_graph("g0", g);
  return engine;
}

std::map<std::uint64_t, QueryResult> reference_results(
    const WeightedGraph& g, const std::vector<Query>& qs) {
  const auto engine = make_engine(g, 1, /*auto_dispatch=*/false);
  std::map<std::uint64_t, QueryResult> out;
  for (const Query& q : qs) out[q.id] = engine->query(q);
  return out;
}

/// One cold answer, the old drivers' shape: fresh engine, fresh graph
/// copy (cold CSR/tables), one query, teardown.
QueryResult cold_query(const WeightedGraph& g, const Query& q,
                       unsigned workers) {
  const auto engine = make_engine(g, workers, /*auto_dispatch=*/false);
  return engine->query(q);
}

bool check_worker_and_client_invariance(
    const WeightedGraph& g, const std::vector<Query>& qs,
    const std::map<std::uint64_t, QueryResult>& ref) {
  bool ok = true;
  for (const unsigned workers : {1u, 2u, 8u}) {
    const auto engine = make_engine(g, workers, /*auto_dispatch=*/true);
    constexpr std::size_t kClients = 4;
    std::vector<std::vector<std::pair<std::uint64_t, QueryResult>>> got(
        kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < qs.size(); i += kClients) {
          got[c].emplace_back(qs[i].id, engine->submit(qs[i]).get());
        }
      });
    }
    for (auto& t : clients) t.join();
    for (const auto& per_client : got) {
      for (const auto& [id, r] : per_client) ok &= r == ref.at(id);
    }
  }
  return ok;
}

bool check_batch_invariance(const WeightedGraph& g,
                            const std::vector<Query>& qs,
                            const std::map<std::uint64_t, QueryResult>& ref) {
  bool ok = true;
  for (const std::size_t max_batch : {std::size_t{1}, qs.size()}) {
    EngineOptions opt;
    opt.workers = 2;
    opt.auto_dispatch = false;
    opt.max_batch = max_batch;
    QueryEngine engine(opt);
    service::register_unweighted_handlers(engine);
    engine.add_graph("g0", g);
    std::vector<std::pair<std::uint64_t, std::future<QueryResult>>> futs;
    for (const Query& q : qs) futs.emplace_back(q.id, engine.submit(q));
    while (engine.drain() > 0) {
    }
    for (auto& [id, fut] : futs) ok &= fut.get() == ref.at(id);
  }
  return ok;
}

/// One closed-loop measurement: wall time and per-query latencies.
struct Timed {
  std::size_t queries = 0;
  double wall_s = 0;
  runtime::Aggregate latency;  ///< seconds per query

  double qps() const { return wall_s > 0 ? double(queries) / wall_s : 0.0; }
};

/// Runs `clients` closed-loop clients over `qs`: each answers its slice
/// one query at a time through `answer` and waits for it.
template <typename Answer>
Timed closed_loop(const std::vector<Query>& qs, std::size_t clients,
                  const Answer& answer) {
  std::vector<std::vector<double>> lat(clients);
  const bench::Stopwatch wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < qs.size(); i += clients) {
        const bench::Stopwatch one;
        answer(qs[i]);
        lat[c].push_back(one.seconds());
      }
    });
  }
  for (auto& t : threads) t.join();
  Timed out;
  out.queries = qs.size();
  out.wall_s = wall.seconds();
  std::vector<double> merged;
  for (auto& per_client : lat) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  out.latency = runtime::Aggregate::of(std::move(merged));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv,
                           {"--smoke", "--n N", "--queries N", "--out FILE"});
  const bool smoke = flags.has("--smoke");
  const NodeId n = flags.num<NodeId>("--n", smoke ? 64 : 512);
  const auto queries = flags.num<std::size_t>("--queries", smoke ? 48 : 384);
  const std::string out_path = flags.out_file("--out", "BENCH_service.json");

  Rng rng(2022);
  auto g = gen::randomize_weights(
      gen::erdos_renyi_connected(n, 8.0 / double(n), rng), 10, rng);

  const auto qs = make_queries(queries, n);
  // Cold mode rebuilds everything per query; cap its sample so the
  // bench stays minutes-free while qps stays per-mode honest.
  const std::size_t cold_count = std::min<std::size_t>(queries, 48);
  const std::vector<Query> cold_qs(qs.begin(), qs.begin() + cold_count);

  // --- correctness gates (always, before any timing) ---
  const auto ref = reference_results(g, qs);
  const bool det_workers = check_worker_and_client_invariance(g, qs, ref);
  const bool det_batch = check_batch_invariance(g, qs, ref);
  bool det_cold = true;
  for (const Query& q : cold_qs) {
    det_cold &= cold_query(g, q, 1) == ref.at(q.id);
  }
  const bool deterministic = det_workers && det_batch && det_cold;

  // --- timing: one warm resident engine vs per-query cold builds ---
  // The warm engine runs on every hardware worker (workers = 0); each
  // cold query builds a fresh engine the same way.
  const auto warm_engine = make_engine(g, 0, /*auto_dispatch=*/true);
  warm_engine->warm_all();
  const std::vector<std::size_t> client_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 4, 16};
  std::vector<std::pair<std::string, std::vector<Timed>>> modes = {
      {"serve_warm", {}}, {"serve_cold", {}}};
  for (const std::size_t clients : client_counts) {
    modes[0].second.push_back(closed_loop(qs, clients, [&](const Query& q) {
      warm_engine->submit(q).get();
    }));
  }
  for (const std::size_t clients : client_counts) {
    modes[1].second.push_back(closed_loop(
        cold_qs, clients, [&](const Query& q) { cold_query(g, q, 0); }));
  }

  // The baseline row is the 1-client cold one; speedups are throughput
  // ratios, as the modes answer different query counts.
  const double cold_qps = modes[1].second.front().qps();
  bench::Report report;
  for (const auto& [mode, timed] : modes) {
    for (std::size_t i = 0; i < timed.size(); ++i) {
      const Timed& t = timed[i];
      bench::Fields cols;
      cols.add("queries", t.queries)
          .add("qps", t.qps())
          .add("p50_ms", t.latency.p50 * 1e3)
          .add("p95_ms", t.latency.p95 * 1e3);
      report.add({mode, "clients=" + std::to_string(client_counts[i]), n,
                  bench::hardware_workers(), t.wall_s,
                  cold_qps > 0 ? t.qps() / cold_qps : 0.0, deterministic,
                  cols});
    }
  }
  const double speedup = report.rows().front().speedup;
  const bool meets_2x = speedup >= 2.0;

  std::printf("service warm-vs-cold: %s, %zu queries\n\n%s\n",
              g.summary().c_str(), queries, report.table().c_str());
  std::printf("determinism: workers=%s batch=%s cold=%s; warm/cold speedup "
              "(1 client) = %.1fx\n",
              det_workers ? "ok" : "FAIL", det_batch ? "ok" : "FAIL",
              det_cold ? "ok" : "FAIL", speedup);

  report.spec.add("n", n)
      .add("m", g.edge_count())
      .add("queries", queries)
      .add("smoke", smoke);
  bench::Fields determinism;
  determinism.add("workers_1_2_8_with_4_clients", det_workers)
      .add("batch_1_vs_max", det_batch)
      .add("cold_matches_warm", det_cold);
  report.section("determinism", determinism);
  report.acceptance.add("warm_over_cold_speedup_1client", speedup)
      .add("meets_2x", meets_2x)
      .add("byte_identical_at_all_worker_counts", deterministic);
  report.write(out_path);

  if (!deterministic) return 1;
  if (!smoke && !meets_2x) return 2;
  return 0;
}
