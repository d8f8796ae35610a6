// big_ingest: the bgraph -> bcsr pipeline a dataset user runs, plus the
// simulator regime opposite to t11_er's. Set-up writes an unsorted
// R-MAT scale-18 bgraph (n = 262,144, ~2.2M edges, W = 64); one job
// takes it from disk to a simulated aggregate answer and a served one:
//   sort_bgraph -> csr_from_bgraph (pooled) -> write_csr -> map_csr
//   (validated) -> 16 sampled eccentricities on the mapped view ->
//   load_bgraph -> build_bfs_tree + global_aggregate (pooled simulator)
//   -> a QueryEngine serving the bcsr file (mapped) answers 16 batched
//   sssp queries.
// Every node is active in every simulated round here, and the 70 MB CSR
// is far larger than a core's L2, so a simulator change that only helps
// idle rounds, or a kernel change tuned to t11_er's small graphs, shows
// up as no change or a slowdown on this workload. Closed loop, one job
// at a time.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/primitives.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "layers.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "service/query_engine.h"
#include "workloads.h"

namespace qcbench {

namespace {

using qc::NodeId;

constexpr std::uint32_t kScale = 18;
constexpr std::uint64_t kTargetEdges = std::uint64_t{1} << 21;
constexpr qc::Weight kMaxWeight = 64;
constexpr std::size_t kEccSources = 16;  // also the served sssp sources
constexpr int kSetupRepeats = 3;

struct Files {
  std::string dir, input, sorted, bcsr;
};

/// Stage times of one job plus the outputs the checks read afterwards.
struct Job {
  double sort_s = 0, csr_build_s = 0, write_csr_s = 0, map_csr_s = 0;
  double ecc_s = 0, load_s = 0, bfs_s = 0, aggregate_s = 0, serve_s = 0;
  double total_s = 0;
  qc::CsrGraph mapped;
  std::vector<qc::Dist> ecc;
  std::vector<qc::service::QueryResult> served;  ///< sssp from sources[k]
  std::vector<double> serve_latency_ms;          ///< submit -> answer
  qc::WeightedGraph graph;
  qc::congest::BfsTreeResult bfs;
  std::uint64_t aggregate = 0;
  std::uint64_t sim_rounds = 0;
};

template <typename Fn>
double timed(Tracer& tracer, const char* name, std::uint64_t op, Fn&& fn) {
  auto span = tracer.span(name, op);
  const auto t0 = Clock::now();
  fn(span);
  return seconds_between(t0, Clock::now());
}

/// The simulated half of a job: BFS tree from node 0, then the maximum
/// depth aggregated over that tree.
void simulate(Job& job, qc::congest::Config cfg, Tracer& tracer,
              std::uint64_t op) {
  job.bfs_s = timed(tracer, "congest.build_bfs_tree", op, [&](auto& span) {
    job.bfs = qc::congest::build_bfs_tree(job.graph, 0, cfg);
    span.arg("sim_rounds", static_cast<double>(job.bfs.stats.rounds));
    span.arg("sim_messages", static_cast<double>(job.bfs.stats.messages));
  });
  std::vector<std::uint64_t> depths(job.graph.node_count());
  for (NodeId v = 0; v < job.graph.node_count(); ++v) {
    depths[v] = job.bfs.nodes[v].depth;
  }
  job.aggregate_s = timed(tracer, "congest.global_aggregate", op, [&](auto& span) {
    const auto agg = qc::congest::global_aggregate(
        job.graph, 0, depths, qc::congest::AggregateOp::kMax,
        qc::bits_for(job.graph.node_count()), cfg);
    job.aggregate = agg.value;
    job.sim_rounds = job.bfs.stats.rounds + agg.stats.rounds;
    span.arg("sim_rounds", static_cast<double>(agg.stats.rounds));
    span.arg("sim_messages", static_cast<double>(agg.stats.messages));
  });
}

/// The engine of the serving step (a registry only in traced runs).
std::unique_ptr<qc::service::QueryEngine> serving_engine(
    const Files& f, qc::runtime::MetricsRegistry* metrics) {
  qc::service::EngineOptions opt;
  opt.workers = bench_workers();
  opt.metrics = metrics;
  auto engine = std::make_unique<qc::service::QueryEngine>(opt);
  engine->add_graph_mapped("ingested", f.bcsr);
  return engine;
}

qc::service::Query sssp_query(const std::vector<NodeId>& sources, std::size_t k) {
  qc::service::Query q;
  q.id = k + 1;
  q.type = "sssp";
  q.node = sources[k];
  q.target = sources[(k + 1) % sources.size()];
  return q;
}

Job run_job(const Files& f, const std::vector<NodeId>& sources,
            qc::runtime::ThreadPool& pool, qc::congest::Config sim_cfg,
            qc::runtime::MetricsRegistry* metrics, Tracer& tracer,
            std::uint64_t op) {
  Job job;
  auto span = tracer.span("bench.ingest_job", op);
  const auto t0 = Clock::now();
  job.sort_s = timed(tracer, "graph.sort_bgraph", op,
                     [&](auto&) { qc::sort_bgraph(f.input, f.sorted); });
  qc::CsrGraph csr;
  job.csr_build_s = timed(tracer, "graph.csr_from_bgraph", op,
                          [&](auto&) { csr = qc::csr_from_bgraph(f.sorted, &pool); });
  job.write_csr_s = timed(tracer, "graph.write_csr", op,
                          [&](auto&) { qc::write_csr(csr, f.bcsr); });
  job.map_csr_s = timed(tracer, "graph.map_csr", op,
                        [&](auto&) { job.mapped = qc::map_csr(f.bcsr, true); });
  job.ecc_s = timed(tracer, "graph.eccentricities", op, [&](auto&) {
    job.ecc = qc::eccentricities(job.mapped, sources, &pool);
  });
  job.load_s = timed(tracer, "graph.load_bgraph", op,
                     [&](auto&) { job.graph = qc::load_bgraph(f.sorted); });
  sim_cfg.execution.pool = &pool;
  simulate(job, sim_cfg, tracer, op);
  job.serve_s = timed(tracer, "service.serve_bcsr", op, [&](auto&) {
    const auto engine = serving_engine(f, metrics);
    std::vector<std::future<qc::service::QueryResult>> answers;
    const auto sent = Clock::now();
    for (std::size_t k = 0; k < sources.size(); ++k) {
      answers.push_back(engine->submit(sssp_query(sources, k)));
    }
    for (auto& a : answers) {
      job.served.push_back(a.get());
      job.serve_latency_ms.push_back(1e3 * seconds_between(sent, Clock::now()));
    }
  });
  job.total_s = seconds_between(t0, Clock::now());
  return job;
}

/// The checks, outside timing: the mapped CSR equals read_csr of the
/// same file, BFS depths equal centralized hop distances, the aggregate
/// equals their maximum, and each served sssp vector's maximum equals
/// the eccentricity the graph kernel sampled for its source.
bool job_correct(const Files& f, const Job& job) {
  if (job.served.size() != job.ecc.size()) return false;
  for (std::size_t k = 0; k < job.served.size(); ++k) {
    const auto& r = job.served[k];
    if (!r.ok || r.dist.size() != job.mapped.node_count() ||
        *std::max_element(r.dist.begin(), r.dist.end()) != job.ecc[k]) {
      return false;
    }
  }
  const qc::CsrGraph copy = qc::read_csr(f.bcsr);
  const auto mo = job.mapped.offsets(), co = copy.offsets();
  const auto mh = job.mapped.halves(), ch = copy.halves();
  if (!std::equal(mo.begin(), mo.end(), co.begin(), co.end())) return false;
  if (!std::equal(mh.begin(), mh.end(), ch.begin(), ch.end())) return false;
  const auto hops = qc::bfs_distances(job.graph, 0);
  std::uint64_t deepest = 0;
  for (NodeId v = 0; v < job.graph.node_count(); ++v) {
    if (job.bfs.nodes[v].depth != hops[v] || hops[v] >= qc::kInfDist) return false;
    deepest = std::max<std::uint64_t>(deepest, hops[v]);
  }
  return job.bfs.outcome.completed && job.aggregate == deepest;
}

}  // namespace

RunResult run_big_ingest(const RunArgs& args, Tracer& tracer,
                         FailureLedger& ledger) {
  RunResult out;
  const unsigned workers = bench_workers();
  out.note("scale", kScale);
  out.note("target_edges", static_cast<double>(kTargetEdges));
  out.note("max_weight", static_cast<double>(kMaxWeight));
  out.note("pool_workers", workers);

  Files f;
  f.dir = args.out_dir + "/ingest-" + std::to_string(::getpid());
  std::filesystem::create_directories(f.dir);
  f.input = f.dir + "/input.bg";
  f.sorted = f.dir + "/sorted.bg";
  f.bcsr = f.dir + "/graph.bcsr";
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{f.dir};

  // ---- Set-up: input generation (the unsorted bgraph on disk).
  std::vector<double> setup_s;
  qc::BGraphInfo info;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    auto span = tracer.span("bench.setup", static_cast<std::uint64_t>(rep + 1));
    const auto t0 = Clock::now();
    info = qc::gen::rmat_bgraph(f.input, kScale, kTargetEdges, kMaxWeight,
                                qc::runtime::derive_seed(args.seed, 1));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.note("nodes", static_cast<double>(info.n));
  out.note("edges", static_cast<double>(info.m));
  qc::Rng rng(qc::runtime::derive_seed(args.seed, 2));
  std::vector<NodeId> sources(kEccSources);
  for (NodeId& s : sources) s = static_cast<NodeId>(rng.below(info.n));

  qc::runtime::ThreadPool pool(workers);

  if (args.trace) {
    Tracer off(false);
    // The untraced job's mapping must not outlive it: the traced job
    // rewrites the same bcsr file.
    const double plain_s = run_job(f, sources, pool, {}, nullptr, off, 1).total_s;
    RoundCounter counts;
    qc::runtime::MetricsRegistry registry;
    const Job job = run_job(f, sources, pool, counts.config(), &registry, tracer, 2);
    ledger.run("traced ingest job", [&] { return job_correct(f, job); });
    // Pool speedup: the same two primitives on one worker.
    Job serial;
    serial.graph = qc::load_bgraph(f.sorted);
    qc::congest::Config one;
    one.execution.workers = 1;
    simulate(serial, one, tracer, 3);
    ledger.record(serial.aggregate == job.aggregate, "serial aggregate differs");

    out.metric("graph.sort_s", job.sort_s, "s");
    out.metric("graph.csr_build_s", job.csr_build_s, "s");
    out.metric("graph.write_csr_s", job.write_csr_s, "s");
    out.metric("graph.map_csr_s", job.map_csr_s, "s");
    out.metric("graph.ecc_sampled_s", job.ecc_s, "s");
    out.metric("graph.load_bgraph_s", job.load_s, "s");
    // Bytes the job moves, computed from the record counts: sort reads
    // and writes the bgraph, the CSR build and load_bgraph read it twice
    // each (count pass, place pass), write_csr writes and map_csr's
    // validation reads the bcsr image once.
    const double bgraph = static_cast<double>(qc::kBGraphHeaderBytes +
                                              qc::kBGraphRecordBytes * info.m);
    const double bcsr = static_cast<double>(
        std::filesystem::file_size(f.bcsr));
    out.metric("graph.io_mb", (6 * bgraph + 2 * bcsr) / 1e6, "MB");
    out.note("graph.io_mb", "computed from record counts, not measured");
    out.metric("congest.bfs_tree_s", job.bfs_s, "s");
    out.metric("congest.aggregate_s", job.aggregate_s, "s");
    const double pooled = job.bfs_s + job.aggregate_s;
    out.metric("congest.pool_speedup",
               (serial.bfs_s + serial.aggregate_s) / pooled, "ratio");
    report_congest(counts, job.sim_rounds, pooled, out);
    // Service layer: handler time of a synchronous sssp on the mapped
    // graph, and the batched queries' wait beyond it.
    std::vector<double> handler_ms;
    {
      const auto engine = serving_engine(f, nullptr);
      for (std::size_t k = 0; k < 4; ++k) {
        auto span = tracer.span("service.query.sssp", k + 1);
        const auto t0 = Clock::now();
        const auto r = engine->query(sssp_query(sources, k));
        handler_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
        ledger.record(r.ok && r == job.served[k], "synchronous sssp differs");
      }
    }
    std::vector<double> waits;
    for (double ms : job.serve_latency_ms) waits.push_back(std::max(0.0, ms - median(handler_ms)));
    out.metric("service.handler_us.sssp", 1e3 * median(handler_ms), "us");
    out.metric("service.queue_wait_ms.sssp", median(waits), "ms");
    out.metric("service.queue_wait_p50_ms", median(waits), "ms");
    out.metric("service.read_p50_ms", median(job.serve_latency_ms), "ms");
    auto& batch = registry.histogram("service.batch_size");
    out.metric("service.batch_size_mean",
               batch.count() ? batch.sum() / static_cast<double>(batch.count()) : 0.0,
               "count");
    out.note("service.serve_bcsr_s", job.serve_s);
    out.metric("trace.overhead_share", job.total_s / plain_s - 1.0, "ratio");
    fork_join_probe(tracer, out);
    add_layer_self_times(tracer, out);
    return out;
  }

  // ---- Measure: whole jobs until --seconds of job time have passed;
  // each job is checked right after it, outside its timing.
  std::vector<double> job_s;
  double busy = 0;
  while (busy < args.seconds) {
    Job job;
    try {
      job = run_job(f, sources, pool, {}, nullptr, tracer, job_s.size() + 1);
    } catch (const std::exception& e) {
      ledger.record(false, std::string("ingest job threw: ") + e.what());
      break;
    }
    job_s.push_back(job.total_s);
    busy += job.total_s;
    ledger.run("ingest job " + std::to_string(job_s.size()),
               [&] { return job_correct(f, job); });
  }
  if (job_s.empty()) throw std::runtime_error("no ingest job completed");
  out.metric("setup_s", median(setup_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metric("latency_ms", 1e3 * median(job_s), "ms");
  out.metric("throughput_per_s", static_cast<double>(job_s.size()) / busy, "1/s");
  out.note("jobs", static_cast<double>(job_s.size()));
  return out;
}

}  // namespace qcbench
