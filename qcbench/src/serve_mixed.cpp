// serve_mixed: the `serve` use case. One generator thread submits a
// seeded Poisson stream of reads at a fixed offered rate to one warm
// QueryEngine holding two W = 64 graphs: ER n = 4096 (low D) and a 64x64
// grid (high D). Most reads are lookups (diameter, radius,
// eccentricity); the rest are sssp and approx_distance. Every
// kUpdatePeriodS an update sets a uniformly drawn existing grid edge to
// weight 1, and its delta repair redoes the grid's whole eccentricity
// table (~0.25 s) under the graph's writer lock. The engine's single
// dispatcher makes cheap reads wait behind slow handlers and behind
// those holds. The simulator does no work here.
//
// The open loop at kFixedRate gives read latency, timed from each read's
// scheduled send; then kBursts bursts of kBurstReads reads with
// kBurstWindow outstanding give the rate the engine sustains with a full
// queue. Both report a median over windows or bursts, so a stall of the
// host during one of them does not move the result. Every response is compared, outside timing, with a
// single-worker engine without a dispatcher thread that replays the
// admitted requests in admission order.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/update.h"
#include "layers.h"
#include "paths/reference.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "schedule.h"
#include "workloads.h"

namespace qcbench {

namespace {

using qc::NodeId;
using qc::service::AdmissionError;
using qc::service::Query;
using qc::service::QueryEngine;
using qc::service::QueryResult;

constexpr NodeId kErNodes = 4096;
constexpr NodeId kGridNodes = 64 * 64;
constexpr qc::Weight kMaxWeight = 64;
constexpr double kFixedRate = 100;       // reads per second
constexpr double kFixedShare = 0.8;      // of --seconds, at least kMinReads
constexpr std::size_t kMinReads = 1010;  // p99 needs 1000
constexpr double kUpdatePeriodS = 2.0;
constexpr int kLatencyWindows = 4;  // of the fixed-rate phase, 2 updates each
constexpr int kBursts = 3;
constexpr std::size_t kBurstReads = 2000;
constexpr std::size_t kBurstWindow = 256;
/// Read p99 limit at the fixed rate (the verdict is recorded).
constexpr double kReadP99LimitMs = 1000;
constexpr int kSetupRepeats = 3;
constexpr double kInf = std::numeric_limits<double>::infinity();

const char* const kReadTypes[] = {"diameter", "radius", "eccentricity", "sssp",
                                  "approx_distance"};

/// The engine's pool leaves one core to its dispatcher thread and the
/// open loop, so the busy threads stay within nproc. (With nproc workers
/// the burst rate fell ~25% and varied more between runs.)
unsigned engine_workers() { return std::max(1u, bench_workers() - 1); }

struct Graphs {
  qc::WeightedGraph er, grid;
};

Graphs make_graphs(std::uint64_t seed) {
  qc::Rng er_rng(qc::runtime::derive_seed(seed, 1));
  qc::Rng grid_rng(qc::runtime::derive_seed(seed, 2));
  return {qc::gen::from_family("ER", kErNodes, kMaxWeight, er_rng),
          qc::gen::from_family("grid", kGridNodes, kMaxWeight, grid_rng)};
}

std::vector<ServedGraph> describe(const Graphs& g) {
  std::vector<ServedGraph> out(2);
  out[0].name = "er";
  out[1].name = "grid";
  out[1].takes_updates = true;
  const qc::WeightedGraph* src[] = {&g.er, &g.grid};
  for (int i = 0; i < 2; ++i) {
    out[i].nodes = src[i]->node_count();
    for (const qc::Edge& e : src[i]->edges()) out[i].edges.emplace_back(e.u, e.v);
  }
  return out;
}

std::unique_ptr<QueryEngine> make_engine(Graphs g, unsigned workers,
                                         bool auto_dispatch,
                                         qc::runtime::MetricsRegistry* metrics) {
  qc::service::EngineOptions opt;
  opt.workers = workers;
  opt.auto_dispatch = auto_dispatch;
  opt.metrics = metrics;
  auto engine = std::make_unique<QueryEngine>(opt);
  engine->add_graph("er", std::move(g.er));
  engine->add_graph("grid", std::move(g.grid));
  return engine;
}

/// One phase of the stream and everything the generator observed.
struct Phase {
  std::size_t window = 0;  ///< 0: open loop on schedule; else burst window
  std::vector<Request> requests;
  std::vector<Response> responses;
  std::vector<double> latency_ms;  ///< scheduled send -> answer; inf = failed
  std::vector<double> late_ms;     ///< actual send - scheduled send
  double drain_s = 0;              ///< last scheduled send -> last answer
  double elapsed_s = 0;            ///< phase start -> last answer

  /// Latencies of the reads (or updates); a failed request reads inf.
  std::vector<double> latencies(bool reads) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].is_read() == reads) out.push_back(latency_ms[i]);
    }
    return out;
  }
  /// The same for answered requests only (failures are in the ledger).
  std::vector<double> answered(bool reads) const {
    auto out = latencies(reads);
    std::erase_if(out, [](double ms) { return !std::isfinite(ms); });
    return out;
  }
  /// Read p99 (inf when the sample count does not support it).
  double read_p99() const {
    return percentile(latencies(true), 0.99).value_or(kInf);
  }
  bool meets_limit() const {
    return read_p99() <= kReadP99LimitMs && drain_s * 1e3 <= kReadP99LimitMs;
  }
};

/// A generator thread submits on schedule (or, for a burst, whenever
/// fewer than `window` requests are outstanding); a collector thread
/// waits for answers in admission order (the engine answers each batch
/// in admission order, so waiting in order adds no delay).
void run_phase(QueryEngine& engine, Phase& ph, Tracer& tracer) {
  const std::size_t n = ph.requests.size();
  ph.responses.assign(n, {});
  ph.latency_ms.assign(n, kInf);
  ph.late_ms.assign(n, 0);
  std::vector<Clock::time_point> answered(n);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<QueryResult>>> inbox;
  bool sending = true;
  std::size_t collected = 0;  ///< answered or failed; guarded by mu
  std::condition_variable room;  ///< a burst's window has room

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(ph.requests[i].at_s));
  };
  std::thread collector([&] {
    for (;;) {
      std::pair<std::size_t, std::future<QueryResult>> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inbox.empty() || !sending; });
        if (inbox.empty()) return;
        item = std::move(inbox.front());
        inbox.pop_front();
      }
      try {
        ph.responses[item.first].result = item.second.get();
      } catch (const std::exception& e) {
        ph.responses[item.first].error = e.what();
      }
      answered[item.first] = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++collected;
      }
      room.notify_one();
    }
  });
  // Stops and joins the collector on every exit path.
  struct JoinCollector {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& sending;
    std::thread& t;
    ~JoinCollector() {
      {
        std::lock_guard<std::mutex> lock(mu);
        sending = false;
      }
      cv.notify_one();
      t.join();
    }
  };
  {
    JoinCollector join{mu, cv, sending, collector};
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due(i));
      if (ph.window != 0) {
        std::unique_lock<std::mutex> lock(mu);
        room.wait(lock, [&] { return i - collected < ph.window; });
      }
      const auto sent = Clock::now();
      ph.late_ms[i] = 1e3 * seconds_between(due(i), sent);
      try {
        auto fut = engine.submit(ph.requests[i].query);
        std::lock_guard<std::mutex> lock(mu);
        inbox.emplace_back(i, std::move(fut));
      } catch (const std::exception& e) {
        Response& r = ph.responses[i];
        r.refused = dynamic_cast<const AdmissionError*>(&e) != nullptr;
        if (!r.refused) r.error = e.what();
        answered[i] = sent;
        std::lock_guard<std::mutex> lock(mu);
        ++collected;
      }
      cv.notify_one();
    }
  }

  Clock::time_point last = due(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const Response& r = ph.responses[i];
    if (!r.refused && r.error.empty() && r.result.ok) {
      ph.latency_ms[i] = 1e3 * seconds_between(due(i), answered[i]);
    }
    last = std::max(last, answered[i]);
    // The request's life from its actual send to its answer; requests
    // overlap, so this benchmark-layer span has no service-layer share.
    const auto sent = due(i) + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       ph.late_ms[i]));
    tracer.record("bench.request." + ph.requests[i].query.type, sent,
                  answered[i], 0, ph.requests[i].query.id);
  }
  ph.drain_s = seconds_between(due(n - 1), last);
  ph.elapsed_s = seconds_between(start, last);
}

/// Read throughput of a phase: reads answered per second of the phase.
double read_throughput(const Phase& p) {
  return static_cast<double>(p.answered(true).size()) / p.elapsed_s;
}

/// Median over kLatencyWindows equal slices of the phase's schedule of
/// the mean read latency in each slice.
double windowed_mean_latency(const Phase& p) {
  const double span = p.requests.back().at_s;
  std::vector<std::vector<double>> win(kLatencyWindows);
  for (std::size_t i = 0; i < p.requests.size(); ++i) {
    if (!p.requests[i].is_read() || !std::isfinite(p.latency_ms[i])) continue;
    const auto w = std::min<std::size_t>(
        kLatencyWindows - 1,
        static_cast<std::size_t>(p.requests[i].at_s / span * kLatencyWindows));
    win[w].push_back(p.latency_ms[i]);
  }
  std::vector<double> means;
  for (const auto& w : win) means.push_back(mean(w));
  return median(means);
}

std::string phase_json(const Phase& p) {
  using qc::runtime::json_number;
  const auto num = [](double v) {
    return std::isfinite(v) ? json_number(v) : std::string("null");
  };
  const auto reads = p.answered(true), updates = p.answered(false);
  std::size_t refused = 0;
  for (const Response& r : p.responses) refused += r.refused ? 1 : 0;
  std::string out = "{\"requests\":" + std::to_string(p.requests.size()) +
                    ",\"reads_answered\":" + std::to_string(reads.size()) +
                    ",\"updates_answered\":" + std::to_string(updates.size()) +
                    ",\"refused\":" + std::to_string(refused) +
                    ",\"elapsed_s\":" + num(p.elapsed_s) +
                    ",\"read_throughput_per_s\":" + num(read_throughput(p));
  if (p.window != 0) {
    return out + ",\"window\":" + std::to_string(p.window) + "}";
  }
  return out + ",\"offered_reads_per_s\":" + json_number(kFixedRate) +
         ",\"read_mean_ms\":" + num(mean(reads)) +
         ",\"read_mean_ms_window_median\":" + num(windowed_mean_latency(p)) +
         ",\"read_p50_ms\":" + num(percentile(reads, 0.5).value_or(kInf)) +
         ",\"read_p99_ms\":" + num(p.read_p99()) +
         ",\"read_p99_limit_ms\":" + json_number(kReadP99LimitMs) +
         ",\"meets_limit\":" + (p.meets_limit() ? "true" : "false") +
         ",\"drain_s\":" + num(p.drain_s) +
         ",\"update_p50_ms\":" + num(percentile(updates, 0.5, false).value_or(kInf)) +
         ",\"update_p50_supported\":" +
         (percentile_supported(updates.size(), 0.5) ? "true" : "false") +
         ",\"generator_late_p50_ms\":" + num(*percentile(p.late_ms, 0.5, false)) +
         ",\"generator_late_p99_ms\":" + num(*percentile(p.late_ms, 0.99, false)) +
         ",\"generator_late_max_ms\":" +
         num(*std::max_element(p.late_ms.begin(), p.late_ms.end())) + "}";
}

/// Reference answers: every admitted request of `phases`, then `extra`,
/// replayed in admission order on a single-worker engine without a
/// dispatcher thread. Refused requests get an empty result.
std::vector<QueryResult> replay(std::uint64_t seed,
                                const std::vector<const Phase*>& phases,
                                const std::vector<Query>& extra) {
  auto ref = make_engine(make_graphs(seed), 1, false, nullptr);
  std::vector<QueryResult> out;
  const auto answer = [&](const Query& q) {
    auto fut = ref->submit(q);
    ref->drain();
    out.push_back(fut.get());
  };
  for (const Phase* p : phases) {
    for (std::size_t i = 0; i < p->requests.size(); ++i) {
      if (p->responses[i].refused) {
        out.emplace_back();
      } else {
        answer(p->requests[i].query);
      }
    }
  }
  for (const Query& q : extra) answer(q);
  return out;
}

/// Counts every request of `phases` once against its reference answer;
/// returns the index of the first reference not consumed.
std::size_t check_responses(const std::vector<const Phase*>& phases,
                            const std::vector<QueryResult>& reference,
                            FailureLedger& ledger) {
  std::size_t k = 0;
  for (const Phase* p : phases) {
    for (std::size_t i = 0; i < p->requests.size(); ++i, ++k) {
      const Query& q = p->requests[i].query;
      ledger.record(response_correct(p->responses[i], reference[k]),
                    (p->responses[i].refused ? "refused " : "wrong answer to ") +
                        q.type + " query " + std::to_string(q.id));
    }
  }
  return k;
}

struct Setup {
  std::unique_ptr<QueryEngine> engine;
  std::vector<ServedGraph> graphs;
  double seconds = 0;
};

Setup set_up(std::uint64_t seed, qc::runtime::MetricsRegistry* metrics,
             Tracer& tracer, std::uint64_t op) {
  auto span = tracer.span("bench.setup", op);
  Setup s;
  const auto t0 = Clock::now();
  Graphs g = make_graphs(seed);
  s.graphs = describe(g);
  s.engine = make_engine(std::move(g), engine_workers(), true, metrics);
  {
    auto warm = tracer.span("service.warm_all", op);
    s.engine->warm_all();
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

/// The fixed-rate open loop: reads at kFixedRate for kFixedShare of
/// the run (at least kMinReads), updates every kUpdatePeriodS.
Phase fixed_rate_phase(std::uint64_t seed, double seconds,
                       const std::vector<ServedGraph>& graphs) {
  Phase ph;
  ph.requests = make_schedule(qc::runtime::derive_seed(seed, 100), kFixedRate,
                              kUpdatePeriodS, seconds * kFixedShare, kMinReads,
                              graphs, Mix{}, 1);
  return ph;
}

/// Burst `k`: kBurstReads reads of the same mix, all due at once.
Phase burst_phase(std::uint64_t seed, int k,
                  const std::vector<ServedGraph>& graphs, std::uint64_t first_id) {
  Phase ph;
  ph.window = kBurstWindow;
  ph.requests = make_schedule(qc::runtime::derive_seed(seed, 101 + k), kFixedRate,
                              0, 0, kBurstReads, graphs, Mix{}, first_id);
  for (Request& r : ph.requests) r.at_s = 0;
  return ph;
}

/// Runs the kBursts bursts back to back on `engine`.
std::vector<Phase> run_bursts(std::uint64_t seed, QueryEngine& engine,
                              const std::vector<ServedGraph>& graphs,
                              std::uint64_t first_id, Tracer& tracer) {
  std::vector<Phase> out;
  for (int k = 0; k < kBursts; ++k) {
    out.push_back(burst_phase(seed, k, graphs, first_id));
    first_id += out.back().requests.size();
    run_phase(engine, out.back(), tracer);
  }
  return out;
}

std::string phases_json(const std::vector<const Phase*>& open,
                        const std::vector<Phase>& bursts) {
  std::string out;
  for (const Phase* p : open) out += (out.empty() ? "" : ",") + phase_json(*p);
  for (const Phase& b : bursts) out += "," + phase_json(b);
  return "[" + out + "]";
}

/// Per-layer probes of the traced run, on the engine the traced phases
/// ran on (and on fresh graphs for the cold-table and update probes).
void layer_probes(std::uint64_t seed, QueryEngine& engine, const Phase& traced,
                  const std::vector<ServedGraph>& graphs, Tracer& tracer,
                  std::vector<std::pair<Query, QueryResult>>& sync_answers,
                  RunResult& out) {
  // Handler time: synchronous QueryEngine::query, no queueing, on both
  // graphs in turn (updates: the grid only, as in the stream).
  qc::Rng rng(qc::runtime::derive_seed(seed, 7));
  std::map<std::string, double> handler_ms;  ///< by "graph/type"
  std::uint64_t id = 1u << 30;
  const auto probe = [&](const std::string& type, int count) {
    std::vector<double> all_us;
    std::map<std::string, std::vector<double>> by_graph_us;
    for (int i = 0; i < count; ++i) {
      const ServedGraph& g = graphs[type == "update" ? 1 : i % 2];
      Query q;
      q.id = id++;
      q.graph = g.name;
      q.type = type;
      q.node = static_cast<NodeId>(rng.below(g.nodes));
      q.target = static_cast<NodeId>(rng.below(g.nodes));
      if (type == "update") {
        const auto& [a, b] = g.edges[rng.below(g.edges.size())];
        q.op = "reweight";
        q.node = a;
        q.target = b;
        q.weight = 1;
      }
      auto span = tracer.span("service.query." + type, q.id);
      const auto t0 = Clock::now();
      QueryResult r = engine.query(q);
      const double us = 1e6 * seconds_between(t0, Clock::now());
      all_us.push_back(us);
      by_graph_us[g.name].push_back(us);
      sync_answers.emplace_back(q, std::move(r));
    }
    for (const auto& [graph, us] : by_graph_us) {
      handler_ms[graph + "/" + type] = median(us) / 1e3;
    }
    // sssp is in BENCHMARK.json (big_ingest serves it); the other types
    // are serve_mixed's own breakdown.
    (type == "sssp" ? out.metrics : out.details)
        .push_back({"service.handler_us." + type, median(all_us), "us"});
  };
  for (const char* t : kReadTypes) probe(t, std::string(t) == "approx_distance" ? 12 : 40);
  probe("update", 6);

  // Queue wait: open-loop latency minus the handler time of the
  // request's graph and type.
  std::map<std::string, std::vector<double>> wait_by_type;
  std::vector<double> read_waits;
  for (std::size_t i = 0; i < traced.requests.size(); ++i) {
    const Query& q = traced.requests[i].query;
    if (!std::isfinite(traced.latency_ms[i])) continue;
    const double w =
        std::max(0.0, traced.latency_ms[i] - handler_ms[q.graph + "/" + q.type]);
    wait_by_type[q.type].push_back(w);
    if (traced.requests[i].is_read()) read_waits.push_back(w);
  }
  for (const char* t : kReadTypes) {
    (std::string(t) == "sssp" ? out.metrics : out.details)
        .push_back({std::string("service.queue_wait_ms.") + t,
               percentile(wait_by_type[t], 0.5, false).value_or(0), "ms"});
  }
  out.detail("service.queue_wait_ms.update",
             percentile(wait_by_type["update"], 0.5, false).value_or(0), "ms");
  out.metric("service.queue_wait_p50_ms", percentile(read_waits, 0.5).value_or(0), "ms");
  out.detail("service.queue_wait_p99_ms", percentile(read_waits, 0.99).value_or(0), "ms");

  // Graph layer, on fresh copies of both graphs: single Dijkstras, the
  // cold eccentricity tables warm-up pays, and direct grid updates
  // through GraphContext.
  qc::runtime::ThreadPool pool(bench_workers());
  Graphs fresh = make_graphs(seed);
  {
    std::vector<double> us;
    qc::DijkstraWorkspace ws;
    std::vector<qc::Dist> dist;
    for (int i = 0; i < 64; ++i) {
      const qc::CsrGraph& csr = i % 2 ? fresh.grid.csr() : fresh.er.csr();
      const auto s = static_cast<NodeId>(rng.below(csr.node_count()));
      auto span = tracer.span("graph.dijkstra", static_cast<std::uint64_t>(i + 1));
      const auto t0 = Clock::now();
      ws.dijkstra(csr, s, dist);
      us.push_back(1e6 * seconds_between(t0, Clock::now()));
    }
    out.detail("graph.dijkstra_us", median(us), "us");
  }
  qc::service::GraphContext er("er", std::move(fresh.er));
  qc::service::GraphContext grid("grid", std::move(fresh.grid));
  double ecc_table_s = 0;
  for (qc::service::GraphContext* ctx : {&er, &grid}) {
    auto span = tracer.span("graph.weighted_eccentricities", 1);
    const auto t0 = Clock::now();
    ctx->weighted_eccentricities(pool);
    ecc_table_s += seconds_between(t0, Clock::now());
  }
  out.detail("graph.ecc_table_s", ecc_table_s, "s");
  {
    std::vector<NodeId> rows(64);
    for (NodeId& r : rows) r = static_cast<NodeId>(rng.below(kGridNodes));
    auto span = tracer.span("paths.toolkit.ensure_rows", 1);
    const auto t0 = Clock::now();
    grid.toolkit().ensure_rows(rows, &pool);
    out.metric("paths.toolkit.ensure_rows_s", seconds_between(t0, Clock::now()), "s");
  }
  std::vector<double> update_ms;
  std::size_t ecc_rows = 0, dropped = 0;
  for (int i = 0; i < 12; ++i) {
    const auto& [a, b] = graphs[1].edges[rng.below(graphs[1].edges.size())];
    const qc::Weight w = 1;
    auto span = tracer.span("graph.apply_update", static_cast<std::uint64_t>(i + 1));
    const auto t0 = Clock::now();
    const auto o = grid.apply_update(qc::GraphUpdate{}.reweight(a, b, w), pool, true);
    update_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    ecc_rows += o.ecc_rows_recomputed;
    dropped += o.toolkit_rows_dropped;
  }
  out.detail("graph.apply_update_ms", median(update_ms), "ms");
  out.detail("graph.update.ecc_rows_recomputed", static_cast<double>(ecc_rows), "count");
  out.detail("graph.update.toolkit_rows_dropped", static_cast<double>(dropped), "count");
}

}  // namespace

RunResult run_serve_mixed(const RunArgs& args, Tracer& tracer,
                          FailureLedger& ledger) {
  RunResult out;
  out.note("engine_workers", engine_workers());
  out.note("offered_reads_per_s", kFixedRate);
  out.note("update_period_s", kUpdatePeriodS);
  out.note("read_p99_limit_ms", kReadP99LimitMs);
  out.note("bursts", kBursts);
  out.note("burst_reads", static_cast<double>(kBurstReads));
  out.note("burst_window", static_cast<double>(kBurstWindow));
  const Mix mix;
  out.note_json("read_mix", "{\"lookup\":" + qc::runtime::json_number(mix.lookup) +
                                ",\"sssp\":" + qc::runtime::json_number(mix.sssp) +
                                ",\"approx_distance\":" +
                                qc::runtime::json_number(mix.approx) + "}");

  if (args.trace) {
    // The fixed-rate phase untraced on a plain engine, then both phases
    // traced on an engine reporting into a registry. One replay checks
    // both engines: they served the same schedule from the same state.
    Tracer off(false);
    Setup plain = set_up(args.seed, nullptr, off, 1);
    Phase untraced = fixed_rate_phase(args.seed, args.seconds, plain.graphs);
    run_phase(*plain.engine, untraced, off);
    plain.engine.reset();

    qc::runtime::MetricsRegistry registry;
    Setup s = set_up(args.seed, &registry, tracer, 2);
    Phase fixed = untraced;
    run_phase(*s.engine, fixed, tracer);
    std::vector<Phase> bursts = run_bursts(args.seed, *s.engine, s.graphs,
                                           fixed.requests.size() + 1, tracer);
    std::vector<std::pair<Query, QueryResult>> sync_answers;
    layer_probes(args.seed, *s.engine, fixed, s.graphs, tracer, sync_answers, out);
    auto& batch = registry.histogram("service.batch_size");
    out.metric("service.batch_size_mean",
               batch.count() ? batch.sum() / static_cast<double>(batch.count()) : 0.0,
               "count");
    out.metric("service.read_p50_ms", percentile(fixed.answered(true), 0.5).value_or(0),
               "ms");
    out.detail("service.read_p99_ms", percentile(fixed.answered(true), 0.99).value_or(0),
               "ms");
    out.detail("service.update_p50_ms",
               percentile(fixed.answered(false), 0.5, false).value_or(0), "ms");
    const double plain_mean = mean(untraced.answered(true));
    out.metric("trace.overhead_share",
               plain_mean > 0 ? mean(fixed.answered(true)) / plain_mean - 1.0 : 0.0,
               "ratio");
    fork_join_probe(tracer, out);
    add_layer_self_times(tracer, out);
    out.note_json("phases", phases_json({&untraced, &fixed}, bursts));
    s.engine.reset();

    std::vector<Query> probes;
    for (const auto& qa : sync_answers) probes.push_back(qa.first);
    std::vector<const Phase*> served{&fixed};
    for (const Phase& b : bursts) served.push_back(&b);
    const auto reference = replay(args.seed, served, probes);
    std::size_t k = check_responses(served, reference, ledger);
    for (const auto& [q, got] : sync_answers) {
      ledger.record(got.ok && got == reference[k++],
                    "synchronous " + q.type + " differs from the replay");
    }
    bool same_admission = true;
    for (std::size_t i = 0; i < fixed.requests.size(); ++i) {
      same_admission &= fixed.responses[i].refused == untraced.responses[i].refused;
    }
    check_responses({&untraced},
                    same_admission ? reference : replay(args.seed, {&untraced}, {}),
                    ledger);
    return out;
  }

  // ---- Set-up: input generation, graph load, engine warm-up. The last
  // engine serves the run.
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s = Setup{};
    s = set_up(args.seed, nullptr, tracer, static_cast<std::uint64_t>(rep + 1));
    setup_s.push_back(s.seconds);
  }

  // ---- Measure: the open loop at the fixed rate, then the bursts.
  Phase fixed = fixed_rate_phase(args.seed, args.seconds, s.graphs);
  run_phase(*s.engine, fixed, tracer);
  const std::vector<Phase> bursts =
      run_bursts(args.seed, *s.engine, s.graphs, fixed.requests.size() + 1, tracer);
  s.engine.reset();
  const double rss = peak_rss_mb();

  // ---- Correctness, outside timing.
  std::vector<const Phase*> served{&fixed};
  for (const Phase& b : bursts) served.push_back(&b);
  check_responses(served, replay(args.seed, served, {}), ledger);

  std::vector<double> burst_rates;
  for (const Phase& b : bursts) burst_rates.push_back(read_throughput(b));
  out.metric("setup_s", median(setup_s), "s");
  out.metric("peak_rss_mb", rss, "MiB");
  out.metric("latency_ms", windowed_mean_latency(fixed), "ms");
  out.metric("throughput_per_s", median(burst_rates), "1/s");
  out.note_json("phases", phases_json({&fixed}, bursts));
  return out;
}

}  // namespace qcbench
