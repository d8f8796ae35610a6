// t11_er: the paper's headline algorithm as `qcongest_cli diameter` runs
// it — Theorem 1.1 weighted diameter, then radius, on connected ER
// graphs with W = 10 (low D, where the paper beats the classical
// bound), default Eq. (1) parameters, distributed validation on, census
// off. A closed loop with one caller.
//
// One run measures kInstances call pairs, each on its own graph and
// algorithm seed derived from --seed: the charged rounds and the pair
// time depend on the size of the set the search happens to measure, so
// a single pair would make the run-to-run spread that of one random
// draw. n = 128 keeps kInstances pairs inside a short run; the hot spot
// is the same as at n = 256 (Algorithm 3's idle rounds, see README.md).
#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/primitives.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "layers.h"
#include "paths/distributed.h"
#include "paths/reference.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace qcbench {

namespace {

using qc::Dist;
using qc::NodeId;
using qc::core::Theorem11Result;

constexpr NodeId kNodes = 128;
constexpr qc::Weight kMaxWeight = 10;
constexpr std::size_t kInstances = 14;
constexpr int kSetupRepeats = 11;
/// Stated band for Σ replicated measure-phase calls / Σ measure_s.
constexpr double kBandLo = 0.75;
constexpr double kBandHi = 1.33;

struct Instance {
  qc::WeightedGraph g;
  Dist diameter = 0;
  Dist radius = 0;
  std::uint64_t alg_seed = 0;
};

std::vector<Instance> make_instances(std::uint64_t seed) {
  std::vector<Instance> out(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    qc::Rng rng(qc::runtime::derive_seed(seed, i));
    out[i].g = qc::gen::from_family("ER", kNodes, kMaxWeight, rng);
    out[i].diameter = qc::weighted_diameter(out[i].g);
    out[i].radius = qc::weighted_radius(out[i].g);
    out[i].alg_seed = qc::runtime::derive_seed(seed, 1000 + i);
  }
  return out;
}

qc::core::Theorem11Options options_for(const Instance& inst) {
  qc::core::Theorem11Options opt;
  opt.seed = inst.alg_seed;
  return opt;
}

/// exact <= estimate <= (1+ε)²·exact, with the census's tolerance.
bool within_sandwich(const Theorem11Result& r, Dist exact) {
  const double ratio = r.estimate / static_cast<double>(exact);
  const double bound = (1.0 + r.epsilon) * (1.0 + r.epsilon) + 1e-12;
  return ratio >= 1.0 - 1e-12 && ratio <= bound;
}

struct Pair {
  Theorem11Result diameter;
  Theorem11Result radius;
  double seconds = 0;
};

Pair run_pair(const Instance& inst, Tracer& tracer, std::uint64_t op) {
  const auto opt = options_for(inst);
  Pair p;
  auto span = tracer.span("bench.t11_pair", op);
  const auto t0 = Clock::now();
  {
    auto s = tracer.span("core.t11.diameter", op);
    p.diameter = qc::core::quantum_weighted_diameter(inst.g, opt);
  }
  {
    auto s = tracer.span("core.t11.radius", op);
    p.radius = qc::core::quantum_weighted_radius(inst.g, opt);
  }
  p.seconds = seconds_between(t0, Clock::now());
  return p;
}

/// run_pair, with an exception counted as one failed operation.
std::optional<Pair> try_pair(const Instance& inst, Tracer& tracer,
                             std::uint64_t op, FailureLedger& ledger) {
  try {
    return run_pair(inst, tracer, op);
  } catch (const std::exception& e) {
    ledger.record(false, std::string("t11 pair threw: ") + e.what());
    return std::nullopt;
  }
}

bool pair_correct(const Instance& inst, const Pair& p) {
  return within_sandwich(p.diameter, inst.diameter) &&
         within_sandwich(p.radius, inst.radius) &&
         p.diameter.distributed_value_matches &&
         p.radius.distributed_value_matches;
}

/// Per-layer accumulators of the traced pass.
struct Layers {
  double oracle_s = 0, search_s = 0, measure_s = 0;
  std::uint64_t value_evaluations = 0, memo_hits = 0, outer_calls = 0;
  std::uint64_t charged_rounds = 0;
  double alg3_s = 0, alg4_s = 0, alg5_s = 0, flood_s = 0, aggregate_s = 0;
  double skeleton_s = 0, ensure_rows_s = 0;
  std::vector<double> evaluate_set_us;
  std::uint64_t alg3_attempts = 0, alg3_ledger_rounds = 0;
  RoundCounter alg3;  ///< hook counts of the Algorithm 3 calls
};

template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Replays the measure phase of one Theorem 1.1 call through direct
/// `paths` / `congest` calls: the same graph and derive_params, and a
/// seeded source set of the measured set's size. Returns whether
/// Algorithm 3's rows equal the reference rows.
bool replicate_measure(const Instance& inst, const Theorem11Result& res,
                       std::uint64_t salt, qc::runtime::ThreadPool& pool,
                       Tracer& tracer, std::uint64_t op, Layers& acc) {
  const qc::WeightedGraph& g = inst.g;
  const auto params = qc::core::derive_params(g, options_for(inst));
  std::vector<NodeId> set(g.node_count());
  std::iota(set.begin(), set.end(), NodeId{0});
  qc::Rng rng(qc::runtime::derive_seed(inst.alg_seed, salt));
  rng.shuffle(set);
  set.resize(std::max<std::size_t>(1, res.chosen_set_size));
  std::sort(set.begin(), set.end());

  qc::paths::ToolkitCache cache(g, params);
  acc.ensure_rows_s += timed([&] {
    auto s = tracer.span("paths.toolkit.ensure_rows", op);
    cache.ensure_rows(set, &pool);
  });
  qc::paths::SetEvalWorkspace ws;
  acc.evaluate_set_us.push_back(1e6 * timed([&] {
    auto s = tracer.span("paths.toolkit.evaluate_set", op);
    cache.evaluate_set(set, ws);
  }));

  qc::paths::Skeleton sk;
  acc.skeleton_s += timed([&] {
    auto s = tracer.span("paths.toolkit.skeleton", op);
    sk = cache.skeleton(set);
  });
  const std::uint32_t id_bits = qc::bits_for(g.node_count());
  std::vector<std::vector<qc::congest::FloodItem>> items(g.node_count());
  for (const NodeId s : set) {
    qc::congest::FloodItem it;
    it.push(s, id_bits);
    items[s].push_back(std::move(it));
  }
  acc.flood_s += timed([&] {
    auto s = tracer.span("congest.flood_items", op);
    const auto r = qc::congest::flood_items(g, std::move(items), {},
                                            qc::congest::FloodCollect::kStatsOnly);
    s.arg("sim_rounds", static_cast<double>(r.stats.rounds));
    s.arg("sim_messages", static_cast<double>(r.stats.messages));
  });

  const qc::paths::HopScale hs{params.ell, params.eps_inv, g.max_weight()};
  qc::Rng delays = rng.fork();
  qc::paths::MultiSourceResult ms;
  acc.alg3_s += timed([&] {
    auto s = tracer.span("paths.alg3", op);
    ms = qc::paths::distributed_multi_source_bhs(
        g, qc::paths::RunRequest{}
               .with_sources(set)
               .with_scale(hs)
               .with_rng(delays)
               .with_config(acc.alg3.config()));
    s.arg("sim_rounds", static_cast<double>(ms.stats.rounds));
    s.arg("sim_messages", static_cast<double>(ms.stats.messages));
    s.arg("sim_bits", static_cast<double>(ms.stats.bits));
    s.arg("attempts", ms.attempts);
  });
  acc.alg3_attempts += ms.attempts;
  acc.alg3_ledger_rounds += ms.stats.rounds;

  qc::paths::OverlayEmbedding emb;
  acc.alg4_s += timed([&] {
    auto s = tracer.span("paths.alg4", op);
    emb = qc::paths::distributed_embed_overlay(
        g, ms.approx,
        qc::paths::RunRequest{}.with_sources(set).with_params(params));
    s.arg("sim_rounds", static_cast<double>(emb.stats.rounds));
    s.arg("sim_messages", static_cast<double>(emb.stats.messages));
  });
  acc.aggregate_s += timed([&] {
    auto s = tracer.span("congest.global_aggregate", op);
    const std::vector<std::uint64_t> zeros(g.node_count(), 0);
    const auto r = qc::congest::global_aggregate(
        g, 0, zeros, qc::congest::AggregateOp::kMax, 1);
    s.arg("sim_rounds", static_cast<double>(r.stats.rounds));
  });
  qc::paths::OverlaySsspResult alg5;
  acc.alg5_s += timed([&] {
    auto s = tracer.span("paths.alg5", op);
    alg5 = qc::paths::distributed_overlay_sssp(
        g, emb,
        qc::paths::RunRequest{}.with_params(params).with_overlay_source(0));
    s.arg("sim_rounds", static_cast<double>(alg5.stats.rounds));
    s.arg("sim_messages", static_cast<double>(alg5.stats.messages));
  });
  // Evaluation: every node combines d̃″(s,u) + σ″·d̃^ℓ(u,v) locally and
  // the leader converge-casts the maximum.
  const std::uint64_t sigma2 = sk.overlay_scale.sigma();
  std::vector<std::uint64_t> local(g.node_count(), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    Dist best = qc::kInfDist;
    for (std::size_t u = 0; u < set.size(); ++u) {
      const Dist leg = ms.approx[u][v];
      best = std::min(best, qc::dist_add(alg5.approx[u],
                                         leg >= qc::kInfDist ? qc::kInfDist
                                                             : leg * sigma2));
    }
    local[v] = best >= qc::kInfDist ? 0 : best;
  }
  const std::uint32_t val_bits = std::min<std::uint32_t>(
      63, qc::bits_for(*std::max_element(local.begin(), local.end()) + 2));
  acc.aggregate_s += timed([&] {
    auto s = tracer.span("congest.global_aggregate", op);
    const auto r = qc::congest::global_aggregate(
        g, 0, local, qc::congest::AggregateOp::kMax, val_bits);
    s.arg("sim_rounds", static_cast<double>(r.stats.rounds));
  });

  for (std::size_t a = 0; a < set.size(); ++a) {
    if (ms.approx[a] != cache.approx_row(set[a])) return false;
  }
  return true;
}

void accumulate_core(const Theorem11Result& r, Layers& acc) {
  acc.oracle_s += r.phase_seconds.oracle;
  acc.search_s += r.phase_seconds.search;
  acc.measure_s += r.phase_seconds.measure;
  acc.value_evaluations += r.oracle.value_evaluations;
  acc.memo_hits += r.oracle.memo_hits;
  acc.outer_calls += r.outer_calls;
  acc.charged_rounds += r.rounds;
}

std::string json_list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += qc::runtime::json_number(xs[i]);
  }
  return out + "]";
}

}  // namespace

RunResult run_t11_er(const RunArgs& args, Tracer& tracer, FailureLedger& ledger) {
  RunResult out;
  out.note("nodes", kNodes);
  out.note("max_weight", static_cast<double>(kMaxWeight));
  out.note("instances", static_cast<double>(kInstances));
  out.note("oracle_workers", bench_workers());

  // ---- Set-up: input generation and the centralized references the
  // sandwich check compares against.
  std::vector<double> setup_s;
  std::vector<Instance> inst;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    auto span = tracer.span("bench.setup", static_cast<std::uint64_t>(rep + 1));
    const auto t0 = Clock::now();
    inst = make_instances(args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  if (args.trace) {
    // Untraced pass first: the tracing overhead is the traced pass's
    // pair time over this one's.
    Tracer off(false);
    double untraced = 0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      if (const auto p = try_pair(inst[i], off, i + 1, ledger)) {
        untraced += p->seconds;
        ledger.record(pair_correct(inst[i], *p), "t11 pair " + std::to_string(i));
      }
    }
    qc::runtime::ThreadPool pool(bench_workers());
    Layers acc;
    double traced = 0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const auto p = try_pair(inst[i], tracer, i + 1, ledger);
      if (!p) continue;
      traced += p->seconds;
      ledger.record(pair_correct(inst[i], *p), "t11 pair " + std::to_string(i));
      accumulate_core(p->diameter, acc);
      accumulate_core(p->radius, acc);
      ledger.run("replicated measure (diameter)", [&] {
        return replicate_measure(inst[i], p->diameter, 1, pool, tracer, i + 1, acc);
      });
      ledger.run("replicated measure (radius)", [&] {
        return replicate_measure(inst[i], p->radius, 2, pool, tracer, i + 1, acc);
      });
    }
    out.metric("core.t11.oracle_s", acc.oracle_s, "s");
    out.metric("core.t11.search_s", acc.search_s, "s");
    out.metric("core.t11.measure_s", acc.measure_s, "s");
    out.metric("core.t11.value_evaluations",
               static_cast<double>(acc.value_evaluations), "count");
    out.metric("core.t11.memo_hits", static_cast<double>(acc.memo_hits), "count");
    out.metric("core.t11.charged_rounds", static_cast<double>(acc.charged_rounds),
               "count");
    out.metric("quantum.outer_calls", static_cast<double>(acc.outer_calls), "count");
    out.metric("paths.alg3.s", acc.alg3_s, "s");
    out.metric("paths.alg3.attempts", static_cast<double>(acc.alg3_attempts), "count");
    out.metric("paths.alg4.s", acc.alg4_s, "s");
    out.metric("paths.alg5.s", acc.alg5_s, "s");
    out.metric("paths.toolkit.evaluate_set_us",
               acc.evaluate_set_us.empty() ? 0.0 : median(acc.evaluate_set_us), "us");
    out.metric("paths.toolkit.ensure_rows_s", acc.ensure_rows_s, "s");
    const double replica = acc.skeleton_s + acc.flood_s + acc.alg3_s +
                           acc.alg4_s + acc.alg5_s + acc.aggregate_s;
    const double share = acc.measure_s > 0 ? replica / acc.measure_s : 0.0;
    out.note("replica_over_measure", share);
    out.note("replica_band", "[" + std::to_string(kBandLo) + ", " +
                                 std::to_string(kBandHi) + "]");
    out.note("replica_within_band", share >= kBandLo && share <= kBandHi ? 1.0 : 0.0);
    if (share < kBandLo || share > kBandHi) {
      std::fprintf(stderr,
                   "qcbench: replicated measure-phase calls sum to %.3f of "
                   "core.t11.measure_s, outside the stated band [%.2f, %.2f]\n",
                   share, kBandLo, kBandHi);
    }
    report_congest(acc.alg3, acc.alg3_ledger_rounds, acc.alg3_s, out);
    out.metric("trace.overhead_share", untraced > 0 ? traced / untraced - 1.0 : 0.0,
               "ratio");
    fork_join_probe(tracer, out);
    add_layer_self_times(tracer, out);
    return out;
  }

  // ---- Measure: every instance once, then repeats until --seconds have
  // passed (at least one), each checked for an identical result.
  std::vector<std::optional<Pair>> first;
  std::vector<double> pair_s;
  const auto t_start = Clock::now();
  for (std::size_t i = 0; i < kInstances; ++i) {
    first.push_back(try_pair(inst[i], tracer, i + 1, ledger));
    if (first.back()) pair_s.push_back(first.back()->seconds);
  }
  const double first_pass_s = seconds_between(t_start, Clock::now());
  if (pair_s.empty()) throw std::runtime_error("no Theorem 1.1 pair completed");
  std::vector<std::optional<Pair>> repeats;
  while (repeats.empty() || seconds_between(t_start, Clock::now()) < args.seconds) {
    const std::size_t i = repeats.size() % kInstances;
    repeats.push_back(try_pair(inst[i], tracer, kInstances + repeats.size() + 1, ledger));
  }

  // ---- Correctness, outside timing.
  std::vector<double> rounds;
  for (std::size_t i = 0; i < kInstances; ++i) {
    if (!first[i]) continue;
    ledger.record(pair_correct(inst[i], *first[i]), "t11 pair " + std::to_string(i));
    rounds.push_back(static_cast<double>(first[i]->diameter.rounds +
                                         first[i]->radius.rounds));
  }
  for (std::size_t j = 0; j < repeats.size(); ++j) {
    const auto& ref = first[j % kInstances];
    const auto& rep = repeats[j];
    if (!rep) continue;  // already counted as failed
    ledger.record(ref && pair_correct(inst[j % kInstances], *rep) &&
                      qc::core::semantically_equal(ref->diameter, rep->diameter) &&
                      qc::core::semantically_equal(ref->radius, rep->radius),
                  "t11 repeat " + std::to_string(j) + " differs");
  }

  out.metric("setup_s", median(setup_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metric("latency_ms", 1e3 * mean(pair_s), "ms");
  out.metric("throughput_per_s", static_cast<double>(pair_s.size()) / first_pass_s,
             "1/s");
  out.note("charged_rounds",
           std::accumulate(rounds.begin(), rounds.end(), 0.0));
  out.note_json("charged_rounds_per_pair", json_list(rounds));
  out.note_json("pair_seconds", json_list(pair_s));
  out.note("repeats", static_cast<double>(repeats.size()));
  return out;
}

}  // namespace qcbench
