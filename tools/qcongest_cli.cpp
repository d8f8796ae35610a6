// qcongest command-line interface.
//
//   qcongest_cli diameter  [--n N] [--family ER|grid|cliques|path]
//                          [--maxw W] [--seed S] [--radius]
//                          [--eps-inv E] [--graph FILE]
//   qcongest_cli gadget    [--h H] [--radius] [--seed S] [--full]
//   qcongest_cli degree    --k K [--or]
//   qcongest_cli baseline  [--n N] [--seed S]
//   qcongest_cli params    --n N --d D
//   qcongest_cli sweep     [--n 64,128] [--family ER,grid] [--seeds K]
//                          [--eps-inv 0,8] [--algo bfs|baseline|t11|
//                          t11-radius] [--maxw W] [--seed S]
//                          [--workers K] [--out FILE] [--round-metrics]
//   qcongest_cli serve     [--graphs f1.wg,f2.wg | --count K --n N
//                          --family F --maxw W --seed S] [--warm]
//                          [--workers K] [--queue Q] [--batch B]
//                          [--metrics FILE]
//   qcongest_cli query     --type T [--graph FILE | --n N ...]
//                          [--node U] [--target V] [--query-seed S]
//                          [--id I] [--workers K]
//   qcongest_cli dataset   generate|convert|shuffle|sort|summarize|
//                          pack-csr ... (binary bgraph/bcsr tooling for
//                          the million-node ingest path; docs/datasets.md)
//
// Runs the paper's algorithms on generated or user-provided networks
// (wgraph v1 format; see graph/io.h) and prints the results with their
// CONGEST round bills. `sweep` fans a whole experiment grid out over a
// fork/join pool and writes aggregated JSON (docs/runtime.md).
// `serve` keeps a resident service::QueryEngine answering line-delimited
// JSON requests from stdin against warm graph artifacts; `query` is its
// one-shot twin (docs/service.md documents both and the wire format).
// Every subcommand rejects a flag it does not read.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "congest/primitives.h"
#include "core/approx.h"
#include "core/baselines.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "lowerbound/approxdeg.h"
#include "lowerbound/boolfn.h"
#include "lowerbound/server.h"
#include "runtime/metrics.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "util/parse.h"
#include "util/table.h"

namespace {

using namespace qc;

struct Args {
  std::map<std::string, std::string> kv;
  std::map<std::string, bool> flags;

  template <typename T = std::uint64_t>
  T num(const std::string& key, std::type_identity_t<T> def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : parse_unsigned<T>("--" + key, it->second);
  }
  std::string str(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  bool flag(const std::string& key) const {
    return flags.count(key) != 0;
  }
};

// The flags each subcommand reads (dataset verbs are keyed "dataset
// <verb>"). parse_args rejects any other flag before the subcommand
// runs, so a mistyped flag fails instead of silently keeping a default.
const std::map<std::string, std::set<std::string>>& command_flags() {
  const auto join = [](std::initializer_list<std::set<std::string>> parts) {
    std::set<std::string> out;
    for (const auto& part : parts) out.insert(part.begin(), part.end());
    return out;
  };
  // Read by make_graph and make_engine.
  static const std::set<std::string> graph = {"graph", "n", "family", "maxw",
                                              "seed"};
  static const std::set<std::string> engine = {"workers", "queue", "batch"};
  static const std::map<std::string, std::set<std::string>> table = {
      {"diameter", join({graph, {"radius", "eps-inv"}})},
      {"gadget", {"h", "radius", "full", "seed"}},
      {"degree", {"k", "or"}},
      {"baseline", graph},
      {"params", {"n", "d"}},
      {"sweep",
       {"n", "family", "seeds", "eps-inv", "bandwidth", "maxw", "seed", "algo",
        "round-metrics", "out", "workers"}},
      {"serve", join({engine, {"graphs", "count", "n", "family", "maxw",
                               "seed", "warm", "metrics"}})},
      {"query", join({graph, engine, {"id", "type", "node", "target",
                                      "query-seed", "op", "weight"}})},
      {"dataset generate",
       {"out", "family", "maxw", "seed", "scale", "m", "n", "exponent",
        "avg-deg", "p", "rows", "cols", "diag"}},
      {"dataset convert", {"in", "out"}},
      {"dataset shuffle", {"in", "out", "seed", "mem-budget"}},
      {"dataset sort", {"in", "out", "mem-budget"}},
      {"dataset summarize", {"in"}},
      {"dataset pack-csr", {"in", "out", "workers"}},
  };
  return table;
}

// Flags that take no value; every other flag takes exactly one.
bool is_switch(const std::string& flag) {
  return flag == "radius" || flag == "full" || flag == "or" ||
         flag == "warm" || flag == "round-metrics";
}

// Parses argv[from..) as `--flag value` pairs and bare switches, against
// `command`'s flag list. A value is the next token unless that starts
// with "--", so a negative number reaches the strict numeric parser,
// which names it.
Args parse_args(int argc, char** argv, int from, const std::string& command) {
  const std::set<std::string>& known = command_flags().at(command);
  Args a;
  for (int i = from; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      throw ArgumentError("unexpected argument: " + tok);
    }
    tok = tok.substr(2);
    if (known.count(tok) == 0) {
      std::string list;
      for (const std::string& k : known) {
        list += (list.empty() ? "--" : ", --") + k;
      }
      throw ArgumentError("unknown flag --" + tok + " for '" + command +
                          "' (it reads " + list + ")");
    }
    if (is_switch(tok)) {
      a.flags[tok] = true;
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.kv[tok] = argv[++i];
    } else {
      throw ArgumentError("--" + tok + " needs a value");
    }
  }
  return a;
}

WeightedGraph make_graph(const Args& a) {
  if (a.kv.count("graph")) {
    return load_graph(a.str("graph", ""));
  }
  const auto n = a.num<NodeId>("n", 64);
  Rng rng(a.num("seed", 1));
  return gen::from_family(a.str("family", "ER"), n, a.num("maxw", 10), rng);
}

int cmd_diameter(const Args& a) {
  const auto g = make_graph(a);
  const bool radius = a.flag("radius");
  core::Theorem11Options opt;
  opt.seed = a.num("seed", 1);
  opt.eps_inv = a.num<std::uint32_t>("eps-inv", 0);
  opt.census = true;
  const auto res = radius ? core::quantum_weighted_radius(g, opt)
                          : core::quantum_weighted_diameter(g, opt);
  std::printf("network: %s, D = %llu\n", g.summary().c_str(),
              (unsigned long long)unweighted_diameter(g));
  std::printf("%s estimate: %.1f (exact %llu, ratio %.4f, bound %.4f)\n",
              radius ? "radius" : "diameter", res.estimate,
              (unsigned long long)res.exact, res.ratio,
              (1 + res.epsilon) * (1 + res.epsilon));
  std::printf("charged rounds: %llu (outer %llu calls x (T1 %llu + T2 "
              "%llu)); validated: %s\n",
              (unsigned long long)res.rounds,
              (unsigned long long)res.outer_calls,
              (unsigned long long)res.t1_outer,
              (unsigned long long)res.t2_outer,
              res.distributed_value_matches ? "yes" : "NO");
  return res.within_bound ? 0 : 2;
}

int cmd_gadget(const Args& a) {
  const auto h = a.num<std::uint32_t>("h", 4);
  const bool radius = a.flag("radius");
  const bool full = a.flag("full");
  const auto params = qc::lb::GadgetParams::paper(h);
  Rng rng(a.num("seed", 1));
  const auto input =
      qc::lb::random_input(1ull << params.s, params.ell, rng);
  const auto check =
      radius ? qc::lb::check_radius_reduction(params, input, full)
             : qc::lb::check_diameter_reduction(params, input, full);
  std::printf("gadget h=%u: n=%llu, F%s(x,y)=%d, measured %s = %llu\n", h,
              (unsigned long long)params.node_count(), radius ? "'" : "",
              check.f_value, radius ? "radius" : "diameter",
              (unsigned long long)check.measured);
  std::printf("thresholds: YES <= %llu, NO >= %llu; dichotomy holds: %s; "
              "3/2-separable: %s\n",
              (unsigned long long)check.threshold_high,
              (unsigned long long)check.threshold_low,
              check.gap_respected ? "yes" : "NO",
              check.distinguishable ? "yes" : "NO");
  return check.gap_respected ? 0 : 2;
}

int cmd_degree(const Args& a) {
  const auto k = a.num("k", 16);
  const bool use_or = a.flag("or");
  const double eps = 1.0 / 3.0;
  const auto levels =
      use_or ? qc::lb::or_levels(k) : qc::lb::and_levels(k);
  const auto d = qc::lb::approx_degree_symmetric(levels, eps);
  std::printf("deg_{1/3}(%s_%llu) = %u  (sqrt(k) = %.2f)\n",
              use_or ? "OR" : "AND", (unsigned long long)k, d,
              std::sqrt(double(k)));
  return 0;
}

int cmd_baseline(const Args& a) {
  const auto g = make_graph(a);
  const auto classical = core::classical_unweighted_diameter(g);
  const auto lgm = core::lgm_quantum_unweighted_diameter(g, a.num("seed", 1));
  const auto th = core::three_halves_unweighted_diameter(g, a.num("seed", 1));
  const auto two = core::two_approx_weighted_diameter(g);
  TextTable t({"algorithm", "answer", "rounds"});
  t.add("classical exact APSP (unweighted)", classical.value,
        classical.stats.rounds);
  t.add("quantum LGM block search (unweighted)", lgm.value, lgm.rounds);
  t.add("3/2-approx (unweighted)", th.estimate, th.stats.rounds);
  t.add("2-approx via SSSP (weighted, upper bound)", two.upper_bound,
        two.stats.rounds);
  std::printf("network: %s\n%s", g.summary().c_str(), t.render().c_str());
  return 0;
}

int cmd_params(const Args& a) {
  const auto n = a.num<std::uint32_t>("n", 1024);
  const auto d = a.num("d", 16);
  const auto p = qc::paths::Params::make(n, d);
  std::printf("Eq. (1) at n=%u, D=%llu:\n", n, (unsigned long long)d);
  std::printf("  eps = 1/%u, r = %llu, ell = %llu, k = %llu\n", p.eps_inv,
              (unsigned long long)p.r, (unsigned long long)p.ell,
              (unsigned long long)p.k);
  std::printf("  paper bound: ~%.0f rounds vs classical ~%.0f\n",
              core::model::theorem11_rounds(n, d),
              core::model::classical_weighted_rounds(n));
  return 0;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    const auto end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) throw ArgumentError("empty list argument: " + s);
  return out;
}

template <typename T>
std::vector<T> parse_num_list(const Args& a, const std::string& key,
                              const std::string& def) {
  std::vector<T> out;
  for (const auto& tok : split_commas(a.str(key, def))) {
    out.push_back(parse_unsigned<T>("--" + key, tok));
  }
  return out;
}

runtime::SweepFn make_sweep_fn(const std::string& algo,
                               runtime::MetricsRegistry* registry) {
  using runtime::SweepPoint;
  using runtime::TaskOutput;
  if (algo == "bfs") {
    return [registry](const SweepPoint& p, const WeightedGraph& g) {
      congest::Config cfg;
      cfg.bandwidth_bits = p.bandwidth_bits;
      cfg.seed = p.seed;
      if (registry) runtime::attach_simulator_metrics(cfg, *registry);
      const auto res = congest::build_bfs_tree(g, 0, cfg);
      TaskOutput out;
      runtime::record_stats(out, res.stats);
      Dist depth = 0;
      for (const auto& node : res.nodes) {
        if (node.depth < kInfDist) depth = std::max(depth, node.depth);
      }
      out.metrics["tree_depth"] = double(depth);
      return out;
    };
  }
  if (algo == "baseline") {
    return [](const SweepPoint&, const WeightedGraph& g) {
      const auto classical = core::classical_unweighted_diameter(g);
      TaskOutput out;
      runtime::record_stats(out, classical.stats);
      out.metrics["diameter"] = double(classical.value);
      out.metrics["value_ok"] =
          classical.value == unweighted_diameter(g) ? 1.0 : 0.0;
      return out;
    };
  }
  if (algo == "t11" || algo == "t11-radius") {
    const bool radius = algo == "t11-radius";
    return [radius](const SweepPoint& p, const WeightedGraph& g) {
      core::Theorem11Options opt;
      opt.seed = p.seed;
      opt.eps_inv = p.eps_inv;
      opt.census = true;
      const auto res = radius ? core::quantum_weighted_radius(g, opt)
                              : core::quantum_weighted_diameter(g, opt);
      TaskOutput out;
      out.metrics["rounds"] = double(res.rounds);
      out.metrics["ratio"] = res.ratio;
      out.metrics["within_bound"] = res.within_bound ? 1.0 : 0.0;
      out.metrics["outer_calls"] = double(res.outer_calls);
      out.metrics["validated"] = res.distributed_value_matches ? 1.0 : 0.0;
      return out;
    };
  }
  throw ArgumentError("unknown sweep algo: " + algo +
                      " (want bfs|baseline|t11|t11-radius)");
}

int cmd_sweep(const Args& a) {
  runtime::SweepSpec spec;
  spec.ns = parse_num_list<NodeId>(a, "n", "64");
  spec.families = split_commas(a.str("family", "ER"));
  spec.seeds = a.num<std::uint32_t>("seeds", 4);
  spec.eps_invs = parse_num_list<std::uint32_t>(a, "eps-inv", "0");
  spec.bandwidth_bits = a.num<std::uint32_t>("bandwidth", 0);
  spec.max_weight = a.num("maxw", 10);
  spec.base_seed = a.num("seed", 1);
  const std::string algo = a.str("algo", "baseline");
  const bool round_metrics = a.flag("round-metrics");
  const std::string out_path = a.str("out", "sweep_results.json");

  runtime::MetricsRegistry registry;
  const auto fn = make_sweep_fn(algo, round_metrics ? &registry : nullptr);
  runtime::ThreadPool pool(a.num<unsigned>("workers", 0));
  const auto result = runtime::run_sweep(spec, fn, pool);

  std::string json = runtime::to_json(result, /*include_timing=*/true);
  if (round_metrics) {
    json = "{\"sweep\":" + json +
           ",\"round_metrics\":" + registry.to_json() + "}";
  }
  runtime::write_file(out_path, json);

  TextTable t({"n", "family", "eps_inv", "runs", "fail", "metric", "mean",
               "p50", "p95", "max"});
  for (const auto& cell : result.cells) {
    for (const auto& [name, agg] : cell.metrics) {
      t.add(cell.n, cell.family, cell.eps_inv, cell.runs, cell.failures,
            name, agg.mean, agg.p50, agg.p95, agg.max);
    }
  }
  std::printf("sweep: algo=%s, %zu tasks on %u workers in %.2fs "
              "(%zu failures)\n%s",
              algo.c_str(), result.tasks, result.workers,
              result.wall_seconds, result.failures, t.render().c_str());
  std::printf("wrote %s\n", out_path.c_str());
  return result.failures == 0 ? 0 : 2;
}

/// Builds the engine both service commands share: extension handlers
/// registered on top of the built-ins, metrics wired when given.
service::QueryEngine make_engine(const Args& a, bool auto_dispatch,
                                 runtime::MetricsRegistry* registry) {
  service::EngineOptions opt;
  opt.workers = a.num<unsigned>("workers", 0);
  opt.max_in_flight = a.num("queue", 1024);
  opt.max_batch = a.num("batch", 64);
  opt.auto_dispatch = auto_dispatch;
  opt.metrics = registry;
  return service::QueryEngine(opt);
}

/// First 8 bytes of a file (shorter files yield what exists) — the
/// binary formats are distinguished by magic: "bgraph1\0" (edge list)
/// and "bcsrqc1\0" (packed CSR image); anything else is wgraph text.
std::string sniff_magic8(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  QC_REQUIRE(f != nullptr, "cannot open: " + path);
  char magic[8] = {0};
  const std::size_t got = std::fread(magic, 1, sizeof magic, f);
  std::fclose(f);
  return std::string(magic, got);
}

int cmd_serve(const Args& a) {
  runtime::MetricsRegistry registry;
  auto engine = make_engine(a, /*auto_dispatch=*/true, &registry);
  service::register_unweighted_handlers(engine);
  service::register_theorem11_handlers(engine);

  // Graphs come from files (--graphs) or the generator registry
  // (--count copies of --family, seeds derived per index). Names are
  // positional — g0, g1, ... — and echoed to stderr so clients know
  // what to put in the "graph" field.
  if (a.kv.count("graphs")) {
    const auto files = split_commas(a.str("graphs", ""));
    for (std::size_t i = 0; i < files.size(); ++i) {
      const std::string name = "g" + std::to_string(i);
      const std::string magic = sniff_magic8(files[i]);
      if (magic == std::string("bcsrqc1\0", 8)) {
        // Packed CSR image: serve straight from the read-only mapping
        // (specs naming the same file share it — reported below).
        const auto& ctx = engine.add_graph_mapped(name, files[i]);
        std::fprintf(stderr, "mapped %s = %s (n=%u m=%zu maxw=%llu)\n",
                     name.c_str(), files[i].c_str(), ctx.node_count(),
                     ctx.edge_count(),
                     (unsigned long long)ctx.csr().max_weight());
      } else if (magic == std::string("bgraph1\0", 8)) {
        const auto& ctx = engine.add_graph(name, load_bgraph(files[i]));
        std::fprintf(stderr, "loaded %s = %s (%s)\n", name.c_str(),
                     files[i].c_str(), ctx.graph().summary().c_str());
      } else {
        const auto& ctx = engine.add_graph(name, load_graph(files[i]));
        std::fprintf(stderr, "loaded %s = %s (%s)\n", name.c_str(),
                     files[i].c_str(), ctx.graph().summary().c_str());
      }
    }
    // Shared-residency report: every group of mapped graphs whose views
    // resolve to one mapping address serves reads from the same pages.
    std::map<const void*, std::vector<std::string>> by_mapping;
    for (const auto& gname : engine.graph_names()) {
      const auto* ctx = engine.find_graph(gname);
      if (ctx->is_mapped()) {
        by_mapping[ctx->mapping_address()].push_back(gname);
      }
    }
    for (const auto& [addr, names] : by_mapping) {
      std::string list = names.front();
      for (std::size_t i = 1; i < names.size(); ++i) list += "," + names[i];
      std::fprintf(stderr,
                   "mapped residency: {%s} -> one mapping @%p (%ld views)\n",
                   list.c_str(), addr,
                   engine.find_graph(names.front())->mapping_use_count());
    }
  } else {
    const auto count = a.num("count", 1);
    const auto n = a.num<NodeId>("n", 64);
    const std::string family = a.str("family", "ER");
    const auto maxw = a.num("maxw", 10);
    const auto seed = a.num("seed", 1);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string name = "g" + std::to_string(i);
      Rng rng(runtime::derive_seed(seed, i));
      const auto& ctx =
          engine.add_graph(name, gen::from_family(family, n, maxw, rng));
      std::fprintf(stderr, "generated %s = %s[%llu] (%s)\n", name.c_str(),
                   family.c_str(), (unsigned long long)i,
                   ctx.graph().summary().c_str());
    }
  }
  if (a.flag("warm")) {
    engine.warm_all();
    for (const auto& name : engine.graph_names()) {
      const auto w = engine.find_graph(name)->warm_state();
      std::fprintf(stderr, "warmed %s: ecc=%d hop_ecc=%d toolkit_rows=%zu\n",
                   name.c_str(), int(w.weighted_ecc), int(w.hop_ecc),
                   w.toolkit_rows);
    }
  }
  std::fprintf(stderr, "serving %zu graph(s), %u workers, queue=%zu, "
               "batch=%zu; one JSON request per line on stdin\n",
               engine.graph_names().size(), engine.worker_count(),
               engine.options().max_in_flight, engine.options().max_batch);

  // Responses go out in request order: futures queue up here and flush
  // as their fronts become ready (fully blocking only at EOF), so slow
  // queries never reorder the stream even though batches complete
  // out of order internally.
  struct Out {
    std::string immediate;
    std::optional<std::future<service::QueryResult>> fut;
  };
  std::deque<Out> outq;
  const auto emit_ready = [&outq](bool block) {
    while (!outq.empty()) {
      Out& front = outq.front();
      if (front.fut.has_value()) {
        if (!block && front.fut->wait_for(std::chrono::seconds(0)) !=
                          std::future_status::ready) {
          return;
        }
        std::printf("%s\n", service::format_response(front.fut->get()).c_str());
      } else {
        std::printf("%s\n", front.immediate.c_str());
      }
      std::fflush(stdout);
      outq.pop_front();
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      emit_ready(false);
      continue;
    }
    service::Query q;
    try {
      q = service::parse_request(line);
    } catch (const service::RequestError& e) {
      service::QueryResult bad;
      bad.id = e.id();
      bad.error = e.what();
      outq.push_back({service::format_response(bad), std::nullopt});
      emit_ready(false);
      continue;
    }
    const std::uint64_t id = q.id;
    try {
      Out o;
      o.fut = engine.submit(std::move(q));
      outq.push_back(std::move(o));
    } catch (const service::AdmissionError& e) {
      outq.push_back({service::format_rejection(id, e.what()), std::nullopt});
    }
    emit_ready(false);
  }
  emit_ready(true);

  std::fprintf(stderr, "served %llu queries (%llu rejected, %llu errors)\n",
               (unsigned long long)registry.counter("service.queries").value(),
               (unsigned long long)registry.counter("service.rejected").value(),
               (unsigned long long)registry.counter("service.errors").value());
  for (const auto& type : engine.handler_types()) {
    const auto& h = registry.histogram("service.latency_seconds." + type,
                                       service::latency_histogram_bounds());
    if (h.count() == 0) continue;
    std::fprintf(stderr, "  %-24s n=%llu p50=%.3fms p95=%.3fms\n",
                 type.c_str(), (unsigned long long)h.count(),
                 h.quantile(0.5) * 1e3, h.quantile(0.95) * 1e3);
  }
  if (a.kv.count("metrics")) {
    const std::string path = a.str("metrics", "");
    runtime::write_file(path, registry.to_json());
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  return 0;
}

// --- dataset tooling (docs/datasets.md) ------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool sniff_bgraph(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  QC_REQUIRE(f != nullptr, "cannot open: " + path);
  unsigned char magic[8] = {0};
  const std::size_t got = std::fread(magic, 1, sizeof magic, f);
  std::fclose(f);
  return got == sizeof magic && std::memcmp(magic, "bgraph1\0", 8) == 0;
}

void print_info(const char* verb, const BGraphInfo& info, double seconds) {
  std::printf("%s: n=%llu m=%llu maxw=%llu sorted=%s (%.2fs)\n", verb,
              (unsigned long long)info.n, (unsigned long long)info.m,
              (unsigned long long)info.max_weight,
              info.sorted ? "yes" : "no", seconds);
}

int cmd_dataset(const std::string& verb, const Args& a) {
  const std::string in = a.str("in", "");
  const std::string out = a.str("out", "");
  const double t0 = now_seconds();
  if (verb == "generate") {
    QC_REQUIRE(!out.empty(), "dataset generate needs --out");
    const std::string family = a.str("family", "rmat");
    const auto maxw = a.num("maxw", 10);
    const auto seed = a.num("seed", 1);
    BGraphInfo info;
    if (family == "rmat") {
      const auto scale = a.num<std::uint32_t>("scale", 20);
      // rmat_bgraph rejects scale > 31; the clamp only keeps this
      // default's shift defined until it does.
      const auto m = a.num("m", std::uint64_t{10} << std::min(scale, 31u));
      info = gen::rmat_bgraph(out, scale, m, maxw, seed);
    } else if (family == "chunglu") {
      const auto n = a.num<NodeId>("n", 1u << 20);
      const auto m = a.num("m", std::uint64_t{10} * n);
      const double exponent = std::stod(a.str("exponent", "2.5"));
      info = gen::chung_lu_bgraph(out, n, m, exponent, maxw, seed);
    } else if (family == "er") {
      const auto n = a.num<NodeId>("n", 1u << 20);
      // Default p keeps the expected degree at ~--avg-deg (10).
      const double avg = double(a.num("avg-deg", 10));
      const double p = a.kv.count("p") ? std::stod(a.str("p", "0"))
                                       : avg / double(n > 1 ? n - 1 : 1);
      info = gen::erdos_renyi_bgraph(out, n, p, maxw, seed);
    } else if (family == "grid") {
      // Road-like lattice; --n picks a square side when --rows/--cols
      // are not given explicitly.
      const auto n = a.num("n", 1u << 20);
      const auto side = static_cast<NodeId>(std::sqrt(double(n)));
      const auto rows = a.num<NodeId>("rows", side);
      const auto cols = a.num<NodeId>("cols", side);
      const double diag = std::stod(a.str("diag", "0.05"));
      info = gen::grid_bgraph(out, rows, cols, diag, maxw, seed);
    } else {
      throw ArgumentError("unknown dataset family: " + family +
                          " (want rmat|chunglu|er|grid)");
    }
    print_info(("generate " + family + " -> " + out).c_str(), info,
               now_seconds() - t0);
    return 0;
  }
  if (verb == "convert") {
    QC_REQUIRE(!in.empty() && !out.empty(), "dataset convert needs --in/--out");
    if (sniff_bgraph(in)) {
      convert_bgraph_to_text(in, out);
      std::printf("convert %s (bgraph) -> %s (wgraph text) (%.2fs)\n",
                  in.c_str(), out.c_str(), now_seconds() - t0);
    } else {
      const auto info = convert_text_to_bgraph(in, out);
      print_info(("convert " + in + " (text) -> " + out).c_str(), info,
                 now_seconds() - t0);
    }
    return 0;
  }
  // Out-of-core budget for shuffle/sort, in MiB (0 = the library's
  // 256 MiB default). Shuffle and sort run in memory when the records
  // fit the budget (16 bytes each), sort as a radix sort when its
  // scratch copy fits too; larger inputs spill to <out>.spill/.
  const std::uint64_t mem_budget = a.num("mem-budget", 0) << 20;
  if (verb == "shuffle") {
    QC_REQUIRE(!in.empty() && !out.empty(), "dataset shuffle needs --in/--out");
    const auto info = shuffle_bgraph(in, out, a.num("seed", 1), mem_budget);
    print_info(("shuffle " + in + " -> " + out).c_str(), info,
               now_seconds() - t0);
    return 0;
  }
  if (verb == "sort") {
    QC_REQUIRE(!in.empty() && !out.empty(), "dataset sort needs --in/--out");
    const auto info = sort_bgraph(in, out, mem_budget);
    print_info(("sort " + in + " -> " + out).c_str(), info,
               now_seconds() - t0);
    return 0;
  }
  if (verb == "summarize") {
    QC_REQUIRE(!in.empty(), "dataset summarize needs --in");
    const auto s = summarize_bgraph(in);
    std::printf("%s: n=%llu m=%llu weights=[%llu, %llu] sorted=%s\n",
                in.c_str(), (unsigned long long)s.info.n,
                (unsigned long long)s.info.m,
                (unsigned long long)s.min_weight,
                (unsigned long long)s.info.max_weight,
                s.info.sorted ? "yes" : "no");
    std::printf("degrees: avg=%.2f max=%llu isolated=%llu (%.2fs)\n",
                s.avg_degree, (unsigned long long)s.max_degree,
                (unsigned long long)s.isolated, now_seconds() - t0);
    TextTable t({"degree", "nodes"});
    for (std::size_t b = 0; b < s.degree_hist_log2.size(); ++b) {
      if (s.degree_hist_log2[b] == 0) continue;
      t.add("[" + std::to_string(1ull << b) + ", " +
                std::to_string((1ull << (b + 1)) - 1) + "]",
            s.degree_hist_log2[b]);
    }
    std::printf("%s", t.render().c_str());
    return 0;
  }
  if (verb == "pack-csr") {
    QC_REQUIRE(!in.empty() && !out.empty(), "dataset pack-csr needs --in/--out");
    runtime::ThreadPool pool(a.num<unsigned>("workers", 0));
    const auto g = csr_from_bgraph(in, &pool);
    const double t1 = now_seconds();
    write_csr(g, out);
    const double t2 = now_seconds();
    const auto mapped = map_csr(out, /*validate_edges=*/true);
    std::printf("pack-csr %s -> %s: n=%u halves=%zu maxw=%llu "
                "(build %.2fs, write %.2fs, map+verify %.2fs)\n",
                in.c_str(), out.c_str(), g.node_count(), g.halves().size(),
                (unsigned long long)g.max_weight(), t1 - t0, t2 - t1,
                now_seconds() - t2);
    QC_CHECK(mapped.node_count() == g.node_count() &&
                 mapped.halves().size() == g.halves().size(),
             "mapped view disagrees with the freshly built CSR");
    return 0;
  }
  throw ArgumentError(
      "unknown dataset verb: " + verb +
      " (want generate|convert|shuffle|sort|summarize|pack-csr)");
}

int cmd_query(const Args& a) {
  auto engine = make_engine(a, /*auto_dispatch=*/false, nullptr);
  service::register_unweighted_handlers(engine);
  service::register_theorem11_handlers(engine);
  engine.add_graph("g0", make_graph(a));
  service::Query q;
  q.id = a.num("id", 0);
  q.type = a.str("type", "diameter");
  q.node = a.num<NodeId>("node", 0);
  q.target = a.num<NodeId>("target", 0);
  q.seed = a.num("query-seed", 1);
  q.op = a.str("op", "");
  q.weight = a.num("weight", 1);
  const auto r = engine.query(q);
  std::printf("%s\n", service::format_response(r).c_str());
  return r.ok ? 0 : 2;
}

void usage() {
  std::printf(
      "usage: qcongest_cli <command> [options]\n"
      "  diameter  [--n N] [--family ER|grid|cliques|path] [--maxw W]\n"
      "            [--seed S] [--radius] [--eps-inv E] [--graph FILE]\n"
      "  gadget    [--h H] [--radius] [--seed S] [--full]\n"
      "  degree    --k K [--or]\n"
      "  baseline  [--n N] [--seed S] [--family ...] [--graph FILE]\n"
      "  params    --n N --d D\n"
      "  sweep     [--n 64,128] [--family ER,grid] [--seeds K]\n"
      "            [--eps-inv 0,8] [--algo bfs|baseline|t11|t11-radius]\n"
      "            [--maxw W] [--seed S] [--bandwidth B] [--workers K]\n"
      "            [--out sweep_results.json] [--round-metrics]\n"
      "  serve     [--graphs f1.wg,f2.bg,f3.bcsr | --count K --n N\n"
      "            --family F --maxw W --seed S] [--warm] [--workers K]\n"
      "            [--queue Q] [--batch B] [--metrics FILE]\n"
      "            (.bcsr specs are memory-mapped; same-file specs\n"
      "             share one mapping)\n"
      "  query     --type T [--graph FILE | --n N --family F ...]\n"
      "            [--node U] [--target V] [--query-seed S] [--id I]\n"
      "            [--workers K] [--op insert|remove|reweight --weight W]\n"
      "            (type \"update\" mutates g0 via --op/--node/--target)\n"
      "  dataset   generate  --family rmat|chunglu|er|grid --out F.bg\n"
      "                      [--scale S|--n N] [--m M] [--p P|--avg-deg D]\n"
      "                      [--exponent E] [--rows R --cols C] [--diag P]\n"
      "                      [--maxw W] [--seed S]\n"
      "            convert   --in F --out F   (text<->binary by sniffing)\n"
      "            shuffle   --in F.bg --out F.bg [--seed S]\n"
      "                      [--mem-budget MiB]  (out-of-core past budget)\n"
      "            sort      --in F.bg --out F.bg [--mem-budget MiB]\n"
      "                      (also full dedup check; radix sort in memory\n"
      "                      when twice the records fit the budget)\n"
      "            summarize --in F.bg\n"
      "            pack-csr  --in F.bg --out F.bcsr [--workers K]\n"
      "                      (mmap-able CSR image; parallel two-pass)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  try {
    const std::string cmd = argv[1];
    if (cmd == "dataset") {
      // The dataset family has its own verb in argv[2], which the
      // generic --key parser below would reject.
      QC_REQUIRE(argc >= 3 && argv[2][0] != '-',
                 "dataset needs a verb: generate|convert|shuffle|sort|"
                 "summarize|pack-csr");
      const std::string verb = argv[2];
      if (command_flags().count("dataset " + verb) == 0) {
        return cmd_dataset(verb, Args{});  // names the unknown verb
      }
      return cmd_dataset(verb, parse_args(argc, argv, 3, "dataset " + verb));
    }
    if (command_flags().count(cmd) == 0) {
      usage();
      return 1;
    }
    const Args a = parse_args(argc, argv, 2, cmd);
    if (cmd == "diameter") return cmd_diameter(a);
    if (cmd == "gadget") return cmd_gadget(a);
    if (cmd == "degree") return cmd_degree(a);
    if (cmd == "baseline") return cmd_baseline(a);
    if (cmd == "params") return cmd_params(a);
    if (cmd == "sweep") return cmd_sweep(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "query") return cmd_query(a);
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
