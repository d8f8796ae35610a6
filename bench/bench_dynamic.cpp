// Dynamic-update benchmark: delta-aware cache repair vs rebuild.
//
// The mutation API's reason to exist is that a small edge batch should
// not cost a from-scratch rebuild of the warm artifacts (CSR,
// eccentricity tables, toolkit d̃^ℓ rows). This bench pins that claim
// end to end through the service's "update" query type:
//
//  * correctness gates first — the same interleaved update/read script
//    must produce byte-identical response transcripts from the
//    incremental engine at workers 1/2/8 AND from the
//    rebuild-from-scratch engine (EngineOptions::incremental_updates =
//    false) at workers 1/2/8: six transcripts, one equivalence class;
//  * then timing — each workload replays rounds of 8-edge update
//    batches interleaved with reads (eccentricity / diameter sweeps,
//    toolkit-backed approx_distance, Theorem 1.1 estimates), and the
//    row reports seconds per variant plus the incremental-over-scratch
//    speedup;
//  * writes BENCH_dynamic.json; in full mode exits nonzero unless the
//    n = 65536 incremental/scratch speedup clears the 2x acceptance
//    floor (measured ratios are far higher — scratch re-pays every
//    warm table per batch where incremental repairs only the rows the
//    Lemma certificates actually invalidate).
//
// Instances are weighted grids (weights in [1, 64]) plus 64 extra
// edges, and each workload streams the update mix its warm artifact
// calls for (all ops validated against a local mirror, so every op is
// legal by construction):
//
//  * toolkit-bound workloads (mixed/approx): long-range chords in
//    [120, 128], ~80% chord reweights. Chord 0 is pinned at the
//    maximum weight 128 and never touched, so the stream cannot change
//    HopScale{ℓ, 1/ε, max weight} and the toolkit's rebind_params
//    fast path stays live. Global updates are fine here: the d̃^ℓ row
//    certificate is ℓ-local, so most rows survive anyway.
//  * the ecc workload: redundant diagonal "backup links" in
//    [129, 255] (never on any shortest path — a two-grid-edge
//    alternative costs <= 128), ~70% backup reweights plus occasional
//    consequential grid jitter. Eccentricity repair is per-source
//    global — an average sparse-graph edge is tight for ~n/2 sources —
//    so redundant-link maintenance is the regime where delta repair
//    wins, and the certificate proves each batch (mostly) irrelevant.
//
// Usage: bench_dynamic [--smoke] [--out FILE]
//   --smoke   tiny instance for ctest (correctness + JSON, no timing
//             claims)
#include <cstdint>
#include <cstdio>
#include <future>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "harness.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "util/rng.h"

namespace {

using namespace qc;
using service::EngineOptions;
using service::Query;
using service::QueryEngine;
using service::QueryResult;

constexpr unsigned kWorkerCounts[] = {1, 2, 8};

std::uint64_t edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (std::uint64_t(u) << 32) | v;
}

/// One benchmark instance: the graph plus the deterministic
/// update/read script every engine configuration replays verbatim.
/// `prelude` is the untimed warm-up pass (both variants start from the
/// same steady warm state); `script` is the timed interleave.
struct Workload {
  std::string name;
  NodeId n = 0;
  WeightedGraph graph{1};
  std::vector<Query> prelude;
  std::vector<Query> script;
  std::size_t rounds = 0;
  std::size_t updates = 0;  ///< update queries in `script`
  std::size_t reads = 0;    ///< read queries in `script`
};

/// side x side grid, weights in [1, 64], plus 64 extra edges.
///
/// Global style: the extras are uniform long-range chords in
/// [120, 128]; chords[0] is the pinned max-weight chord the stream
/// never touches (it holds HopScale's max-weight identity fixed so the
/// toolkit's rebind_params fast path stays live).
///
/// Backup style: the extras are diagonal "redundant links" in
/// [129, 255]. A diagonal (r,c)-(r+1,c±1) always has a two-grid-edge
/// alternative of cost <= 128 < 129, so no shortest path ever uses a
/// backup edge — mutating one is provably consequence-free, which is
/// exactly what the tight-edge certificate is for.
WeightedGraph make_instance(NodeId side,
                            std::vector<std::pair<NodeId, NodeId>>& chords,
                            bool backup_style) {
  Rng rng(0xd1a0ull + side);
  WeightedGraph g = gen::randomize_weights(gen::grid(side, side), 64, rng);
  const NodeId n = g.node_count();
  while (chords.size() < 64) {
    NodeId u, v;
    Weight w;
    if (backup_style) {
      const NodeId r = static_cast<NodeId>(rng.below(side - 1));
      const NodeId c = static_cast<NodeId>(rng.below(side));
      const std::int64_t nc = std::int64_t(c) + (rng.chance(0.5) ? 1 : -1);
      if (nc < 0 || nc >= side) continue;
      u = r * side + c;
      v = static_cast<NodeId>((r + 1) * side + nc);
      w = static_cast<Weight>(rng.between(129, 255));
    } else {
      u = static_cast<NodeId>(rng.below(n));
      v = static_cast<NodeId>(rng.below(n));
      w = chords.empty() ? 128 : static_cast<Weight>(rng.between(120, 127));
    }
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v, w);
    chords.emplace_back(u, v);
  }
  return g;
}

Query update_op(std::uint64_t id, const char* op, NodeId u, NodeId v,
                Weight w) {
  Query q;
  q.id = id;
  q.type = "update";
  q.op = op;
  q.node = u;
  q.target = v;
  q.weight = w;
  return q;
}

Query read_op(std::uint64_t id, const char* type, NodeId node = 0,
              NodeId target = 0, std::uint64_t seed = 1) {
  Query q;
  q.id = id;
  q.type = type;
  q.node = node;
  q.target = target;
  q.seed = seed;
  return q;
}

/// Builds the deterministic script: `rounds` rounds of 8 legal edge
/// mutations followed by the workload's read mix. Which reads run is
/// what differentiates the workloads — "ecc" exercises the
/// eccentricity-table delta repair, "approx" the toolkit row
/// invalidation, "mixed" both plus resident-toolkit Theorem 1.1
/// estimates.
///
/// `backup_updates` picks the mutation mix. The global mix (~80%
/// long-range chord reweights) is adversarial for eccentricity repair:
/// on a sparse graph an average edge is tight for ~n/2 sources (every
/// source's shortest-path tree uses n-1 of ~2n edges), so a
/// consequential random-edge update invalidates about half the table
/// and delta repair cannot beat one pooled rebuild. The ecc workload
/// therefore streams redundant-link maintenance — cost jitter on
/// backup edges no shortest path uses, plus occasional consequential
/// grid jitter — the regime where the certificate proves the batch
/// (mostly) irrelevant for 2·|endpoints| Dijkstras instead of
/// recomputing 4096 rows. The toolkit-bound workloads keep the global
/// mix precisely because the d̃^ℓ row certificate stays ℓ-local even
/// under global updates (perf.md "Dynamic updates" has the math).
void build_script(Workload& wl, std::vector<std::pair<NodeId, NodeId>> chords,
                  std::size_t rounds, bool ecc_reads, bool approx_reads,
                  bool t11_reads, bool backup_updates) {
  const NodeId n = wl.graph.node_count();
  const NodeId side = static_cast<NodeId>([&] {
    NodeId s = 1;
    while (s * s < n) ++s;
    return s;
  }());
  Rng rng(0x5c21ull * n + 7);

  // Mirror of the evolving edge set so generated ops are always legal.
  std::set<std::uint64_t> edges;
  for (const Edge& e : wl.graph.edges()) edges.insert(edge_key(e.u, e.v));
  std::vector<std::pair<NodeId, NodeId>> extras;  // stream-inserted chords

  // Fixed read pools: reusing the same sources/pairs across rounds is
  // the warm-cache regime the incremental claim is about.
  std::vector<NodeId> ecc_pool;
  for (std::size_t i = 0; i < 16; ++i) {
    ecc_pool.push_back(static_cast<NodeId>(rng.below(n)));
  }
  std::vector<std::pair<NodeId, NodeId>> approx_pool;
  for (std::size_t i = 0; i < 32; ++i) {
    approx_pool.emplace_back(static_cast<NodeId>(rng.below(n)),
                             static_cast<NodeId>(rng.below(n)));
  }

  std::uint64_t id = 0;

  // Untimed prelude: one pass over the read mix warms both variants to
  // the same steady state before the clock starts.
  if (ecc_reads) wl.prelude.push_back(read_op(++id, "diameter"));
  if (approx_reads) {
    for (const auto& [s, t] : approx_pool) {
      wl.prelude.push_back(read_op(++id, "approx_distance", s, t));
    }
  }
  if (t11_reads) {
    wl.prelude.push_back(read_op(++id, "t11_diameter", 0, 0, 1));
  }

  // Reweight one of the 64 pre-built extras (never index 0 — in global
  // style it is the pinned max-weight chord). Backup edges jitter in
  // [129, 255], staying strictly above any two-grid-edge alternative;
  // chords jitter in [120, 127], staying below the pin.
  const auto reweight_extra = [&](std::uint64_t qid) {
    const auto& [u, v] = chords[1 + rng.below(chords.size() - 1)];
    const Weight w = backup_updates
                         ? static_cast<Weight>(rng.between(129, 255))
                         : static_cast<Weight>(rng.between(120, 127));
    return update_op(qid, "reweight", u, v, w);
  };
  const auto reweight_grid = [&](std::uint64_t qid) {
    for (;;) {
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const NodeId v = rng.chance(0.5) ? u + 1 : u + side;
      if (v < n && wl.graph.has_edge(u, v)) {
        return update_op(qid, "reweight", u, v,
                         static_cast<Weight>(rng.between(1, 64)));
      }
    }
  };
  // A fresh edge: a uniform long-range chord, or (backup mode) another
  // redundant diagonal.
  const auto insert_edge = [&](std::uint64_t qid) {
    for (;;) {
      NodeId u, v;
      Weight w;
      if (backup_updates) {
        const NodeId r = static_cast<NodeId>(rng.below(side - 1));
        const NodeId c = static_cast<NodeId>(rng.below(side));
        const std::int64_t nc = std::int64_t(c) + (rng.chance(0.5) ? 1 : -1);
        if (nc < 0 || nc >= side) continue;
        u = r * side + c;
        v = static_cast<NodeId>((r + 1) * side + nc);
        w = static_cast<Weight>(rng.between(129, 255));
      } else {
        u = static_cast<NodeId>(rng.below(n));
        v = static_cast<NodeId>(rng.below(n));
        w = static_cast<Weight>(rng.between(120, 127));
      }
      if (u == v || edges.count(edge_key(u, v))) continue;
      edges.insert(edge_key(u, v));
      extras.emplace_back(u, v);
      return update_op(qid, "insert", u, v, w);
    }
  };

  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t j = 0; j < 8; ++j) {
      const double roll = rng.uniform();
      ++id;
      // Global mix: 80% chord reweight / 10% grid reweight / 5% insert
      // / 5% remove. Backup mix: 70% backup reweight / 5% grid jitter
      // (the occasional consequential op) / 15% insert / 10% remove.
      const double p_extra = backup_updates ? 0.70 : 0.80;
      const double p_grid = backup_updates ? 0.05 : 0.10;
      const double p_ins = backup_updates ? 0.15 : 0.05;
      if (roll < p_extra) {
        wl.script.push_back(reweight_extra(id));
      } else if (roll < p_extra + p_grid) {
        wl.script.push_back(reweight_grid(id));
      } else if (roll < p_extra + p_grid + p_ins) {
        wl.script.push_back(insert_edge(id));
      } else if (!extras.empty()) {  // remove a stream-inserted edge
        const std::size_t k = rng.below(extras.size());
        const auto [u, v] = extras[k];
        extras.erase(extras.begin() + static_cast<std::ptrdiff_t>(k));
        edges.erase(edge_key(u, v));
        wl.script.push_back(update_op(id, "remove", u, v, 1));
      } else {
        wl.script.push_back(reweight_extra(id));
      }
      ++wl.updates;
    }
    if (ecc_reads) {
      for (const NodeId s : ecc_pool) {
        wl.script.push_back(read_op(++id, "eccentricity", s));
        ++wl.reads;
      }
      wl.script.push_back(read_op(++id, "diameter"));
      wl.script.push_back(read_op(++id, "radius"));
      wl.reads += 2;
    }
    if (approx_reads) {
      for (std::size_t i = 0; i < 16; ++i) {
        const auto& [s, t] = approx_pool[(round * 16 + i) % approx_pool.size()];
        wl.script.push_back(read_op(++id, "approx_distance", s, t));
        ++wl.reads;
      }
      const auto& [s, t] = approx_pool[round % approx_pool.size()];
      wl.script.push_back(read_op(++id, "sssp", s, t));
      ++wl.reads;
    }
    if (t11_reads) {
      wl.script.push_back(read_op(++id, "t11_diameter", 0, 0, round + 1));
      ++wl.reads;
    }
  }
  wl.rounds = rounds;
}

Workload make_workload(const std::string& name, NodeId side,
                       std::size_t rounds, bool ecc_reads, bool approx_reads,
                       bool t11_reads, bool backup_updates = false) {
  Workload wl;
  wl.name = name;
  std::vector<std::pair<NodeId, NodeId>> chords;
  wl.graph = make_instance(side, chords, backup_updates);
  wl.n = wl.graph.node_count();
  build_script(wl, std::move(chords), rounds, ecc_reads, approx_reads,
               t11_reads, backup_updates);
  return wl;
}

struct RunResult {
  std::string transcript;  ///< format_response of every reply, in order
  double seconds = 0;      ///< timed portion only (script, not prelude)
};

/// Replays the workload synchronously against one engine configuration
/// and returns the full response transcript plus the timed seconds.
RunResult run_config(const Workload& wl, bool incremental, unsigned workers) {
  EngineOptions opt;
  opt.workers = workers;
  opt.auto_dispatch = false;  // synchronous query() path; no dispatcher
  opt.incremental_updates = incremental;
  // Locality-friendly toolkit shape at large n: ε = 1 and r = n/4 keep
  // the first-level radius ℓ small so row refills stay bounded. Both
  // variants share the overrides, so the comparison is policy-only.
  opt.toolkit_eps_inv = 1;
  opt.toolkit_r_override = wl.n / 4;
  QueryEngine engine(opt);
  service::register_theorem11_handlers(engine);
  engine.add_graph("g0", wl.graph);

  RunResult out;
  for (const Query& q : wl.prelude) {
    out.transcript += service::format_response(engine.query(q));
    out.transcript += '\n';
  }
  // Consecutive updates go through submit + drain so the dispatcher
  // coalesces each round's batch into one GraphUpdate — one repair
  // pass per round, the shape the mutation API is designed around
  // (per-op synchronous apply would pay 8 repair passes). Reads stay
  // synchronous. Answers are identical either way (pinned by
  // tests/test_dynamic.cpp); responses keep script order.
  const bench::Stopwatch timer;
  for (std::size_t i = 0; i < wl.script.size();) {
    if (wl.script[i].type == "update") {
      std::vector<std::future<QueryResult>> futs;
      while (i < wl.script.size() && wl.script[i].type == "update") {
        futs.push_back(engine.submit(wl.script[i]));
        ++i;
      }
      while (engine.drain() > 0) {
      }
      for (auto& f : futs) {
        out.transcript += service::format_response(f.get());
        out.transcript += '\n';
      }
    } else {
      out.transcript += service::format_response(engine.query(wl.script[i]));
      out.transcript += '\n';
      ++i;
    }
  }
  out.seconds = timer.seconds();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, {"--smoke", "--out FILE"});
  const bool smoke = flags.has("--smoke");
  const std::string out_path = flags.out_file("--out", "BENCH_dynamic.json");

  std::vector<Workload> workloads;
  if (smoke) {
    workloads.push_back(make_workload("mixed", 16, 2, true, true, true));
  } else {
    // Mixed stays small: one t11_diameter estimate costs minutes at
    // n >= 1024, and the Theorem 1.1 interleave is a coverage claim
    // (resident toolkit reuse across updates), not the speedup claim —
    // that is the n = 65536 approx workload's job.
    workloads.push_back(make_workload("mixed", 20, 4, true, true, true));
    workloads.push_back(
        make_workload("ecc", 64, 8, true, false, false, /*backup=*/true));
    workloads.push_back(make_workload("approx", 256, 10, false, true, false));
  }

  bool byte_identical = true;
  bool matches_scratch = true;
  double speedup_65536 = 0;
  // "speedup_vs_baseline" is incremental-over-scratch at the same
  // worker count; scratch rows carry 1.0.
  bench::Report report;

  for (const Workload& wl : workloads) {
    std::printf("workload %-7s n=%-6u  %zu rounds, %zu updates, %zu reads\n",
                wl.name.c_str(), wl.n, wl.rounds, wl.updates, wl.reads);
    std::vector<RunResult> inc, scr;
    for (const unsigned workers : kWorkerCounts) {
      inc.push_back(run_config(wl, /*incremental=*/true, workers));
      scr.push_back(run_config(wl, /*incremental=*/false, workers));
    }
    const std::string& ref = inc.front().transcript;
    for (std::size_t i = 0; i < inc.size(); ++i) {
      const bool inc_same = inc[i].transcript == ref;
      const bool scr_same = scr[i].transcript == ref;
      byte_identical &= inc_same && scr_same;
      matches_scratch &= scr_same;
      const double speedup = bench::speedup(scr[i].seconds, inc[i].seconds);
      report.add({wl.name, "incremental", wl.n, kWorkerCounts[i],
                  inc[i].seconds, speedup, inc_same});
      report.add({wl.name, "scratch", wl.n, kWorkerCounts[i], scr[i].seconds,
                  1.0, scr_same});
      if (wl.n == 65536 && i + 1 == inc.size()) speedup_65536 = speedup;
    }
  }
  std::printf("\n%s\n", report.table().c_str());

  const bool speedup_ok = smoke || speedup_65536 >= 2.0;
  std::printf("byte-identical across workers 1/2/8: %s; incremental == "
              "scratch: %s",
              byte_identical ? "ok" : "FAIL",
              matches_scratch ? "ok" : "FAIL");
  if (!smoke) {
    std::printf("; n=65536 incremental speedup = %.1fx (floor 2x): %s",
                speedup_65536, speedup_ok ? "ok" : "FAIL");
  }
  std::printf("\n");

  report.spec.add("smoke", smoke)
      .add("benched_workers", kWorkerCounts)
      .add("updates_per_round", 8);
  report.acceptance.add("byte_identical_at_all_worker_counts", byte_identical)
      .add("identical_to_scratch", matches_scratch)
      .add("incremental_speedup_at_65536", speedup_65536)
      .add("incremental_speedup_ok", speedup_ok);
  report.write(out_path);

  if (!byte_identical || !matches_scratch) return 1;
  if (!smoke && !speedup_ok) return 2;
  return 0;
}
