// Wall-clock benchmark of the CONGEST simulator fast path.
//
// The fast path stores messages once, meters each edge through the
// precomputed EdgeSlotIndex, keeps mailboxes in a double-buffered arena,
// touches only the active node set per round, and optionally fans
// on_round out over the fork/join pool. This bench times it on three
// workloads (BFS flood, Algorithm 1 bounded-hop SSSP, and the Algorithm
// 4 overlay embedding), checks that ledgers, traces and program outputs
// are byte-identical across worker counts and at both extremes of the
// pooled_round_min_work knob (whose 0 forces the sharded mailbox merge
// on), and writes BENCH_congest_sim.json with one row per (workload,
// variant, n, workers). The alg1 "fast pooled" row runs with the
// default pooled_round_min_work, which keeps its tiny rounds on the
// calling thread; the "fast pooled always-pool" row forces the pool on
// every program phase and every merge, and documents the fan-out tax
// the threshold removes.
//
// The seed engine this fast path replaced (per-message heap vectors,
// O(degree) neighbour scans, whole-ledger refills, strictly serial) is
// retired; its last timings are frozen in docs/perf.md. What it
// guaranteed stays checked: at n = 128 (the ctest smoke) and n = 2048
// (the default) every fast run of bfs_flood and alg1_hop_sssp must
// equal literals captured from the seed engine — the ledger plus
// digests of the trace, of the per-node outputs and of the order in
// which each node heard its senders. At any other --n there is no seed
// pin, and the bench checks worker-count identity only.
//
// Usage: bench_congest_sim [--smoke] [--large] [--n N] [--out FILE]
//   --smoke   tiny instance for ctest (correctness + JSON, no timing
//             claims)
//   --large   additionally bench alg4_overlay on an n=65536 sparse ER
//             graph (p = 8/n) at w = 1/2/4/8 — the sharded-merge
//             scaling row; excluded from the ctest smoke entry
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../tests/run_digest.h"
#include "congest/simulator.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "harness.h"
#include "paths/distributed.h"
#include "paths/params.h"
#include "util/rng.h"

namespace {

using namespace qc;

/// Algorithm 1 (bounded-hop SSSP): one timed-release pass per weight
/// scale on a fixed schedule — long-running with a shrinking active
/// set and few deliveries per round. It keeps the seed engine's program
/// idiom (map-based per-neighbour state), as the seed pins were
/// captured with it.
class HopSsspProgram final : public congest::NodeProgram {
 public:
  HopSsspProgram(NodeId source, const paths::HopScale& scale,
                 std::uint32_t dist_bits)
      : source_(source),
        scale_(scale),
        scales_(scale.scale_count()),
        cap_(scale.rounded_cap()),
        dist_bits_(dist_bits) {}

  void on_start(congest::NodeContext& ctx) override {
    for (const HalfEdge& h : ctx.neighbors()) {
      weights_[h.to] = h.weight;
    }
    reset_scale(ctx.id());
  }

  void on_round(congest::NodeContext& ctx,
                std::span<const congest::Incoming> inbox) override {
    heard_ = bench::fold_senders(heard_, inbox);
    for (const auto& in : inbox) {
      const std::uint64_t w =
          scale_.rounded_weight(weights_.at(in.from), scale_index_);
      best_ = std::min(best_, dist_add(in.msg.field(0), w));
    }
    if (!announced_ && best_ == offset_ && best_ <= cap_) {
      announced_ = true;
      congest::Message m;
      m.push(best_, dist_bits_);
      ctx.broadcast(m);
    }
    ++offset_;
    if (offset_ == cap_ + 2) {
      if (best_ <= cap_) {
        dtilde_ = std::min(dtilde_, best_ << scale_index_);
      }
      ++scale_index_;
      if (scale_index_ < scales_) reset_scale(ctx.id());
    }
  }

  bool done() const override { return scale_index_ >= scales_; }

  Dist value() const { return dtilde_; }
  std::uint64_t heard() const { return heard_; }

 private:
  void reset_scale(NodeId me) {
    best_ = (me == source_) ? 0 : kInfDist;
    offset_ = 0;
    announced_ = false;
  }

  NodeId source_;
  paths::HopScale scale_;
  std::uint32_t scales_;
  Dist cap_;
  std::uint32_t dist_bits_;
  std::map<NodeId, Weight> weights_;
  std::uint32_t scale_index_ = 0;
  Dist best_ = kInfDist;
  Dist offset_ = 0;
  bool announced_ = false;
  Dist dtilde_ = kInfDist;
  std::uint64_t heard_ = bench::kNothingHeard;
};

// --- seed pins ---------------------------------------------------------

/// One run reduced to literals: the ledger and FNV-1a digests of the
/// trace, of the per-node outputs and of the per-node delivery orders.
struct Pin {
  congest::RunStats stats;
  std::uint64_t trace = 0;
  std::uint64_t values = 0;
  std::uint64_t heard = 0;

  friend bool operator==(const Pin&, const Pin&) = default;
};

Pin pin_of(const bench::SimOutcome& o) {
  Pin p{o.stats, congest::trace_digest(o.trace), congest::fnv1a({}),
        congest::fnv1a({})};
  for (const Dist v : o.values) p.values = congest::fnv1a({v}, p.values);
  for (const std::uint64_t h : o.heard) p.heard = congest::fnv1a({h}, p.heard);
  return p;
}

/// Literals captured from the seed engine on this bench's graph (ER,
/// avg degree 8, weights 1..64, Rng(2022)), where the bench asserted
/// seed and fast outcomes equal.
struct SeedPin {
  NodeId n;
  Pin pin;
};
constexpr SeedPin kBfsFloodPins[] = {
    {128,
     {{4, 966, 7728}, 16882940925607347460ull, 16919191894067003781ull,
      15386370540349786052ull}},
    {2048,
     {{6, 16638, 199656}, 17917204541271482615ull, 16046030121014745091ull,
      7882234277103212954ull}}};
constexpr SeedPin kHopSsspPins[] = {
    {128,
     {{1066, 7829, 54803}, 4690499577286634920ull, 9248389722172280449ull,
      9081315917525941598ull}},
    {2048,
     {{1066, 119534, 836738}, 8355622368699191718ull, 11903293261039554895ull,
      4954725373022919053ull}}};

/// The pin every run of a workload must equal: the seed literal at a
/// pinned n, else the traced serial run's own (worker-count identity).
Pin expected_pin(std::span<const SeedPin> pins, NodeId n, const char* workload,
                 const bench::SimOutcome& serial) {
  for (const SeedPin& p : pins) {
    if (p.n == n) return p.pin;
  }
  std::printf("%s: no seed pin at n=%u (pinned: n=128, 2048); checking "
              "worker-count identity only\n",
              workload, static_cast<unsigned>(n));
  return pin_of(serial);
}

template <typename Program, typename Make>
bench::SimOutcome run_fast(const WeightedGraph& g, const Make& make,
                           bool trace, unsigned workers,
                           std::size_t min_work =
                               congest::Config::Execution{}
                                   .pooled_round_min_work) {
  congest::Config cfg;
  cfg.hooks.record_trace = trace;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = min_work;
  return bench::run_programs<Program>(g, make, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv,
                           {"--smoke", "--large", "--n N", "--out FILE"});
  const bool smoke = flags.has("--smoke");
  const bool large = flags.has("--large");
  const NodeId n = flags.num<NodeId>("--n", smoke ? 128 : 2048);
  const std::string out_path =
      flags.out_file("--out", "BENCH_congest_sim.json");

  // Random connected graph, avg degree ~8 — the Theorem 1.1 sweep regime.
  Rng rng(2022);
  auto g = gen::erdos_renyi_connected(n, 8.0 / double(n), rng);
  g = gen::randomize_weights(g, 64, rng);
  g.csr();  // warm the CSR/slot caches outside the timers (one-time cost)
  g.slot_index();
  // On a box with fewer cores than 8 the w=8 rows still run
  // (oversubscribed) and are still byte-identical; they just can't show
  // wall-clock scaling. The spec records the machine as it is.
  const std::vector<unsigned> benched_workers = {1, 2, 4, 8};
  const int reps_bfs = smoke ? 2 : 8;
  const int reps_hop = smoke ? 1 : 2;
  const int batches = smoke ? 1 : 5;  // best-of-k, see bench::best_of

  std::printf(
      "congest simulator: %s, avg deg %.1f, B=%u bits, %u hardware "
      "worker(s)\n\n",
      g.summary().c_str(), 2.0 * double(g.edge_count()) / double(n),
      congest::default_bandwidth(n), bench::hardware_workers());

  bench::Report report;
  const auto push = [&](const std::string& workload,
                        const std::string& variant, NodeId row_n,
                        unsigned workers, double secs, double base_secs,
                        bool identical) {
    report.add({workload, variant, row_n, workers, secs,
                bench::speedup(base_secs, secs), identical});
  };
  const std::size_t never_pool = std::numeric_limits<std::size_t>::max();

  bool all_identical = true;

  // BFS flood.
  {
    const std::uint32_t dist_bits = bits_for(n + 1);
    const auto make = [&](NodeId) {
      return std::make_unique<bench::BfsFloodProgram>(0, dist_bits);
    };
    using P = bench::BfsFloodProgram;

    const Pin expected = expected_pin(
        kBfsFloodPins, n, "bfs_flood", run_fast<P>(g, make, true, 1));
    bool same = true;
    for (const unsigned w : benched_workers) {
      // Both extremes of the pool threshold: forced on (min=0) covers
      // the parallel scatter even where n is below the default.
      same &= pin_of(run_fast<P>(g, make, true, w, 0)) == expected;
      same &= pin_of(run_fast<P>(g, make, true, w, never_pool)) == expected;
    }
    all_identical &= same;

    const std::function<void()> variants[] = {
        [&] {
          for (int r = 0; r < reps_bfs; ++r) run_fast<P>(g, make, false, 1);
        },
        [&] {
          for (int r = 0; r < reps_bfs; ++r) run_fast<P>(g, make, false, 8);
        },
    };
    const bool use_cpu[] = {true, false};
    const std::vector<double> t = bench::best_of(batches, variants, use_cpu);
    push("bfs_flood", "fast w=1", n, 1, t[0], t[0], same);
    push("bfs_flood", "fast pooled", n, 8, t[1], t[0], same);
  }

  // Algorithm 1: bounded-hop SSSP.
  {
    const paths::HopScale scale{/*ell=*/16, /*eps_inv=*/2, g.max_weight()};
    const std::uint32_t dist_bits = bits_for(scale.rounded_cap() + 2);
    const auto make = [&](NodeId) {
      return std::make_unique<HopSsspProgram>(0, scale, dist_bits);
    };
    using P = HopSsspProgram;

    const bench::SimOutcome serial = run_fast<P>(g, make, true, 1);
    const Pin expected = expected_pin(kHopSsspPins, n, "alg1_hop_sssp", serial);
    bool same = true;
    for (const unsigned w : benched_workers) {
      // Both extremes of the pool threshold must agree: the knob may
      // only trade wall-clock, never bytes.
      same &= pin_of(run_fast<P>(g, make, true, w, 0)) == expected;
      same &= pin_of(run_fast<P>(g, make, true, w, never_pool)) == expected;
    }
    all_identical &= same;
    // Workload shape for the docs/perf.md serial-bound analysis: alg1
    // runs many rounds each carrying very few deliveries, so neither
    // the pooled round loop nor the sharded merge has work to spread.
    std::printf("alg1_hop_sssp shape: %llu rounds, %llu messages "
                "(%.1f deliveries/round)\n",
                static_cast<unsigned long long>(serial.stats.rounds),
                static_cast<unsigned long long>(serial.stats.messages),
                double(serial.stats.messages) /
                    double(std::max<std::uint64_t>(1, serial.stats.rounds)));

    const std::function<void()> variants[] = {
        [&] {
          for (int r = 0; r < reps_hop; ++r) run_fast<P>(g, make, false, 1);
        },
        [&] {
          for (int r = 0; r < reps_hop; ++r) run_fast<P>(g, make, false, 8);
        },
        // Diagnostic: the pool forced on for every program phase and
        // every merge. With ~112 deliveries/round the fan-out/join tax
        // dwarfs the work, which is exactly why pooled_round_min_work
        // exists — the default-knob "fast pooled" row above must not
        // regress below "fast w=1", while this row documents the cost
        // the threshold removes. It is timed in process CPU time, summed
        // over all threads, like the w=1 row: its wall time on an
        // oversubscribed host tracks the neighbours' load, and this is
        // the one timing-gated row at the default n.
        [&] {
          for (int r = 0; r < reps_hop; ++r) run_fast<P>(g, make, false, 8, 0);
        },
    };
    const bool use_cpu[] = {true, false, true};
    const std::vector<double> t = bench::best_of(batches, variants, use_cpu);
    push("alg1_hop_sssp", "fast w=1", n, 1, t[0], t[0], same);
    push("alg1_hop_sssp", "fast pooled", n, 8, t[1], t[0], same);
    push("alg1_hop_sssp", "fast pooled always-pool", n, 8, t[2], t[0], same);
  }

  // Algorithm 4: overlay embedding through the public API; worker
  // counts must agree. This is the sharded-merge scaling workload:
  // every round moves dense broadcast batches, so the merge dominates
  // and per-worker rows show whether the parallel scatter pays off.
  // Returns the w=8 vs w=1 speedup for the acceptance record.
  const auto bench_overlay = [&](const WeightedGraph& gg) {
    const NodeId nn = gg.node_count();
    const std::size_t b = std::min<std::size_t>(8, nn);
    std::vector<NodeId> sources;
    for (std::size_t a = 0; a < b; ++a) {
      sources.push_back(static_cast<NodeId>(a * nn / b));
    }
    std::vector<std::vector<Dist>> approx_rows;
    approx_rows.reserve(b);
    for (const NodeId s : sources) approx_rows.push_back(dijkstra(gg, s));
    const paths::Params params = paths::Params::make(nn, /*D=*/16);

    const auto run_overlay = [&](unsigned w, std::size_t min_work) {
      congest::Config cfg;
      cfg.execution.workers = w;
      cfg.execution.pooled_round_min_work = min_work;
      return paths::distributed_embed_overlay(
          gg, approx_rows,
          paths::RunRequest{}
              .with_sources(sources)
              .with_params(params)
              .with_config(cfg));
    };
    const auto same_embedding = [](const paths::OverlayEmbedding& a,
                                   const paths::OverlayEmbedding& b2) {
      return a.w1 == b2.w1 && a.w2 == b2.w2 && a.nearest_k == b2.nearest_k &&
             a.max_w2 == b2.max_w2 && a.stats == b2.stats;
    };
    const std::size_t def_min =
        congest::Config::Execution{}.pooled_round_min_work;

    paths::OverlayEmbedding golden;
    const double t_base =
        bench::wall_seconds([&] { golden = run_overlay(1, def_min); });
    push("alg4_overlay", "fast w=1", nn, 1, t_base, t_base, true);
    double w8_speedup = 0;
    for (const unsigned w : {2u, 4u, 8u}) {
      paths::OverlayEmbedding got;
      const double t_w =
          bench::wall_seconds([&] { got = run_overlay(w, def_min); });
      bool same = same_embedding(got, golden);
      if (nn < 4 * def_min) {
        // Small graphs sit below the sharding threshold in the timed run
        // above; re-run with the sharded merge forced on so the identity
        // flag covers the parallel scatter path too. Large graphs clear
        // the threshold naturally, so the timed run already did.
        same = same && same_embedding(run_overlay(w, 0), golden);
      }
      all_identical &= same;
      push("alg4_overlay", "fast w=" + std::to_string(w), nn, w, t_w, t_base,
           same);
      if (w == 8) w8_speedup = bench::speedup(t_base, t_w);
    }
    return w8_speedup;
  };

  double overlay_w8_speedup = bench_overlay(g);
  NodeId overlay_n = n;
  if (large) {
    // The scaling row the acceptance targets: n=65536 sparse ER
    // (p = 8/n), alg4_overlay at w = 1/2/4/8. Separate RNG stream so
    // --large never perturbs the base-graph rows.
    Rng lrng(2023);
    const NodeId ln = 65536;
    auto lg = gen::erdos_renyi_connected(ln, 8.0 / double(ln), lrng);
    lg = gen::randomize_weights(lg, 64, lrng);
    lg.csr();
    lg.slot_index();
    std::printf("large graph: %s, avg deg %.1f\n", lg.summary().c_str(),
                2.0 * double(lg.edge_count()) / double(ln));
    overlay_w8_speedup = bench_overlay(lg);
    overlay_n = ln;
  }

  std::printf("%s\n", report.table().c_str());
  std::printf("seed pins and worker-count identity: %s\n",
              all_identical ? "hold" : "FAIL");
  std::printf("alg4_overlay w=8 vs w=1 at n=%u: %.2fx (the >= 3x target "
              "presumes >= 8 hardware workers; this host reports %u)\n",
              static_cast<unsigned>(overlay_n), overlay_w8_speedup,
              bench::hardware_workers());

  report.spec.add("n", n)
      .add("m", g.edge_count())
      .add("benched_workers", benched_workers)
      .add("large", large);
  report.acceptance.add("alg4_overlay_w8_speedup_vs_w1", overlay_w8_speedup)
      .add("alg4_overlay_speedup_n", overlay_n)
      .add("byte_identical_at_all_worker_counts", all_identical);
  report.write(out_path);
  return all_identical ? 0 : 1;
}
