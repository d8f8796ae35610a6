// Regenerates the headline result (Theorem 1.1): measured round
// complexity of the quantum weighted diameter/radius algorithm versus
// n and D, against the paper's Õ(min{n^{9/10} D^{3/10}, n}) bound and
// the classical Θ̃(n) baseline — plus the oracle worker scaling
// (docs/perf.md): the driver on one oracle-bound instance at
// oracle_workers 1/2/8, asserting every worker count returns a
// semantically identical `Theorem11Result`, and writing the measured
// wall times to a JSON report in the bench-gate schema
// (tools/check_bench_regression.py).
//
// Series reported:
//  * oracle worker scaling at one n (default 2048): end-to-end seconds,
//    speedup over oracle_workers = 1, set evaluations and f(i) reads,
//    and identity with the one-worker run;
//  * end to end (`t11_e2e`): `qcongest_cli diameter --family ER --maxw
//    10 --seed 3` at n = 256 and 512 (64 under --smoke), one oracle
//    worker — wall seconds, the run's measure-phase seconds, and the
//    charged rounds, which must equal literals recorded before the
//    simulator skipped idle rounds;
//  * low-D family (connected ER, D ≈ log n): the advantage regime
//    D = o(n^{1/3});
//  * high-D family (path of cliques, D ≈ n/c): the regime where the
//    min{..., n} cap bites and the advantage disappears;
//  * a log-log power-law fit of measured rounds vs n per family.
//
// Usage: bench_theorem11_scaling [--smoke] [--large] [--n N] [--out FILE]
//   --smoke   tiny instances for ctest (correctness + JSON, no timing
//             claims); skips the scaling sweeps
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "harness.h"
#include "util/mathx.h"
#include "util/table.h"

namespace {

using namespace qc;

// ---------------------------------------------------------------------
// Oracle worker scaling
// ---------------------------------------------------------------------

constexpr unsigned kOracleWorkers[] = {1, 2, 8};

/// Theorem 1.1's diameter on `g`, timed in wall seconds.
core::Theorem11Result timed_diameter(const WeightedGraph& g,
                                     const core::Theorem11Options& opt,
                                     double& seconds) {
  core::Theorem11Result res;
  seconds = bench::wall_seconds(
      [&] { res = core::quantum_weighted_diameter(g, opt); });
  return res;
}

/// Runs Theorem 1.1 at oracle_workers 1/2/8 on one instance and checks
/// every result against the one-worker run (`t11_oracle` rows, with
/// value_evaluations and memo_hits columns). Returns false if any worker
/// count diverged (timing never fails the run; the numbers are in the
/// JSON).
bool run_worker_scaling(NodeId n, bench::Report& report) {
  Rng rng(n);
  // Sparse low-diameter ER with near-unit weights: the regime where the
  // oracle pass is as large as the measure phase (the trend at large n,
  // where the n set evaluations outgrow the O(D + r)-round measure
  // phase).
  auto g = gen::erdos_renyi_connected(n, 1.2 * std::log2(double(n)) / n,
                                      rng);
  g = gen::randomize_weights(g, 2, rng);
  report.spec.add("n", n).add("m", g.edge_count());
  std::printf("-- oracle worker scaling: %s --\n", g.summary().c_str());

  core::Theorem11Options opt;
  opt.seed = 41;
  // Timing isolates the driver itself: the optional distributed
  // re-validation and the all-sets census are serial and are exercised
  // by the scaling sweeps below.
  opt.validate_distributed = false;
  opt.census = false;
  // ε⁻¹ = 1 keeps the per-scale caps short, and r = 64 (only where the
  // instance is big enough) makes the sampled sets large (|S| ≈ r) — the
  // regime Eq. (1) reaches at much larger n than a single-machine
  // simulator can hold.
  opt.eps_inv = 1;
  if (n >= 512) opt.r_override = 64;

  core::Theorem11Result one;
  double base = 0;
  bool ok = true;
  for (const unsigned w : kOracleWorkers) {
    opt.oracle_workers = w;
    double seconds = 0;
    const auto res = timed_diameter(g, opt, seconds);
    if (w == 1) {
      one = res;
      base = seconds;
    }
    const bool identical = core::semantically_equal(one, res);
    ok &= identical;
    bench::Fields cols;
    cols.add("value_evaluations", res.oracle.value_evaluations)
        .add("memo_hits", res.oracle.memo_hits);
    report.add({"t11_oracle", "diameter", n, w, seconds,
                bench::speedup(base, seconds), identical, cols});
  }
  return ok;
}

// ---------------------------------------------------------------------
// End to end: the CLI's Theorem 1.1 diameter run
// ---------------------------------------------------------------------

/// Charged rounds of `qcongest_cli diameter --n N --family ER --maxw 10
/// --seed 3`, recorded from the round-by-round simulator. How the
/// engine schedules rounds must never move them.
struct E2eCase {
  NodeId n;
  std::uint64_t charged_rounds;
};
constexpr E2eCase kE2eCases[] = {{256, 503415180}, {512, 1257516175}};
constexpr E2eCase kE2eSmokeCase = {64, 126233515};

/// Times each case at one oracle worker (the measure phase is serial at
/// any count) into `t11_e2e` rows, with measure_seconds (the run's
/// PhaseSeconds::measure) and charged_rounds columns. Returns false if
/// a case's charged rounds moved.
bool run_e2e(bool smoke, bench::Report& report) {
  std::vector<E2eCase> cases(std::begin(kE2eCases), std::end(kE2eCases));
  if (smoke) cases = {kE2eSmokeCase};
  bool ok = true;
  for (const E2eCase& c : cases) {
    Rng rng(3);
    const auto g = gen::from_family("ER", c.n, 10, rng);
    core::Theorem11Options opt;
    opt.seed = 3;
    opt.census = true;  // as the CLI runs it
    opt.oracle_workers = 1;
    double seconds = 0;
    const auto res = timed_diameter(g, opt, seconds);
    const bool identical = res.rounds == c.charged_rounds;
    ok &= identical;
    bench::Fields cols;
    cols.add("measure_seconds", res.phase_seconds.measure)
        .add("charged_rounds", res.rounds);
    report.add({"t11_e2e", "diameter", c.n, 1, seconds, 1.0, identical, cols});
  }
  return ok;
}

// ---------------------------------------------------------------------
// Round-complexity scaling (the headline sweeps)
// ---------------------------------------------------------------------

struct Sample {
  NodeId n;
  Dist d;
  std::uint64_t rounds;
  double ratio;
  double model;
};

Sample run_one(const WeightedGraph& g, std::uint64_t seed_base) {
  Sample s;
  s.n = g.node_count();
  s.d = unweighted_diameter(g);
  s.rounds = 0;
  s.ratio = 0;
  const int reps = 3;  // average out the sampling/Grover randomness
  for (int rep = 0; rep < reps; ++rep) {
    core::Theorem11Options opt;
    opt.seed = seed_base + static_cast<std::uint64_t>(rep) * 101;
    opt.validate_distributed = rep == 0;  // validate once per point
    opt.census = true;                    // the table reports the ratio
    const auto res = core::quantum_weighted_diameter(g, opt);
    s.rounds += res.rounds;
    s.ratio = std::max(s.ratio, res.ratio);
  }
  s.rounds /= reps;
  s.model = core::model::theorem11_rounds(s.n, s.d);
  return s;
}

// The Õ(·) in Theorem 1.1 hides ~log⁴ n: ε⁻¹ = log n lengthens the
// per-scale caps, the scale count is another log, Algorithm 3's window
// stretch is a log, and the search budgets carry √log factors. At the
// small n a simulator can execute, those factors dominate the fit, so
// we report both the raw exponent and the exponent after dividing the
// measurement by log⁴ n.
double log4(double n) {
  const double l = std::log2(n);
  return l * l * l * l;
}

void run_family(const char* name,
                const std::vector<WeightedGraph>& graphs) {
  std::printf("-- family: %s --\n", name);
  TextTable t({"n", "D", "measured rounds (avg 3 seeds)",
               "model n^.9 D^.3 polylog", "classical model ~n log n",
               "rounds/log^4", "max approx ratio"});
  std::vector<double> ns, rounds, corrected;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto s = run_one(graphs[i], 1000 + i);
    const double corr = static_cast<double>(s.rounds) / log4(double(s.n));
    t.add(s.n, s.d, s.rounds, s.model,
          core::model::classical_weighted_rounds(s.n), corr, s.ratio);
    ns.push_back(static_cast<double>(s.n));
    rounds.push_back(static_cast<double>(s.rounds));
    corrected.push_back(corr);
  }
  std::printf("%s", t.render().c_str());
  if (ns.size() >= 2) {
    const auto [e_raw, c1] = fit_power_law(ns, rounds);
    const auto [e_cor, c2] = fit_power_law(ns, corrected);
    std::printf("  measured rounds ~ n^%.3f raw; ~ n^%.3f after removing "
                "log^4 n (paper bound exponent at fixed D: 0.9; at D~n: "
                "1.0)\n\n",
                e_raw, e_cor);
    (void)c1;
    (void)c2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv,
                           {"--smoke", "--large", "--n N", "--out FILE"});
  const bool smoke = flags.has("--smoke");
  const bool large = flags.has("--large");
  const NodeId oracle_n = flags.num<NodeId>("--n", smoke ? 64 : 2048);
  const std::string out_path = flags.out_file("--out", "BENCH_theorem11.json");

  std::printf("Theorem 1.1 scaling — measured CONGEST rounds of the quantum "
              "weighted diameter\n\n");

  bench::Report report;
  report.spec.add("smoke", smoke).add("benched_workers", kOracleWorkers);
  bool ok = run_worker_scaling(oracle_n, report);
  if (!ok) {
    std::fprintf(stderr, "FAIL: oracle worker counts gave different "
                         "results\n");
  }
  const bool worker_identity = ok;
  if (!run_e2e(smoke, report)) {
    std::fprintf(stderr, "FAIL: end-to-end charged rounds moved\n");
    ok = false;
  }
  std::printf("-- oracle worker scaling (t11_oracle) and end to end "
              "(t11_e2e: Theorem 1.1 diameter, ER W=10 seed 3) --\n%s\n",
              report.table().c_str());
  report.acceptance.add("byte_identical_at_all_worker_counts",
                        worker_identity);
  report.write(out_path);
  std::printf("\n");
  if (smoke) return ok ? 0 : 1;

  std::vector<WeightedGraph> low_d;
  for (NodeId n : std::vector<NodeId>{32, 48, 64, 96, 128}) {
    Rng rng(n);
    auto g = gen::erdos_renyi_connected(
        n, 3.0 * std::log2(double(n)) / n, rng);
    low_d.push_back(gen::randomize_weights(g, 8, rng));
  }
  if (large) {
    Rng rng(192);
    auto g = gen::erdos_renyi_connected(192, 3.0 * std::log2(192.0) / 192,
                                        rng);
    low_d.push_back(gen::randomize_weights(g, 8, rng));
  }
  run_family("low diameter (ER, D ~ log n) — quantum advantage regime",
             low_d);

  std::vector<WeightedGraph> high_d;
  for (NodeId cliques : std::vector<NodeId>{8, 12, 16, 24, 32}) {
    Rng rng(cliques);
    auto g = gen::path_of_cliques(cliques, 4);
    high_d.push_back(gen::randomize_weights(g, 8, rng));
  }
  run_family("high diameter (path of cliques, D ~ n/4) — cap regime",
             high_d);

  std::printf("crossover check: the paper predicts advantage iff D = "
              "o(n^{1/3}).\n");
  TextTable x({"n", "D", "model rounds", "vs n", "advantage"});
  for (NodeId n : std::vector<NodeId>{1 << 10, 1 << 14, 1 << 18, 1 << 22}) {
    for (double dpow : {0.1, 0.25, 1.0 / 3, 0.5, 0.8}) {
      const auto d = static_cast<Dist>(std::pow(double(n), dpow));
      const double m = core::model::theorem11_rounds(n, d) /
                       core::model::polylog(n);
      x.add(n, d, m, m / double(n), m < double(n) * 0.9);
    }
  }
  std::printf("%s\n", x.render().c_str());
  return ok ? 0 : 1;
}
