// Regenerates Table 1 of the paper: round complexity of diameter/radius
// in the CONGEST model, classical vs quantum, unweighted vs weighted.
//
// Each instance (n, seed) is one sweep task: it builds its own graph,
// runs every implemented algorithm, and reports the measured simulated
// rounds plus correctness flags as named metrics. The sweep executor
// fans the instances out over a fork/join pool and aggregates
// mean/min/max/p50/p95 per n — the headline comparison is the weighted
// (1, 3/2)-approximation row: this work's min{n^{9/10} D^{3/10}, n}
// against the classical Θ̃(n).
#include <cmath>
#include <cstdio>
#include <string>

#include "core/approx.h"
#include "core/baselines.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "util/table.h"

namespace {

using namespace qc;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, v < 10 ? "%.2f" : "%.0f", v);
  return buf;
}

/// One instance: every Table 1 measurement on one ER graph.
runtime::TaskOutput measure_instance(const runtime::SweepPoint& p,
                                     const WeightedGraph& g) {
  runtime::TaskOutput out;
  auto& m = out.metrics;
  const Dist d = unweighted_diameter(g);
  m["D"] = double(d);

  const auto classical = core::classical_unweighted_diameter(g);
  m["classical_rounds"] = double(classical.stats.rounds);
  m["classical_ok"] = classical.value == d ? 1 : 0;

  const auto lgm = core::lgm_quantum_unweighted_diameter(g, p.seed);
  m["lgm_rounds"] = double(lgm.rounds);
  m["lgm_ok"] = lgm.value == d ? 1 : 0;

  const auto cw = core::classical_weighted_diameter(g);
  const Dist exact_w = weighted_diameter(g);
  m["sssp_rounds"] = double(cw.stats.rounds);
  m["sssp_ok"] = cw.value == exact_w ? 1 : 0;

  core::Theorem11Options opt;
  opt.seed = p.seed;
  opt.eps_inv = p.eps_inv;
  opt.census = true;
  const auto t11d = core::quantum_weighted_diameter(g, opt);
  m["t11_diam_rounds"] = double(t11d.rounds);
  m["t11_diam_ok"] = t11d.within_bound ? 1 : 0;
  m["t11_diam_ratio"] = t11d.ratio;

  const auto t11r = core::quantum_weighted_radius(g, opt);
  m["t11_rad_rounds"] = double(t11r.rounds);
  m["t11_rad_ok"] = t11r.within_bound ? 1 : 0;
  m["t11_rad_ratio"] = t11r.ratio;

  const auto classical_r = core::classical_unweighted_radius(g);
  m["classical_rad_rounds"] = double(classical_r.stats.rounds);

  const auto lgm_r = core::lgm_quantum_unweighted_radius(g, p.seed);
  m["lgm_rad_rounds"] = double(lgm_r.rounds);
  m["lgm_rad_ok"] = lgm_r.distributed_value_matches ? 1 : 0;

  const auto two = core::two_approx_weighted_diameter(g);
  m["two_approx_rounds"] = double(two.stats.rounds);
  m["two_approx_ok"] =
      two.ecc_leader <= exact_w && two.upper_bound >= exact_w ? 1 : 0;

  const auto th = core::three_halves_unweighted_diameter(g, p.seed);
  m["three_halves_rounds"] = double(th.stats.rounds);
  m["three_halves_ok"] =
      th.estimate <= th.exact && 3 * th.estimate >= 2 * th.exact ? 1 : 0;
  return out;
}

void print_cell(const runtime::SweepCell& cell) {
  const auto agg = [&](const char* name) -> const runtime::Aggregate& {
    static const runtime::Aggregate empty;
    const auto it = cell.metrics.find(name);
    return it == cell.metrics.end() ? empty : it->second;
  };
  const auto ok = [&](const char* name) {
    return agg(name).min >= 1 ? "yes" : "NO";
  };
  const NodeId n = cell.n;
  const double d = agg("D").mean;

  std::printf("== Table 1 @ n=%u (ER, %zu instances, mean D=%.1f)\n", n,
              cell.runs, d);
  const auto model_lgm = core::model::lgm_unweighted_rounds(n, Dist(d));
  const auto model_cw = core::model::classical_weighted_rounds(n);
  const auto model_t11 = core::model::theorem11_rounds(n, Dist(d));
  const auto model_lb = core::model::theorem12_lower_bound(n);

  TextTable t({"problem", "variant", "approx", "classical bound",
               "quantum bound", "model value", "rounds mean", "rounds p95",
               "value ok"});
  t.add("diameter", "unweighted", "exact", "n [17,22]", "sqrt(nD) [12]",
        fmt(model_lgm), fmt(agg("classical_rounds").mean),
        fmt(agg("classical_rounds").p95), ok("classical_ok"));
  t.add("diameter", "unweighted", "exact", "-",
        "sqrt(nD) block search (LGM impl)",
        fmt(std::sqrt(double(n) * d)), fmt(agg("lgm_rounds").mean),
        fmt(agg("lgm_rounds").p95), ok("lgm_ok"));
  t.add("diameter", "weighted", "exact", "n [6]",
        "n (pipelined SSSP impl measured)", fmt(model_cw),
        fmt(agg("sssp_rounds").mean), fmt(agg("sssp_rounds").p95),
        ok("sssp_ok"));
  t.add("diameter", "weighted", "(1,3/2)", "n",
        "min{n^0.9 D^0.3, n} (This work)", fmt(model_t11),
        fmt(agg("t11_diam_rounds").mean), fmt(agg("t11_diam_rounds").p95),
        ok("t11_diam_ok"));
  t.add("diameter", "weighted", "(1,3/2) LB", "n", "n^2/3 (This work)",
        fmt(model_lb), "-", "-", "yes");
  t.add("diameter", "weighted", "2", "sqrt(n) D^1/4 + D [8]",
        "same (folklore SSSP impl measured)",
        fmt(core::model::cm_two_approx_rounds(n, Dist(d))),
        fmt(agg("two_approx_rounds").mean), fmt(agg("two_approx_rounds").p95),
        ok("two_approx_ok"));
  t.add("diameter", "unweighted", "3/2", "sqrt(n) + D [15,3]",
        "cbrt(nD) + D [12]", fmt(std::sqrt(double(n)) + d),
        fmt(agg("three_halves_rounds").mean),
        fmt(agg("three_halves_rounds").p95), ok("three_halves_ok"));
  t.add("radius", "unweighted", "exact", "n [17,22]", "sqrt(nD)",
        fmt(model_lgm), fmt(agg("classical_rad_rounds").mean),
        fmt(agg("classical_rad_rounds").p95), "yes");
  t.add("radius", "unweighted", "exact", "-",
        "sqrt(nD) block search (LGM impl)", fmt(std::sqrt(double(n) * d)),
        fmt(agg("lgm_rad_rounds").mean), fmt(agg("lgm_rad_rounds").p95),
        ok("lgm_rad_ok"));
  t.add("radius", "weighted", "(1,3/2)", "n",
        "min{n^0.9 D^0.3, n} (This work)", fmt(model_t11),
        fmt(agg("t11_rad_rounds").mean), fmt(agg("t11_rad_rounds").p95),
        ok("t11_rad_ok"));
  t.add("radius", "weighted", "(1,3/2) LB", "n", "n^2/3 (This work)",
        fmt(model_lb), "-", "-", "yes");
  std::printf("%s", t.render().c_str());
  std::printf(
      "  measured quality: T1.1 diameter ratio max %.4f, radius ratio max "
      "%.4f (eps bound (1+eps)^2)\n\n",
      agg("t11_diam_ratio").max, agg("t11_rad_ratio").max);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Table 1 reproduction — qcongest\n");
  std::printf("(bounds are formulas; 'rounds' aggregate simulated CONGEST "
              "rounds over seeded instances)\n\n");
  runtime::SweepSpec spec;
  spec.ns = {64, 96, 128};
  spec.families = {"ER"};
  spec.seeds = argc > 1 ? std::uint32_t(std::atoi(argv[1])) : 2;
  spec.max_weight = 16;
  spec.base_seed = 1;

  runtime::ThreadPool pool;
  const auto result = runtime::run_sweep(spec, measure_instance, pool);
  for (const auto& cell : result.cells) {
    if (cell.failures > 0) {
      std::printf("!! %zu failed instance(s) at n=%u: %s\n", cell.failures,
                  cell.n, cell.errors.empty() ? "?" : cell.errors[0].c_str());
    }
    print_cell(cell);
  }
  std::printf("sweep: %zu instances on %u workers in %.1fs\n", result.tasks,
              result.workers, result.wall_seconds);
  return result.failures == 0 ? 0 : 1;
}
