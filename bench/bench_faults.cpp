// Overhead benchmark of the fault-injection subsystem.
//
// The fault engine is supposed to be pay-for-what-you-use: an empty
// `Config::Faults` plan leaves the simulator on its arena fast path
// (the engine is not even constructed), while an active plan reroutes
// the mailbox merge through the serial per-message decision procedure. This
// bench measures both against the no-plan baseline on a min-id flood
// workload, asserts the empty-plan run is byte-identical to baseline
// (ledger, trace, outputs) and that a seeded plan yields the same
// `RunOutcome` at every worker count, then writes BENCH_faults.json.
//
// Usage: bench_faults [--smoke] [--n N] [--out FILE]
//   --smoke   tiny instance for ctest (correctness + JSON, no timing
//             claims)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "congest/faults.h"
#include "congest/simulator.h"
#include "graph/generators.h"
#include "harness.h"
#include "util/rng.h"

namespace {

using namespace qc;
using namespace qc::congest;

class MinFloodProgram final : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    best_ = ctx.id();
    Message m;
    m.push(best_, 32);
    ctx.broadcast(m);
  }
  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    NodeId improved = best_;
    for (const Incoming& in : inbox) {
      improved = std::min(improved, static_cast<NodeId>(in.msg.field(0)));
    }
    if (improved < best_) {
      best_ = improved;
      Message m;
      m.push(best_, 32);
      ctx.broadcast(m);
      quiet_ = 0;
    } else {
      ++quiet_;
    }
  }
  bool done() const override { return quiet_ >= 1; }
  NodeId best() const { return best_; }

 private:
  NodeId best_ = 0;
  std::uint32_t quiet_ = 0;
};

struct Outcome {
  RunStats stats;
  RunOutcome outcome;
  std::vector<TraceEntry> trace;
  std::vector<NodeId> outputs;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome run_flood(const WeightedGraph& g, const FaultPlan& plan,
                  unsigned workers, bool trace) {
  Config cfg;
  cfg.hooks.record_trace = trace;
  cfg.execution.workers = workers;
  cfg.faults = plan;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(std::make_unique<MinFloodProgram>());
  }
  Simulator sim(g, cfg);
  Outcome out;
  out.stats = sim.run(programs);
  out.outcome = sim.outcome();
  out.trace = sim.trace();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.outputs.push_back(
        static_cast<const MinFloodProgram&>(*programs[v]).best());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, {"--smoke", "--n N", "--out FILE"});
  const bool smoke = flags.has("--smoke");
  const NodeId n = flags.num<NodeId>("--n", smoke ? 128 : 4096);
  const std::string out_path = flags.out_file("--out", "BENCH_faults.json");

  Rng rng(2022);
  auto g = gen::erdos_renyi_connected(n, 8.0 / double(n), rng);
  g.csr();
  g.slot_index();

  FaultPlan empty_plan;  // installed explicitly, still the fast path
  FaultPlan active_plan;
  active_plan.seed = 7;
  active_plan.probabilities.drop = 0.05;
  active_plan.probabilities.duplicate = 0.02;
  active_plan.probabilities.delay = 0.02;
  active_plan.probabilities.corrupt = 0.01;

  // Correctness gates first (traced, before any timing).
  const Outcome baseline = run_flood(g, FaultPlan{}, 1, /*trace=*/true);
  const bool empty_identical =
      run_flood(g, empty_plan, 1, /*trace=*/true) == baseline;
  const Outcome faulted = run_flood(g, active_plan, 1, /*trace=*/true);
  bool deterministic = faulted.outcome.faults.total() > 0;
  for (const unsigned w : {2u, 8u}) {
    deterministic &= run_flood(g, active_plan, w, /*trace=*/true) == faulted;
  }

  const int reps = smoke ? 2 : 10;
  const auto per_run = [&](const FaultPlan& plan) {
    return bench::wall_seconds([&] {
             for (int r = 0; r < reps; ++r) run_flood(g, plan, 1, false);
           }) /
           reps;
  };
  const double t_base = per_run(FaultPlan{});
  const double t_empty = per_run(empty_plan);
  const double t_active = per_run(active_plan);

  // "speedup_vs_baseline" is baseline seconds over the row's, and
  // "overhead_vs_baseline" its inverse.
  bench::Report report;
  const auto add = [&](const char* variant, double seconds, bool identical) {
    bench::Fields cols;
    cols.add("overhead_vs_baseline", t_base > 0 ? seconds / t_base : 0.0);
    report.add({"min_flood", variant, n, 1, seconds,
                bench::speedup(t_base, seconds), identical, cols});
  };
  add("no plan (baseline)", t_base, true);
  add("empty plan", t_empty, empty_identical);
  add("active plan (10% fault mass)", t_active, deterministic);

  std::printf("fault subsystem overhead: %s\n\n%s\n", g.summary().c_str(),
              report.table().c_str());
  const FaultCounters& fired = faulted.outcome.faults;
  std::printf("faults fired: drop=%llu dup=%llu delay=%llu corrupt=%llu\n",
              (unsigned long long)fired.dropped,
              (unsigned long long)fired.duplicated,
              (unsigned long long)fired.delayed,
              (unsigned long long)fired.corrupted);

  report.spec.add("n", n).add("m", g.edge_count());
  bench::Fields counters;
  counters.add("dropped", fired.dropped)
      .add("duplicated", fired.duplicated)
      .add("delayed", fired.delayed)
      .add("corrupted", fired.corrupted);
  report.section("fault_counters", counters);
  report.acceptance.add("empty_plan_byte_identical", empty_identical)
      .add("outcome_identical_at_all_worker_counts", deterministic);
  report.write(out_path);

  if (!empty_identical || !deterministic) {
    std::fprintf(stderr, "FAIL: empty_identical=%d deterministic=%d\n",
                 empty_identical, deterministic);
    return 1;
  }
  return 0;
}
