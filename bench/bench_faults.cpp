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
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "congest/faults.h"
#include "congest/simulator.h"
#include "graph/generators.h"
#include "runtime/metrics.h"
#include "runtime/sweep.h"
#include "util/rng.h"
#include "util/table.h"

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

double time_runs(const WeightedGraph& g, const FaultPlan& plan, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) run_flood(g, plan, 1, /*trace=*/false);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

struct Row {
  std::string variant;
  double seconds;
  double overhead;  ///< seconds / baseline seconds
  bool identical;
};

std::string to_json(NodeId n, std::size_t m, const std::vector<Row>& rows,
                    const FaultCounters& counters, bool deterministic) {
  std::ostringstream os;
  os << "{\n  \"spec\": {\"n\": " << n << ", \"m\": " << m << "},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"variant\": \"" << r.variant
       << "\", \"seconds\": " << r.seconds
       << ", \"overhead_vs_baseline\": " << r.overhead
       << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"fault_counters\": {\"dropped\": " << counters.dropped
     << ", \"duplicated\": " << counters.duplicated
     << ", \"delayed\": " << counters.delayed
     << ", \"corrupted\": " << counters.corrupted << "},\n"
     << "  \"acceptance\": {\"empty_plan_byte_identical\": "
     << (rows.size() > 1 && rows[1].identical ? "true" : "false")
     << ", \"outcome_identical_at_all_worker_counts\": "
     << (deterministic ? "true" : "false") << "}\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  NodeId n = 4096;
  bool smoke = false;
  std::string out_path = "BENCH_faults.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      n = 128;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<NodeId>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

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
  const double t_base = time_runs(g, FaultPlan{}, reps);
  const double t_empty = time_runs(g, empty_plan, reps);
  const double t_active = time_runs(g, active_plan, reps);

  std::vector<Row> rows = {
      {"no plan (baseline)", t_base, 1.0, true},
      {"empty plan", t_empty, t_base > 0 ? t_empty / t_base : 0.0,
       empty_identical},
      {"active plan (10% fault mass)", t_active,
       t_base > 0 ? t_active / t_base : 0.0, deterministic},
  };

  TextTable table({"variant", "wall s", "overhead", "identical"});
  for (const Row& r : rows) {
    table.add(r.variant, r.seconds, r.overhead, r.identical);
  }
  std::printf("fault subsystem overhead: %s\n\n%s\n", g.summary().c_str(),
              table.render().c_str());
  std::printf("faults fired: drop=%llu dup=%llu delay=%llu corrupt=%llu\n",
              (unsigned long long)faulted.outcome.faults.dropped,
              (unsigned long long)faulted.outcome.faults.duplicated,
              (unsigned long long)faulted.outcome.faults.delayed,
              (unsigned long long)faulted.outcome.faults.corrupted);

  runtime::write_file(
      out_path, to_json(n, g.edge_count(), rows, faulted.outcome.faults,
                        deterministic));
  std::printf("wrote %s\n", out_path.c_str());

  if (!empty_identical || !deterministic) {
    std::fprintf(stderr, "FAIL: empty_identical=%d deterministic=%d\n",
                 empty_identical, deterministic);
    return 1;
  }
  return 0;
}
