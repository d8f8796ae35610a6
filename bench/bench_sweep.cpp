// Wall-clock benchmark of the sweep executor: the same 32-run grid
// executed by the serial reference loop and by the fork/join pool at
// several worker counts. Also asserts the determinism contract on the
// way: every execution must produce byte-identical aggregated JSON.
//
// Round ledgers are unaffected by parallelism (each task is one
// single-threaded Simulator); the speedup here is experiment throughput,
// the quantity ROADMAP's "as fast as the hardware allows" refers to.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/baselines.h"
#include "graph/algorithms.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "util/table.h"

namespace {

using namespace qc;

runtime::SweepSpec make_spec(std::uint32_t seeds) {
  runtime::SweepSpec spec;
  spec.ns = {48, 64};
  spec.families = {"ER", "grid"};
  spec.seeds = seeds;  // 2 x 2 x seeds tasks
  spec.max_weight = 10;
  spec.base_seed = 2024;
  return spec;
}

runtime::TaskOutput run_cell(const runtime::SweepPoint&,
                             const WeightedGraph& g) {
  const auto classical = core::classical_unweighted_diameter(g);
  runtime::TaskOutput out;
  runtime::record_stats(out, classical.stats);
  out.metrics["diameter"] = double(classical.value);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seeds = std::uint32_t(argc > 1 ? std::atoi(argv[1]) : 8);
  const auto spec = make_spec(seeds);
  std::printf("sweep executor throughput: %zu tasks "
              "(classical APSP on ER/grid, n in {48,64})\n\n",
              spec.task_count());

  const auto serial = runtime::run_sweep_serial(spec, run_cell);
  const std::string golden = runtime::to_json(serial);

  TextTable t({"executor", "workers", "wall s", "speedup", "json identical"});
  t.add("serial loop", 1, serial.wall_seconds, 1.0, "-");

  bool all_identical = true;
  for (const unsigned workers : {2u, 4u, 8u}) {
    runtime::ThreadPool pool(workers);
    const auto parallel = runtime::run_sweep(spec, run_cell, pool);
    const bool identical = runtime::to_json(parallel) == golden;
    all_identical = all_identical && identical;
    t.add("fork/join pool", workers, parallel.wall_seconds,
          parallel.wall_seconds > 0
              ? serial.wall_seconds / parallel.wall_seconds
              : 0.0,
          identical ? "yes" : "NO");
  }
  std::printf("%s", t.render().c_str());
  std::printf("\n(speedup tracks physical cores; determinism must hold at "
              "any worker count)\n");
  return all_identical ? 0 : 1;
}
