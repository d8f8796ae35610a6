// Parallel sweep executor for batch CONGEST experiments.
//
// Every paper-facing number is a statistic over many runs — sweeps over
// n, graph family, seed, and ε. A `SweepSpec` names the grid, a
// `SweepFn` runs one cell instance (building its own graph and
// `Simulator`, which are one-instance-per-execution), and `run_sweep`
// executes the cross product on a fork/join pool, then folds the
// per-run metric maps into mean/min/max/p50/p95 aggregates per cell.
//
// Determinism: task i always gets seed `derive_seed(base_seed, i)`, and
// per-run outputs are stored by task index before aggregation, so the
// aggregated result — and its JSON — is byte-identical at any worker
// count (tests/test_runtime.cpp asserts 2 vs 8 workers).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "congest/simulator.h"
#include "graph/graph.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace qc::runtime {

/// The experiment grid: cells are the cross product
/// ns × families × eps_invs, each run `seeds` times.
struct SweepSpec {
  std::vector<NodeId> ns = {64};
  std::vector<std::string> families = {"ER"};  ///< gen::from_family names
  std::uint32_t seeds = 1;                     ///< runs per cell
  std::vector<std::uint32_t> eps_invs = {0};   ///< 0 = algorithm default
  std::uint32_t bandwidth_bits = 0;            ///< 0 = CONGEST default
  Weight max_weight = 10;
  std::uint64_t base_seed = 1;

  std::size_t cell_count() const;
  std::size_t task_count() const;
};

/// One point of the grid, handed to the run callback.
struct SweepPoint {
  NodeId n = 0;
  std::string family;
  std::uint32_t eps_inv = 0;
  std::uint32_t bandwidth_bits = 0;
  Weight max_weight = 1;
  std::uint32_t seed_index = 0;   ///< 0..spec.seeds-1 within the cell
  std::uint64_t seed = 0;         ///< derive_seed(base_seed, task_index)
  std::size_t task_index = 0;     ///< global index over the whole sweep
};

/// What one run reports: named scalar metrics ("rounds", "ratio", ...).
struct TaskOutput {
  std::map<std::string, double> metrics;
};

/// Convenience: folds a simulator ledger into the standard metric names
/// rounds / messages / bits.
void record_stats(TaskOutput& out, const congest::RunStats& stats);

/// One run of one grid point. The executor builds the graph (from
/// `point.family` via gen::from_family, weights in [1, max_weight],
/// generator RNG seeded with point.seed) before calling. Throwing marks
/// the run failed; its metrics are excluded from the cell aggregates.
using SweepFn =
    std::function<TaskOutput(const SweepPoint&, const WeightedGraph&)>;

/// Order statistics of one metric across a cell's successful runs.
struct Aggregate {
  std::size_t count = 0;
  double mean = 0, min = 0, max = 0, p50 = 0, p95 = 0;

  /// Folds a sample set (need not be sorted). Percentiles use the
  /// nearest-rank method on the sorted samples.
  static Aggregate of(std::vector<double> samples);
};

/// Aggregated results for one grid cell.
struct SweepCell {
  NodeId n = 0;
  std::string family;
  std::uint32_t eps_inv = 0;
  std::size_t runs = 0;      ///< successful runs folded in
  std::size_t failures = 0;  ///< runs that threw
  std::map<std::string, Aggregate> metrics;
  std::vector<std::string> errors;  ///< first few failure messages
};

/// The whole sweep, cells in spec order (ns × families × eps_invs).
struct SweepResult {
  SweepSpec spec;
  std::vector<SweepCell> cells;
  std::size_t tasks = 0;
  std::size_t failures = 0;
  unsigned workers = 0;       ///< pool size used (not serialized)
  double wall_seconds = 0;    ///< wall clock (not serialized by default)
};

/// Executes the sweep on `pool` and aggregates. Blocks until done.
SweepResult run_sweep(const SweepSpec& spec, const SweepFn& fn,
                      ThreadPool& pool);

/// Reference single-thread executor (same results, bit for bit) — the
/// baseline the speedup benchmark compares against.
SweepResult run_sweep_serial(const SweepSpec& spec, const SweepFn& fn);

/// Deterministic JSON for a sweep result. Timing/worker fields are
/// excluded unless `include_timing` — the determinism tests compare the
/// timing-free form across worker counts.
std::string to_json(const SweepResult& result, bool include_timing = false);

/// Writes `content` to `path` (truncating). Throws ArgumentError on I/O
/// failure.
void write_file(const std::string& path, const std::string& content);

/// Wires a Simulator's opt-in per-round hook (Config::Hooks::on_round_metrics)
/// into a registry: counters `<prefix>rounds/messages/bits`, histograms
/// `<prefix>round_messages/round_bits/round_active_nodes` of per-round
/// traffic, and `<prefix>round_max_edge_utilization` — the per-round max
/// of bits-on-an-edge / B, on fixed linear [0, 1] buckets (how close the
/// hottest edge came to the bandwidth cap).
void attach_simulator_metrics(congest::Config& config,
                              MetricsRegistry& registry,
                              const std::string& prefix = "sim.");

/// Records one run's per-fault-class tallies (Simulator::fault_counters
/// or RunOutcome::faults) into a registry as counters
/// `<prefix>dropped/duplicated/delayed/corrupted/link_down_drops/
/// crashed_nodes/crash_drops`. Counters accumulate across calls, so a
/// phase orchestration can record each engine run as it finishes.
void record_fault_metrics(const congest::FaultCounters& counters,
                          MetricsRegistry& registry,
                          const std::string& prefix = "sim.faults.");

}  // namespace qc::runtime
