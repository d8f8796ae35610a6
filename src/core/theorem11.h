// The paper's main contribution (Theorem 1.1): a quantum CONGEST
// algorithm (1+o(1))-approximating the weighted diameter and radius in
// Õ(min{n^{9/10}·D^{3/10}, n}) rounds.
//
// Structure (Section 3 of the paper):
//  * sample n vertex sets S_1..S_n, each node joining independently with
//    probability r/n (Eq. 1 parameters);
//  * inner procedure (Lemma 3.5): for one set S_i, maximize the
//    approximate eccentricity ẽ over s ∈ S_i with the distributed
//    quantum optimization framework — Initialization_i = Algorithms 3+4,
//    Setup_i = Algorithm 5, Evaluation_i = local combine + convergecast;
//  * outer search (proof of Theorem 1.1): maximize f(i) = max_s ẽ(s)
//    over the n sets (minimize, for the radius).
//
// Execution model (DESIGN.md S1): the search bookkeeping uses the
// centralized reference values (bit-identical to the distributed
// implementations — asserted by tests and revalidated per run), while
// the CONGEST costs T₀/T_setup/T_eval are *measured* on real distributed
// executions for the set the search measures. Charged rounds follow
// Lemma 3.1 exactly.
//
// Oracle evaluation (docs/perf.md, "Theorem 1.1 driver fast path"):
// the outer search's amplitude-exact bookkeeping reads f(i) for every
// index on every Grover step, so the driver evaluates each non-empty
// set exactly once, up front, with the trimmed
// `ToolkitCache::evaluate_set`, and searches the resulting value
// vector. Only the measured set is materialized as a full `Skeleton`.
// The evaluation runs on a fork/join pool of `oracle_workers` workers,
// the calling thread among them (all of them at `oracle_workers == 1`).
// The measure phase hands the same pool to Algorithm 5, whose overlay
// rounds' simulated sub-runs (count aggregate plus announcement flood)
// run concurrently on it, each on a serial engine, their ledgers summed
// in round order. The `Theorem11Result` is identical at any worker count
// (asserted by tests/test_theorem11.cpp) except for the wall-clock
// `Theorem11Result::phase_seconds`.
#pragma once

#include <cstdint>

#include "congest/simulator.h"
#include "graph/graph.h"
#include "paths/params.h"
#include "util/rng.h"

namespace qc::paths {
class ToolkitCache;  // paths/reference.h
}

namespace qc::core {

struct Theorem11Options {
  std::uint64_t seed = 1;
  /// Per-search failure target δ (both nesting levels).
  double delta = 0.05;
  /// Re-run the full distributed pipeline on the measured set and check
  /// its values against the bookkeeping backend (slower; on by default).
  bool validate_distributed = true;
  /// Override 1/ε (0 = paper default ⌈log₂ n⌉). Larger values tighten
  /// the (1+ε)² guarantee and lengthen every toolkit schedule.
  std::uint32_t eps_inv = 0;
  /// Override the skeleton size target r (0 = Eq. (1)'s
  /// n^{2/5}·D^{-1/5}). Used by the ablation bench to show the paper's
  /// choice balances Initialization (∝ n/r per Algorithm 1's ℓ) against
  /// the searches (outer √(n/r), inner √r).
  std::uint64_t r_override = 0;
  /// Workers for the oracle's row fill and set evaluations and for the
  /// measured Algorithm 5's sub-runs, the calling thread included: 1
  /// runs them on the calling thread alone, k on it and k - 1 pool
  /// threads (0 = hardware concurrency). Never changes the answer or a
  /// charged round.
  unsigned oracle_workers = 0;
  /// Run the all-sets ground-truth census: the exact oracle answer, the
  /// approximation ratio / sandwich check, and the Lemma 3.4 good-set
  /// count. Off by default — the default run pays only for the search
  /// itself; see Theorem11Result for which fields the census populates.
  bool census = false;
  /// Optional resident toolkit cache (borrowed; must outlive the call).
  /// When set, the driver reads/extends its shared first-level rows
  /// instead of constructing a cache per run, so repeated runs on the
  /// same graph — the service::QueryEngine's serving pattern — pay for
  /// each row once. The cache must have been built on this same
  /// `WeightedGraph` object with exactly `derive_params(g, opt)` (throws
  /// ArgumentError otherwise — a silently rebuilt cache would hide the
  /// perf bug the caller is paying to avoid). Never changes the answer:
  /// rows are a pure function of (graph, params).
  paths::ToolkitCache* toolkit = nullptr;
};

/// Measured CONGEST costs of the Lemma 3.5 procedures on the chosen set.
struct MeasuredSetCosts {
  std::uint64_t t0_rounds = 0;      ///< Initialization_i (Algs 3+4 + set flood)
  std::uint64_t t_setup_rounds = 0; ///< Setup_i (collect + broadcast + Alg 5)
  std::uint64_t t_eval_rounds = 0;  ///< Evaluation_i (convergecast)

  friend bool operator==(const MeasuredSetCosts&,
                         const MeasuredSetCosts&) = default;
};

/// Run-report diagnostics of the oracle backend. Excluded from
/// `semantically_equal` — these describe *how* the run executed.
struct OracleStats {
  /// `ToolkitCache::evaluate_set` calls: one per non-empty sampled set.
  std::uint64_t value_evaluations = 0;
  /// f(i) reads by the outer search, each served from the value
  /// vector. The exact amplitude simulation touches every index at
  /// least once per Grover step, so this is far above
  /// `value_evaluations`.
  std::uint64_t memo_hits = 0;
};

/// Wall-clock seconds per driver phase (reporting only; excluded from
/// `semantically_equal`).
struct PhaseSeconds {
  double sample = 0;   ///< preamble + set sampling + scale-only pass
  double oracle = 0;   ///< row fill + one value pass over the sets
  double search = 0;   ///< outer quantum search
  double measure = 0;  ///< distributed Lemma 3.5 measurement
  double census = 0;   ///< exact oracle + good-set census (if enabled)
  double total = 0;
};

struct Theorem11Result {
  bool radius = false;          ///< which problem this solved
  // --- answer ---
  Dist estimate_scaled = 0;     ///< f(i*) in σ·σ″ fixed-point units
  std::uint64_t total_scale = 1;
  double estimate = 0;          ///< estimate_scaled / total_scale
  // --- ground-truth census (populated only when opt.census) ---
  Dist exact = 0;               ///< true D_{G,w} or R_{G,w} (oracle)
  double ratio = 0;             ///< estimate / exact
  bool within_bound = false;    ///< exact <= estimate <= (1+ε)²·exact
  std::uint64_t good_sets = 0;  ///< |{i : f(i) at least/at most target}|
  // --- quality parameters ---
  double epsilon = 0;           ///< ε = 1/⌈log n⌉ used
  // --- cost ---
  std::uint64_t rounds = 0;       ///< total charged CONGEST rounds
  std::uint64_t t0_outer = 0;     ///< D-estimation preamble (measured)
  std::uint64_t t1_outer = 0;     ///< outer Setup: leader broadcast (measured)
  std::uint64_t t2_outer = 0;     ///< outer Evaluation: Lemma 3.5 budget
  std::uint64_t outer_calls = 0;  ///< outer oracle calls (adaptive)
  std::uint64_t inner_budget_calls = 0;  ///< inner Lemma 3.1 budget
  MeasuredSetCosts measured;
  // --- diagnostics ---
  paths::Params params;
  std::uint64_t d_hat = 1;        ///< leader's unweighted-ecc estimate of D
  std::size_t chosen_set = 0;     ///< the i* the search measured
  std::size_t chosen_set_size = 0;
  /// The node achieving f(i*): an approximate center (radius) or a
  /// node of near-maximum eccentricity (diameter). Ties go to the
  /// lowest member index, matching the search convention (see
  /// theorem11.cpp's set_arg_from_eccs).
  NodeId witness = 0;
  bool distributed_value_matches = true;  ///< validation outcome
  // --- run-report only (excluded from semantically_equal) ---
  OracleStats oracle;
  PhaseSeconds phase_seconds;
};

/// True when two results agree on every semantically meaningful field —
/// everything except the run-report diagnostics (`oracle`,
/// `phase_seconds`), which describe execution rather than the answer.
/// This is the equality the worker-count invariance tests and benches
/// assert.
bool semantically_equal(const Theorem11Result& a, const Theorem11Result& b);

/// The unweighted-diameter estimate d̂ the driver's preamble derives — the
/// leader's (node 0) hop eccentricity, clamped to >= 1 — computed
/// centrally, without charging CONGEST rounds. Requires a connected
/// graph with n >= 2 (as the driver itself does).
std::uint64_t leader_diameter_estimate(const WeightedGraph& g);

/// The exact `paths::Params` a `quantum_weighted_diameter/radius` run
/// with these options will use (Eq. (1) at d̂ = leader_diameter_estimate,
/// with `opt.eps_inv` / `opt.r_override` applied). A resident
/// `paths::ToolkitCache` handed to `Theorem11Options::toolkit` must be
/// constructed with exactly these parameters.
paths::Params derive_params(const WeightedGraph& g,
                            const Theorem11Options& opt = {});

/// Runs the Theorem 1.1 algorithm for the weighted diameter.
Theorem11Result quantum_weighted_diameter(const WeightedGraph& g,
                                          const Theorem11Options& opt = {});

/// Runs the Theorem 1.1 algorithm for the weighted radius.
Theorem11Result quantum_weighted_radius(const WeightedGraph& g,
                                        const Theorem11Options& opt = {});

}  // namespace qc::core
