// Distributed quantum optimization framework (Lemma 3.1).
//
// Executable form of Le Gall–Magniez's framework as used by the paper:
// given the three black-box procedures (Initialization / Setup /
// Evaluation) with *measured* CONGEST round costs T₀ / T_setup / T_eval,
// and the classical bookkeeping data (values f(x) and Setup weights
// |α_x|²), the optimizer runs the Dürr–Høyer search with the Lemma 3.1
// call budget and converts oracle calls to rounds:
//
//   rounds = T₀ + calls · (T_setup + T_eval).
//
// Nesting (the paper uses the framework twice, Lemma 3.5 inside
// Theorem 1.1) works by plugging one optimizer's `rounds` in as the
// outer Evaluation cost.
#pragma once

#include <cstdint>
#include <vector>

#include "quantum/search.h"
#include "util/rng.h"

namespace qc::quantum {

/// One instance of the Lemma 3.1 setting.
struct OptimizationProblem {
  /// f(x) for every x ∈ X (classical bookkeeping backend; see
  /// DESIGN.md S1).
  std::vector<std::int64_t> values;
  /// |α_x|² produced by Setup (need not be normalized).
  std::vector<double> weights;
  std::uint64_t t0_rounds = 0;     ///< Initialization cost (measured)
  std::uint64_t t_setup_rounds = 0;  ///< per-invocation Setup cost
  std::uint64_t t_eval_rounds = 0;   ///< per-invocation Evaluation cost
  /// Promised mass ρ of {x : f(x) >= M} under the weights; sets the
  /// call budget.
  double rho = 1.0;
  /// Failure probability target δ.
  double delta = 0.01;
};

/// Result of one framework execution.
struct OptimizationResult {
  std::size_t index = 0;       ///< the element the leader measured
  std::int64_t value = 0;      ///< f at that element
  std::uint64_t oracle_calls = 0;
  std::uint64_t budget_calls = 0;  ///< Lemma 3.1 budget that was allowed
  std::uint64_t rounds = 0;    ///< T₀ + oracle_calls · (T_setup + T_eval)
  /// Reads of `values` by the amplitude-exact search (every index, every
  /// Grover step) — the classical bookkeeping cost, not a round count.
  std::uint64_t value_reads = 0;
};

/// Runs the framework to find x with high f(x) (Lemma 3.1 guarantees
/// f(x) >= M with probability >= 1-δ when the promise holds).
OptimizationResult framework_maximize(const OptimizationProblem& problem,
                                      Rng& rng);

/// Same machinery searching for a *low* value (used for the radius).
OptimizationResult framework_minimize(const OptimizationProblem& problem,
                                      Rng& rng);

}  // namespace qc::quantum
