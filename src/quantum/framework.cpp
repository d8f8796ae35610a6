#include "quantum/framework.h"

#include "util/error.h"

namespace qc::quantum {

namespace {

/// Shared Lemma 3.1 body. Negation happens at the accessor (and is
/// undone on the returned value), never in stored data.
OptimizationResult run(const OptimizationProblem& problem, bool negate,
                       Rng& rng) {
  const std::size_t domain_size = problem.values.size();
  QC_REQUIRE(domain_size == problem.weights.size(),
             "values/weights size mismatch");
  QC_REQUIRE(domain_size > 0, "empty search domain");

  OptimizationResult out;
  const auto value_of = [&](std::size_t x) {
    ++out.value_reads;
    const std::int64_t v = problem.values[x];
    return negate ? -v : v;
  };

  const std::uint64_t budget = lemma31_budget(problem.rho, problem.delta);
  const MaxFindResult found = quantum_max_find(domain_size, value_of,
                                               problem.weights, budget, rng);

  out.index = found.index;
  out.value = negate ? -found.value : found.value;
  out.oracle_calls = found.oracle_calls;
  out.budget_calls = budget;
  out.rounds = problem.t0_rounds +
               found.oracle_calls *
                   (problem.t_setup_rounds + problem.t_eval_rounds);
  return out;
}

}  // namespace

OptimizationResult framework_maximize(const OptimizationProblem& problem,
                                      Rng& rng) {
  return run(problem, false, rng);
}

OptimizationResult framework_minimize(const OptimizationProblem& problem,
                                      Rng& rng) {
  return run(problem, true, rng);
}

}  // namespace qc::quantum
