// Amplitude-exact quantum search over classically-tracked data.
//
// In the distributed quantum optimization framework (Lemma 3.1), the
// global state is always Σ_x α_x |x⟩_I |data(x)⟩ |init⟩ with data(x) a
// classical function of x, so the evolution under amplitude
// amplification is fully determined by the |X|-dimensional amplitude
// vector on the internal register. This module simulates that evolution
// in closed form (exact 2-D rotation in the span of the good/bad
// components), draws measurement outcomes from the exact distribution,
// and counts oracle calls — the quantity Lemma 3.1 converts to CONGEST
// rounds. statevector.h cross-validates it on small instances.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace qc::quantum {

/// Outcome of one search attempt.
struct SearchOutcome {
  bool found = false;       ///< measured element satisfied the predicate
  std::size_t index = 0;    ///< the measured element
  std::uint64_t oracle_calls = 0;  ///< Grover iterations + verifications
};

/// Exact amplitude amplification: prepares Σ √w_x |x⟩ (weights are
/// normalized internally; all must be >= 0 with positive sum), applies
/// `iterations` Grover steps against `marked`, measures. The outcome
/// distribution is exactly sin²((2t+1)θ) on the marked mass, with
/// conditional distribution ∝ w within each class.
SearchOutcome amplified_measure(const std::vector<double>& weights,
                                const std::function<bool(std::size_t)>& marked,
                                std::uint64_t iterations, Rng& rng);

/// Boyer–Brassard–Høyer–Tapp search with unknown marked mass:
/// exponentially growing random iteration counts until a verified
/// marked element is measured or `max_oracle_calls` is spent.
SearchOutcome bbht_search(const std::vector<double>& weights,
                          const std::function<bool(std::size_t)>& marked,
                          std::uint64_t max_oracle_calls, Rng& rng);

/// Dürr–Høyer maximum finding over arbitrary amplitudes — the
/// executable form of Lemma 3.1's search. With total call budget
/// `max_oracle_calls`, returns the best element found; when the initial
/// mass on {x : f(x) >= M} is >= ρ and the budget is
/// >= lemma31_budget(ρ, δ), the returned value is >= M with
/// probability >= 1 − δ.
struct MaxFindResult {
  std::size_t index = 0;
  std::int64_t value = 0;
  std::uint64_t oracle_calls = 0;
};
MaxFindResult quantum_max_find(const std::vector<std::int64_t>& values,
                               const std::vector<double>& weights,
                               std::uint64_t max_oracle_calls, Rng& rng);

/// Callback form of quantum_max_find: f is pulled through `value_of`
/// instead of a precomputed vector. The RNG trajectory — and therefore
/// every field of the result — is identical to the vector overload on
/// the same f. Note the simulation is amplitude-exact: each Grover
/// step's good mass is a sum over the whole domain, so `value_of` is
/// invoked for every index on every step — which is why the Lemma 3.1
/// framework (quantum/framework.h) takes f as a precomputed vector and
/// uses this form only to count the reads.
MaxFindResult quantum_max_find(
    std::size_t domain_size,
    const std::function<std::int64_t(std::size_t)>& value_of,
    const std::vector<double>& weights, std::uint64_t max_oracle_calls,
    Rng& rng);

/// The Lemma 3.1 oracle-call budget O(√(log(1/δ)/ρ)), with the constant
/// we use throughout: ⌈c·√(ln(1/δ)/ρ)⌉, c = 9 (validated empirically by
/// the framework tests' success-rate assertions).
std::uint64_t lemma31_budget(double rho, double delta);

}  // namespace qc::quantum
