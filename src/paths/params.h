// Parameter selection of Eq. (1) in the paper, and the fixed-point
// scaling used to keep every approximate distance an exact integer.
//
//   ε = 1/log n,  r = n^{2/5} · D^{-1/5},  ℓ = n·log n / r,  k = √D.
//
// We take ε = 1/eps_inv with eps_inv = ⌈log₂ n⌉ (an integer), so the
// Lemma 3.2 rounded weights  w_i(e) = ⌈2ℓ·w(e)/(ε·2^i)⌉ = ⌈σ·w(e)/2^i⌉
// with σ = 2·ℓ·eps_inv are exact integers, and the approximate
// bounded-hop distance
//   d̃^ℓ(u,v) = min_i { d_{G,w_i}(u,v) · ε·2^i/(2ℓ) }
// becomes, in σ-scaled units, min_i { d_{G,w_i}(u,v) · 2^i } — again an
// exact integer. All toolkit quantities are carried in such scaled
// units; `Params` centralizes the scales so distributed and centralized
// implementations agree bit-for-bit.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "util/mathx.h"

namespace qc::paths {

/// Eq. (1) parameters for an n-node network with unweighted diameter D.
struct Params {
  std::uint32_t n = 0;
  std::uint64_t unweighted_diameter = 0;  ///< D_G
  std::uint32_t eps_inv = 1;  ///< 1/ε = ⌈log₂ n⌉ (≥ 1)
  std::uint64_t r = 1;        ///< skeleton sampling size target
  std::uint64_t ell = 1;      ///< hop bound ℓ, clamped to [1, n]
  std::uint64_t k = 1;        ///< shortcut degree k = ⌈√D⌉

  /// Derives all parameters from (n, D) per Eq. (1). Clamps:
  /// r into [1, n]; ℓ into [1, n] (hop distances never exceed n-1, so a
  /// larger ℓ is equivalent); k into [1, n]. `eps_inv_override` != 0
  /// replaces the default 1/ε = ⌈log₂ n⌉ (ℓ scales with it, per ℓ =
  /// n·ε⁻¹/r).
  static Params make(std::uint32_t n, std::uint64_t unweighted_diameter,
                     std::uint32_t eps_inv_override = 0);

  /// σ = 2·ℓ·eps_inv — the fixed-point scale of first-level approximate
  /// distances (Lemma 3.2 applied to G).
  std::uint64_t sigma() const { return 2 * ell * eps_inv; }

  /// Eligibility cap L = (1 + 2/ε)·ℓ on rounded distances (Lemma 3.2).
  std::uint64_t rounded_cap() const { return (1 + 2 * eps_inv) * ell; }

  /// Overlay hop bound ℓ″ = ⌈4·|S|/k⌉ (Lemma 3.3), at least 1.
  std::uint64_t overlay_ell(std::uint64_t set_size) const {
    return std::max<std::uint64_t>(1, ceil_div(4 * set_size, k));
  }

  /// Combined fixed-point scale σ·σ″ of a skeleton built for a set of
  /// `set_size` members — what `Skeleton::total_scale()` returns — without
  /// building anything. σ″ = 2·ℓ″·eps_inv depends only on |S| (the
  /// overlay's max weight influences its *scale count*, never σ″), so the
  /// Theorem 1.1 driver can renormalize all n oracle values after an O(1)
  /// pass over set sizes instead of n skeleton constructions.
  std::uint64_t total_scale(std::uint64_t set_size) const {
    return sigma() * 2 * overlay_ell(set_size) * eps_inv;
  }

  /// ε as a double — for reporting approximation ratios only; never used
  /// in distance arithmetic.
  double epsilon() const { return 1.0 / static_cast<double>(eps_inv); }

  friend bool operator==(const Params&, const Params&) = default;
};

/// Generic Lemma 3.2 scaling context for an arbitrary positive-integer-
/// weighted graph (used once on G and once on the overlay G″).
struct HopScale {
  std::uint64_t ell = 1;       ///< hop bound
  std::uint32_t eps_inv = 1;   ///< 1/ε
  std::uint64_t max_weight = 1;

  std::uint64_t sigma() const { return 2 * ell * eps_inv; }
  std::uint64_t rounded_cap() const { return (1 + 2 * eps_inv) * ell; }
  std::uint32_t scale_count() const {
    // Smallest count such that 2^(scales-1) >= sigma * max_weight, i.e.
    // the last scale rounds every weight to 1.
    return clog2(sigma() * max_weight) + 1;
  }
  /// w_i(e) = ⌈σ·w/2^i⌉.
  std::uint64_t rounded_weight(std::uint64_t w, std::uint32_t i) const {
    return ceil_div(sigma() * w, std::uint64_t{1} << i);
  }
};

/// The Lemma 3.2 label d·2^i, in σ units, of a rounded distance d found
/// at scale i: what every scale fold (Algorithms 1, 3 and 5 and the
/// reference loops) keeps the minimum of. Throws InvariantError if the
/// label would reach kInfDist.
inline Dist scaled_label(Dist d, std::uint32_t i) {
  const Dist shifted = d << i;
  QC_CHECK((shifted >> i) == d && shifted < kInfDist,
           "scaled distance overflow");
  return shifted;
}

}  // namespace qc::paths
