#include "paths/params.h"

#include <algorithm>
#include <cmath>

namespace qc::paths {

Params Params::make(std::uint32_t n, std::uint64_t unweighted_diameter,
                    std::uint32_t eps_inv_override) {
  QC_REQUIRE(n >= 2, "Params::make needs n >= 2");
  QC_REQUIRE(unweighted_diameter >= 1, "Params::make needs D >= 1");
  Params p;
  p.n = n;
  p.unweighted_diameter = unweighted_diameter;
  p.eps_inv = eps_inv_override != 0 ? eps_inv_override
                                    : std::max<std::uint32_t>(1, clog2(n));

  const double nd = static_cast<double>(n);
  const double dd = static_cast<double>(unweighted_diameter);
  // r = n^{2/5} D^{-1/5}, rounded, clamped to [1, n].
  const double r_raw = std::pow(nd, 0.4) * std::pow(dd, -0.2);
  p.r = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(r_raw)), 1, n);
  // ell = n log n / r, clamped to [1, n]: hop distances are < n, so any
  // larger bound is equivalent and only wastes rounds.
  const double ell_raw =
      nd * static_cast<double>(p.eps_inv) / static_cast<double>(p.r);
  p.ell = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(ell_raw)), 1, n);
  // k = ceil(sqrt(D)).
  p.k = std::clamp<std::uint64_t>(csqrt(unweighted_diameter), 1, n);
  return p;
}

}  // namespace qc::paths
