#include "stats.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>

namespace qcbench {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, std::max<std::size_t>(n, 1));
}

bool percentile_supported(std::size_t n, double q) {
  return n > 0 && n - nearest_rank(n, q) >= kSamplesBeyond;
}

std::optional<double> percentile(std::vector<double> samples, double q,
                                 bool require_support) {
  if (samples.empty()) return std::nullopt;
  if (require_support && !percentile_supported(samples.size(), q)) {
    return std::nullopt;
  }
  const std::size_t r = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

double median(std::vector<double> samples) {
  return *percentile(std::move(samples), 0.5, false);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

bool FailureLedger::record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (notes_.size() < 8) notes_.push_back(what.empty() ? "failed" : what);
  }
  return ok;
}

bool FailureLedger::run(const std::string& what,
                        const std::function<bool()>& op) {
  try {
    return record(op(), what + ": wrong answer");
  } catch (const std::exception& e) {
    return record(false, what + ": " + e.what());
  } catch (...) {
    return record(false, what + ": unknown exception");
  }
}

}  // namespace qcbench
