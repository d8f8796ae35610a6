// Sample statistics and failure accounting shared by the workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace qcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Samples needed beyond a reported percentile (choosing-metrics rule):
/// p99 needs 1000 samples, p50 needs 20.
inline constexpr std::size_t kSamplesBeyond = 10;

/// 1-based nearest rank of percentile q (0 < q <= 1) in n samples:
/// ceil(q * n), at least 1.
std::size_t nearest_rank(std::size_t n, double q);

/// True when percentile q of n samples has at least kSamplesBeyond
/// samples above its nearest rank.
bool percentile_supported(std::size_t n, double q);

/// Nearest-rank percentile of `samples` (unsorted; copied). Empty input
/// returns nullopt; so does an unsupported percentile unless
/// `require_support` is false.
std::optional<double> percentile(std::vector<double> samples, double q,
                                 bool require_support = true);

/// Median (nearest rank, no support rule — the median of a handful of
/// repeats is what setup_s reports). Requires a non-empty input.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

/// Operations attempted and failed. A failed operation is a wrong
/// answer, an exception or a refused request; each counts exactly once.
class FailureLedger {
 public:
  /// Records one operation; returns `ok`.
  bool record(bool ok, const std::string& what = {});

  /// Runs `op` as one operation: it fails when it returns false or
  /// throws anything (an AdmissionError included).
  bool run(const std::string& what, const std::function<bool()>& op);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The first few failure descriptions, for the run record.
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace qcbench
