// In-memory span recorder for the traced benchmark run.
//
// The benchmark's own code opens a span around every call it makes into
// a library layer. A span's name starts with the layer it times
// ("paths.alg3", "graph.sort", ...); its parent is the span open on the
// same thread when it started, or one given explicitly. Spans stay in
// memory and are written once, at exit, as Chrome trace-event JSON
// (opens in Perfetto or chrome://tracing).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stats.h"

namespace qcbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation the span belongs to
  std::string name;
  double start_s = 0;  ///< seconds since the tracer's epoch
  double end_s = 0;
  std::uint32_t tid = 0;
  /// Extra exact values shown in the trace viewer (e.g. simulated counts).
  std::vector<std::pair<std::string, double>> args;

  double duration() const { return end_s - start_s; }
};

/// Layer of a span name: the text before its first '.'.
std::string layer_of(const std::string& name);

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once). Indexed
/// like `spans`.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  /// A disabled tracer records nothing; its spans cost one branch.
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, std::uint64_t op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attaches an exact value to the span (shown as a trace arg).
    void arg(std::string key, double value);
    /// Closes the span now (the destructor then does nothing).
    void end();
    std::uint64_t id() const { return rec_.id; }

   private:
    Tracer* tracer_ = nullptr;  ///< null when disabled or ended
    SpanRecord rec_;
  };

  Span span(std::string name, std::uint64_t op = 0) {
    return Span(enabled_ ? this : nullptr, std::move(name), op);
  }

  /// Records a span with explicit times (for intervals measured across
  /// threads, such as an open-loop request from its scheduled send).
  /// Returns its id (0 when disabled).
  std::uint64_t record(std::string name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent,
                       std::uint64_t op);

  std::vector<SpanRecord> spans() const;

  /// Σ self time per layer, in seconds.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Writes every span as Chrome trace-event JSON; `other_data` is a
  /// JSON object embedded as "otherData". Returns false on IO failure.
  bool write_chrome_trace(const std::string& path,
                          const std::string& other_data) const;

 private:
  friend class Span;
  double since_epoch(Clock::time_point t) const;
  std::uint32_t thread_index();
  void commit(SpanRecord rec);

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
};

}  // namespace qcbench
