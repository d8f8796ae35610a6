// Shared bench harness: strict flag parsing, timers, the JSON report
// every BENCH_*.json is written in (the hardware spec, one row schema,
// the acceptance block; tools/check_bench_regression.py reads it), and
// the BFS-flood workload the simulator and dataset benches time.
//
// A row is one measurement: (workload, variant, n, workers) names it,
// `seconds` is its time, `speedup_vs_baseline` compares it with its
// workload's baseline row, and `identical` says its outcome matched the
// baseline's. Further columns ride in `extra`.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/simulator.h"
#include "runtime/metrics.h"
#include "util/error.h"
#include "util/parse.h"

namespace qc::bench {

// --- flags -------------------------------------------------------------

/// A bench's command line, parsed strictly against the flags it reads.
/// `accepted` spells them as a usage line does: "--smoke" is a switch,
/// "--n N" takes an unsigned number, "--out FILE" any other value. An
/// unknown flag, a missing value or a malformed number ends the process
/// with status 1 and a message naming the flag.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<std::string_view> accepted);

  bool has(std::string_view flag) const { return switches_.count(flag) != 0; }
  std::string str(std::string_view flag, std::string def) const;
  /// A directory-valued flag: exits 1 naming the flag unless the value
  /// (or `def`) is an existing directory.
  std::string dir(std::string_view flag, std::string def) const;
  /// An output-file flag: exits 1 naming the flag unless the directory
  /// the value (or `def`) would be written into exists, so a bad path
  /// fails before the run instead of at its last write.
  std::string out_file(std::string_view flag, std::string def) const;

  template <typename T>
  T num(std::string_view flag, T def) const {
    const auto it = values_.find(flag);
    if (it == values_.end()) return def;
    try {
      return parse_unsigned<T>(flag, it->second);
    } catch (const ArgumentError& e) {
      fail(e.what());
    }
  }

 private:
  [[noreturn]] void fail(const std::string& message) const;

  std::string program_;
  std::string usage_;
  std::set<std::string, std::less<>> switches_;
  std::map<std::string, std::string, std::less<>> values_;
};

// --- timers ------------------------------------------------------------

/// Wall-clock seconds since construction.
class Stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Wall-clock seconds of one call.
double wall_seconds(const std::function<void()>& fn);

/// Best-of-k: runs the variants interleaved `batches` times and keeps
/// each one's fastest time, in process CPU seconds (user + system) where
/// `use_cpu[i]` and wall seconds otherwise. For a single-threaded
/// variant CPU time is the steal- and load-immune measure of one core's
/// work; wall clock on a shared machine also charges the neighbours.
/// Noise on a loaded host is additive, so the minimum estimates the
/// true cost, and interleaving keeps a slow phase of the host from
/// landing on one variant only.
std::vector<double> best_of(int batches,
                            std::span<const std::function<void()>> variants,
                            std::span<const bool> use_cpu);

// --- report ------------------------------------------------------------

/// A JSON object's members in insertion order, values already encoded.
class Fields {
 public:
  template <typename T>
  Fields& add(std::string_view key, const T& value) {
    members_.emplace_back(std::string(key), encode(value));
    return *this;
  }

  bool empty() const { return members_.empty(); }
  /// `"key": value` pairs joined by ", " (no braces).
  std::string json() const;
  /// `key=value` pairs joined by " " — the text table's extra column.
  std::string text() const;

 private:
  template <typename T>
  static std::string encode(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      return runtime::json_number(static_cast<double>(v));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      return runtime::json_string(v);
    } else {
      std::string out;
      for (const auto& x : v) out += (out.empty() ? "" : ", ") + encode(x);
      return "[" + out + "]";
    }
  }

  std::vector<std::pair<std::string, std::string>> members_;
};

/// One measurement in the row schema.
struct Row {
  std::string workload;
  std::string variant;
  std::uint64_t n = 0;
  unsigned workers = 1;
  double seconds = 0;
  double speedup = 1.0;   ///< the baseline row's seconds / this row's
  bool identical = true;  ///< outcome equals the baseline outcome
  Fields extra = {};      ///< further columns, after `identical`
};

/// Baseline seconds over `seconds`, or 0 for a zero-length measurement.
double speedup(double baseline_seconds, double seconds);

/// A bench's report: the spec (which starts with the host's raw
/// hardware_concurrency() as `hardware_workers`), the rows, optional
/// extra sections and the acceptance block.
class Report {
 public:
  Report();

  Fields spec;
  Fields acceptance;

  void add(Row row);
  /// A further top-level object, written between the rows and the
  /// acceptance block.
  void section(std::string name, Fields fields);

  const std::vector<Row>& rows() const { return rows_; }
  /// The rows as an aligned text table.
  std::string table() const;
  /// Writes the JSON report to `path` and says so on stdout.
  void write(const std::string& path) const;

 private:
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, Fields>> sections_;
};

/// std::thread::hardware_concurrency() as the host reports it (0 =
/// unknown), the value every spec records.
unsigned hardware_workers();

// --- the BFS-flood workload --------------------------------------------

/// What one simulator run produced: the ledger, the trace (when
/// recorded), every node's output and every node's digest of the
/// senders it heard, in delivery order.
struct SimOutcome {
  congest::RunStats stats;
  std::vector<congest::TraceEntry> trace;
  std::vector<Dist> values;
  std::vector<std::uint64_t> heard;

  friend bool operator==(const SimOutcome&, const SimOutcome&) = default;
};

/// Runs one `Program` per node (make(v) builds node v's) under `config`
/// and collects each node's value() and heard().
template <typename Program, typename Make>
SimOutcome run_programs(const WeightedGraph& g, const Make& make,
                        const congest::Config& config) {
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  programs.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) programs.push_back(make(v));
  congest::Simulator sim(g, config);
  SimOutcome out;
  out.stats = sim.run(programs);
  out.trace = sim.trace();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& p = static_cast<const Program&>(*programs[v]);
    out.values.push_back(p.value());
    out.heard.push_back(p.heard());
  }
  return out;
}

/// A node's digest of the senders it heard before any mail: FNV-1a's
/// offset basis.
inline constexpr std::uint64_t kNothingHeard = 0xcbf29ce484222325ull;

/// Folds an inbox's senders, in delivery order, into a node's digest:
/// FNV-1a over whole ids, one multiply per delivery, cheap enough to
/// leave on in timed runs.
inline std::uint64_t fold_senders(std::uint64_t digest,
                                  std::span<const congest::Incoming> inbox) {
  for (const congest::Incoming& in : inbox) {
    digest = (digest ^ in.from) * 0x100000001b3ull;
  }
  return digest;
}

/// BFS flood: the source announces level 0, and every other node
/// announces its level (the smallest level heard, plus one) in the
/// first round it hears one. Broadcast-heavy with few rounds: the
/// simulator's delivery workload.
class BfsFloodProgram final : public congest::NodeProgram {
 public:
  BfsFloodProgram(NodeId source, std::uint32_t level_bits)
      : source_(source), level_bits_(level_bits) {}

  void on_start(congest::NodeContext& ctx) override;
  void on_round(congest::NodeContext& ctx,
                std::span<const congest::Incoming> inbox) override;
  bool done() const override { return level_ != kInfDist; }

  Dist value() const { return level_; }
  std::uint64_t heard() const { return heard_; }

 private:
  void announce(congest::NodeContext& ctx);

  NodeId source_;
  std::uint32_t level_bits_;
  Dist level_ = kInfDist;
  std::uint64_t heard_ = kNothingHeard;
};

}  // namespace qc::bench
