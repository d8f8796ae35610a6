// Run arguments, the result line and the run record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace qcbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< records and trace files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the end-to-end
/// metrics untraced and the per-layer metrics traced; `details` holds
/// layer numbers outside BENCHMARK.json (serve_mixed's breakdown);
/// `record` holds everything else worth keeping with the result (JSON
/// values by key).
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::map<std::string, std::string> record;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& text);
  void note_json(const std::string& key, std::string json) {
    record[key] = std::move(json);
  }
};

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Workers every pool of the benchmark uses: the machine's cores.
unsigned bench_workers();

/// Machine and build facts recorded with every result.
std::map<std::string, std::string> machine_record();

/// JSON object from pre-serialized values.
std::string json_object(const std::map<std::string, std::string>& fields);

/// The final stdout line: {"correct","attempted","failed","metrics"}.
std::string result_line(const FailureLedger& ledger,
                        const std::vector<Metric>& metrics);

/// Per-layer self time metrics ("trace.self_s.<layer>") for the layers
/// the benchmark times, zero for layers this workload never entered.
void add_layer_self_times(const Tracer& tracer, RunResult& out);

}  // namespace qcbench
