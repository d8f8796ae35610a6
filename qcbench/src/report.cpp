#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "runtime/metrics.h"

namespace qcbench {

using qc::runtime::json_number;
using qc::runtime::json_string;

void RunResult::note(const std::string& key, double value) {
  record[key] = json_number(value);
}

void RunResult::note(const std::string& key, const std::string& text) {
  record[key] = json_string(text);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

unsigned bench_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::map<std::string, std::string> machine_record() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const char* commit = std::getenv("QCBENCH_COMMIT");
  return {
      {"nproc", std::to_string(bench_workers())},
      {"cpu_model", json_string(cpu)},
      {"build_type", json_string(QCBENCH_BUILD_TYPE)},
      {"compiler", json_string(QCBENCH_COMPILER)},
      {"commit", json_string(commit != nullptr ? commit : "unknown")},
  };
}

std::string json_object(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + v;
  }
  return out + "}";
}

std::string result_line(const FailureLedger& ledger,
                        const std::vector<Metric>& metrics) {
  std::map<std::string, std::string> m;
  for (const Metric& x : metrics) {
    m[x.name] = "{\"value\":" + json_number(x.value) +
                ",\"unit\":" + json_string(x.unit) + "}";
  }
  std::map<std::string, std::string> top{
      {"correct", ledger.failed() == 0 ? "true" : "false"},
      {"attempted", std::to_string(ledger.attempted())},
      {"failed", std::to_string(ledger.failed())},
      {"metrics", json_object(m)},
  };
  return json_object(top);
}

void add_layer_self_times(const Tracer& tracer, RunResult& out) {
  static const char* kLayers[] = {"core",  "paths",   "congest",
                                  "graph", "service", "runtime"};
  const auto self = tracer.self_seconds_by_layer();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    out.metric(std::string("trace.self_s.") + layer,
               it == self.end() ? 0.0 : it->second, "s");
  }
}

}  // namespace qcbench
