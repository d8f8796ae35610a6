// qcbench: the repository benchmark (see README.md).
//
//   qcbench --workload <t11_er|serve_mixed|big_ingest> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a summary and the run record, then, as the last stdout line,
// {"correct","attempted","failed","metrics"}. Exits 0 when every
// operation was correct, 1 when any failed, 2 on bad arguments.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "catalog.h"
#include "report.h"
#include "runtime/metrics.h"
#include "workloads.h"

namespace {

using namespace qcbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "qcbench: %s\nusage: qcbench --workload <t11_er|serve_mixed|"
               "big_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

/// Completes a traced result with zeros for layers the workload never
/// entered and rejects names outside the catalog (a benchmark bug).
bool conform(RunResult& r, bool traced) {
  std::set<std::string_view> wanted;
  std::set<std::string> have;
  const auto check = [&](const auto& catalog) {
    for (const MetricSpec& m : catalog) wanted.insert(m.name);
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "qcbench: metric %s is not finite\n", m.name.c_str());
        return false;
      }
      if (!wanted.count(m.name) || !have.insert(m.name).second) {
        std::fprintf(stderr, "qcbench: unexpected or repeated metric %s\n",
                     m.name.c_str());
        return false;
      }
    }
    for (const MetricSpec& m : catalog) {
      if (have.count(std::string(m.name))) continue;
      if (!traced) {
        std::fprintf(stderr, "qcbench: missing metric %s\n",
                     std::string(m.name).c_str());
        return false;
      }
      r.metric(std::string(m.name), 0.0, std::string(m.unit));
    }
    return true;
  };
  return traced ? check(kPerLayer) : check(kEndToEnd);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = !val.empty() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      have_seconds = !val.empty() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      args.trace = val == "1";
    } else if (key == "--out-dir") {
      args.out_dir = val;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are required");
  }

  Tracer tracer(args.trace);
  FailureLedger ledger;
  RunResult r;
  try {
    if (args.workload == "t11_er") {
      r = run_t11_er(args, tracer, ledger);
    } else if (args.workload == "serve_mixed") {
      r = run_serve_mixed(args, tracer, ledger);
    } else if (args.workload == "big_ingest") {
      r = run_big_ingest(args, tracer, ledger);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qcbench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!conform(r, args.trace)) return 1;

  using qc::runtime::json_number;
  using qc::runtime::json_string;
  auto record = machine_record();
  record["workload"] = json_string(args.workload);
  record["seed"] = std::to_string(args.seed);
  record["seconds"] = json_number(args.seconds);
  record["trace"] = args.trace ? "true" : "false";
  record["attempted"] = std::to_string(ledger.attempted());
  record["failed"] = std::to_string(ledger.failed());
  std::string notes = "[";
  for (const std::string& n : ledger.notes()) {
    notes += (notes.size() > 1 ? "," : "") + json_string(n);
  }
  record["failures"] = notes + "]";
  record["workload_record"] = json_object(r.record);
  std::map<std::string, std::string> details;
  for (const Metric& m : r.details) {
    details[m.name] = "{\"value\":" +
                      (std::isfinite(m.value) ? json_number(m.value) : "null") +
                      ",\"unit\":" + json_string(m.unit) + "}";
  }
  record["details"] = json_object(details);
  const std::string record_json = json_object(record);

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  ::mkdir(args.out_dir.c_str(), 0755);
  if (std::FILE* f = std::fopen((stem + ".record.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", record_json.c_str());
    std::fclose(f);
  }
  if (args.trace && !tracer.write_chrome_trace(stem + ".trace.json", record_json)) {
    std::fprintf(stderr, "qcbench: could not write %s.trace.json\n", stem.c_str());
  }

  for (const Metric& m : r.metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("record %s\n", record_json.c_str());
  std::printf("%s\n", result_line(ledger, r.metrics).c_str());
  std::fflush(stdout);
  return ledger.failed() == 0 ? 0 : 1;
}
