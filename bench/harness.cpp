#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <limits>
#include <system_error>
#include <thread>

#include "runtime/sweep.h"
#include "util/table.h"

namespace qc::bench {

// --- flags -------------------------------------------------------------

Flags::Flags(int argc, char** argv,
             std::initializer_list<std::string_view> accepted)
    : program_(argc > 0 ? argv[0] : "bench") {
  program_ = program_.substr(program_.find_last_of('/') + 1);
  enum class Kind { kSwitch, kNumber, kText };
  std::map<std::string, Kind, std::less<>> kinds;
  for (const std::string_view spec : accepted) {
    usage_ += " [" + std::string(spec) + "]";
    const auto space = spec.find(' ');
    kinds[std::string(spec.substr(0, space))] =
        space == std::string_view::npos ? Kind::kSwitch
        : spec.substr(space + 1) == "N" ? Kind::kNumber
                                         : Kind::kText;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto it = kinds.find(flag);
    if (it == kinds.end()) fail("unknown flag " + flag);
    if (it->second == Kind::kSwitch) {
      switches_.insert(flag);
      continue;
    }
    if (i + 1 >= argc) fail(flag + " needs a value");
    values_[flag] = argv[++i];
    // Numbers are checked here, so a malformed one fails before any
    // work even when the bench reads it late; num<T>() checks T's range.
    if (it->second == Kind::kNumber) (void)num<std::uint64_t>(flag, 0);
  }
}

std::string Flags::str(std::string_view flag, std::string def) const {
  const auto it = values_.find(flag);
  return it == values_.end() ? def : it->second;
}

std::string Flags::dir(std::string_view flag, std::string def) const {
  std::string path = str(flag, std::move(def));
  std::error_code ec;
  if (!std::filesystem::is_directory(path, ec)) {
    fail(std::string(flag) + ": '" + path + "' is not a directory");
  }
  return path;
}

std::string Flags::out_file(std::string_view flag, std::string def) const {
  std::string path = str(flag, std::move(def));
  const auto parent = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty() && !std::filesystem::is_directory(parent, ec)) {
    fail(std::string(flag) + ": cannot write '" + path + "': '" +
         parent.string() + "' is not a directory");
  }
  return path;
}

void Flags::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\nusage: %s%s\n", program_.c_str(),
               message.c_str(), program_.c_str(), usage_.c_str());
  std::exit(1);
}

// --- timers ------------------------------------------------------------

double wall_seconds(const std::function<void()>& fn) {
  const Stopwatch sw;
  fn();
  return sw.seconds();
}

namespace {

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double cpu_seconds(const std::function<void()>& fn) {
  const double t0 = cpu_now();
  fn();
  return cpu_now() - t0;
}

}  // namespace

std::vector<double> best_of(int batches,
                            std::span<const std::function<void()>> variants,
                            std::span<const bool> use_cpu) {
  std::vector<double> best(variants.size(),
                           std::numeric_limits<double>::infinity());
  for (int b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const double t = use_cpu[i] ? cpu_seconds(variants[i])
                                  : wall_seconds(variants[i]);
      best[i] = std::min(best[i], t);
    }
  }
  return best;
}

// --- report ------------------------------------------------------------

std::string Fields::json() const {
  std::string out;
  for (const auto& [key, value] : members_) {
    out += (out.empty() ? "" : ", ") + runtime::json_string(key) + ": " + value;
  }
  return out;
}

std::string Fields::text() const {
  std::string out;
  for (const auto& [key, value] : members_) {
    out += (out.empty() ? "" : " ") + key + "=" + value;
  }
  return out;
}

double speedup(double baseline_seconds, double seconds) {
  return seconds > 0 ? baseline_seconds / seconds : 0.0;
}

unsigned hardware_workers() { return std::thread::hardware_concurrency(); }

Report::Report() { spec.add("hardware_workers", hardware_workers()); }

void Report::add(Row row) { rows_.push_back(std::move(row)); }

void Report::section(std::string name, Fields fields) {
  sections_.emplace_back(std::move(name), std::move(fields));
}

std::string Report::table() const {
  const bool extras = std::any_of(rows_.begin(), rows_.end(),
                                  [](const Row& r) { return !r.extra.empty(); });
  std::vector<std::string> header = {"workload", "variant", "n",        "w",
                                     "wall s",   "speedup", "identical"};
  if (extras) header.push_back("extra");
  const auto g4 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return std::string(buf);
  };
  TextTable table(header);
  for (const Row& r : rows_) {
    std::vector<std::string> cells = {
        r.workload,     r.variant,      std::to_string(r.n),
        std::to_string(r.workers),      g4(r.seconds),
        g4(r.speedup),  r.identical ? "yes" : "NO"};
    if (extras) cells.push_back(r.extra.text());
    table.add_row(std::move(cells));
  }
  return table.render();
}

void Report::write(const std::string& path) const {
  std::string out = "{\n  \"spec\": {" + spec.json() + "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    Fields row;
    row.add("workload", r.workload)
        .add("variant", r.variant)
        .add("n", r.n)
        .add("workers", r.workers)
        .add("seconds", r.seconds)
        .add("speedup_vs_baseline", r.speedup)
        .add("identical", r.identical);
    out += "    {" + row.json();
    if (!r.extra.empty()) out += ", " + r.extra.json();
    out += i + 1 < rows_.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";
  for (const auto& [name, fields] : sections_) {
    out += "  " + runtime::json_string(name) + ": {" + fields.json() + "},\n";
  }
  out += "  \"acceptance\": {" + acceptance.json() + "}\n}\n";
  runtime::write_file(path, out);
  std::printf("wrote %s\n", path.c_str());
}

// --- the BFS-flood workload --------------------------------------------

void BfsFloodProgram::on_start(congest::NodeContext& ctx) {
  if (ctx.id() == source_) {
    level_ = 0;
    announce(ctx);
  }
}

void BfsFloodProgram::on_round(congest::NodeContext& ctx,
                               std::span<const congest::Incoming> inbox) {
  heard_ = fold_senders(heard_, inbox);
  if (done() || inbox.empty()) return;  // later arrivals can't improve it
  for (const congest::Incoming& in : inbox) {
    level_ = std::min(level_, in.msg.field(0) + 1);
  }
  announce(ctx);
}

void BfsFloodProgram::announce(congest::NodeContext& ctx) {
  congest::Message m;
  m.push(level_, level_bits_);
  ctx.broadcast(m);
}

}  // namespace qc::bench
