#include "runtime/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "util/error.h"
#include "util/rng.h"

namespace qc::runtime {

std::size_t SweepSpec::cell_count() const {
  return ns.size() * families.size() * eps_invs.size();
}

std::size_t SweepSpec::task_count() const { return cell_count() * seeds; }

void record_stats(TaskOutput& out, const congest::RunStats& stats) {
  out.metrics["rounds"] = static_cast<double>(stats.rounds);
  out.metrics["messages"] = static_cast<double>(stats.messages);
  out.metrics["bits"] = static_cast<double>(stats.bits);
}

Aggregate Aggregate::of(std::vector<double> samples) {
  Aggregate a;
  a.count = samples.size();
  if (samples.empty()) return a;
  // Mean in sample order (fixed by task index), percentiles on the sort.
  double sum = 0;
  for (const double v : samples) sum += v;
  a.mean = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  a.min = samples.front();
  a.max = samples.back();
  const auto rank = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    return samples[std::min(samples.size() - 1, idx == 0 ? 0 : idx - 1)];
  };
  a.p50 = rank(0.50);
  a.p95 = rank(0.95);
  return a;
}

namespace {

struct TaskSlot {
  bool ok = false;
  TaskOutput out;
  std::string error;
};

void check_spec(const SweepSpec& spec) {
  QC_REQUIRE(!spec.ns.empty(), "sweep needs at least one n");
  QC_REQUIRE(!spec.families.empty(), "sweep needs at least one family");
  QC_REQUIRE(!spec.eps_invs.empty(), "sweep needs at least one eps_inv");
  QC_REQUIRE(spec.seeds >= 1, "sweep needs at least one seed per cell");
  QC_REQUIRE(spec.max_weight >= 1, "max_weight must be >= 1");
}

SweepPoint point_for(const SweepSpec& spec, std::size_t task_index) {
  SweepPoint p;
  std::size_t rest = task_index;
  p.seed_index = static_cast<std::uint32_t>(rest % spec.seeds);
  rest /= spec.seeds;
  p.eps_inv = spec.eps_invs[rest % spec.eps_invs.size()];
  rest /= spec.eps_invs.size();
  p.family = spec.families[rest % spec.families.size()];
  rest /= spec.families.size();
  p.n = spec.ns[rest];
  p.bandwidth_bits = spec.bandwidth_bits;
  p.max_weight = spec.max_weight;
  p.task_index = task_index;
  p.seed = derive_seed(spec.base_seed, task_index);
  return p;
}

void run_task(const SweepSpec& spec, const SweepFn& fn, std::size_t i,
              TaskSlot& slot) {
  try {
    const SweepPoint point = point_for(spec, i);
    Rng rng(point.seed);
    const WeightedGraph g =
        gen::from_family(point.family, point.n, point.max_weight, rng);
    slot.out = fn(point, g);
    slot.ok = true;
  } catch (const std::exception& e) {
    slot.error = e.what();
  }
}

SweepResult aggregate(const SweepSpec& spec, std::vector<TaskSlot> slots,
                      unsigned workers, double wall_seconds) {
  SweepResult result;
  result.spec = spec;
  result.tasks = slots.size();
  result.workers = workers;
  result.wall_seconds = wall_seconds;
  std::size_t task = 0;
  for (const NodeId n : spec.ns) {
    for (const std::string& family : spec.families) {
      for (const std::uint32_t eps_inv : spec.eps_invs) {
        SweepCell cell;
        cell.n = n;
        cell.family = family;
        cell.eps_inv = eps_inv;
        std::map<std::string, std::vector<double>> samples;
        for (std::uint32_t s = 0; s < spec.seeds; ++s, ++task) {
          const TaskSlot& slot = slots[task];
          if (!slot.ok) {
            ++cell.failures;
            ++result.failures;
            if (cell.errors.size() < 3) cell.errors.push_back(slot.error);
            continue;
          }
          ++cell.runs;
          for (const auto& [name, value] : slot.out.metrics) {
            samples[name].push_back(value);
          }
        }
        for (auto& [name, values] : samples) {
          cell.metrics.emplace(name, Aggregate::of(std::move(values)));
        }
        result.cells.push_back(std::move(cell));
      }
    }
  }
  QC_CHECK(task == slots.size(), "sweep cell walk missed tasks");
  return result;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, const SweepFn& fn,
                      ThreadPool& pool) {
  check_spec(spec);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<TaskSlot> slots(spec.task_count());
  parallel_for(pool, slots.size(),
               [&](std::size_t i) { run_task(spec, fn, i, slots[i]); });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return aggregate(spec, std::move(slots), pool.worker_count(), wall);
}

SweepResult run_sweep_serial(const SweepSpec& spec, const SweepFn& fn) {
  check_spec(spec);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<TaskSlot> slots(spec.task_count());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    run_task(spec, fn, i, slots[i]);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return aggregate(spec, std::move(slots), 1, wall);
}

namespace {

void json_aggregate(std::ostringstream& os, const Aggregate& a) {
  os << "{\"count\":" << a.count << ",\"mean\":" << json_number(a.mean)
     << ",\"min\":" << json_number(a.min) << ",\"max\":" << json_number(a.max)
     << ",\"p50\":" << json_number(a.p50) << ",\"p95\":" << json_number(a.p95)
     << '}';
}

template <typename T, typename Fmt>
void json_array(std::ostringstream& os, const std::vector<T>& xs, Fmt fmt) {
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ',';
    fmt(xs[i]);
  }
  os << ']';
}

}  // namespace

std::string to_json(const SweepResult& result, bool include_timing) {
  std::ostringstream os;
  os << "{\"spec\":{\"ns\":";
  json_array(os, result.spec.ns, [&](NodeId n) { os << n; });
  os << ",\"families\":";
  json_array(os, result.spec.families,
             [&](const std::string& f) { os << json_string(f); });
  os << ",\"seeds\":" << result.spec.seeds << ",\"eps_invs\":";
  json_array(os, result.spec.eps_invs, [&](std::uint32_t e) { os << e; });
  os << ",\"bandwidth_bits\":" << result.spec.bandwidth_bits
     << ",\"max_weight\":" << result.spec.max_weight
     << ",\"base_seed\":" << result.spec.base_seed << '}';
  os << ",\"tasks\":" << result.tasks << ",\"failures\":" << result.failures;
  if (include_timing) {
    os << ",\"workers\":" << result.workers
       << ",\"wall_seconds\":" << json_number(result.wall_seconds);
  }
  os << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCell& c = result.cells[i];
    if (i) os << ',';
    os << "{\"n\":" << c.n << ",\"family\":" << json_string(c.family)
       << ",\"eps_inv\":" << c.eps_inv << ",\"runs\":" << c.runs
       << ",\"failures\":" << c.failures << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, agg] : c.metrics) {
      if (!first) os << ',';
      first = false;
      os << json_string(name) << ':';
      json_aggregate(os, agg);
    }
    os << '}';
    if (!c.errors.empty()) {
      os << ",\"errors\":";
      json_array(os, c.errors,
                 [&](const std::string& e) { os << json_string(e); });
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  QC_REQUIRE(out.good(), "cannot open for writing: " + path);
  out << content;
  out.flush();
  QC_REQUIRE(out.good(), "write failed: " + path);
}

void attach_simulator_metrics(congest::Config& config,
                              MetricsRegistry& registry,
                              const std::string& prefix) {
  Counter* rounds = &registry.counter(prefix + "rounds");
  Counter* messages = &registry.counter(prefix + "messages");
  Counter* bits = &registry.counter(prefix + "bits");
  Histogram* h_messages = &registry.histogram(prefix + "round_messages");
  Histogram* h_bits = &registry.histogram(prefix + "round_bits");
  Histogram* h_active = &registry.histogram(prefix + "round_active_nodes");
  // Utilization lives in [0, 1] (1.0 = some edge hit the bandwidth cap),
  // so fixed linear bounds instead of the default exponential layout.
  Histogram* h_util = &registry.histogram(
      prefix + "round_max_edge_utilization",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  config.hooks.on_round_metrics = [=](const congest::RoundMetrics& rm) {
    rounds->add(1);
    messages->add(rm.messages);
    bits->add(rm.bits);
    h_messages->observe(static_cast<double>(rm.messages));
    h_bits->observe(static_cast<double>(rm.bits));
    h_active->observe(static_cast<double>(rm.active_nodes));
    h_util->observe(rm.max_edge_utilization);
  };
}

void record_fault_metrics(const congest::FaultCounters& counters,
                          MetricsRegistry& registry,
                          const std::string& prefix) {
  registry.counter(prefix + "dropped").add(counters.dropped);
  registry.counter(prefix + "duplicated").add(counters.duplicated);
  registry.counter(prefix + "delayed").add(counters.delayed);
  registry.counter(prefix + "corrupted").add(counters.corrupted);
  registry.counter(prefix + "link_down_drops").add(counters.link_down_drops);
  registry.counter(prefix + "crashed_nodes").add(counters.crashed_nodes);
  registry.counter(prefix + "crash_drops").add(counters.crash_drops);
}

}  // namespace qc::runtime
