#include "layers.h"

#include <vector>

#include "runtime/thread_pool.h"

namespace qcbench {

void fork_join_probe(Tracer& tracer, RunResult& out) {
  constexpr int kRepeats = 200;
  qc::runtime::ThreadPool pool(bench_workers());
  const std::size_t tasks = pool.worker_count();
  std::vector<double> us;
  us.reserve(kRepeats);
  for (int i = 0; i < kRepeats; ++i) {
    auto span = tracer.span("runtime.parallel_for", static_cast<std::uint64_t>(i + 1));
    const auto t0 = Clock::now();
    qc::runtime::parallel_for(pool, tasks, [](std::size_t) {});
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  out.metric("runtime.fork_join_us", median(us), "us");
}

void report_congest(const RoundCounter& c, std::uint64_t sim_rounds,
                    double seconds, RunResult& out) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.metric("congest.sim_rounds", static_cast<double>(sim_rounds), "count");
  out.metric("congest.sim_messages", static_cast<double>(c.messages), "count");
  out.metric("congest.sim_bits", static_cast<double>(c.bits), "count");
  out.metric("congest.max_edge_utilization", c.max_edge_utilization, "ratio");
  out.metric("congest.host_rounds", static_cast<double>(c.host_rounds), "count");
  out.metric("congest.activations", static_cast<double>(c.activations), "count");
  out.metric("congest.useful_activation_ratio",
             ratio(static_cast<double>(c.messages),
                   static_cast<double>(c.activations)),
             "ratio");
  out.metric("congest.idle_round_share",
             ratio(static_cast<double>(c.idle_rounds),
                   static_cast<double>(c.host_rounds)),
             "ratio");
  out.metric("congest.ns_per_activation",
             ratio(seconds * 1e9, static_cast<double>(c.activations)), "ns");
  out.metric("congest.ns_per_message",
             ratio(seconds * 1e9, static_cast<double>(c.messages)), "ns");
}

}  // namespace qcbench
