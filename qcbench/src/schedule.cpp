#include "schedule.h"

#include <cmath>

#include "util/rng.h"

namespace qcbench {

std::vector<Request> make_schedule(std::uint64_t seed, double read_qps,
                                   double update_period_s, double min_seconds,
                                   std::size_t min_reads,
                                   const std::vector<ServedGraph>& graphs,
                                   const Mix& mix, std::uint64_t first_id) {
  qc::Rng rng(seed);
  const double total = mix.lookup + mix.sssp + mix.approx;
  std::vector<Request> reads;
  double t = 0;
  while (t < min_seconds || reads.size() < min_reads) {
    t += -std::log(1.0 - rng.uniform()) / read_qps;
    const ServedGraph& g = graphs[rng.below(graphs.size())];
    Request r;
    r.at_s = t;
    qc::service::Query& q = r.query;
    q.graph = g.name;
    q.node = static_cast<qc::NodeId>(rng.below(g.nodes));
    q.target = static_cast<qc::NodeId>(rng.below(g.nodes));
    const double u = rng.uniform() * total;
    if (u < mix.sssp) {
      q.type = "sssp";
    } else if (u < mix.sssp + mix.approx) {
      q.type = "approx_distance";
    } else {
      static const char* kLookups[] = {"diameter", "radius", "eccentricity"};
      q.type = kLookups[rng.below(3)];
    }
    reads.push_back(std::move(r));
  }

  std::vector<const ServedGraph*> writable;
  for (const ServedGraph& g : graphs) {
    if (g.takes_updates) writable.push_back(&g);
  }
  const std::size_t updates =
      writable.empty() || update_period_s <= 0
          ? 0
          : static_cast<std::size_t>(std::floor(min_seconds / update_period_s));
  const double offset = rng.uniform() * update_period_s;
  std::vector<Request> out;
  std::size_t next_read = 0, next_update = 0;
  while (next_read < reads.size() || next_update < updates) {
    const double at = offset + static_cast<double>(next_update) * update_period_s;
    if (next_update < updates &&
        (next_read == reads.size() || at < reads[next_read].at_s)) {
      const ServedGraph& g = *writable[rng.below(writable.size())];
      const auto& [a, b] = g.edges[rng.below(g.edges.size())];
      Request r;
      r.at_s = at;
      r.query.graph = g.name;
      r.query.type = "update";
      r.query.op = "reweight";
      r.query.node = a;
      r.query.target = b;
      r.query.weight = 1;
      out.push_back(std::move(r));
      ++next_update;
    } else {
      out.push_back(std::move(reads[next_read++]));
    }
    out.back().query.id = first_id + out.size() - 1;
  }
  return out;
}

bool response_correct(const Response& r, const qc::service::QueryResult& reference) {
  return !r.refused && r.error.empty() && r.result.ok && r.result == reference;
}

}  // namespace qcbench
