// serve_mixed's request stream: a seeded Poisson schedule over a fixed
// query mix, and the per-response correctness rule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "service/query_engine.h"

namespace qcbench {

/// One served graph as the schedule sees it: its name, size and edge
/// list (updates reweight uniformly drawn existing edges of the graphs
/// that take them).
struct ServedGraph {
  std::string name;
  qc::NodeId nodes = 0;
  std::vector<std::pair<qc::NodeId, qc::NodeId>> edges;
  bool takes_updates = false;
};

/// Shares of the read mix (normalized by the generator). Lookups split
/// evenly between diameter, radius and eccentricity.
struct Mix {
  double lookup = 0.85;
  double sssp = 0.10;
  double approx = 0.05;
};

struct Request {
  double at_s = 0;  ///< scheduled send time, from the phase start
  qc::service::Query query;

  bool is_read() const { return query.type != "update"; }
};

/// Reads arrive as a Poisson stream at `read_qps` on uniformly drawn
/// graphs until both `min_seconds` of schedule and `min_reads` reads
/// exist. floor(min_seconds / update_period_s) updates (none when the
/// period is <= 0) arrive every `update_period_s` from a seeded offset,
/// each setting a uniformly drawn existing edge of a graph that takes
/// updates to weight 1. The count is fixed and the new weight is the
/// one that makes the eccentricity repair redo the whole table (a new
/// shortcut), so every update costs about the same: an update's handler
/// is ~1000x a lookup's, and a random count or cost would make the
/// phase's load a coin toss. Ids start at `first_id`, in send order. A
/// pure function of its arguments.
std::vector<Request> make_schedule(std::uint64_t seed, double read_qps,
                                   double update_period_s, double min_seconds,
                                   std::size_t min_reads,
                                   const std::vector<ServedGraph>& graphs,
                                   const Mix& mix, std::uint64_t first_id);

/// What the open loop observed for one request.
struct Response {
  bool refused = false;     ///< submit threw AdmissionError
  std::string error;        ///< any other exception text
  qc::service::QueryResult result;
};

/// A response counts as correct only when it was admitted, answered
/// without error, and equals the reference engine's answer.
bool response_correct(const Response& r, const qc::service::QueryResult& reference);

}  // namespace qcbench
