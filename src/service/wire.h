// Line-delimited JSON wire format of the query service.
//
// One request object per line in, one response object per line out —
// the `qcongest_cli serve` driver speaks exactly this over
// stdin/stdout, and `qcongest_cli query` prints a single response.
//
// Request (flat object; unknown keys are rejected so typos fail loud):
//   {"id":7,"graph":"g0","type":"sssp","node":5}
//   {"id":8,"type":"update","op":"reweight","u":3,"v":9,"w":17}
//   keys: "id" (uint, echoed back, default 0), "graph" (string,
//   optional when the engine serves exactly one graph), "type" (string,
//   required), "node" / "source" / "u" (synonyms, uint node id),
//   "target" / "v" (synonyms, uint node id), "seed" (uint, randomized
//   handlers only), "op" (string, update sub-operation
//   insert|remove|reweight), "weight" / "w" (synonyms, uint, update
//   edge weight).
//
// Response:
//   {"id":7,"ok":true,"type":"sssp","value":0,"dist":[0,2,5]}
//   {"id":8,"ok":true,"type":"approx_distance","value":840,"scale":120,
//    "approx":7}
//   {"id":9,"ok":false,"type":"diameter","error":"unknown graph: g9"}
//   Distances at or above kInfDist serialize as the string "inf".
//   Admission rejections add "code":"rejected" (see format_rejection) so
//   clients can distinguish backpressure from request errors and retry.
//
// docs/service.md documents the format alongside the engine semantics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/query_engine.h"
#include "util/error.h"

namespace qc::service {

/// The error parse_request throws. It carries the request's id when
/// the line gave one before the fault (0 otherwise), so the error reply
/// still answers that id.
class RequestError : public ArgumentError {
 public:
  RequestError(const std::string& what, std::uint64_t id)
      : ArgumentError(what), id_(id) {}
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

/// Parses one request line. Throws RequestError on malformed JSON,
/// unknown keys, non-integer ids, or a missing/empty "type".
Query parse_request(std::string_view line);

/// Serializes a result as one JSON line (no trailing newline). Key
/// order is fixed, so equal results produce byte-identical lines.
std::string format_response(const QueryResult& r);

/// The response emitted when admission control rejects a request
/// outright (the engine never saw it, so there is no QueryResult):
/// {"id":N,"ok":false,"code":"rejected","error":reason}.
std::string format_rejection(std::uint64_t id, std::string_view reason);

}  // namespace qc::service
