// FNV-1a digests of a simulator run's trace and per-round metrics, so a
// golden test can pin a whole run with one literal per log, and a
// readable printer for the RunStats ledger such pins compare.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <vector>

#include "congest/simulator.h"

namespace qc::congest {

/// Prints a ledger on a failed comparison the way goldens spell it,
/// {rounds, messages, bits}, instead of as raw bytes.
inline void PrintTo(const RunStats& s, std::ostream* os) {
  *os << "{" << s.rounds << ", " << s.messages << ", " << s.bits << "}";
}

inline std::uint64_t fnv1a(std::initializer_list<std::uint64_t> words,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

inline std::uint64_t trace_digest(const std::vector<TraceEntry>& trace) {
  std::uint64_t h = fnv1a({});
  for (const TraceEntry& t : trace) {
    h = fnv1a({t.round, t.from, t.to, t.bits}, h);
  }
  return h;
}

/// Digest of the rounds that carried messages: (round, messages, bits,
/// utilization) each. Unlike metrics_digest it leaves out silent rounds
/// and active_nodes, so it pins what a run sent and when without
/// pinning how many nodes the engine ran to send it.
inline std::uint64_t traffic_digest(const std::vector<RoundMetrics>& metrics) {
  std::uint64_t h = fnv1a({});
  for (const RoundMetrics& m : metrics) {
    if (m.messages == 0) continue;
    h = fnv1a({m.round, m.messages, m.bits,
               std::bit_cast<std::uint64_t>(m.max_edge_utilization)},
              h);
  }
  return h;
}

/// The utilization double enters by its bit pattern.
inline std::uint64_t metrics_digest(const std::vector<RoundMetrics>& metrics) {
  std::uint64_t h = fnv1a({});
  for (const RoundMetrics& m : metrics) {
    h = fnv1a({m.round, m.messages, m.bits, m.active_nodes,
               std::bit_cast<std::uint64_t>(m.max_edge_utilization)},
              h);
  }
  return h;
}

}  // namespace qc::congest
