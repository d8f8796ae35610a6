// Distributed (CONGEST) implementations of Nanongkai's toolkit —
// Algorithms 1–5 of the paper's Appendix A.
//
// Each algorithm runs genuinely on the simulator: message-level, with
// the per-edge bandwidth cap enforced. The returned values are exact
// integers in the same fixed-point units as the centralized reference
// (reference.h); tests assert bit-exact agreement.
//
// Composition style: Algorithms 4 and 5 are *phase orchestrations* —
// sequences of engine runs (floods, aggregates, multiplexed SSSPs) whose
// round counts are summed. Phase boundaries are deterministic given
// values every node knows (fixed scale schedules; the per-round
// announcement count a that Algorithm 5 explicitly disseminates), so the
// free end-of-run detection of the engine does not hide real rounds
// beyond constants.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "congest/primitives.h"
#include "congest/simulator.h"
#include "paths/params.h"
#include "util/rng.h"

namespace qc::paths {

/// Thrown when a randomized algorithm hits its (low-probability) failure
/// event — e.g. Algorithm 3's per-window message budget overflows.
/// Wrappers catch it and retry with fresh randomness, counting the
/// wasted rounds. Alias of congest::AlgorithmFailure (primitives and
/// orchestrations share one failure type).
using AlgorithmFailure = congest::AlgorithmFailure;

/// One request object for every `distributed_*` entry point, replacing
/// their historically repeated (source, cap, scale, sources, rng,
/// params, config) parameter lists. Every field is defaulted;
/// populate the ones your algorithm reads — each entry point documents
/// which — directly or with the fluent with_* setters:
///
///   auto res = distributed_bounded_hop_sssp(
///       g, RunRequest{}.with_source(0).with_scale(scale).with_config(cfg));
///
/// Fault plans ride along in `config.faults` (with_faults is a
/// shortcut), so every Appendix A algorithm can run under fault
/// injection without signature changes.
struct RunRequest {
  /// Engine configuration, faults included (congest/simulator.h).
  congest::Config config;
  /// Source node (Algorithms 1-2 and the weighted SSSP).
  NodeId source = 0;
  /// Distance cap for bounded-distance SSSP (Algorithm 2) and the
  /// hop-distance BFS.
  Dist cap = 0;
  /// Hop/scale schedule (Algorithms 1 and 3).
  HopScale scale{};
  /// Source set (Algorithms 3-4).
  std::vector<NodeId> sources;
  /// Private randomness for Algorithm 3's delays (borrowed, required by
  /// distributed_multi_source_bhs and _hop_bfs only).
  Rng* rng = nullptr;
  /// Paper parameters (Algorithms 4-5; borrowed, must outlive the call).
  const Params* params = nullptr;
  /// Overlay index of the SSSP source (Algorithm 5).
  std::uint32_t overlay_source = 0;

  RunRequest& with_config(congest::Config c) {
    config = std::move(c);
    return *this;
  }
  RunRequest& with_faults(congest::FaultPlan plan) {
    config.faults = std::move(plan);
    return *this;
  }
  RunRequest& with_source(NodeId s) {
    source = s;
    return *this;
  }
  RunRequest& with_cap(Dist c) {
    cap = c;
    return *this;
  }
  RunRequest& with_scale(const HopScale& s) {
    scale = s;
    return *this;
  }
  RunRequest& with_sources(std::vector<NodeId> s) {
    sources = std::move(s);
    return *this;
  }
  RunRequest& with_rng(Rng& r) {
    rng = &r;
    return *this;
  }
  RunRequest& with_params(const Params& p) {
    params = &p;
    return *this;
  }
  RunRequest& with_overlay_source(std::uint32_t idx) {
    overlay_source = idx;
    return *this;
  }
};

/// Algorithms 1 and 2 and the weighted SSSP below run one timed-release
/// program: per weight scale j of cap + 2 rounds, node v announces its
/// distance d <= cap in round d of the scale, and keeps
/// d̃(s, v) = min over scales of d·2^j. Its output rule, the same for all
/// three entry points:
///   * a node reports d̃ over its finished scales;
///   * a node stopped mid-scale by a crash also counts the scale in
///     progress, if that scale's distance is <= cap;
///   * mail that arrives after a node's last scale (only a fault plan
///     delays it that far) is ignored.
///
/// Algorithm 2: Bounded-Distance SSSP. Every node learns d_G(s, ·) when
/// it is <= cap (else kInfDist), in cap + 2 rounds: Algorithm 1's
/// program with σ = 1 and one scale.
struct BoundedDistanceResult {
  congest::RunStats stats;
  std::vector<Dist> dist;  ///< dist[v], capped
};
/// Reads req.source, req.cap and req.config.
BoundedDistanceResult distributed_bounded_distance_sssp(
    const WeightedGraph& g, const RunRequest& req);

/// Exact weighted SSSP by timed release, the SSSP of Table 1's folklore
/// 2-approximation: Algorithm 2 with cap n·W, where every node is done
/// once it announces, so the run takes ecc_w(s) + 2 rounds (<= n·W + 2),
/// not cap + 2. Needs a connected network. Reads req.source and
/// req.config.
BoundedDistanceResult distributed_weighted_sssp(const WeightedGraph& g,
                                                const RunRequest& req);

/// Algorithm 1: Bounded-Hop SSSP. Every node learns d̃^ℓ(s, ·) in
/// σ(scale)-scaled units, in scale_count · (cap+2) rounds.
struct BoundedHopResult {
  congest::RunStats stats;
  std::vector<Dist> approx;  ///< d̃^ℓ(s, v), σ units
};
/// Reads req.source, req.scale and req.config.
BoundedHopResult distributed_bounded_hop_sssp(const WeightedGraph& g,
                                              const RunRequest& req);

/// Algorithm 3: Bounded-Hop Multi-Source Shortest Paths via random
/// delays. Every node v learns d̃^ℓ(s, v) for every s in `sources`.
/// Retries internally on the algorithm's failure event (new delays),
/// summing rounds across attempts.
struct MultiSourceResult {
  congest::RunStats stats;
  std::uint32_t attempts = 1;
  /// approx[a][v] = d̃^ℓ(sources[a], v), σ units.
  std::vector<std::vector<Dist>> approx;
};
/// Reads req.sources, req.scale, req.rng (required) and req.config.
/// req.sources must be distinct nodes of g: a repeat or a node past n
/// throws ArgumentError, naming the entry point and the source, before
/// any round (the same holds for the hop-distance BFS and Algorithm 4).
MultiSourceResult distributed_multi_source_bhs(const WeightedGraph& g,
                                               const RunRequest& req);

/// Algorithm 3 on hop distances: the random-delay multi-source BFS of
/// Table 1's unweighted baselines (core::distributed_multi_source_bfs).
/// Same program and retry loop as above, with σ = 1, one scale and
/// every edge weighing 1, so approx[a][v] is the hop distance from
/// sources[a] to v when it is below req.cap, else kInfDist. Instance a
/// occupies windows [delay_a, delay_a + cap] (the last one never
/// announces) and distances travel in bits_for(cap + 2)-bit fields.
/// Reads req.sources, req.cap (>= 1), req.rng (required) and
/// req.config.
MultiSourceResult distributed_multi_source_hop_bfs(const WeightedGraph& g,
                                                   const RunRequest& req);

/// Algorithm 4: embedding the k-shortcut overlay network (G″_S, w″_S).
/// Inputs are Algorithm 3's outputs. On return, member a's row of w″ is
/// what node sources[a] knows locally in the real execution; H (the
/// union of flooded k-shortest stars) and N^k are known to every node.
struct OverlayEmbedding {
  congest::RunStats stats;
  std::vector<NodeId> sources;
  /// w1[a][c] = w′({a,c}) = d̃^ℓ, σ units (known to endpoints).
  std::vector<std::vector<Dist>> w1;
  /// nearest_k[a]: indices of a's k nearest overlay nodes (all nodes
  /// can compute this from the flood — Observation 3.12).
  std::vector<std::vector<std::uint32_t>> nearest_k;
  /// w2[a][c] = w″({a,c}), σ units (member a knows its row).
  std::vector<std::vector<Dist>> w2;
  /// max over w2 entries — disseminated to everyone (needed for the
  /// scale count of Algorithm 5); computed by a global aggregate.
  std::uint64_t max_w2 = 1;
};
/// Reads req.sources, req.params (required) and req.config;
/// `approx_rows` stays a positional argument (it is Algorithm 3's
/// output data, not run configuration), one row of n entries per
/// source. The k-star pick and the shortcut step are
/// paths::lightest_k and paths::shortcut_step (reference.h), the ones
/// the Theorem 1.1 oracle runs.
OverlayEmbedding distributed_embed_overlay(
    const WeightedGraph& g, const std::vector<std::vector<Dist>>& approx_rows,
    const RunRequest& req);

/// Algorithm 5: SSSP on the overlay network, simulated on G. Every node
/// learns d̃^{ℓ″}_{G″,w″}(source, u) for every overlay node u, in σ·σ″
/// units.
struct OverlaySsspResult {
  congest::RunStats stats;
  std::vector<Dist> approx;  ///< indexed by overlay index, σ·σ″ units
};
/// Reads req.params (required), req.overlay_source and req.config;
/// `overlay` stays positional (Algorithm 4's output data).
///
/// Runs in two passes. The relaxation is centralized bookkeeping, and
/// the simulated sub-runs feed back only their checks, so the first
/// pass relaxes and lists every overlay round's due announcements. The
/// second runs each round's sub-run (the count aggregate, plus the
/// flood when a > 0) as one index of a runtime::parallel_for on
/// req.config.execution.pool, each on a serial engine (no pool, one
/// worker); a null or one-worker pool runs the same loop on the
/// caller. With an empty fault plan one all-zero aggregate stands for
/// every quiet round. Ledgers are summed in round order, and each
/// sub-run keeps its own failure: the lowest round's is rethrown, so a
/// faulted run throws what a sequential one would at any worker count.
/// With a pool, on_round_metrics hooks run concurrently on pool threads.
OverlaySsspResult distributed_overlay_sssp(const WeightedGraph& g,
                                           const OverlayEmbedding& overlay,
                                           const RunRequest& req);

}  // namespace qc::paths
