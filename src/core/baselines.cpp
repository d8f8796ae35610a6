#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "congest/primitives.h"
#include "core/approx.h"
#include "graph/algorithms.h"
#include "quantum/framework.h"

namespace qc::core {

namespace {

using congest::Incoming;
using congest::Message;
using congest::NodeContext;
using congest::NodeProgram;

// Token-walk APSP (Holzer–Wattenhofer style). A DFS token walks a
// precomputed BFS tree; a node starts its own wave when the token first
// reaches it and holds the token one extra round before passing it on.
// Each node keeps a FIFO of improved (source, dist) labels and drains as
// many per round as fit in the bandwidth, always sending the current
// best label. Labels relax Bellman–Ford style, so correctness never
// depends on timing: the queue absorbs the root's wave overlapping the
// first waves after it, weighted fronts that collide, and delayed mail.
//
// kUnit runs the unweighted APSP: an arrival adds the constant 1 rather
// than its edge's weight. A weighted label is below 2^63 and a weight
// below kInfDist, so the weighted `+` cannot wrap.
//
// Wire format: {type:2}...; type 0 = label(source, dist), type 1 =
// token down, type 2 = token up.
template <bool kUnit>
class TokenWalkApspProgram final : public NodeProgram {
 public:
  TokenWalkApspProgram(NodeId root, const congest::BfsTreeNodeResult& tree,
                       NodeId n, std::uint32_t dist_bits,
                       std::uint32_t labels_per_round)
      : root_(root),
        tree_(tree),
        id_bits_(bits_for(n)),
        dist_bits_(dist_bits),
        labels_per_round_(labels_per_round),
        dist_(n, kInfDist),
        queued_(n, false) {}

  void on_start(NodeContext& ctx) override {
    if constexpr (!kUnit) {
      weights_.reserve(ctx.neighbors().size());
      for (const HalfEdge& h : ctx.neighbors()) weights_.push_back(h.weight);
    }
    if (ctx.id() == root_) {
      start_wave(ctx.id());
      holding_token_ = true;
    }
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    for (const Incoming& in : inbox) {
      switch (in.msg.field(0)) {
        case 0: {
          const auto s = static_cast<NodeId>(in.msg.field(1));
          const Dist d = in.msg.field(2) + (kUnit ? 1 : weights_[in.slot]);
          if (d < dist_[s]) {
            dist_[s] = d;
            enqueue(s);
          }
          break;
        }
        case 1:
          start_wave(ctx.id());
          holding_token_ = true;
          held_rounds_ = 0;
          break;
        case 2:
          holding_token_ = true;
          held_rounds_ = 1;  // no extra wait on the way back up
          break;
        default:
          throw ModelError("TokenWalkApspProgram: unknown message type");
      }
    }

    const std::size_t sent =
        std::min<std::size_t>(labels_per_round_, pending_.size());
    for (std::size_t i = 0; i < sent; ++i) {
      const NodeId s = pending_[i];
      queued_[s] = false;
      Message label;
      label.push(0, 2).push(s, id_bits_).push(dist_[s], dist_bits_);
      ctx.broadcast(label);
    }
    pending_.erase(pending_.begin(), pending_.begin() + sent);

    if (holding_token_) {
      if (held_rounds_ == 0) {
        ++held_rounds_;  // the one-round pause that staggers the waves
      } else if (next_child_ < tree_.children.size()) {
        Message token;
        token.push(1, 2);
        ctx.send(tree_.children[next_child_], token);
        ++next_child_;
        holding_token_ = false;
      } else if (ctx.id() != root_) {
        Message token;
        token.push(2, 2);
        ctx.send(tree_.parent, token);
        holding_token_ = false;
        token_done_ = true;
      } else {
        holding_token_ = false;  // root: DFS complete
        token_done_ = true;
      }
    }
  }

  bool done() const override { return token_done_ && pending_.empty(); }

  const std::vector<Dist>& distances() const { return dist_; }

 private:
  void start_wave(NodeId me) {
    dist_[me] = 0;
    enqueue(me);
  }

  void enqueue(NodeId s) {
    if (!queued_[s]) {
      queued_[s] = true;
      pending_.push_back(s);
    }
  }

  NodeId root_;
  congest::BfsTreeNodeResult tree_;
  std::uint32_t id_bits_;
  std::uint32_t dist_bits_;
  std::uint32_t labels_per_round_;
  std::vector<Weight> weights_;  ///< by slot of neighbors(); empty if kUnit
  std::vector<Dist> dist_;
  std::vector<bool> queued_;
  std::vector<NodeId> pending_;
  bool holding_token_ = false;
  bool token_done_ = false;
  std::uint32_t held_rounds_ = 0;
  std::size_t next_child_ = 0;
};

// The walk has no retransmission, dedup or checksum. A lost token
// stalls it and a lost label may leave a distance wrong; a duplicated
// adopt lists a child twice in the BFS tree, and the token's second
// visit finds that child done, so it never returns; a corrupted source
// id indexes past n. Delays only reorder relaxations, so they are the
// one fault class it accepts.
void reject_unsurvivable_faults(const congest::FaultPlan& plan,
                                const char* primitive) {
  const congest::FaultProbabilities& p = plan.probabilities;
  const bool delays_only =
      p.drop == 0.0 && p.duplicate == 0.0 && p.corrupt == 0.0 &&
      plan.link_down.empty() && plan.crashes.empty() &&
      std::all_of(plan.events.begin(), plan.events.end(),
                  [](const congest::FaultEvent& e) {
                    return e.kind == congest::FaultKind::kDelay;
                  });
  QC_REQUIRE(delays_only,
             std::string(primitive) +
                 ": the token walk has no retransmission, dedup or "
                 "checksum, so a fault plan may only delay messages");
}

// Both APSPs: the BFS tree from node 0, the distance field
// (bits_for(n) + 1 for hops, enough for n·W + 1 weighted) and the
// labels per round that fit beside a token message.
template <bool kUnit>
DistributedApspResult token_walk_apsp(const WeightedGraph& g,
                                      congest::Config config) {
  const NodeId n = g.node_count();
  reject_unsurvivable_faults(config.faults, kUnit
                                                ? "distributed_unweighted_apsp"
                                                : "distributed_weighted_apsp");
  QC_REQUIRE(g.is_connected(), "APSP needs a connected network");
  const auto tree = congest::build_bfs_tree(g, 0, config);
  const std::uint32_t dist_bits =
      kUnit ? bits_for(n) + 1
            : std::min<std::uint32_t>(
                  63, bits_for(static_cast<Dist>(n) * g.max_weight() + 2));
  const std::uint32_t msg_bits = 2 + bits_for(n) + dist_bits;
  const std::uint32_t bandwidth = config.bandwidth_bits != 0
                                      ? config.bandwidth_bits
                                      : congest::default_bandwidth(n);
  const std::uint32_t labels_per_round =
      std::max<std::uint32_t>(1, (bandwidth - 2) / msg_bits);

  using Program = TokenWalkApspProgram<kUnit>;
  auto run = congest::run_on_all<Program>(
      g,
      [&](NodeId v) {
        return std::make_unique<Program>(0, tree.nodes[v], n, dist_bits,
                                         labels_per_round);
      },
      config);
  DistributedApspResult out;
  out.stats = tree.stats;
  out.stats += run.stats;
  out.dist.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    out.dist.push_back(run.at(v).distances());
  }
  return out;
}

// APSP + local eccentricities + one aggregate, whose value field holds
// a hop count (bits_for(n)) or a weighted distance up to n·W.
ClassicalExtremumResult classical_extremum(const WeightedGraph& g,
                                           bool radius, bool unit,
                                           congest::Config config) {
  const NodeId n = g.node_count();
  auto apsp = unit ? token_walk_apsp<true>(g, config)
                   : token_walk_apsp<false>(g, config);
  // Each node's eccentricity is local knowledge after APSP.
  std::vector<std::uint64_t> ecc(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    ecc[v] = *std::max_element(apsp.dist[v].begin(), apsp.dist[v].end());
  }
  const std::uint32_t value_bits =
      unit ? bits_for(n)
           : std::min<std::uint32_t>(
                 63, bits_for(static_cast<Dist>(n) * g.max_weight() + 1));
  const auto agg = congest::global_aggregate(
      g, 0, ecc,
      radius ? congest::AggregateOp::kMin : congest::AggregateOp::kMax,
      value_bits, config);
  ClassicalExtremumResult out;
  out.stats = apsp.stats;
  out.stats += agg.stats;
  out.value = agg.value;
  return out;
}

QuantumUnweightedResult quantum_unweighted(const WeightedGraph& g,
                                           bool radius, std::uint64_t seed) {
  const NodeId n = g.node_count();
  QC_REQUIRE(n >= 2 && g.is_connected(),
             "quantum unweighted search needs a connected graph, n >= 2");
  // Measured per-evaluation cost: one BFS wave + one depth convergecast.
  const auto bfs = congest::build_bfs_tree(g, 0);
  std::vector<std::uint64_t> depths(n);
  for (NodeId v = 0; v < n; ++v) depths[v] = bfs.nodes[v].depth;
  const auto agg = congest::global_aggregate(g, 0, depths,
                                             congest::AggregateOp::kMax,
                                             bits_for(n));
  const std::uint64_t eval_rounds = bfs.stats.rounds + agg.stats.rounds;

  // Bookkeeping backend: exact eccentricities.
  quantum::OptimizationProblem p;
  const auto ecc = unweighted_eccentricities(g);
  p.values.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    p.values.push_back(static_cast<std::int64_t>(ecc[v]));
  }
  p.weights.assign(n, 1.0);
  p.rho = 1.0 / static_cast<double>(n);
  p.delta = 0.05;
  p.t_setup_rounds = bfs.stats.rounds;  // leader's index broadcast, O(D)
  p.t_eval_rounds = eval_rounds;
  Rng rng(seed);
  const auto res = radius ? quantum::framework_minimize(p, rng)
                          : quantum::framework_maximize(p, rng);

  QuantumUnweightedResult out;
  out.value = static_cast<Dist>(res.value);
  out.rounds = res.rounds;
  out.oracle_calls = res.oracle_calls;
  out.eval_rounds = eval_rounds;
  return out;
}

}  // namespace

DistributedApspResult distributed_unweighted_apsp(const WeightedGraph& g,
                                                  congest::Config config) {
  return token_walk_apsp<true>(g, std::move(config));
}

DistributedApspResult distributed_weighted_apsp(const WeightedGraph& g,
                                                congest::Config config) {
  return token_walk_apsp<false>(g, std::move(config));
}

ClassicalExtremumResult classical_unweighted_diameter(const WeightedGraph& g,
                                                      congest::Config config) {
  return classical_extremum(g, false, true, std::move(config));
}

ClassicalExtremumResult classical_unweighted_radius(const WeightedGraph& g,
                                                    congest::Config config) {
  return classical_extremum(g, true, true, std::move(config));
}

ClassicalExtremumResult classical_weighted_diameter(const WeightedGraph& g,
                                                    congest::Config config) {
  return classical_extremum(g, false, false, std::move(config));
}

ClassicalExtremumResult classical_weighted_radius(const WeightedGraph& g,
                                                  congest::Config config) {
  return classical_extremum(g, true, false, std::move(config));
}

QuantumUnweightedResult quantum_unweighted_diameter(const WeightedGraph& g,
                                                    std::uint64_t seed) {
  return quantum_unweighted(g, false, seed);
}

QuantumUnweightedResult quantum_unweighted_radius(const WeightedGraph& g,
                                                  std::uint64_t seed) {
  return quantum_unweighted(g, true, seed);
}

namespace {

LgmResult lgm_quantum_unweighted(const WeightedGraph& g, bool radius,
                                 std::uint64_t seed) {
  const NodeId n = g.node_count();
  QC_REQUIRE(n >= 2 && g.is_connected(),
             "LGM search needs a connected graph, n >= 2");
  Rng rng(seed);

  // Estimate D from the leader's eccentricity (<= D <= 2·ecc).
  const auto tree = congest::build_bfs_tree(g, 0);
  std::vector<std::uint64_t> depths(n);
  for (NodeId v = 0; v < n; ++v) depths[v] = tree.nodes[v].depth;
  const auto dagg = congest::global_aggregate(
      g, 0, depths, congest::AggregateOp::kMax, bits_for(n));
  const Dist d_hat = std::max<Dist>(1, dagg.value);

  // Blocks of ~D consecutive ids (any fixed public partition works).
  const auto block_size = static_cast<std::size_t>(
      std::min<Dist>(d_hat, n));
  const std::size_t blocks = ceil_div(n, block_size);

  // Bookkeeping backend: the block values from the exact oracle.
  const auto ecc = unweighted_eccentricities(g);
  std::vector<std::int64_t> values(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::int64_t best = radius ? std::numeric_limits<std::int64_t>::max()
                               : 0;
    for (NodeId v = static_cast<NodeId>(b * block_size);
         v < std::min<std::size_t>(n, (b + 1) * block_size); ++v) {
      best = radius ? std::min(best, static_cast<std::int64_t>(ecc[v]))
                    : std::max(best, static_cast<std::int64_t>(ecc[v]));
    }
    values[b] = best;
  }

  // Run the search.
  quantum::OptimizationProblem p;
  p.values = values;
  p.weights.assign(blocks, 1.0);
  p.rho = 1.0 / static_cast<double>(blocks);
  p.delta = 0.05;
  Rng search_rng = rng.fork();
  const auto res = radius ? quantum::framework_minimize(p, search_rng)
                          : quantum::framework_maximize(p, search_rng);

  // Measure the per-block Evaluation genuinely: pipelined multi-source
  // BFS from every node of the measured block, then one aggregate of
  // the block's extreme eccentricity.
  const std::size_t mb = res.index;
  std::vector<NodeId> sources;
  for (NodeId v = static_cast<NodeId>(mb * block_size);
       v < std::min<std::size_t>(n, (mb + 1) * block_size); ++v) {
    sources.push_back(v);
  }
  Rng delays = rng.fork();
  auto bfs = distributed_multi_source_bfs(g, sources, delays);
  std::vector<std::uint64_t> local(n, radius ? std::uint64_t{0}
                                             : std::uint64_t{0});
  // ecc(s) = max_v dist[s][v]: per-source maxima are global aggregates;
  // the block extreme folds through one packed aggregate per source —
  // pipelined, we charge the flood-style O(D + |block|) by running the
  // per-node max (diameter) or the per-source-resolved min (radius).
  std::uint64_t eval_rounds = bfs.stats.rounds;
  std::int64_t measured_value;
  if (!radius) {
    // max over sources of ecc = max over (a, v) of dist.
    for (NodeId v = 0; v < n; ++v) {
      for (std::size_t a = 0; a < sources.size(); ++a) {
        local[v] = std::max<std::uint64_t>(local[v], bfs.dist[a][v]);
      }
    }
    const auto agg = congest::global_aggregate(
        g, 0, local, congest::AggregateOp::kMax, bits_for(n));
    eval_rounds += agg.stats.rounds;
    measured_value = static_cast<std::int64_t>(agg.value);
  } else {
    // min over sources of ecc(s): one aggregate per source, pipelined
    // in a real implementation; we run them and charge the max single
    // aggregate cost plus |block| (the pipelining bound).
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    std::uint64_t max_agg = 0;
    for (std::size_t a = 0; a < sources.size(); ++a) {
      std::vector<std::uint64_t> row(n);
      for (NodeId v = 0; v < n; ++v) row[v] = bfs.dist[a][v];
      const auto agg = congest::global_aggregate(
          g, 0, row, congest::AggregateOp::kMax, bits_for(n));
      max_agg = std::max(max_agg, agg.stats.rounds);
      best = std::min(best, static_cast<std::int64_t>(agg.value));
    }
    eval_rounds += max_agg + sources.size();
    measured_value = best;
  }

  LgmResult out;
  out.value = static_cast<Dist>(res.value);
  out.oracle_calls = res.oracle_calls;
  out.eval_rounds = eval_rounds;
  out.block_count = blocks;
  out.block_size = block_size;
  out.measured_block = mb;
  out.distributed_value_matches = (measured_value == values[mb]);
  // Charged rounds: preamble + calls × (leader broadcast + evaluation).
  out.rounds = tree.stats.rounds + dagg.stats.rounds +
               res.oracle_calls * (tree.stats.rounds + eval_rounds);
  return out;
}

}  // namespace

LgmResult lgm_quantum_unweighted_diameter(const WeightedGraph& g,
                                          std::uint64_t seed) {
  return lgm_quantum_unweighted(g, false, seed);
}

LgmResult lgm_quantum_unweighted_radius(const WeightedGraph& g,
                                        std::uint64_t seed) {
  return lgm_quantum_unweighted(g, true, seed);
}

namespace model {

double polylog(std::uint64_t n) {
  return std::max(1.0, std::log2(static_cast<double>(n)));
}

double classical_unweighted_rounds(std::uint64_t n) {
  return static_cast<double>(n);
}

double classical_weighted_rounds(std::uint64_t n) {
  return static_cast<double>(n) * polylog(n);
}

double lgm_unweighted_rounds(std::uint64_t n, std::uint64_t d) {
  return std::sqrt(static_cast<double>(n) * static_cast<double>(d)) *
         polylog(n);
}

double theorem11_rounds(std::uint64_t n, std::uint64_t d) {
  const double nd = static_cast<double>(n);
  const double dd = static_cast<double>(d);
  return std::min(std::pow(nd, 0.9) * std::pow(dd, 0.3), nd) * polylog(n);
}

double theorem12_lower_bound(std::uint64_t n) {
  const double l = polylog(n);
  return std::pow(static_cast<double>(n), 2.0 / 3.0) / (l * l);
}

double classical_lower_bound(std::uint64_t n) {
  return static_cast<double>(n) / polylog(n);
}

double cm_two_approx_rounds(std::uint64_t n, std::uint64_t d) {
  const double nd = static_cast<double>(n);
  const double dd = static_cast<double>(d);
  return (std::sqrt(nd) * std::pow(dd, 0.25) + dd) * polylog(n);
}

double quantum_exact_lower_bound(std::uint64_t n, std::uint64_t d) {
  const double nd = static_cast<double>(n);
  const double dd = static_cast<double>(d);
  return std::cbrt(nd * dd * dd) + std::sqrt(nd);
}

}  // namespace model

}  // namespace qc::core
