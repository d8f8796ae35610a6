#include "core/approx.h"

#include <algorithm>
#include <cmath>

#include "congest/primitives.h"
#include "graph/algorithms.h"
#include "paths/distributed.h"

namespace qc::core {

namespace {

using congest::Config;
using congest::Incoming;
using congest::Message;
using congest::NodeContext;
using congest::NodeProgram;

// Weighted APSP: every node runs a timed-release-style weighted wave,
// staggered by a DFS token over a precomputed BFS tree. Unlike the
// unweighted case the fronts can collide, so each node keeps a FIFO of
// improved (source, dist) labels and drains as many per round as fit
// in the bandwidth. Labels are relaxed Bellman–Ford style, so
// correctness never depends on timing.
//
// Wire format: {type:2}...; type 0 = label(source, dist), type 1 =
// token down, type 2 = token up.
class WeightedApspProgram final : public NodeProgram {
 public:
  WeightedApspProgram(NodeId root, const congest::BfsTreeNodeResult& tree,
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
    weights_.reserve(ctx.neighbors().size());
    for (const HalfEdge& h : ctx.neighbors()) weights_.push_back(h.weight);
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
          const Dist d = dist_add(in.msg.field(2), weights_[in.slot]);
          if (d < dist_[s]) {
            dist_[s] = d;
            if (!queued_[s]) {
              queued_[s] = true;
              pending_.push_back(s);
            }
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
          held_rounds_ = 1;
          break;
        default:
          throw ModelError("WeightedApspProgram: unknown message type");
      }
    }

    // Drain the label queue within the bandwidth budget. A source may
    // re-enter the queue on later improvements; we always transmit the
    // *current* best label.
    std::uint32_t sent = 0;
    while (sent < labels_per_round_ && !pending_.empty()) {
      const NodeId s = pending_.front();
      pending_.erase(pending_.begin());
      queued_[s] = false;
      Message label;
      label.push(0, 2).push(s, id_bits_).push(dist_[s], dist_bits_);
      ctx.broadcast(label);
      ++sent;
    }

    if (holding_token_) {
      if (held_rounds_ == 0) {
        ++held_rounds_;
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
        holding_token_ = false;
        token_done_ = true;
      }
    }
  }

  bool done() const override { return token_done_ && pending_.empty(); }

  const std::vector<Dist>& distances() const { return dist_; }

 private:
  void start_wave(NodeId me) {
    dist_[me] = 0;
    if (!queued_[me]) {
      queued_[me] = true;
      pending_.push_back(me);
    }
  }

  NodeId root_;
  congest::BfsTreeNodeResult tree_;
  std::uint32_t id_bits_;
  std::uint32_t dist_bits_;
  std::uint32_t labels_per_round_;
  std::vector<Weight> weights_;  ///< by slot of neighbors()
  std::vector<Dist> dist_;
  std::vector<bool> queued_;
  std::vector<NodeId> pending_;
  bool holding_token_ = false;
  bool token_done_ = false;
  std::uint32_t held_rounds_ = 0;
  std::size_t next_child_ = 0;
};

ClassicalWeightedResult classical_weighted_extremum(const WeightedGraph& g,
                                                    bool radius,
                                                    Config config) {
  const NodeId n = g.node_count();
  auto apsp = distributed_weighted_apsp(g, config);
  std::vector<std::uint64_t> ecc(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    ecc[v] = *std::max_element(apsp.dist[v].begin(), apsp.dist[v].end());
  }
  const Dist bound = static_cast<Dist>(n) * g.max_weight();
  const auto agg = congest::global_aggregate(
      g, 0, ecc,
      radius ? congest::AggregateOp::kMin : congest::AggregateOp::kMax,
      std::min<std::uint32_t>(63, bits_for(bound + 1)), config);
  ClassicalWeightedResult out;
  out.stats = apsp.stats;
  out.stats += agg.stats;
  out.value = agg.value;
  return out;
}

}  // namespace

WeightedApspResult distributed_weighted_apsp(const WeightedGraph& g,
                                             Config config) {
  const NodeId n = g.node_count();
  QC_REQUIRE(g.is_connected(), "weighted APSP needs a connected network");
  const auto tree = congest::build_bfs_tree(g, 0, config);
  const Dist bound = static_cast<Dist>(n) * g.max_weight() + 1;
  const std::uint32_t dist_bits =
      std::min<std::uint32_t>(63, bits_for(bound + 1));
  const std::uint32_t msg_bits = 2 + bits_for(n) + dist_bits;
  const std::uint32_t bandwidth = config.bandwidth_bits != 0
                                      ? config.bandwidth_bits
                                      : congest::default_bandwidth(n);
  // Keep one slot of headroom for a possible token message.
  const std::uint32_t labels_per_round =
      std::max<std::uint32_t>(1, (bandwidth - 2) / msg_bits);

  auto run = congest::run_on_all<WeightedApspProgram>(
      g,
      [&](NodeId v) {
        return std::make_unique<WeightedApspProgram>(
            0, tree.nodes[v], n, dist_bits, labels_per_round);
      },
      config);
  WeightedApspResult out;
  out.stats = tree.stats;
  out.stats += run.stats;
  out.dist.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    out.dist.push_back(run.at(v).distances());
  }
  return out;
}

ClassicalWeightedResult classical_weighted_diameter(const WeightedGraph& g,
                                                    Config config) {
  return classical_weighted_extremum(g, false, config);
}

ClassicalWeightedResult classical_weighted_radius(const WeightedGraph& g,
                                                  Config config) {
  return classical_weighted_extremum(g, true, config);
}

TwoApproxResult two_approx_weighted_diameter(const WeightedGraph& g,
                                             Config config) {
  auto sssp = paths::distributed_weighted_sssp(
      g, paths::RunRequest{}.with_source(0).with_config(config));
  const Dist bound = static_cast<Dist>(g.node_count()) * g.max_weight();
  const auto agg = congest::global_aggregate(
      g, 0, sssp.dist, congest::AggregateOp::kMax,
      std::min<std::uint32_t>(63, bits_for(bound + 1)), config);
  TwoApproxResult out;
  out.stats = sssp.stats;
  out.stats += agg.stats;
  out.ecc_leader = agg.value;
  out.upper_bound = 2 * agg.value;
  return out;
}

MultiBfsResult distributed_multi_source_bfs(const WeightedGraph& g,
                                            const std::vector<NodeId>& sources,
                                            Rng& rng, Config config) {
  QC_REQUIRE(!sources.empty(), "multi-source BFS needs sources");
  QC_REQUIRE(g.is_connected(), "multi-source BFS needs connectivity");
  const NodeId n = g.node_count();

  MultiBfsResult out;

  // Leader's BFS gives ecc(leader) (= depth max), so cap = 2·ecc >= D.
  const auto tree = congest::build_bfs_tree(g, 0, config);
  out.stats += tree.stats;
  std::vector<std::uint64_t> depths(n);
  for (NodeId v = 0; v < n; ++v) depths[v] = tree.nodes[v].depth;
  const auto dagg = congest::global_aggregate(
      g, 0, depths, congest::AggregateOp::kMax, bits_for(n), config);
  out.stats += dagg.stats;
  const Dist cap = 2 * std::max<Dist>(1, dagg.value) + 1;

  auto bfs = paths::distributed_multi_source_hop_bfs(
      g, paths::RunRequest{}
             .with_sources(sources)
             .with_cap(cap)
             .with_rng(rng)
             .with_config(std::move(config)));
  out.stats += bfs.stats;
  out.attempts = bfs.attempts;
  out.dist = std::move(bfs.approx);
  return out;
}

ThreeHalvesResult three_halves_unweighted_diameter(const WeightedGraph& g,
                                                   std::uint64_t seed,
                                                   Config config) {
  const NodeId n = g.node_count();
  QC_REQUIRE(n >= 2 && g.is_connected(),
             "3/2-approximation needs a connected graph");
  Rng rng(seed);
  ThreeHalvesResult out;

  // Sample ~sqrt(n)·log n sources (nodes flip local coins; the leader
  // collects membership with the delay flood below).
  const double p = std::min(
      1.0, 1.5 * static_cast<double>(clog2(n)) / std::sqrt(double(n)));
  std::vector<NodeId> sample;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.chance(p)) sample.push_back(v);
  }
  if (sample.empty()) sample.push_back(0);
  out.sample_size = sample.size();

  auto mb = distributed_multi_source_bfs(g, sample, rng, config);
  out.stats += mb.stats;

  // Estimate part 1: max_{s in S} ecc(s) = max over all (a, v) — one
  // aggregate of per-node maxima.
  std::vector<std::uint64_t> local_max(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t a = 0; a < sample.size(); ++a) {
      if (mb.dist[a][v] < kInfDist) {
        local_max[v] = std::max<std::uint64_t>(local_max[v], mb.dist[a][v]);
      }
    }
  }
  const auto ecc_s = congest::global_aggregate(
      g, 0, local_max, congest::AggregateOp::kMax, bits_for(n), config);
  out.stats += ecc_s.stats;

  // Find w = argmax_v d(v, S): pack (distance, reversed id) so the max
  // aggregate returns the argmax too.
  const std::uint32_t id_bits = bits_for(n);
  std::vector<std::uint64_t> packed(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    Dist dvs = kInfDist;
    for (std::size_t a = 0; a < sample.size(); ++a) {
      dvs = std::min(dvs, mb.dist[a][v]);
    }
    if (dvs >= kInfDist) dvs = 0;
    packed[v] = (static_cast<std::uint64_t>(dvs) << id_bits) | v;
  }
  const auto wagg = congest::global_aggregate(
      g, 0, packed, congest::AggregateOp::kMax,
      std::min<std::uint32_t>(63, bits_for(n) + id_bits + 1), config);
  out.stats += wagg.stats;
  const auto w =
      static_cast<NodeId>(wagg.value & ((std::uint64_t{1} << id_bits) - 1));
  out.far_node = w;

  // Estimate part 2: ecc(w) via a BFS wave from w.
  const auto wtree = congest::build_bfs_tree(g, w, config);
  out.stats += wtree.stats;
  std::vector<std::uint64_t> wdepth(n);
  for (NodeId v = 0; v < n; ++v) wdepth[v] = wtree.nodes[v].depth;
  const auto ecc_w = congest::global_aggregate(
      g, 0, wdepth, congest::AggregateOp::kMax, bits_for(n), config);
  out.stats += ecc_w.stats;

  out.estimate = std::max<Dist>(ecc_s.value, ecc_w.value);
  out.exact = unweighted_diameter(g);
  return out;
}

}  // namespace qc::core
