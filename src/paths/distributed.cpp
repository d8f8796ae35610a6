#include "paths/distributed.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>

#include "paths/reference.h"
#include "runtime/thread_pool.h"

namespace qc::paths {

namespace {

using congest::Config;
using congest::FloodItem;
using congest::Incoming;
using congest::Message;
using congest::NodeContext;
using congest::NodeProgram;

/// Conservative global bound on any σ-scaled d̃ value (and on shortcut
/// weights derived from them): every node can compute it from n, W and
/// the scale, which the model assumes are common knowledge. Used to size
/// message fields a priori.
std::uint64_t scaled_distance_bound(const WeightedGraph& g,
                                    const HopScale& scale) {
  const std::uint64_t n = g.node_count();
  const std::uint64_t w = scale.max_weight;
  const std::uint64_t sigma = scale.sigma();
  // d̃ <= (1+ε)·d^ℓ·σ <= 2·σ·n·W; shortcut paths concatenate < n of them.
  const std::uint64_t per_edge = 2 * sigma * n * w;
  QC_CHECK(per_edge / (2 * sigma) == n * w, "scaled distance bound overflow");
  return per_edge * n;
}

/// Algorithms 1–3 announce a distance d once, at offset d of a scale. At
/// offset `next` the announcement is still pending if it was not made
/// and d is within the cap and not yet past: arrivals only lower d, so
/// one that falls behind (a delayed message under a fault plan) is never
/// made. Returns the offset to wake at for it: d if pending, else
/// `otherwise`.
Dist next_wake_offset(bool announced, Dist d, Dist cap, Dist next,
                      Dist otherwise) {
  return !announced && d <= cap && d >= next ? d : otherwise;
}

// What a timed-release run does: `scales` scales of cap+2 offsets, scale
// j rounding a base weight w to ⌈σ·w/2^j⌉. Algorithms 1 and 3 take these
// from their HopScale; Algorithm 2 and the weighted SSSP run σ = 1 and
// one scale; the hop-distance BFS also takes base weight 1 on every edge.
struct ScaleSchedule {
  std::uint64_t sigma;
  std::uint32_t scales;
  Dist cap;                 ///< per-scale announcement cap
  std::uint32_t dist_bits;  ///< width of an announced distance
  bool unit_weights;        ///< base weight 1, not the edge's weight
};

ScaleSchedule hop_schedule(const HopScale& scale) {
  const Dist cap = scale.rounded_cap();
  return {.sigma = scale.sigma(),
          .scales = scale.scale_count(),
          .cap = cap,
          .dist_bits = bits_for(cap + 2),
          .unit_weights = false};
}

// ---------------------------------------------------------------------
// Algorithm 1: Bounded-Hop SSSP — one Algorithm 2 pass per weight scale,
// on a fixed synchronous schedule of (cap+2) rounds per scale. In a pass
// a node announces its distance d exactly at offset d ("timed release"),
// so with positive integer weights every announcement is final. A node
// sleeps until its announcement round, else until the scale's last
// round, where it finalizes the scale; mail wakes it in between. With
// `stop_at_announce` a node is done once it announces, which ends an
// uncapped single-scale run at ecc(s) + 2 rounds.
// ---------------------------------------------------------------------
class BoundedHopProgram final : public NodeProgram {
 public:
  BoundedHopProgram(NodeId source, const ScaleSchedule& schedule,
                    bool stop_at_announce)
      : source_(source),
        sigma_(schedule.sigma),
        scales_(schedule.scales),
        cap_(schedule.cap),
        period_(cap_ + 2),
        dist_bits_(schedule.dist_bits),
        unit_weights_(schedule.unit_weights),
        stop_at_announce_(stop_at_announce) {}

  void on_start(NodeContext& ctx) override {
    weights_.reserve(ctx.neighbors().size());
    for (const HalfEdge& h : ctx.neighbors()) {
      weights_.push_back(unit_weights_ ? 1 : h.weight);
    }
    reset_scale(ctx.id());
    sleep_to_next_event(ctx, 0, 0);
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    // Mail after the last scale (only a fault plan delays it that far)
    // can no longer change the output.
    if (done()) return;
    const std::uint64_t round = ctx.round();
    const auto j = static_cast<std::uint32_t>(round / period_);
    const Dist offset = round % period_;
    for (const Incoming& in : inbox) {
      const std::uint64_t w =
          ceil_div(sigma_ * weights_[in.slot], std::uint64_t{1} << j);
      best_ = std::min(best_, dist_add(in.msg.field(0), w));
    }
    if (!announced_ && best_ == offset && best_ <= cap_) {
      announced_ = true;
      Message m;
      m.push(best_, dist_bits_);
      ctx.broadcast(m);
      if (stop_at_announce_) {
        dtilde_ = with_scale(dtilde_);
        scale_index_ = scales_;
        return;
      }
    }
    if (offset == cap_ + 1) {
      dtilde_ = with_scale(dtilde_);
      scale_index_ = j + 1;
      if (done()) return;
      reset_scale(ctx.id());
      sleep_to_next_event(ctx, round + 1, 0);
      return;
    }
    sleep_to_next_event(ctx, round - offset, offset + 1);
  }

  bool done() const override { return scale_index_ >= scales_; }

  /// d̃ over the finished scales; a node stopped mid-scale by a crash
  /// also counts the scale in progress.
  Dist approx() const { return done() ? dtilde_ : with_scale(dtilde_); }

 private:
  void reset_scale(NodeId me) {
    best_ = (me == source_) ? 0 : kInfDist;
    announced_ = false;
  }
  // `d` folded with the current scale's distance, if that is within the
  // cap, in σ units.
  Dist with_scale(Dist d) const {
    return best_ > cap_ ? d : std::min(d, scaled_label(best_, scale_index_));
  }
  // Offsets within the scale starting at `start`: the pending
  // announcement from `next_offset` on, else the scale's last offset.
  void sleep_to_next_event(NodeContext& ctx, std::uint64_t start,
                           Dist next_offset) {
    ctx.sleep_until(start + next_wake_offset(announced_, best_, cap_,
                                             next_offset, cap_ + 1));
  }

  NodeId source_;
  std::uint64_t sigma_;
  std::uint32_t scales_;
  Dist cap_;
  std::uint64_t period_;
  std::uint32_t dist_bits_;
  bool unit_weights_;
  bool stop_at_announce_;
  std::vector<Weight> weights_;  ///< base weights, by neighbour slot
  std::uint32_t scale_index_ = 0;  ///< scales finalized so far
  Dist best_ = kInfDist;
  bool announced_ = false;
  Dist dtilde_ = kInfDist;
};

// Runs the program above from req.source and reads every node's d̃.
BoundedDistanceResult run_timed_release(const WeightedGraph& g,
                                        const RunRequest& req,
                                        const ScaleSchedule& schedule,
                                        bool stop_at_announce) {
  QC_REQUIRE(req.source < g.node_count(), "source out of range");
  auto run = congest::run_on_all<BoundedHopProgram>(
      g,
      [&](NodeId) {
        return std::make_unique<BoundedHopProgram>(req.source, schedule,
                                                   stop_at_announce);
      },
      req.config);
  BoundedDistanceResult out;
  out.stats = run.stats;
  out.dist.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.dist.push_back(run.at(v).approx());
  }
  return out;
}

// ---------------------------------------------------------------------
// Algorithm 3: random-delay multiplexing of b Algorithm-1 executions.
//
// Logical time is divided into windows of `slot_count` physical rounds.
// Instance a starts at window delays[a] and follows Algorithm 1's fixed
// schedule (scales × (cap+2) windows). Announcements due in a window
// are queued at its slot 0 and transmitted one per slot; more than
// `slot_count` due messages is the algorithm's failure event.
//
// A node runs every round while its queue holds messages. Otherwise it
// sleeps until the next slot-0 window in which some instance reaches a
// scale boundary or has an announcement due, and failing both until the
// schedule's last round, where it finishes. The O(b) instance scan runs
// only in those slot-0 windows; an arrival in between lowers the next
// due window in O(1).
// ---------------------------------------------------------------------

class MultiSourceProgram final : public NodeProgram {
 public:
  MultiSourceProgram(const std::vector<NodeId>& sources,
                     const std::vector<std::uint64_t>& delays,
                     const ScaleSchedule& schedule,
                     std::uint32_t slot_count)
      : sources_(&sources),
        delays_(&delays),
        sigma_(schedule.sigma),
        cap_(schedule.cap),
        period_(cap_ + 2),
        slot_count_(slot_count),
        inst_bits_(bits_for(sources.size() + 1)),
        dist_bits_(schedule.dist_bits),
        unit_weights_(schedule.unit_weights) {
    t_logical_ = schedule.scales * period_;
    const std::uint64_t max_delay =
        *std::max_element(delays.begin(), delays.end());
    last_round_ = (max_delay + t_logical_ + 1) * slot_count_ - 1;
    const std::size_t b = sources.size();
    cur_.assign(b, kInfDist);
    announced_.assign(b, false);
    dtilde_.assign(b, kInfDist);
  }

  void on_start(NodeContext& ctx) override {
    weights_.reserve(ctx.neighbors().size());
    for (const HalfEdge& h : ctx.neighbors()) {
      weights_.push_back(unit_weights_ ? 1 : h.weight);
    }
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    const std::uint64_t round = ctx.round();
    const std::uint64_t window = round / slot_count_;
    const bool slot0 = round % slot_count_ == 0;

    if (slot0) {
      // Per-instance schedule updates: finalize completed scales, reset
      // state at scale starts, enqueue due announcements.
      for (std::size_t a = 0; a < sources_->size(); ++a) {
        if (window < (*delays_)[a]) continue;
        const std::uint64_t tau = window - (*delays_)[a];
        if (tau > t_logical_) continue;
        if (tau > 0 && tau % period_ == 0) {
          // Scale (tau/period - 1) just ended.
          finalize_scale(a, static_cast<std::uint32_t>(tau / period_ - 1));
        }
        if (tau == t_logical_) continue;  // instance finished
        if (tau % period_ == 0) {
          cur_[a] = (ctx.id() == (*sources_)[a]) ? 0 : kInfDist;
          announced_[a] = false;
        }
      }
    }

    // Relax with this round's arrivals. An arrival for instance a in
    // window w belongs to scale (w - delay)/period — announcements are
    // never sent at a scale's last offset, so arrivals cannot leak
    // across scale boundaries (see distributed.h header comment).
    for (const Incoming& in : inbox) {
      const std::size_t a = static_cast<std::size_t>(in.msg.field(0));
      QC_CHECK(a < sources_->size(), "bad instance tag");
      QC_CHECK(window >= (*delays_)[a], "arrival before instance start");
      const std::uint64_t tau = window - (*delays_)[a];
      QC_CHECK(tau < t_logical_, "arrival after instance end");
      const Dist via = dist_add(
          in.msg.field(1),
          ceil_div(sigma_ * weights_[in.slot],
                   std::uint64_t{1} << (tau / period_)));
      cur_[a] = std::min(cur_[a], via);
      // This window's slot 0 has passed (or is being served now), so
      // only a later offset of the same scale can still announce; else
      // the instance's next event is its scale boundary, which the last
      // scan already counted.
      const std::uint64_t offset = tau % period_;
      const Dist due =
          next_wake_offset(announced_[a], cur_[a], cap_, offset + 1, period_);
      next_event_ = std::min(next_event_, window - offset + due);
    }

    if (slot0) {
      // Announcement checks for this window, and the next event window.
      next_event_ = kNoEvent;
      for (std::size_t a = 0; a < sources_->size(); ++a) {
        if (window < (*delays_)[a]) {
          next_event_ = std::min(next_event_, (*delays_)[a]);
          continue;
        }
        const std::uint64_t tau = window - (*delays_)[a];
        if (tau >= t_logical_) continue;
        const std::uint64_t offset = tau % period_;
        if (!announced_[a] && cur_[a] == offset && cur_[a] <= cap_) {
          announced_[a] = true;
          Message m;
          m.push(a, inst_bits_).push(cur_[a], dist_bits_);
          queue_.push_back(std::move(m));
        }
        // The instance's next event: a pending announcement, else its
        // scale boundary.
        const Dist due =
            next_wake_offset(announced_[a], cur_[a], cap_, offset + 1, period_);
        next_event_ = std::min(next_event_, window - offset + due);
      }
      if (queue_.size() > slot_count_) {
        throw AlgorithmFailure(
            "Algorithm 3: more than ceil(log n) announcements due in one "
            "window at node " +
            std::to_string(ctx.id()));
      }
    }

    if (!queue_.empty()) {
      ctx.broadcast(queue_.front());
      queue_.erase(queue_.begin());
    }
    if (round >= last_round_) {
      finished_ = true;
      return;
    }
    if (!queue_.empty()) return;  // the next slot sends the next one
    ctx.sleep_until(next_event_ == kNoEvent ? last_round_
                                            : next_event_ * slot_count_);
  }

  bool done() const override { return finished_; }

  Dist approx(std::size_t a) const { return dtilde_[a]; }

 private:
  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};

  void finalize_scale(std::size_t a, std::uint32_t j) {
    if (cur_[a] > cap_) return;
    dtilde_[a] = std::min(dtilde_[a], scaled_label(cur_[a], j));
  }

  const std::vector<NodeId>* sources_;
  const std::vector<std::uint64_t>* delays_;
  std::uint64_t sigma_;
  Dist cap_;
  std::uint64_t period_;
  std::uint64_t slot_count_;
  std::uint32_t inst_bits_;
  std::uint32_t dist_bits_;
  bool unit_weights_;
  std::uint64_t t_logical_ = 0;
  std::uint64_t last_round_ = 0;  ///< where every node finishes
  std::vector<Weight> weights_;  ///< base weights, by neighbour slot
  std::vector<Dist> cur_;
  std::vector<bool> announced_;
  std::vector<Dist> dtilde_;
  std::vector<Message> queue_;
  /// Earliest window after the last slot-0 scan with a scale boundary
  /// or a due announcement (kNoEvent: none before last_round_).
  std::uint64_t next_event_ = kNoEvent;
  bool finished_ = false;
};

/// Algorithms 3 and 4 keep per-source state indexed by member, so a
/// source past n or a repeated one corrupts it without a sign. Rejects
/// either before any round, naming `entry` and the source.
void require_distinct_sources(const std::string& entry,
                              const std::vector<NodeId>& sources, NodeId n) {
  std::vector<bool> seen(n, false);
  for (const NodeId s : sources) {
    QC_REQUIRE(s < n, entry + ": source " + std::to_string(s) +
                          " is not a node (n = " + std::to_string(n) + ")");
    QC_REQUIRE(!seen[s], entry + ": source " + std::to_string(s) +
                             " appears twice");
    seen[s] = true;
  }
}

// Algorithm 3's attempt loop, shared by both of its entry points.
MultiSourceResult run_multi_source(const std::string& entry,
                                   const WeightedGraph& g,
                                   const RunRequest& req,
                                   const ScaleSchedule& schedule) {
  QC_REQUIRE(req.rng != nullptr,
             "Algorithm 3 needs RunRequest::rng (with_rng) for its delays");
  const std::vector<NodeId>& sources = req.sources;
  Rng& rng = *req.rng;
  const Config& config = req.config;
  QC_REQUIRE(!sources.empty(), "Algorithm 3 needs at least one source");
  const NodeId n = g.node_count();
  require_distinct_sources(entry, sources, n);
  const std::size_t b = sources.size();
  const std::uint32_t slot_count = std::max<std::uint32_t>(1, clog2(n));

  MultiSourceResult out;
  for (std::uint32_t attempt = 1;; ++attempt) {
    // The leader samples the delays and disseminates them by pipelined
    // flooding (O(D + b) rounds), as in the paper's Algorithm 3 step 2.
    std::vector<std::uint64_t> delays(b);
    const std::uint64_t delay_range = b * slot_count + 1;
    for (auto& d : delays) d = rng.below(delay_range);

    std::vector<std::vector<FloodItem>> items(n);
    const std::uint32_t idx_bits = bits_for(b + 1);
    const std::uint32_t delay_bits = bits_for(delay_range + 1);
    for (std::size_t a = 0; a < b; ++a) {
      FloodItem item;
      item.push(a, idx_bits).push(delays[a], delay_bits);
      items[0].push_back(std::move(item));  // leader = node 0
    }
    out.stats += congest::flood_items(g, std::move(items), config,
                                      congest::FloodCollect::kStatsOnly)
                     .stats;

    try {
      auto run = congest::run_on_all<MultiSourceProgram>(
          g,
          [&](NodeId) {
            return std::make_unique<MultiSourceProgram>(sources, delays,
                                                        schedule, slot_count);
          },
          config);
      out.stats += run.stats;
      out.attempts = attempt;
      out.approx.assign(b, std::vector<Dist>(n, kInfDist));
      for (NodeId v = 0; v < n; ++v) {
        for (std::size_t a = 0; a < b; ++a) {
          out.approx[a][v] = run.at(v).approx(a);
        }
      }
      return out;
    } catch (const AlgorithmFailure&) {
      // Charge the full scheduled duration of the failed attempt, then
      // retry with fresh delays (failure probability <= 1/poly(n)).
      const std::uint64_t t_logical = schedule.scales * (schedule.cap + 2);
      out.stats.rounds += (b * slot_count + t_logical + 1) * slot_count;
      QC_CHECK(attempt < 64, "Algorithm 3 failed too many times");
    }
  }
}

}  // namespace

BoundedDistanceResult distributed_bounded_distance_sssp(
    const WeightedGraph& g, const RunRequest& req) {
  return run_timed_release(g, req,
                           {.sigma = 1,
                            .scales = 1,
                            .cap = req.cap,
                            .dist_bits = bits_for(req.cap + 2),
                            .unit_weights = false},
                           /*stop_at_announce=*/false);
}

BoundedDistanceResult distributed_weighted_sssp(const WeightedGraph& g,
                                                const RunRequest& req) {
  QC_REQUIRE(g.is_connected(), "weighted SSSP needs a connected network");
  const Dist cap = static_cast<Dist>(g.node_count()) * g.max_weight();
  return run_timed_release(
      g, req,
      {.sigma = 1,
       .scales = 1,
       .cap = cap,
       .dist_bits = std::min<std::uint32_t>(63, bits_for(cap + 2)),
       .unit_weights = false},
      /*stop_at_announce=*/true);
}

BoundedHopResult distributed_bounded_hop_sssp(const WeightedGraph& g,
                                              const RunRequest& req) {
  auto run = run_timed_release(g, req, hop_schedule(req.scale),
                               /*stop_at_announce=*/false);
  return {run.stats, std::move(run.dist)};
}

MultiSourceResult distributed_multi_source_bhs(const WeightedGraph& g,
                                               const RunRequest& req) {
  return run_multi_source("distributed_multi_source_bhs", g, req,
                          hop_schedule(req.scale));
}

MultiSourceResult distributed_multi_source_hop_bfs(const WeightedGraph& g,
                                                   const RunRequest& req) {
  QC_REQUIRE(req.cap >= 1, "hop-distance BFS needs a cap >= 1");
  return run_multi_source("distributed_multi_source_hop_bfs", g, req,
                          {.sigma = 1,
                           .scales = 1,
                           .cap = req.cap - 1,
                           .dist_bits = bits_for(req.cap + 2),
                           .unit_weights = true});
}

OverlayEmbedding distributed_embed_overlay(
    const WeightedGraph& g, const std::vector<std::vector<Dist>>& approx_rows,
    const RunRequest& req) {
  QC_REQUIRE(req.params != nullptr,
             "Algorithm 4 needs RunRequest::params (with_params)");
  const std::vector<NodeId>& sources = req.sources;
  const Params& params = *req.params;
  const Config& config = req.config;
  const std::size_t b = sources.size();
  QC_REQUIRE(b >= 1, "overlay needs at least one member");
  QC_REQUIRE(approx_rows.size() == b, "one approx row per member");
  const NodeId n = g.node_count();
  require_distinct_sources("distributed_embed_overlay", sources, n);
  for (const auto& row : approx_rows) {
    QC_REQUIRE(row.size() == n,
               "distributed_embed_overlay: an approx row has " +
                   std::to_string(row.size()) + " entries, not n = " +
                   std::to_string(n));
  }

  OverlayEmbedding out;
  out.sources = sources;

  // w1 rows: member a reads d̃(S[c], a) from its Algorithm-3 output. d̃
  // is symmetric in exact arithmetic; symmetrize defensively.
  out.w1.assign(b, std::vector<Dist>(b, kInfDist));
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = 0; c < b; ++c) {
      if (a != c) out.w1[a][c] = approx_rows[c][sources[a]];
    }
  }
  for (std::size_t a = 0; a < b; ++a) {
    for (std::size_t c = a + 1; c < b; ++c) {
      const Dist m = std::min(out.w1[a][c], out.w1[c][a]);
      out.w1[a][c] = out.w1[c][a] = m;
    }
  }

  // Step 1: each member floods its k shortest incident overlay edges.
  const HopScale base{params.ell, params.eps_inv, g.max_weight()};
  const std::uint64_t w_bound = scaled_distance_bound(g, base);
  const std::uint32_t idx_bits = bits_for(b + 1);
  const std::uint32_t w_bits = bits_for(w_bound + 1);

  std::vector<std::vector<FloodItem>> items(n);
  std::vector<std::uint32_t> pick;
  for (std::uint32_t a = 0; a < b; ++a) {
    lightest_k(out.w1[a], a, params.k, pick);
    for (const std::uint32_t c : pick) {
      FloodItem item;
      item.push(a, idx_bits).push(c, idx_bits).push(out.w1[a][c], w_bits);
      items[sources[a]].push_back(std::move(item));
    }
  }
  auto flood = congest::flood_items(g, std::move(items), config,
                                    congest::FloodCollect::kFirstNode);
  out.stats += flood.stats;

  // Every node now holds the same star union H; reconstruct it from the
  // flood output of node 0 (tests assert all nodes agree).
  std::vector<std::vector<Dist>> h(b, std::vector<Dist>(b, kInfDist));
  for (const FloodItem& item : flood.items_at[0]) {
    const auto a = static_cast<std::size_t>(item.field(0));
    const auto c = static_cast<std::size_t>(item.field(1));
    const Dist w = item.field(2);
    QC_CHECK(a < b && c < b && a != c, "malformed overlay edge item");
    h[a][c] = std::min(h[a][c], w);
    h[c][a] = std::min(h[c][a], w);
  }

  // Observation 3.12: N^k and the shortcut distances are computed
  // locally from H (identically at every node).
  out.w2 = out.w1;
  shortcut_step(h, params.k, out.w2, &out.nearest_k, pick);

  // Disseminate max w″ (for Algorithm 5's scale count) by a global
  // aggregate; partial values are bounded by w_bound.
  std::vector<std::uint64_t> inputs(n, 0);
  for (std::size_t a = 0; a < b; ++a) {
    std::uint64_t row_max = 0;
    for (std::size_t c = 0; c < b; ++c) {
      if (c != a && out.w2[a][c] < kInfDist) {
        row_max = std::max(row_max, out.w2[a][c]);
      }
    }
    inputs[sources[a]] = std::max(inputs[sources[a]], row_max);
  }
  auto agg = congest::global_aggregate(g, 0, inputs, congest::AggregateOp::kMax,
                                       w_bits, config);
  out.stats += agg.stats;
  out.max_w2 = std::max<std::uint64_t>(1, agg.value);
  return out;
}

OverlaySsspResult distributed_overlay_sssp(const WeightedGraph& g,
                                           const OverlayEmbedding& overlay,
                                           const RunRequest& req) {
  QC_REQUIRE(req.params != nullptr,
             "Algorithm 5 needs RunRequest::params (with_params)");
  const Params& params = *req.params;
  const std::uint32_t source_idx = req.overlay_source;
  const Config& config = req.config;
  const std::size_t b = overlay.sources.size();
  QC_REQUIRE(source_idx < b, "overlay source out of range");
  const NodeId n = g.node_count();

  const HopScale hs{params.overlay_ell(b), params.eps_inv, overlay.max_w2};
  const Dist cap = hs.rounded_cap();
  const std::uint32_t scales = hs.scale_count();
  const std::uint32_t idx_bits = bits_for(b + 1);
  const std::uint32_t d_bits = bits_for(cap + 2);

  OverlaySsspResult out;
  out.approx.assign(b, kInfDist);

  // Each overlay round's sub-run: "count a and make every node know a in
  // O(D_G) rounds" (a counting aggregate), then, if a > 0, the flood of
  // the a announcements (O(D_G + a) rounds), after which every node
  // records them at scale j.
  struct SubRun {
    std::uint32_t scale;
    std::vector<std::pair<std::uint32_t, Dist>> due;
    std::uint64_t rounds = 1;  ///< overlay rounds this sub-run stands for
    congest::RunStats stats;
    std::exception_ptr failure;
  };
  std::vector<SubRun> runs;  // in round order

  // Pass 1, the relaxation. Conceptually, cur[a] lives at node
  // overlay.sources[a]; relaxations use only a's own w″ row plus
  // globally flooded announcements, so the dataflow matches the real
  // distributed execution exactly. A sub-run feeds back only its checks,
  // so this pass lists every round's due announcements before any
  // sub-run starts.
  //
  // Most of the scales·(cap+1) overlay rounds announce nothing: their
  // counting aggregate runs with all-zero inputs, and the simulator is
  // deterministic, so one such run, at the first quiet round, stands for
  // all of them. Under a fault plan every quiet round runs its own
  // aggregate, whose injected effects are the point of running it.
  const bool share_quiet_run = config.faults.empty();
  std::optional<std::size_t> quiet_run;
  std::vector<Dist> cur(b, kInfDist);
  for (std::uint32_t j = 0; j < scales; ++j) {
    std::fill(cur.begin(), cur.end(), kInfDist);
    cur[source_idx] = 0;
    std::vector<bool> announced(b, false);
    for (Dist offset = 0; offset <= cap; ++offset) {
      std::vector<std::pair<std::uint32_t, Dist>> due;
      for (std::uint32_t a = 0; a < b; ++a) {
        if (!announced[a] && cur[a] == offset) {
          announced[a] = true;
          due.emplace_back(a, cur[a]);
        }
      }
      const bool shared = due.empty() && share_quiet_run;
      if (shared && quiet_run) {
        ++runs[*quiet_run].rounds;
        continue;
      }
      if (shared) quiet_run = runs.size();
      runs.push_back({j, std::move(due), 1, {}, nullptr});

      // Overlay members relax their own state with their private w″ row
      // (the labels d·2^j are folded below, after the round's sub-run).
      for (const auto& [a, d] : runs.back().due) {
        for (std::uint32_t c = 0; c < b; ++c) {
          if (c == a || overlay.w2[c][a] >= kInfDist) continue;
          const Dist via = dist_add(d, hs.rounded_weight(overlay.w2[c][a], j));
          cur[c] = std::min(cur[c], via);
        }
      }
    }
  }

  // Pass 2, the sub-runs: concurrently on the request's pool, each on a
  // serial engine. Every run keeps its own failure, so the rethrow below
  // picks the lowest round's, as a sequential run would throw it; runs
  // past a known failure are skipped, since they cannot change it.
  Config serial = config;
  serial.execution.pool = nullptr;
  serial.execution.workers = 1;
  std::atomic<std::size_t> first_failure{runs.size()};
  runtime::parallel_for(config.execution.pool, runs.size(), [&](std::size_t i) {
    if (i > first_failure.load(std::memory_order_relaxed)) return;
    SubRun& run = runs[i];
    try {
      std::vector<std::uint64_t> counts(n, 0);
      for (const auto& [a, d] : run.due) counts[overlay.sources[a]] += 1;
      const auto agg = congest::global_aggregate(
          g, 0, counts, congest::AggregateOp::kSum, idx_bits, serial);
      QC_CHECK(agg.value == run.due.size(), "announcement count mismatch");
      run.stats = agg.stats;
      if (run.due.empty()) return;
      std::vector<std::vector<FloodItem>> items(n);
      for (const auto& [a, d] : run.due) {
        FloodItem item;
        item.push(a, idx_bits).push(d, d_bits);
        items[overlay.sources[a]].push_back(std::move(item));
      }
      run.stats += congest::flood_items(g, std::move(items), serial,
                                        congest::FloodCollect::kStatsOnly)
                       .stats;
    } catch (...) {
      run.failure = std::current_exception();
      std::size_t seen = first_failure.load(std::memory_order_relaxed);
      while (i < seen && !first_failure.compare_exchange_weak(seen, i)) {
      }
    }
  });
  for (const SubRun& run : runs) {
    if (run.failure) std::rethrow_exception(run.failure);
    for (const auto& [a, d] : run.due) {
      out.approx[a] = std::min(out.approx[a], scaled_label(d, run.scale));
    }
    for (std::uint64_t r = 0; r < run.rounds; ++r) out.stats += run.stats;
  }
  return out;
}

}  // namespace qc::paths
