#include "congest/primitives.h"

#include <algorithm>
#include <deque>
#include <map>

namespace qc::congest {

namespace {

// ---------------------------------------------------------------------
// BFS tree
// ---------------------------------------------------------------------

// Wire format: {type:1}{payload}. type 0 = announce(depth), type 1 =
// adopt (no payload). `horizon` is the liveness check: an unreached
// node gives up in round horizon - 1, read from ctx.round(), instead
// of waiting forever, so a build cut off by crash-stop faults
// terminates and reports its unreached set. Fault-free the horizon
// (> any possible depth) never fires and behaviour is bit-for-bit what
// it was without it. An unreached node has nothing to do until mail
// comes or it gives up, so it sleeps until its give-up round.
class BfsTreeProgram final : public NodeProgram {
 public:
  BfsTreeProgram(NodeId root, std::uint32_t depth_bits, std::uint64_t horizon)
      : root_(root), depth_bits_(depth_bits), horizon_(horizon) {}

  void on_start(NodeContext& ctx) override {
    if (ctx.id() == root_) {
      result_.parent = kNoParent;
      result_.depth = 0;
      Message announce;
      announce.push(0, 1).push(0, depth_bits_);
      ctx.broadcast(announce);
    } else {
      ctx.sleep_until(horizon_ - 1);
    }
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    for (const Incoming& in : inbox) {
      const std::uint64_t type = in.msg.field(0);
      if (type == 0 && result_.depth == kInfDist) {
        // First announce wins; tie-break on sender id is irrelevant for
        // depth correctness (all same-round announces carry equal depth).
        result_.parent = in.from;
        result_.depth = in.msg.field(1) + 1;
        Message announce;
        announce.push(0, 1).push(result_.depth, depth_bits_);
        ctx.broadcast(announce);
        Message adopt;
        adopt.push(1, 1);
        ctx.send_to_slot(in.slot, adopt);
      } else if (type == 1 && (result_.children.empty() ||
                               result_.children.back() != in.from)) {
        // A child adopts once; a duplicated adopt's two copies sit next
        // to each other in the row (a delayed message is never
        // duplicated), so comparing with the last child drops the copy.
        result_.children.push_back(in.from);
      }
    }
    if (result_.depth != kInfDist) return;
    if (ctx.round() + 1 >= horizon_) {
      gave_up_ = true;
    } else {
      ctx.sleep_until(horizon_ - 1);
    }
  }

  bool done() const override {
    return result_.depth != kInfDist || gave_up_;
  }

  const BfsTreeNodeResult& result() const { return result_; }

 private:
  NodeId root_;
  std::uint32_t depth_bits_;
  std::uint64_t horizon_;
  bool gave_up_ = false;
  BfsTreeNodeResult result_;
};

// ---------------------------------------------------------------------
// Global aggregate (convergecast + downcast on a fresh BFS tree)
// ---------------------------------------------------------------------

// Wire format: {type:2}{payload}. type 0 = announce(depth), type 1 =
// adopt, type 2 = up(partial), type 3 = down(final). A node reports up
// once its children are known (two rounds after its adoption round)
// and all of them have reported. An adopt that reaches a node after it
// reported up means that child's input is missing from the value, so
// the node marks itself failed. `horizon` is the liveness check, read
// from ctx.round(): a node still without a value then gives up, so a
// run that lost messages ends instead of spinning to max_rounds.
// Fault-free neither fires. Between its own events a node sleeps:
// until the round its children are known while it waits for it, and
// otherwise until the horizon. Everything else it waits for is mail,
// which wakes it.
class AggregateProgram final : public NodeProgram {
 public:
  AggregateProgram(NodeId root, std::uint64_t input, AggregateOp op,
                   std::uint32_t depth_bits, std::uint32_t value_bits,
                   std::uint64_t horizon)
      : root_(root),
        op_(op),
        depth_bits_(depth_bits),
        value_bits_(value_bits),
        horizon_(horizon),
        partial_(input) {}

  void on_start(NodeContext& ctx) override {
    if (ctx.id() == root_) {
      adopt_round_ = ctx.round();
      Message announce;
      announce.push(0, 2).push(0, depth_bits_);
      ctx.broadcast(announce);
    }
    sleep_until_next_event(ctx);
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    for (const Incoming& in : inbox) {
      switch (in.msg.field(0)) {
        case 0:  // announce(depth)
          if (adopt_round_ == kNotAdopted) {
            adopt_round_ = ctx.round();
            parent_ = in.slot;
            Message announce;
            announce.push(0, 2).push(in.msg.field(1) + 1, depth_bits_);
            ctx.broadcast(announce);
            Message adopt;
            adopt.push(1, 2);
            ctx.send_to_slot(in.slot, adopt);
          }
          break;
        case 1:  // adopt
          failed_ = failed_ || sent_up_;
          children_.push_back(in.slot);
          break;
        case 2:  // up(partial)
          partial_ = fold(partial_, in.msg.field(1));
          ++reports_;
          break;
        case 3:  // down(final)
          if (!final_.has_value()) {
            final_ = in.msg.field(1);
            push_down(ctx);
          }
          break;
        default:
          throw ModelError("AggregateProgram: unknown message type");
      }
    }

    // Children membership is final two rounds after adoption: we adopt
    // in round t, our announce is delivered in t+1, children adopt in
    // t+1, and their adopt messages land in round t+2 (the inbox is
    // processed before this check).
    if (adopt_round_ != kNotAdopted && !sent_up_ &&
        ctx.round() >= adopt_round_ + 2 && reports_ == children_.size()) {
      sent_up_ = true;
      if (ctx.id() == root_ || parent_ == EdgeSlotIndex::kNoSlot) {
        final_ = partial_;
        push_down(ctx);
      } else {
        Message up;
        up.push(2, 2).push(partial_, value_bits_);
        ctx.send_to_slot(parent_, up);
      }
    }
    gave_up_ = gave_up_ || (!final_.has_value() && ctx.round() >= horizon_);
    if (!done()) sleep_until_next_event(ctx);
  }

  bool done() const override { return final_.has_value() || gave_up_; }

  /// The aggregate this node learned, or nothing when it gave up or
  /// knows a child's input is missing.
  std::optional<std::uint64_t> value() const {
    return failed_ ? std::nullopt : final_;
  }

 private:
  static constexpr std::uint64_t kNotAdopted = ~std::uint64_t{0};

  std::uint64_t fold(std::uint64_t a, std::uint64_t b) const {
    switch (op_) {
      case AggregateOp::kMin: return std::min(a, b);
      case AggregateOp::kMax: return std::max(a, b);
      case AggregateOp::kSum: return a + b;
    }
    throw InvariantError("unreachable aggregate op");
  }

  void push_down(NodeContext& ctx) {
    Message down;
    down.push(3, 2).push(*final_, value_bits_);
    for (const std::uint32_t child : children_) ctx.send_to_slot(child, down);
  }

  // A live node's next event without mail: the round its children are
  // known, if it has adopted and not yet passed it, else the horizon.
  // Called at the end of on_start and of every activation that leaves
  // the node live, so the wake round is at least the next round.
  void sleep_until_next_event(NodeContext& ctx) const {
    std::uint64_t wake = horizon_;
    if (adopt_round_ != kNotAdopted && ctx.round() < adopt_round_ + 2) {
      wake = std::min(wake, adopt_round_ + 2);
    }
    ctx.sleep_until(wake);
  }

  NodeId root_;
  AggregateOp op_;
  std::uint32_t depth_bits_;
  std::uint32_t value_bits_;
  std::uint64_t horizon_;
  // The tree edges, as slots of neighbors(): every send on them is a
  // send_to_slot.
  std::uint32_t parent_ = EdgeSlotIndex::kNoSlot;
  bool sent_up_ = false;
  bool failed_ = false;
  bool gave_up_ = false;
  std::vector<std::uint32_t> children_;
  std::uint64_t adopt_round_ = kNotAdopted;
  std::size_t reports_ = 0;
  std::uint64_t partial_;
  std::optional<std::uint64_t> final_;
};

// One program per node: 16 more bytes per aggregate node once cost
// qcbench big_ingest (n = 2^18) about 29 MB of peak RSS, so sleeping
// keeps the sizes the programs had when they ran every round.
static_assert(sizeof(BfsTreeProgram) == 72 && sizeof(AggregateProgram) == 104,
              "per-node program state grew");

// ---------------------------------------------------------------------
// Pipelined flooding
// ---------------------------------------------------------------------

// Relays one unseen item per round to all neighbours. With k items total
// this completes within O(D + k) rounds (Topkis-style pipelined
// flooding). Items are relayed verbatim; dedup keys on field contents,
// and results are sorted by them (compare_values).
class FloodProgram final : public NodeProgram {
 public:
  explicit FloodProgram(std::vector<FloodItem> initial) {
    for (FloodItem& item : initial) learn(item);
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    for (const Incoming& in : inbox) learn(in.msg);
    if (relayed_ < items_.size()) ctx.broadcast(items_[relayed_++]);
  }

  bool done() const override { return relayed_ == items_.size(); }

  std::vector<FloodItem> known_sorted() const {
    std::vector<FloodItem> out;
    out.reserve(sorted_.size());
    for (const std::uint32_t i : sorted_) out.push_back(items_[i]);
    return out;
  }

 private:
  // Every delivered copy of every item lands here (Theta(m * items)
  // calls per flood), so the duplicate check allocates nothing: a
  // binary search of the sorted index compares fields in place, and
  // only a new item pays for a copy and an O(k) index insert (library
  // floods carry at most b·k items).
  void learn(const FloodItem& item) {
    std::size_t lo = 0;
    std::size_t hi = sorted_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const auto c = compare_values(items_[sorted_[mid]], item);
      if (c == 0) return;  // a copy of a known item
      if (c < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    sorted_.insert(sorted_.begin() + static_cast<std::ptrdiff_t>(lo),
                   static_cast<std::uint32_t>(items_.size()));
    items_.push_back(item);
  }

  std::vector<FloodItem> items_;      // learn order; [relayed_, end) queued
  std::size_t relayed_ = 0;
  std::vector<std::uint32_t> sorted_;  // positions in items_, by content
};

std::vector<std::uint64_t> flood_key(const Message& m) {
  std::vector<std::uint64_t> key(m.field_count());
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = m.field(i);
  return key;
}

// Relaying dedups by content, so two identical injected payloads would
// silently collapse into one item. Fail loudly at injection instead.
void require_distinct_payloads(
    const std::vector<std::vector<FloodItem>>& initial) {
  std::map<std::vector<std::uint64_t>, NodeId> owner;
  for (NodeId v = 0; v < initial.size(); ++v) {
    for (const FloodItem& item : initial[v]) {
      const auto [it, inserted] = owner.emplace(flood_key(item), v);
      if (!inserted) {
        throw AlgorithmFailure(
            "flood: duplicate payload injected at node " +
            std::to_string(it->second) + " and node " + std::to_string(v) +
            " — flooding dedups by content, so payloads must be globally "
            "distinct (give items an id field)");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Acked flooding (fault-tolerant dissemination)
// ---------------------------------------------------------------------

// Wire format: {type:1}{item fields}. type 0 = data, type 1 = ack
// (echoing the item's fields). Every node keeps, per known item and
// per neighbour, whether that neighbour has acknowledged the item; an
// unacked (item, neighbour) pair is retransmitted after
// timeout << min(attempts, 6) rounds. Receiving data(i) from a
// neighbour both acks i *to* that neighbour and marks the neighbour as
// having i (it clearly does); a retransmission of an already-known item
// is re-acked, which recovers dropped acks. At most one data and one
// ack message per edge per round (the wrapper checks 2·(bits+1) <= B).
// A done node that receives a retransmission is reactivated by the
// engine and re-acks — that is what lets the whole network quiesce.
class ReliableFloodProgram final : public NodeProgram {
 public:
  ReliableFloodProgram(std::vector<FloodItem> initial,
                       std::uint64_t timeout_rounds)
      : timeout_(timeout_rounds) {
    for (FloodItem& item : initial) {
      const auto key = flood_key(item);
      if (index_.emplace(key, items_.size()).second) {
        items_.push_back(ItemState{std::move(item), {}, {}, {}});
      }
    }
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    const std::size_t degree = ctx.neighbors().size();
    if (!init_) {
      init_ = true;
      ack_queue_.resize(degree);
      for (ItemState& st : items_) init_slots(st, degree);
    }

    for (const Incoming& in : inbox) {
      const std::uint64_t type = in.msg.field(0);
      Message payload;
      for (std::size_t i = 1; i < in.msg.field_count(); ++i) {
        payload.push(in.msg.field(i), in.msg.field_width(i));
      }
      const auto key = flood_key(payload);
      if (type == 0) {
        // data: learn if new, always (re-)ack, and note the sender has it.
        auto it = index_.find(key);
        if (it == index_.end()) {
          it = index_.emplace(key, items_.size()).first;
          items_.push_back(ItemState{std::move(payload), {}, {}, {}});
          init_slots(items_.back(), degree);
        }
        ItemState& st = items_[it->second];
        st.acked[in.slot] = 1;
        ack_queue_[in.slot].push_back(it->second);
      } else {
        // ack: the neighbour confirmed receipt. A corrupted ack may name
        // an item we never sent — ignore it; the retry path recovers.
        const auto it = index_.find(key);
        if (it != index_.end()) items_[it->second].acked[in.slot] = 1;
      }
    }

    // Per neighbour: at most one ack and one data retransmission.
    const std::uint64_t now = ctx.round();
    for (std::uint32_t s = 0; s < degree; ++s) {
      if (!ack_queue_[s].empty()) {
        const std::size_t idx = ack_queue_[s].front();
        ack_queue_[s].pop_front();
        ctx.send_to_slot(s, with_type(items_[idx].item, 1));
      }
      for (std::size_t idx = 0; idx < items_.size(); ++idx) {
        ItemState& st = items_[idx];
        if (st.acked[s] != 0 || st.next_retry[s] > now) continue;
        ctx.send_to_slot(s, with_type(st.item, 0));
        st.next_retry[s] =
            now + (timeout_ << std::min<std::uint32_t>(st.attempts[s], 6));
        ++st.attempts[s];
        break;
      }
    }
  }

  bool done() const override {
    if (!init_) return false;
    for (const auto& q : ack_queue_) {
      if (!q.empty()) return false;
    }
    for (const ItemState& st : items_) {
      for (const char a : st.acked) {
        if (a == 0) return false;
      }
    }
    return true;
  }

  std::vector<FloodItem> known_sorted() const {
    std::vector<FloodItem> out;
    out.reserve(index_.size());
    for (const auto& [key, idx] : index_) out.push_back(items_[idx].item);
    return out;
  }

 private:
  struct ItemState {
    FloodItem item;
    std::vector<char> acked;               ///< per neighbour slot
    std::vector<std::uint64_t> next_retry; ///< round of next send
    std::vector<std::uint32_t> attempts;   ///< backoff exponent
  };

  static void init_slots(ItemState& st, std::size_t degree) {
    st.acked.assign(degree, 0);
    st.next_retry.assign(degree, 0);
    st.attempts.assign(degree, 0);
  }

  static Message with_type(const FloodItem& item, std::uint64_t type) {
    Message m;
    m.push(type, 1);
    for (std::size_t i = 0; i < item.field_count(); ++i) {
      m.push(item.field(i), item.field_width(i));
    }
    return m;
  }

  std::uint64_t timeout_;
  bool init_ = false;
  std::map<std::vector<std::uint64_t>, std::size_t> index_;
  std::vector<ItemState> items_;  ///< insertion order (= retry priority)
  std::vector<std::deque<std::size_t>> ack_queue_;  ///< per neighbour slot
};

// ---------------------------------------------------------------------
// Leader election (min-id flooding, fixed horizon)
// ---------------------------------------------------------------------
class ElectionProgram final : public NodeProgram {
 public:
  ElectionProgram(std::uint64_t horizon, std::uint32_t id_bits)
      : horizon_(horizon), id_bits_(id_bits) {}

  void on_start(NodeContext& ctx) override {
    best_ = ctx.id();
    Message m;
    m.push(best_, id_bits_);
    ctx.broadcast(m);
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    bool improved = false;
    for (const Incoming& in : inbox) {
      const auto cand = static_cast<NodeId>(in.msg.field(0));
      if (cand < best_) {
        best_ = cand;
        improved = true;
      }
    }
    if (improved && round_ + 1 < horizon_) {
      Message m;
      m.push(best_, id_bits_);
      ctx.broadcast(m);
    }
    ++round_;
  }

  bool done() const override { return round_ >= horizon_; }

  NodeId leader() const { return best_; }

 private:
  std::uint64_t horizon_;
  std::uint32_t id_bits_;
  NodeId best_ = 0;
  std::uint64_t round_ = 0;
};

}  // namespace

ElectionResult elect_leader(const WeightedGraph& g, std::uint64_t horizon,
                            Config config) {
  QC_REQUIRE(horizon >= 1, "election horizon must be >= 1");
  QC_REQUIRE(g.is_connected(), "election needs a connected network");
  const std::uint32_t id_bits = bits_for(g.node_count());
  auto run = run_on_all<ElectionProgram>(
      g,
      [&](NodeId) {
        return std::make_unique<ElectionProgram>(horizon, id_bits);
      },
      config);
  ElectionResult out;
  out.stats = run.stats;
  out.leader = run.at(0).leader();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    QC_CHECK(run.at(v).leader() == out.leader,
             "election did not converge — horizon below the diameter?");
  }
  return out;
}

BfsTreeResult build_bfs_tree(const WeightedGraph& g, NodeId root,
                             Config config) {
  QC_REQUIRE(root < g.node_count(), "root out of range");
  QC_REQUIRE(g.is_connected(), "BFS tree needs a connected network");
  const std::uint32_t depth_bits = bits_for(g.node_count());
  // Liveness horizon: any reachable node is announced within D < n
  // rounds, so 2n + 2 never fires fault-free but bounds a build whose
  // frontier was destroyed by crash-stop or link-down faults.
  const std::uint64_t horizon = 2 * std::uint64_t{g.node_count()} + 2;
  auto run = run_on_all<BfsTreeProgram>(
      g,
      [&](NodeId) {
        return std::make_unique<BfsTreeProgram>(root, depth_bits, horizon);
      },
      config);
  BfsTreeResult out;
  out.stats = run.stats;
  out.outcome = run.outcome;
  out.nodes.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.nodes.push_back(run.at(v).result());
    if (out.nodes.back().depth == kInfDist) out.unreached.push_back(v);
  }
  if (!out.unreached.empty()) {
    out.outcome.completed = false;
    out.outcome.diagnostic =
        "BFS tree incomplete: " + std::to_string(out.unreached.size()) +
        " of " + std::to_string(g.node_count()) +
        " nodes unreached (crashed nodes: " +
        std::to_string(out.outcome.faults.crashed_nodes) +
        ", deliveries lost to crashes: " +
        std::to_string(out.outcome.faults.crash_drops) +
        ", to link-down: " +
        std::to_string(out.outcome.faults.link_down_drops) + ")";
  }
  return out;
}

AggregateResult global_aggregate(const WeightedGraph& g, NodeId root,
                                 const std::vector<std::uint64_t>& inputs,
                                 AggregateOp op, std::uint32_t value_bits,
                                 Config config) {
  QC_REQUIRE(root < g.node_count(), "root out of range");
  QC_REQUIRE(inputs.size() == g.node_count(), "one input per node");
  QC_REQUIRE(g.is_connected(), "aggregate needs a connected network");
  if (!config.faults.empty()) {
    const FaultPlan& plan = config.faults;
    QC_REQUIRE(!(plan.probabilities.duplicate > 0.0 ||
                 plan.probabilities.corrupt > 0.0 ||
                 std::any_of(plan.events.begin(), plan.events.end(),
                             [](const FaultEvent& e) {
                               return e.kind == FaultKind::kDuplicate ||
                                      e.kind == FaultKind::kCorrupt;
                             })),
               "global_aggregate: the convergecast has no dedup and no "
               "checksum, so a fault plan may not duplicate or corrupt "
               "messages");
  }
  const std::uint32_t depth_bits = bits_for(g.node_count());
  // Liveness horizon: fault-free the downcast ends by round 3D + 1 <
  // 3n, so 4n + 8 never fires then but bounds a run that lost an
  // announce, an adopt, a report or a downcast.
  const std::uint64_t horizon = 4 * std::uint64_t{g.node_count()} + 8;
  auto run = run_on_all<AggregateProgram>(
      g,
      [&](NodeId v) {
        return std::make_unique<AggregateProgram>(root, inputs[v], op,
                                                  depth_bits, value_bits,
                                                  horizon);
      },
      config);
  std::vector<NodeId> missing;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!run.at(v).value()) missing.push_back(v);
  }
  if (!missing.empty()) {
    std::string names;
    for (std::size_t i = 0; i < missing.size() && i < 16; ++i) {
      names += (i ? ", " : "") + std::to_string(missing[i]);
    }
    if (missing.size() > 16) names += ", ...";
    throw AlgorithmFailure(
        "global aggregate failed: " + std::to_string(missing.size()) +
        " of " + std::to_string(g.node_count()) +
        " nodes without a value (" + names + ") after " +
        std::to_string(run.stats.rounds) + " rounds");
  }
  AggregateResult out;
  out.stats = run.stats;
  out.value = *run.at(root).value();
  // Sanity: every node must have learned the same value.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    QC_CHECK(run.at(v).value() == out.value,
             "aggregate disseminated inconsistently");
  }
  return out;
}

FloodResult flood_items(const WeightedGraph& g,
                        std::vector<std::vector<FloodItem>> initial,
                        Config config, FloodCollect collect) {
  QC_REQUIRE(initial.size() == g.node_count(), "one item list per node");
  QC_REQUIRE(g.is_connected(), "flooding needs a connected network");
  require_distinct_payloads(initial);
  const std::uint32_t bandwidth = config.bandwidth_bits != 0
                                      ? config.bandwidth_bits
                                      : default_bandwidth(g.node_count());
  for (const auto& items : initial) {
    for (const FloodItem& item : items) {
      QC_REQUIRE(item.bit_size() <= bandwidth,
                 "flood item does not fit in one CONGEST message");
    }
  }
  auto run = run_on_all<FloodProgram>(
      g,
      [&](NodeId v) { return std::make_unique<FloodProgram>(std::move(initial[v])); },
      config);
  FloodResult out;
  out.stats = run.stats;
  const NodeId read_out = collect == FloodCollect::kAllNodes ? g.node_count()
                          : collect == FloodCollect::kFirstNode
                              ? std::min<NodeId>(1, g.node_count())
                              : 0;
  out.items_at.reserve(read_out);
  for (NodeId v = 0; v < read_out; ++v) {
    out.items_at.push_back(run.at(v).known_sorted());
  }
  return out;
}

ReliableFloodResult flood_items_reliable(
    const WeightedGraph& g, std::vector<std::vector<FloodItem>> initial,
    std::uint64_t timeout_rounds, Config config) {
  QC_REQUIRE(initial.size() == g.node_count(), "one item list per node");
  QC_REQUIRE(g.is_connected(), "flooding needs a connected network");
  QC_REQUIRE(timeout_rounds >= 1, "retry timeout must be >= 1 round");
  require_distinct_payloads(initial);
  const std::uint32_t bandwidth = config.bandwidth_bits != 0
                                      ? config.bandwidth_bits
                                      : default_bandwidth(g.node_count());
  for (const auto& items : initial) {
    for (const FloodItem& item : items) {
      // One data + one ack message may share an edge in a round, each
      // carrying the item plus a 1-bit type tag.
      QC_REQUIRE(2 * (item.bit_size() + 1) <= bandwidth,
                 "acked flood item does not fit: need 2*(bits+1) <= B for "
                 "a data and an ack message per edge per round");
    }
  }
  auto run = run_on_all<ReliableFloodProgram>(
      g,
      [&](NodeId v) {
        return std::make_unique<ReliableFloodProgram>(std::move(initial[v]),
                                                      timeout_rounds);
      },
      config);
  ReliableFloodResult out;
  out.outcome = run.outcome;
  out.items_at.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.items_at.push_back(run.at(v).known_sorted());
  }
  return out;
}

}  // namespace qc::congest
