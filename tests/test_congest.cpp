// Tests for the CONGEST engine: model enforcement (bandwidth, topology,
// halting), ledger accounting, and the distributed primitives against
// their centralized references.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

#include "congest/primitives.h"
#include "congest/simulator.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/update.h"
#include "run_digest.h"
#include "util/rng.h"

namespace qc::congest {
namespace {

TEST(Message, FieldAccounting) {
  Message m;
  m.push(5, 3).push(1, 1).push(1023, 10);
  EXPECT_EQ(m.field_count(), 3u);
  EXPECT_EQ(m.field(0), 5u);
  EXPECT_EQ(m.field(2), 1023u);
  EXPECT_EQ(m.field_width(2), 10u);
  EXPECT_EQ(m.bit_size(), 14u);
}

TEST(Message, RejectsOversizedValue) {
  Message m;
  EXPECT_THROW(m.push(8, 3), ArgumentError);   // 8 needs 4 bits
  EXPECT_THROW(m.push(0, 0), ArgumentError);   // zero width
  EXPECT_THROW(m.push(0, 65), ArgumentError);  // too wide
}

TEST(DefaultBandwidth, ScalesWithLogN) {
  EXPECT_EQ(default_bandwidth(2), kBandwidthLogFactor * 1);
  EXPECT_EQ(default_bandwidth(1024), kBandwidthLogFactor * 10);
  EXPECT_EQ(default_bandwidth(1025), kBandwidthLogFactor * 11);
}

// A program that sends one configurable message to a fixed target each
// round for a fixed number of rounds.
class SpamProgram final : public NodeProgram {
 public:
  SpamProgram(NodeId from, NodeId to, std::uint32_t bits_per_msg,
              std::uint32_t msgs_per_round, std::uint64_t rounds)
      : from_(from), to_(to), bits_(bits_per_msg), count_(msgs_per_round),
        rounds_(rounds) {}

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    received_ += inbox.size();
    if (ctx.id() == from_ && round_ < rounds_) {
      for (std::uint32_t i = 0; i < count_; ++i) {
        Message m;
        m.push(1, bits_);
        ctx.send(to_, m);
      }
    }
    ++round_;
  }
  bool done() const override { return round_ >= rounds_ + 1; }

  std::size_t received() const { return received_; }

 private:
  NodeId from_, to_;
  std::uint32_t bits_, count_;
  std::uint64_t rounds_, round_ = 0;
  std::size_t received_ = 0;
};

TEST(Simulator, DeliversMessagesNextRound) {
  const auto g = gen::path(3);
  auto run = run_on_all<SpamProgram>(g, [&](NodeId) {
    return std::make_unique<SpamProgram>(0, 1, 4, 1, 3);
  });
  EXPECT_EQ(run.at(1).received(), 3u);
  EXPECT_EQ(run.at(2).received(), 0u);
  EXPECT_EQ(run.stats.messages, 3u);
  EXPECT_EQ(run.stats.bits, 12u);
}

TEST(Simulator, EnforcesBandwidth) {
  const auto g = gen::path(4);  // B = 8 * 2 = 16 bits
  const std::uint32_t b = default_bandwidth(4);
  // Two messages of just over half the bandwidth each must overflow.
  EXPECT_THROW(
      (run_on_all<SpamProgram>(g,
                               [&](NodeId) {
                                 return std::make_unique<SpamProgram>(
                                     0, 1, b / 2 + 1, 2, 1);
                               })),
      ModelError);
}

TEST(Simulator, AllowsExactlyBandwidth) {
  const auto g = gen::path(4);
  const std::uint32_t b = default_bandwidth(4);
  auto run = run_on_all<SpamProgram>(g, [&](NodeId) {
    return std::make_unique<SpamProgram>(0, 1, b, 1, 2);
  });
  EXPECT_EQ(run.at(1).received(), 2u);
}

TEST(Simulator, RejectsNonNeighborSend) {
  const auto g = gen::path(4);
  EXPECT_THROW(
      (run_on_all<SpamProgram>(g,
                               [&](NodeId) {
                                 return std::make_unique<SpamProgram>(
                                     0, 3, 4, 1, 1);
                               })),
      ModelError);
}

TEST(Simulator, CustomBandwidthOverride) {
  const auto g = gen::path(4);
  Config cfg;
  cfg.bandwidth_bits = 2;
  EXPECT_THROW(
      (run_on_all<SpamProgram>(
          g,
          [&](NodeId) { return std::make_unique<SpamProgram>(0, 1, 3, 1, 1); },
          cfg)),
      ModelError);
}

class NeverDoneProgram final : public NodeProgram {
 public:
  void on_round(NodeContext& ctx, std::span<const Incoming>) override {
    Message m;
    m.push(1, 1);
    ctx.broadcast(m);  // keep traffic alive forever
  }
  bool done() const override { return false; }
};

TEST(Simulator, MaxRoundsGuardsNonTermination) {
  const auto g = gen::path(3);
  Config cfg;
  cfg.execution.max_rounds = 50;
  EXPECT_THROW((run_on_all<NeverDoneProgram>(
                   g, [&](NodeId) { return std::make_unique<NeverDoneProgram>(); },
                   cfg)),
               ModelError);
}

class IdleProgram final : public NodeProgram {
 public:
  void on_round(NodeContext&, std::span<const Incoming>) override {}
  bool done() const override { return true; }
};

TEST(Simulator, ImmediateHaltWhenAllDone) {
  const auto g = gen::path(3);
  auto run = run_on_all<IdleProgram>(
      g, [&](NodeId) { return std::make_unique<IdleProgram>(); });
  EXPECT_EQ(run.stats.rounds, 0u);
  EXPECT_EQ(run.stats.messages, 0u);
}

TEST(Simulator, NodeRngIsDeterministicAcrossRuns) {
  class RngProgram final : public NodeProgram {
   public:
    void on_round(NodeContext& ctx, std::span<const Incoming>) override {
      value_ = ctx.rng().next();
      finished_ = true;
    }
    bool done() const override { return finished_; }
    std::uint64_t value() const { return value_; }

   private:
    bool finished_ = false;
    std::uint64_t value_ = 0;
  };
  const auto g = gen::path(3);
  auto r1 = run_on_all<RngProgram>(
      g, [&](NodeId) { return std::make_unique<RngProgram>(); });
  auto r2 = run_on_all<RngProgram>(
      g, [&](NodeId) { return std::make_unique<RngProgram>(); });
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(r1.at(v).value(), r2.at(v).value());
  }
  EXPECT_NE(r1.at(0).value(), r1.at(1).value());
}

TEST(Simulator, TraceRecordsEveryMessage) {
  const auto g = gen::path(4);
  Config cfg;
  cfg.hooks.record_trace = true;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < 4; ++v) {
    programs.push_back(std::make_unique<SpamProgram>(0, 1, 4, 1, 3));
  }
  Simulator sim(g, cfg);
  const auto stats = sim.run(programs);
  EXPECT_EQ(sim.trace().size(), stats.messages);
  std::uint64_t bits = 0;
  for (const auto& e : sim.trace()) {
    EXPECT_EQ(e.from, 0u);
    EXPECT_EQ(e.to, 1u);
    bits += e.bits;
  }
  EXPECT_EQ(bits, stats.bits);
}

// A small broadcast wave: the root floods one token; every node
// re-broadcasts the first time it hears it, then finishes.
class BroadcastOnceProgram final : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0) {
      Message m;
      m.push(1, 6);
      ctx.broadcast(m);
      sent_ = true;
    }
  }
  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    if (!sent_ && !inbox.empty()) {
      Message m;
      m.push(1, 6);
      ctx.broadcast(m);
      sent_ = true;
    }
  }
  bool done() const override { return sent_; }

 private:
  bool sent_ = false;
};

TEST(Simulator, TraceMatchesLedgerOnBroadcast) {
  const auto g = gen::grid(3, 4);
  Config cfg;
  cfg.hooks.record_trace = true;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(std::make_unique<BroadcastOnceProgram>());
  }
  Simulator sim(g, cfg);
  const auto stats = sim.run(programs);
  // One entry per queued message, and the per-entry bits sum to the
  // ledger's total exactly.
  ASSERT_EQ(sim.trace().size(), stats.messages);
  std::uint64_t bits = 0;
  std::uint64_t last_round = 0;
  for (const auto& e : sim.trace()) {
    bits += e.bits;
    EXPECT_GE(e.round, last_round);  // rounds monotone in queue order
    last_round = e.round;
    EXPECT_LT(e.round, stats.rounds + 1);
    EXPECT_TRUE(g.has_edge(e.from, e.to));
  }
  EXPECT_EQ(bits, stats.bits);
  // Every node broadcast exactly once: degree sum = 2|E| messages.
  EXPECT_EQ(stats.messages, 2 * g.edge_count());
}

TEST(Simulator, TraceOffByDefault) {
  const auto g = gen::path(4);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < 4; ++v) {
    programs.push_back(std::make_unique<SpamProgram>(0, 1, 4, 1, 3));
  }
  Simulator sim(g, {});
  sim.run(programs);
  EXPECT_TRUE(sim.trace().empty());
}

TEST(Simulator, SeedChangesNodeRngStreams) {
  class RngOnce final : public NodeProgram {
   public:
    void on_round(NodeContext& ctx, std::span<const Incoming>) override {
      value_ = ctx.rng().next();
      finished_ = true;
    }
    bool done() const override { return finished_; }
    std::uint64_t value_ = 0;

   private:
    bool finished_ = false;
  };
  const auto g = gen::path(3);
  Config c1;
  c1.seed = 1;
  Config c2;
  c2.seed = 2;
  auto r1 = run_on_all<RngOnce>(
      g, [&](NodeId) { return std::make_unique<RngOnce>(); }, c1);
  auto r2 = run_on_all<RngOnce>(
      g, [&](NodeId) { return std::make_unique<RngOnce>(); }, c2);
  EXPECT_NE(r1.at(0).value_, r2.at(0).value_);
}

// ---------------------------------------------------------------------
// BFS tree
// ---------------------------------------------------------------------

class BfsTreeParamTest
    : public ::testing::TestWithParam<std::pair<int, NodeId>> {};

TEST_P(BfsTreeParamTest, DepthsMatchBfsAndTreeIsConsistent) {
  const auto [kind, root] = GetParam();
  Rng rng(77);
  WeightedGraph g = kind == 0   ? gen::path(17)
                    : kind == 1 ? gen::grid(4, 5)
                    : kind == 2 ? gen::balanced_binary_tree(21)
                                : gen::erdos_renyi_connected(25, 0.12, rng);
  const auto res = build_bfs_tree(g, root);
  const auto ref = bfs_distances(g, root);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(res.nodes[v].depth, ref[v]) << "node " << v;
    if (v == root) {
      EXPECT_EQ(res.nodes[v].parent, kNoParent);
    } else {
      const NodeId p = res.nodes[v].parent;
      ASSERT_NE(p, kNoParent);
      EXPECT_EQ(res.nodes[p].depth + 1, res.nodes[v].depth);
      EXPECT_TRUE(g.has_edge(p, v));
      // v must appear in its parent's child list.
      const auto& ch = res.nodes[p].children;
      EXPECT_NE(std::find(ch.begin(), ch.end(), v), ch.end());
    }
  }
  // O(D) rounds.
  const Dist d = unweighted_diameter(g);
  EXPECT_LE(res.stats.rounds, 2 * d + 4);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, BfsTreeParamTest,
    ::testing::Values(std::pair{0, NodeId{0}}, std::pair{0, NodeId{8}},
                      std::pair{1, NodeId{0}}, std::pair{1, NodeId{19}},
                      std::pair{2, NodeId{0}}, std::pair{2, NodeId{20}},
                      std::pair{3, NodeId{0}}, std::pair{3, NodeId{12}}));

// ---------------------------------------------------------------------
// Global aggregate
// ---------------------------------------------------------------------

TEST(GlobalAggregate, MinMaxSumOnGrid) {
  const auto g = gen::grid(4, 4);
  std::vector<std::uint64_t> inputs(16);
  for (std::size_t i = 0; i < 16; ++i) inputs[i] = (i * 7 + 3) % 23;
  const auto mn = global_aggregate(g, 0, inputs, AggregateOp::kMin, 8);
  const auto mx = global_aggregate(g, 0, inputs, AggregateOp::kMax, 8);
  const auto sm = global_aggregate(g, 0, inputs, AggregateOp::kSum, 12);
  EXPECT_EQ(mn.value, *std::min_element(inputs.begin(), inputs.end()));
  EXPECT_EQ(mx.value, *std::max_element(inputs.begin(), inputs.end()));
  EXPECT_EQ(sm.value, std::accumulate(inputs.begin(), inputs.end(), 0ull));
}

TEST(GlobalAggregate, RoundsLinearInDiameter) {
  const auto g = gen::path(33);
  std::vector<std::uint64_t> inputs(33, 1);
  const auto res = global_aggregate(g, 0, inputs, AggregateOp::kSum, 8);
  EXPECT_EQ(res.value, 33u);
  const Dist d = unweighted_diameter(g);
  EXPECT_LE(res.stats.rounds, 3 * d + 8);
}

TEST(GlobalAggregate, WorksFromNonLeaderRoot) {
  const auto g = gen::path(9);
  std::vector<std::uint64_t> inputs(9, 2);
  const auto res = global_aggregate(g, 4, inputs, AggregateOp::kSum, 8);
  EXPECT_EQ(res.value, 18u);
}

// ---------------------------------------------------------------------
// Pipelined flooding
// ---------------------------------------------------------------------

FloodItem make_item(std::uint64_t id, std::uint64_t payload) {
  FloodItem f;
  f.push(id, 16);
  f.push(payload, 16);
  return f;
}

TEST(Flood, AllItemsReachAllNodes) {
  const auto g = gen::grid(3, 5);
  std::vector<std::vector<FloodItem>> initial(15);
  std::size_t total = 0;
  for (NodeId v = 0; v < 15; v += 3) {
    initial[v].push_back(make_item(v, 100 + v));
    initial[v].push_back(make_item(1000 + v, 200 + v));
    total += 2;
  }
  const auto res = flood_items(g, initial);
  for (NodeId v = 0; v < 15; ++v) {
    EXPECT_EQ(res.items_at[v].size(), total);
    EXPECT_EQ(res.items_at[v], res.items_at[0]);  // identical knowledge
  }
}

TEST(Flood, PipelinesWithinDPlusK) {
  const auto g = gen::path(21);  // D = 20
  const std::size_t k = 12;
  std::vector<std::vector<FloodItem>> initial(21);
  for (std::size_t i = 0; i < k; ++i) {
    initial[0].push_back(make_item(i, i));
  }
  const auto res = flood_items(g, initial);
  const Dist d = unweighted_diameter(g);
  EXPECT_LE(res.stats.rounds, d + k + 3);
  EXPECT_EQ(res.items_at[20].size(), k);
}

TEST(Flood, NoItemsIsFree) {
  const auto g = gen::path(5);
  const auto res = flood_items(g, std::vector<std::vector<FloodItem>>(5));
  EXPECT_EQ(res.stats.rounds, 0u);
}

TEST(Flood, RejectsOversizedItems) {
  const auto g = gen::path(5);
  std::vector<std::vector<FloodItem>> initial(5);
  FloodItem big;
  for (int i = 0; i < 5; ++i) big.push(1, 64);
  initial[0].push_back(big);
  EXPECT_THROW(flood_items(g, initial), ArgumentError);
}

// Relaying dedups by content, so two nodes injecting the same payload
// would silently lose one item. Injection must reject that up front
// (historically it was let through and produced a wrong item count).
TEST(Flood, DuplicatePayloadInjectionFailsLoudly) {
  const auto g = gen::path(9);  // wide enough bandwidth for the items
  std::vector<std::vector<FloodItem>> initial(9);
  initial[0].push_back(make_item(1, 1));
  initial[8].push_back(make_item(1, 1));  // same content elsewhere
  EXPECT_THROW(flood_items(g, initial), AlgorithmFailure);
  try {
    flood_items(g, initial);
  } catch (const AlgorithmFailure& e) {
    EXPECT_NE(std::string(e.what()).find("node 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("node 8"), std::string::npos);
  }
}

std::vector<std::vector<std::uint64_t>> field_values(
    const std::vector<FloodItem>& items) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const FloodItem& item : items) {
    auto& fields = out.emplace_back();
    for (std::size_t i = 0; i < item.field_count(); ++i) {
      fields.push_back(item.field(i));
    }
  }
  return out;
}

// Items with mixed field counts whose values share prefixes. Results are
// sorted by field values, lexicographically, a proper prefix first. The
// literals were captured from the map-based dedup the sorted index
// replaced.
TEST(Flood, MixedFieldCountItemsArePinned) {
  const auto g = gen::grid(3, 4);
  const auto item = [](std::initializer_list<std::uint64_t> fields) {
    FloodItem f;
    for (const std::uint64_t x : fields) f.push(x, 5);
    return f;
  };
  std::vector<std::vector<FloodItem>> initial(12);
  initial[0] = {item({3}), item({2, 9, 9})};
  initial[5] = {item({3, 0})};
  initial[7] = {item({2}), item({9, 9})};
  initial[11] = {item({2, 9}), item({3, 0, 1}), item({0})};
  const auto res = flood_items(g, initial, {}, FloodCollect::kAllNodes);
  EXPECT_EQ(res.stats, (RunStats{12, 272, 2550}));
  const std::vector<std::vector<std::uint64_t>> expected = {
      {0}, {2}, {2, 9}, {2, 9, 9}, {3}, {3, 0}, {3, 0, 1}, {9, 9}};
  ASSERT_EQ(res.items_at.size(), 12u);
  for (NodeId v = 0; v < 12; ++v) {
    EXPECT_EQ(field_values(res.items_at[v]), expected) << "node " << v;
    for (const FloodItem& f : res.items_at[v]) {
      EXPECT_EQ(f.bit_size(), 5 * f.field_count()) << "node " << v;
    }
  }
}

// A flood far past the sizes the library sends (b·k items): every node
// ends with every item, in content order.
TEST(Flood, TwoThousandItemsReachEveryNodeSorted) {
  Rng rng(8);
  const auto g = gen::erdos_renyi_connected(24, 0.15, rng);
  constexpr std::uint64_t kItems = 2100;
  std::vector<std::vector<FloodItem>> initial(g.node_count());
  std::vector<std::vector<std::uint64_t>> expected;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    // (k), (k, 1), (k, 2) for k = i / 3: distinct, sharing prefixes, and
    // generated in result order.
    FloodItem f;
    f.push(i / 3, 12);
    if (i % 3 != 0) f.push(i % 3, 2);
    expected.push_back(field_values({f}).front());
    initial[(i * 7) % g.node_count()].push_back(std::move(f));
  }
  const auto res = flood_items(g, std::move(initial));
  ASSERT_EQ(res.items_at.size(), g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(field_values(res.items_at[v]), expected) << "node " << v;
  }
  EXPECT_LE(res.stats.rounds, unweighted_diameter(g) + kItems + 1);
}

// --- fast-path regression tests (see docs/perf.md) --------------------

TEST(Message, SpillsBeyondInlineFields) {
  Message m;
  for (std::uint64_t i = 0; i < 9; ++i) {
    m.push(i, 4 + static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(m.field_count(), 9u);
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(m.field(i), i);
    EXPECT_EQ(m.field_width(i), 4u + static_cast<std::uint32_t>(i));
    bits += 4 + static_cast<std::uint32_t>(i);
  }
  EXPECT_EQ(m.bit_size(), bits);

  Message same;
  for (std::uint64_t i = 0; i < 9; ++i) {
    same.push(i, 4 + static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(m, same);
  Message shorter;
  for (std::uint64_t i = 0; i < 6; ++i) {
    shorter.push(i, 4 + static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(m == shorter);
}

// Spilled messages must survive the outbox -> arena path intact.
TEST(Simulator, DeliversSpilledMessages) {
  const auto g = gen::path(2);
  struct WideSender final : NodeProgram {
    std::vector<std::uint64_t> got;
    void on_start(NodeContext& ctx) override {
      if (ctx.id() != 0) return;
      Message m;
      for (std::uint64_t i = 0; i < 8; ++i) m.push(i, 4);  // 32 bits
      ctx.send(1, m);
    }
    void on_round(NodeContext&, std::span<const Incoming> inbox) override {
      for (const Incoming& in : inbox) {
        for (std::size_t i = 0; i < in.msg.field_count(); ++i) {
          got.push_back(in.msg.field(i));
        }
      }
    }
    bool done() const override { return true; }
  };
  Config cfg;
  cfg.bandwidth_bits = 32;
  auto run = run_on_all<WideSender>(
      g, [&](NodeId) { return std::make_unique<WideSender>(); }, cfg);
  EXPECT_EQ(run.at(1).got,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// The exact error text is part of the model's contract (callers match on
// it) and must agree with has_neighbor — both answer through the same
// scan of the sender's row (EdgeSlotIndex::slot), the cold path that
// in.slot and send_to_slot leave to id-addressed sends.
TEST(Simulator, NonNeighborErrorTextMatchesHasNeighbor) {
  const auto g = gen::path(4);
  struct Prober final : NodeProgram {
    bool saw_neighbor = true;
    void on_start(NodeContext& ctx) override {
      if (ctx.id() != 0) return;
      saw_neighbor = ctx.has_neighbor(3);
      Message m;
      m.push(1, 1);
      ctx.send(3, m);
    }
    void on_round(NodeContext&, std::span<const Incoming>) override {}
    bool done() const override { return true; }
  };
  try {
    run_on_all<Prober>(g, [&](NodeId) { return std::make_unique<Prober>(); });
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "node 0 tried to message non-neighbour 3");
  }
}

TEST(Simulator, BandwidthOverflowErrorNamesEdgeAndRound) {
  const auto g = gen::path(2);  // B = 8 bits at n = 2
  struct Overflower final : NodeProgram {
    void on_round(NodeContext& ctx, std::span<const Incoming>) override {
      Message m;
      m.push(0, 5);
      ctx.send(1, m);
      ctx.send(1, m);  // 10 > 8
    }
    bool done() const override { return false; }
  };
  try {
    run_on_all<Overflower>(
        g, [&](NodeId) { return std::make_unique<Overflower>(); });
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(),
                 "bandwidth exceeded on edge 0->1: 10 bits > B=8 in round 0");
  }
}

TEST(Simulator, NeighborSlotAndSendToSlot) {
  const auto g = gen::star(4);  // hub 0 with leaves 1..3
  struct SlotSender final : NodeProgram {
    std::vector<std::uint64_t> got;
    void on_start(NodeContext& ctx) override {
      if (ctx.id() != 0) return;
      const auto row = ctx.neighbors();
      for (std::uint32_t s = 0; s < row.size(); ++s) {
        // neighbor_slot must invert the adjacency row.
        EXPECT_EQ(ctx.neighbor_slot(row[s].to), s);
        Message m;
        m.push(row[s].to, 8);
        ctx.send_to_slot(s, m);
      }
      EXPECT_EQ(ctx.neighbor_slot(ctx.id()), EdgeSlotIndex::kNoSlot);
    }
    void on_round(NodeContext&, std::span<const Incoming> inbox) override {
      for (const Incoming& in : inbox) got.push_back(in.msg.field(0));
    }
    bool done() const override { return true; }
  };
  auto run = run_on_all<SlotSender>(
      g, [&](NodeId) { return std::make_unique<SlotSender>(); });
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_EQ(run.at(v).got, std::vector<std::uint64_t>{v});
  }
}

TEST(Simulator, SendToSlotRejectsOutOfRangeSlot) {
  const auto g = gen::path(2);
  struct BadSlot final : NodeProgram {
    void on_start(NodeContext& ctx) override {
      if (ctx.id() != 0) return;
      Message m;
      m.push(1, 1);
      ctx.send_to_slot(5, m);  // degree is 1
    }
    void on_round(NodeContext&, std::span<const Incoming>) override {}
    bool done() const override { return true; }
  };
  EXPECT_THROW(run_on_all<BadSlot>(
                   g, [&](NodeId) { return std::make_unique<BadSlot>(); }),
               ArgumentError);
}

// Per-round max edge utilization: one 4-bit message on a B=16 edge fills
// a quarter of the cap.
TEST(Simulator, ReportsMaxEdgeUtilization) {
  const auto g = gen::path(2);
  struct OneShot final : NodeProgram {
    void on_start(NodeContext& ctx) override {
      if (ctx.id() != 0) return;
      Message m;
      m.push(1, 4);
      ctx.send(1, m);
    }
    void on_round(NodeContext&, std::span<const Incoming>) override {}
    bool done() const override { return true; }
  };
  Config cfg;
  cfg.bandwidth_bits = 16;
  std::vector<RoundMetrics> metrics;
  cfg.hooks.on_round_metrics = [&](const RoundMetrics& rm) {
    metrics.push_back(rm);
  };
  run_on_all<OneShot>(g, [&](NodeId) { return std::make_unique<OneShot>(); },
                      cfg);
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].round, 0u);
  EXPECT_EQ(metrics[0].messages, 1u);
  EXPECT_EQ(metrics[0].bits, 4u);
  EXPECT_DOUBLE_EQ(metrics[0].max_edge_utilization, 0.25);
}

// A deterministic multi-round workload for the equivalence tests: flood
// the node id of the minimum-id reachable node, one broadcast per node.
class MinFloodProgram final : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    best_ = ctx.id();
    Message m;
    m.push(best_, 32);
    ctx.broadcast(m);
  }
  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    NodeId improved = best_;
    for (const Incoming& in : inbox) {
      improved = std::min(improved, static_cast<NodeId>(in.msg.field(0)));
    }
    if (improved < best_) {
      best_ = improved;
      Message m;
      m.push(best_, 32);
      ctx.broadcast(m);
      quiet_ = 0;
    } else {
      ++quiet_;
    }
  }
  bool done() const override { return quiet_ >= 1; }
  NodeId best() const { return best_; }

 private:
  NodeId best_ = 0;
  std::uint32_t quiet_ = 0;
};

struct RunCapture {
  RunStats stats;
  std::vector<TraceEntry> trace;
  std::vector<RoundMetrics> metrics;
  std::vector<NodeId> outputs;

  friend bool operator==(const RunCapture&, const RunCapture&) = default;
};

RunCapture run_min_flood(const WeightedGraph& g, unsigned workers,
                         std::size_t min_work = Config::Execution{}
                                                    .pooled_round_min_work) {
  Config cfg;
  cfg.hooks.record_trace = true;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = min_work;
  std::vector<RoundMetrics> metrics;
  cfg.hooks.on_round_metrics = [&](const RoundMetrics& rm) {
    metrics.push_back(rm);
  };
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(std::make_unique<MinFloodProgram>());
  }
  Simulator sim(g, cfg);
  RunCapture cap;
  cap.stats = sim.run(programs);
  cap.trace = sim.trace();
  cap.metrics = std::move(metrics);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    cap.outputs.push_back(
        static_cast<const MinFloodProgram&>(*programs[v]).best());
  }
  return cap;
}

// The tentpole determinism contract: ledger, trace, per-round metrics,
// and program outputs are byte-identical at any worker count. The
// default pooled_round_min_work keeps these small phases on the calling
// thread, so this pins the pooled engine's one-shard path.
TEST(Simulator, SerialAndPooledRunsAreByteIdentical) {
  Rng rng(42);
  const auto g = gen::erdos_renyi_connected(96, 0.08, rng);
  const RunCapture golden = run_min_flood(g, 1);
  EXPECT_TRUE(std::all_of(golden.outputs.begin(), golden.outputs.end(),
                          [](NodeId b) { return b == 0; }));
  EXPECT_FALSE(golden.trace.empty());
  EXPECT_FALSE(golden.metrics.empty());
  for (const unsigned workers : {2u, 8u}) {
    const RunCapture got = run_min_flood(g, workers);
    EXPECT_EQ(got, golden) << "workers=" << workers;
  }
}

// Same contract through the shard-parallel merge (threshold 0 forces
// the pool for every phase), at worker counts that do not divide n — 97 is
// prime, so every shard cut is ragged and a modular-arithmetic bug in
// the shard boundaries or bucket offsets would surface here.
TEST(Simulator, ShardedMergeByteIdenticalAtAwkwardWorkerCounts) {
  Rng rng(1234);
  const auto g = gen::erdos_renyi_connected(97, 0.07, rng);
  const RunCapture golden = run_min_flood(g, 1);
  EXPECT_FALSE(golden.trace.empty());
  for (const unsigned workers : {3u, 5u, 8u}) {
    const RunCapture got = run_min_flood(g, workers, /*min_work=*/0);
    EXPECT_EQ(got, golden) << "workers=" << workers;
  }
}

// pooled_round_min_work trades wall-clock only: forcing every round
// through the pool (0) and forcing every round serial (huge) must give
// byte-identical ledgers, traces, metrics, and outputs at any worker
// count. This is the auto-serial fallback that un-regresses small-round
// phases like alg1's hop-SSSP (docs/perf.md).
TEST(Simulator, PooledRoundMinWorkIsWallClockOnly) {
  Rng rng(777);
  const auto g = gen::erdos_renyi_connected(96, 0.08, rng);
  const auto capture = [&](unsigned workers, std::size_t min_work) {
    Config cfg;
    cfg.hooks.record_trace = true;
    cfg.execution.workers = workers;
    cfg.execution.pooled_round_min_work = min_work;
    std::vector<RoundMetrics> metrics;
    cfg.hooks.on_round_metrics = [&](const RoundMetrics& rm) {
      metrics.push_back(rm);
    };
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      programs.push_back(std::make_unique<MinFloodProgram>());
    }
    Simulator sim(g, cfg);
    RunCapture cap;
    cap.stats = sim.run(programs);
    cap.trace = sim.trace();
    cap.metrics = std::move(metrics);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      cap.outputs.push_back(
          static_cast<const MinFloodProgram&>(*programs[v]).best());
    }
    return cap;
  };
  const RunCapture golden = capture(1, Config::Execution{}.pooled_round_min_work);
  for (const unsigned workers : {2u, 8u}) {
    EXPECT_EQ(capture(workers, /*min_work=*/0), golden)
        << "always-pooled, workers=" << workers;
    EXPECT_EQ(capture(workers, /*min_work=*/SIZE_MAX), golden)
        << "always-serial, workers=" << workers;
  }
}

// More workers than nodes: n = 3 with an 8-worker pool must clamp to 3
// single-node shards and still agree with serial. (MinFlood's 32-bit
// payloads don't fit a 3-node B, so this uses the 6-bit wave.)
TEST(Simulator, ShardedMergeClampsWhenWorkersExceedNodes) {
  const auto g = gen::path(3);
  const auto capture = [&](unsigned workers, std::size_t min_work) {
    Config cfg;
    cfg.hooks.record_trace = true;
    cfg.execution.workers = workers;
    cfg.execution.pooled_round_min_work = min_work;
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      programs.push_back(std::make_unique<BroadcastOnceProgram>());
    }
    Simulator sim(g, cfg);
    const RunStats stats = sim.run(programs);
    return std::pair{stats, sim.trace()};
  };
  const auto golden = capture(1, Config::Execution{}.pooled_round_min_work);
  EXPECT_EQ(golden.first.messages, 2 * g.edge_count());
  EXPECT_EQ(capture(8, /*min_work=*/0), golden);
}

// Sends singles and broadcasts interleaved (single, broadcast, single
// in one activation) and records every receiver's inbox verbatim: a
// many-shard merge must reproduce the one-shard merge's per-receiver
// (sender id, program order) interleave exactly, including where the
// broadcast lands between the two singles.
class InterleaveProgram final : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    const auto row = ctx.neighbors();
    Message first;
    first.push(ctx.id(), 16);
    first.push(0, 2);
    ctx.send_to_slot(0, first);
    Message mid;
    mid.push(ctx.id(), 16);
    mid.push(1, 2);
    ctx.broadcast(mid);
    Message last;
    last.push(ctx.id(), 16);
    last.push(2, 2);
    ctx.send_to_slot(static_cast<std::uint32_t>(row.size() - 1), last);
  }
  void on_round(NodeContext&, std::span<const Incoming> inbox) override {
    for (const Incoming& in : inbox) {
      log.push_back({in.from, static_cast<NodeId>(in.msg.field(0)),
                     static_cast<NodeId>(in.msg.field(1))});
    }
  }
  bool done() const override { return true; }

  std::vector<std::array<NodeId, 3>> log;
};

TEST(Simulator, ShardedMergePreservesSingleBroadcastInterleave) {
  const auto g = gen::star(8);  // hub 0, leaves 1..7: one shard per node
  Config cfg;
  cfg.bandwidth_bits = 64;
  const auto capture = [&](unsigned workers, std::size_t min_work) {
    Config c = cfg;
    c.execution.workers = workers;
    c.execution.pooled_round_min_work = min_work;
    auto run = run_on_all<InterleaveProgram>(
        g, [&](NodeId) { return std::make_unique<InterleaveProgram>(); }, c);
    std::vector<std::vector<std::array<NodeId, 3>>> logs;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      logs.push_back(run.at(v).log);
    }
    return logs;
  };
  const auto golden = capture(1, Config::Execution{}.pooled_round_min_work);
  // Each leaf's three sends all target the hub; the hub's inbox is the
  // senders in ascending order, each contributing marks 0, 1, 2.
  std::vector<std::array<NodeId, 3>> hub_expected;
  for (NodeId leaf = 1; leaf < 8; ++leaf) {
    for (NodeId mark = 0; mark < 3; ++mark) {
      hub_expected.push_back({leaf, leaf, mark});
    }
  }
  EXPECT_EQ(golden[0], hub_expected);
  for (const unsigned workers : {3u, 8u}) {
    EXPECT_EQ(capture(workers, /*min_work=*/0), golden)
        << "workers=" << workers;
  }
}

// Literal goldens captured from the engine that kept separate serial,
// sharded and faulted merges. The identity tests above compare runs of
// one build with each other; these compare against numbers recorded
// before the merges were unified, so a change that moved every worker
// count the same way would still fail here.
TEST(SimulatorGolden, MinFloodRunIsPinned) {
  Rng rng(42);
  const auto g = gen::erdos_renyi_connected(96, 0.08, rng);
  for (const unsigned workers : {1u, 8u}) {
    const RunCapture got = run_min_flood(g, workers);
    EXPECT_EQ(got.stats, (RunStats{5, 2688, 86016})) << "workers=" << workers;
    EXPECT_EQ(got.trace.size(), 2688u) << "workers=" << workers;
    EXPECT_EQ(trace_digest(got.trace), 12635111665715171145ull)
        << "workers=" << workers;
    EXPECT_EQ(got.metrics.size(), 5u) << "workers=" << workers;
    EXPECT_EQ(metrics_digest(got.metrics), 4524880049476468350ull)
        << "workers=" << workers;
    EXPECT_EQ(got.outputs, std::vector<NodeId>(96, 0)) << "workers=" << workers;
  }
}

TEST(SimulatorGolden, InterleaveInboxLogsArePinned) {
  const auto g = gen::star(8);
  for (const unsigned workers : {1u, 8u}) {
    Config cfg;
    cfg.bandwidth_bits = 64;
    cfg.execution.workers = workers;
    auto run = run_on_all<InterleaveProgram>(
        g, [&](NodeId) { return std::make_unique<InterleaveProgram>(); }, cfg);
    using Log = std::vector<std::array<NodeId, 3>>;
    const Log hub = {{1, 1, 0}, {1, 1, 1}, {1, 1, 2}, {2, 2, 0}, {2, 2, 1},
                     {2, 2, 2}, {3, 3, 0}, {3, 3, 1}, {3, 3, 2}, {4, 4, 0},
                     {4, 4, 1}, {4, 4, 2}, {5, 5, 0}, {5, 5, 1}, {5, 5, 2},
                     {6, 6, 0}, {6, 6, 1}, {6, 6, 2}, {7, 7, 0}, {7, 7, 1},
                     {7, 7, 2}};
    EXPECT_EQ(run.at(0).log, hub) << "workers=" << workers;
    // The hub's first single goes to leaf 1 and its last to leaf 7; the
    // broadcast between them reaches every leaf.
    EXPECT_EQ(run.at(1).log, (Log{{0, 0, 0}, {0, 0, 1}}))
        << "workers=" << workers;
    EXPECT_EQ(run.at(4).log, (Log{{0, 0, 1}})) << "workers=" << workers;
    EXPECT_EQ(run.at(7).log, (Log{{0, 0, 1}, {0, 0, 2}}))
        << "workers=" << workers;
    EXPECT_EQ(run.stats, (RunStats{1, 30, 540})) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------
// Messages by reference: an inbox entry is a (sender, slot, reference)
// triple into the engine's one stored copy, valid for its activation
// only.
// ---------------------------------------------------------------------
static_assert(sizeof(Incoming) == 16);
static_assert(std::is_trivially_destructible_v<Incoming>);

// Reads its inbox, broadcasts, forwards a received message and reads the
// inbox again, all within one activation: everything a program may do
// with the messages it is handed. Each node folds every delivery it
// reads, before and after its own sends, into a digest.
class RelayProgram final : public NodeProgram {
 public:
  static constexpr std::uint64_t kLastSendRound = 12;

  void on_start(NodeContext& ctx) override {
    Message hello;
    hello.push(ctx.id(), 16).push(0, 8);
    ctx.broadcast(hello);
  }
  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    const std::uint64_t r = ctx.round();
    std::uint64_t mix = r;
    for (const Incoming& in : inbox) {
      digest_ = fnv1a({r, in.from, in.msg.field(0), in.msg.field(1)}, digest_);
      mix += 3 * in.msg.field(0) + in.msg.field(1);
    }
    last_round_ = r;
    if (r > kLastSendRound) return;
    Message own;
    own.push(ctx.id(), 16).push(mix & 0xff, 8);
    ctx.broadcast(own);
    if (!inbox.empty()) {
      const auto row = ctx.neighbors();
      ctx.send(row[r % row.size()].to, inbox[r % inbox.size()].msg);
    }
    for (const Incoming& in : inbox) {
      digest_ = fnv1a({in.from, in.msg.field(0), in.msg.bit_size()}, digest_);
    }
  }
  bool done() const override { return last_round_ > kLastSendRound; }
  std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t digest_ = fnv1a({});
  std::uint64_t last_round_ = 0;
};

struct RelayCapture {
  RunStats stats;
  std::uint64_t trace = 0;    ///< trace_digest
  std::uint64_t metrics = 0;  ///< metrics_digest
  std::uint64_t outputs = 0;  ///< the nodes' digests, in id order
  FaultCounters faults;
};

// Every phase forced through the pool (threshold 0) when workers > 1.
RelayCapture run_relay(unsigned workers, FaultPlan plan = {}) {
  Rng rng(99);
  const auto g = gen::erdos_renyi_connected(48, 0.1, rng);
  Config cfg;
  cfg.bandwidth_bits = 64;
  cfg.hooks.record_trace = true;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = 0;
  cfg.faults = std::move(plan);
  std::vector<RoundMetrics> metrics;
  cfg.hooks.on_round_metrics = [&](const RoundMetrics& rm) {
    metrics.push_back(rm);
  };
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(std::make_unique<RelayProgram>());
  }
  Simulator sim(g, cfg);
  RelayCapture cap;
  cap.stats = sim.run(programs);
  cap.trace = trace_digest(sim.trace());
  cap.metrics = metrics_digest(metrics);
  cap.outputs = fnv1a({});
  for (const auto& p : programs) {
    cap.outputs =
        fnv1a({static_cast<const RelayProgram&>(*p).digest()}, cap.outputs);
  }
  cap.faults = sim.fault_counters();
  return cap;
}

// Literals captured from the engine that copied every delivery into its
// mailbox row.
TEST(ByReference, RelayRunIsPinned) {
  for (const unsigned workers : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    const RelayCapture got = run_relay(workers);
    EXPECT_EQ(got.stats, (RunStats{14, 3816, 91584}));
    EXPECT_EQ(got.trace, 450311352711795274ull);
    EXPECT_EQ(got.metrics, 17037489179321775999ull);
    EXPECT_EQ(got.outputs, 16929904263582058254ull);
    EXPECT_EQ(got.faults, FaultCounters{});
  }
}

TEST(ByReference, FaultedRelayRunIsPinned) {
  FaultPlan plan;
  plan.seed = 5;
  plan.probabilities.duplicate = 0.05;
  plan.probabilities.corrupt = 0.05;
  plan.probabilities.delay = 0.05;
  plan.probabilities.delay_rounds = 3;
  for (const unsigned workers : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    const RelayCapture got = run_relay(workers, plan);
    EXPECT_EQ(got.stats, (RunStats{17, 3816, 91584}));
    EXPECT_EQ(got.trace, 450311352711795274ull);
    EXPECT_EQ(got.metrics, 18112021809027891594ull);
    EXPECT_EQ(got.outputs, 15359309066750277256ull);
    EXPECT_EQ(got.faults.duplicated, 195u);
    EXPECT_EQ(got.faults.corrupted, 148u);
    EXPECT_EQ(got.faults.delayed, 169u);
    EXPECT_EQ(got.faults.total(),
              got.faults.duplicated + got.faults.corrupted +
                  got.faults.delayed);
  }
}

// ---------------------------------------------------------------------
// Delivery slots: every Incoming names its sender's slot in the
// receiver's own neighbors() row, whichever merge made the delivery.
// ---------------------------------------------------------------------

// Checks each delivery's slot against its own row and answers one sender
// per round through send_to_slot(in.slot); every node also broadcasts,
// so most edges carry two messages a round. Each node folds what it
// reads, slots included, into a digest.
class SlotReplyProgram final : public NodeProgram {
 public:
  static constexpr std::uint64_t kLastSendRound = 10;

  void on_start(NodeContext& ctx) override { ctx.broadcast(tagged(0, ctx)); }
  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    const std::uint64_t r = ctx.round();
    const auto row = ctx.neighbors();
    for (const Incoming& in : inbox) {
      ++checked_;
      if (in.slot >= row.size() || row[in.slot].to != in.from) ++bad_;
      digest_ = fnv1a({r, in.from, in.slot, in.msg.field(0), in.msg.field(1)},
                      digest_);
    }
    last_round_ = r;
    if (r > kLastSendRound) return;
    ctx.broadcast(tagged(0, ctx));
    if (!inbox.empty()) {
      ctx.send_to_slot(inbox[r % inbox.size()].slot, tagged(1, ctx));
    }
  }
  bool done() const override { return last_round_ > kLastSendRound; }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t bad() const { return bad_; }

 private:
  static Message tagged(std::uint64_t type, const NodeContext& ctx) {
    Message m;
    m.push(type, 1).push(ctx.id(), 16);
    return m;
  }

  std::uint64_t digest_ = fnv1a({});
  std::uint64_t last_round_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t bad_ = 0;
};

struct SlotCapture {
  RunStats stats;
  FaultCounters faults;
  std::vector<std::uint64_t> digests;  ///< per node
  std::uint64_t checked = 0;           ///< deliveries read
  std::uint64_t bad = 0;               ///< deliveries with a wrong slot

  friend bool operator==(const SlotCapture&, const SlotCapture&) = default;
};

// Every phase forced through the pool (threshold 0) when workers > 1.
SlotCapture run_slot_reply(const WeightedGraph& g, unsigned workers,
                           FaultPlan plan = {}) {
  Config cfg;
  cfg.bandwidth_bits = 64;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = 0;
  cfg.faults = std::move(plan);
  auto run = run_on_all<SlotReplyProgram>(
      g, [](NodeId) { return std::make_unique<SlotReplyProgram>(); }, cfg);
  SlotCapture cap{run.stats, run.outcome.faults, {}, 0, 0};
  for (NodeId v = 0; v < g.node_count(); ++v) {
    cap.digests.push_back(run.at(v).digest());
    cap.checked += run.at(v).checked();
    cap.bad += run.at(v).bad();
  }
  return cap;
}

// Every fault class at once: drops, duplicates, delays and corruptions
// drawn from a seed, a link down for rounds 2-5 on node 0's first edge,
// and the last node crashing in round 4.
FaultPlan every_fault_plan(const WeightedGraph& g) {
  FaultPlan plan;
  plan.seed = 11;
  plan.probabilities.drop = 0.05;
  plan.probabilities.duplicate = 0.05;
  plan.probabilities.delay = 0.05;
  plan.probabilities.delay_rounds = 2;
  plan.probabilities.corrupt = 0.05;
  plan.link_down.push_back(
      LinkDownInterval{0, g.neighbors(0)[0].to, 2, 5, true});
  plan.crashes.push_back(CrashEvent{g.node_count() - 1, 4});
  return plan;
}

// An ER graph, a hub, and a graph whose rows apply() left out of id
// order: inserting {0, v} appends 0 to the end of v's row.
std::vector<std::pair<const char*, WeightedGraph>> slot_graphs() {
  std::vector<std::pair<const char*, WeightedGraph>> out;
  Rng rng(31);
  out.emplace_back("er(48)", gen::erdos_renyi_connected(48, 0.1, rng));
  out.emplace_back("star(24)", gen::star(24));
  WeightedGraph g = gen::erdos_renyi_connected(40, 0.12, rng);
  GraphUpdate batch;
  for (NodeId v = 20; v < 40; v += 4) {
    if (!g.has_edge(0, v)) batch.insert(0, v, 1);
  }
  g.apply(batch);
  out.emplace_back("er(40) after apply", std::move(g));
  return out;
}

bool rows_sorted(const WeightedGraph& g) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto row = g.neighbors(v);
    if (!std::is_sorted(row.begin(), row.end(),
                        [](const HalfEdge& a, const HalfEdge& b) {
                          return a.to < b.to;
                        })) {
      return false;
    }
  }
  return true;
}

TEST(DeliverySlot, NamesTheSenderAtAnyWorkerCount) {
  const auto graphs = slot_graphs();
  EXPECT_FALSE(rows_sorted(graphs.back().second));
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const SlotCapture serial = run_slot_reply(g, 1);
    EXPECT_GT(serial.checked, 0u);
    EXPECT_EQ(serial.bad, 0u);
    EXPECT_EQ(run_slot_reply(g, 4), serial);
  }
}

// Duplicated, corrupted and delayed copies keep the slot of the edge
// they were sent over.
TEST(DeliverySlot, SurvivesEveryFaultClass) {
  for (const auto& [name, g] : slot_graphs()) {
    SCOPED_TRACE(name);
    const SlotCapture serial = run_slot_reply(g, 1, every_fault_plan(g));
    EXPECT_GT(serial.checked, 0u);
    EXPECT_EQ(serial.bad, 0u);
    EXPECT_GT(serial.faults.dropped, 0u);
    EXPECT_GT(serial.faults.duplicated, 0u);
    EXPECT_GT(serial.faults.delayed, 0u);
    EXPECT_GT(serial.faults.corrupted, 0u);
    EXPECT_GT(serial.faults.link_down_drops, 0u);
    EXPECT_EQ(serial.faults.crashed_nodes, 1u);
    EXPECT_GT(serial.faults.crash_drops, 0u);
    EXPECT_EQ(run_slot_reply(g, 4, every_fault_plan(g)), serial);
  }
}

// ---------------------------------------------------------------------
// Event-driven rounds: NodeContext::sleep_until
// ---------------------------------------------------------------------

// Node v broadcasts its id in rounds 3, 1000 and 200000, each shifted by
// v % 3, and is done after the last one. The sleeping variant sleeps
// until its next send; the awake twin runs every round and sends in the
// same rounds, so everything a run reports except the per-round hook
// must agree.
class TimerProgram final : public NodeProgram {
 public:
  static constexpr std::array<std::uint64_t, 3> kFires = {3, 1000, 200000};
  using Receipt = std::pair<std::uint64_t, NodeId>;  ///< (round, sender)

  explicit TimerProgram(bool sleeps) : sleeps_(sleeps) {}

  void on_start(NodeContext& ctx) override {
    shift_ = ctx.id() % 3;
    maybe_sleep(ctx);
  }
  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    for (const Incoming& in : inbox) heard_.emplace_back(ctx.round(), in.from);
    if (next_ < kFires.size() && ctx.round() == kFires[next_] + shift_) {
      Message m;
      m.push(ctx.id(), 8);
      ctx.broadcast(m);
      ++next_;
    }
    maybe_sleep(ctx);
  }
  bool done() const override { return next_ == kFires.size(); }
  const std::vector<Receipt>& heard() const { return heard_; }

 private:
  void maybe_sleep(NodeContext& ctx) {
    if (sleeps_ && next_ < kFires.size()) {
      ctx.sleep_until(kFires[next_] + shift_);
    }
  }

  bool sleeps_;
  std::uint64_t shift_ = 0;
  std::size_t next_ = 0;
  std::vector<Receipt> heard_;
};

struct TimerCapture {
  RunStats stats;
  RunOutcome outcome;
  std::vector<TraceEntry> trace;
  std::vector<RoundMetrics> metrics;
  std::vector<std::vector<TimerProgram::Receipt>> heard;
};

TimerCapture run_timer(const WeightedGraph& g, bool sleeps, unsigned workers,
                       FaultPlan plan = {}) {
  Config cfg;
  cfg.hooks.record_trace = true;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = 0;
  cfg.faults = std::move(plan);
  TimerCapture cap;
  cfg.hooks.on_round_metrics = [&](const RoundMetrics& rm) {
    cap.metrics.push_back(rm);
  };
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(std::make_unique<TimerProgram>(sleeps));
  }
  Simulator sim(g, cfg);
  cap.stats = sim.run(programs);
  cap.outcome = sim.outcome();
  cap.trace = sim.trace();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    cap.heard.push_back(static_cast<const TimerProgram&>(*programs[v]).heard());
  }
  return cap;
}

WeightedGraph timer_graph() {
  Rng rng(5);
  return gen::erdos_renyi_connected(12, 0.3, rng);
}

TEST(SleepUntil, MatchesAlwaysAwakeTwin) {
  const auto g = timer_graph();
  const TimerCapture twin = run_timer(g, /*sleeps=*/false, 1);
  // Last send in round 200002, heard in 200003.
  EXPECT_EQ(twin.stats.rounds, 200004u);
  EXPECT_EQ(twin.stats.messages, 3 * 2 * g.edge_count());
  for (const unsigned workers : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    const TimerCapture got = run_timer(g, /*sleeps=*/true, workers);
    EXPECT_EQ(got.stats, twin.stats);
    EXPECT_EQ(got.trace, twin.trace);
    EXPECT_EQ(got.heard, twin.heard);
  }
}

// The hook fires once per executed round: the sleeping run reports only
// its send and receive rounds (round 0 too is skipped — every node
// sleeps from on_start), yet its sums and its peak utilization are the
// ledger's and the twin's.
TEST(SleepUntil, HookReportsOnlyExecutedRounds) {
  const auto g = timer_graph();
  const TimerCapture twin = run_timer(g, /*sleeps=*/false, 1);
  const TimerCapture got = run_timer(g, /*sleeps=*/true, 1);
  std::vector<std::uint64_t> expected;
  for (const std::uint64_t f : TimerProgram::kFires) {
    for (std::uint64_t r = f; r <= f + 3; ++r) expected.push_back(r);
  }
  std::vector<std::uint64_t> reported;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double peak = 0.0;
  for (const RoundMetrics& m : got.metrics) {
    reported.push_back(m.round);
    messages += m.messages;
    bits += m.bits;
    peak = std::max(peak, m.max_edge_utilization);
    EXPECT_GT(m.active_nodes, 0u) << "round " << m.round;
  }
  EXPECT_EQ(reported, expected);
  EXPECT_EQ(messages, got.stats.messages);
  EXPECT_EQ(bits, got.stats.bits);
  double twin_peak = 0.0;
  for (const RoundMetrics& m : twin.metrics) {
    twin_peak = std::max(twin_peak, m.max_edge_utilization);
  }
  EXPECT_EQ(twin.metrics.size(), twin.stats.rounds);
  EXPECT_DOUBLE_EQ(peak, twin_peak);
}

// Node 0 sleeps "forever"; node 1 sleeps until round 5 and sends to it.
// The mail wakes node 0 in round 6, and that activation resets its wake
// round to the next one, so it runs again in round 7 and is done.
TEST(SleepUntil, MailWakesASleepingNode) {
  struct Probe final : NodeProgram {
    std::vector<std::pair<std::uint64_t, std::size_t>> runs;
    std::size_t want = 1;  // activations until done
    void on_start(NodeContext& ctx) override {
      want = ctx.id() == 0 ? 2 : 1;
      ctx.sleep_until(ctx.id() == 0 ? 1'000'000 : 5);
    }
    void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
      runs.emplace_back(ctx.round(), inbox.size());
      if (ctx.id() == 1) {
        Message m;
        m.push(1, 4);
        ctx.send(0, m);
      }
    }
    bool done() const override { return runs.size() == want; }
  };
  auto run = run_on_all<Probe>(gen::path(2),
                               [](NodeId) { return std::make_unique<Probe>(); });
  using Runs = std::vector<std::pair<std::uint64_t, std::size_t>>;
  EXPECT_EQ(run.at(0).runs, (Runs{{6, 1}, {7, 0}}));
  EXPECT_EQ(run.at(1).runs, (Runs{{5, 0}}));
  EXPECT_EQ(run.stats, (RunStats{8, 1, 4}));
}

// A node that sleeps until `wake` and is done when it runs.
class SleepOnceProgram final : public NodeProgram {
 public:
  explicit SleepOnceProgram(std::uint64_t wake) : wake_(wake) {}
  void on_start(NodeContext& ctx) override { ctx.sleep_until(wake_); }
  void on_round(NodeContext&, std::span<const Incoming>) override {
    ran_ = true;
  }
  bool done() const override { return ran_; }

 private:
  std::uint64_t wake_;
  bool ran_ = false;
};

// The jump honours the horizon exactly as a round-by-round run would:
// waking in round max_rounds still executes it and then throws, waking
// past it throws at once, and an earlier wake finishes normally.
TEST(SleepUntil, WakePastMaxRoundsThrows) {
  const auto g = gen::path(3);
  Config cfg;
  cfg.execution.max_rounds = 100;
  const auto run_until = [&](std::uint64_t wake) {
    return run_on_all<SleepOnceProgram>(
        g, [&](NodeId) { return std::make_unique<SleepOnceProgram>(wake); },
        cfg);
  };
  EXPECT_EQ(run_until(99).stats.rounds, 100u);
  EXPECT_THROW(run_until(100), ModelError);
  EXPECT_THROW(run_until(101), ModelError);
  EXPECT_THROW(run_until(~std::uint64_t{0}), ModelError);
}

// sleep_until may not name the current round or an earlier one; the
// next round (the default) and round 0 during on_start are fine.
TEST(SleepUntil, PastRoundThrows) {
  struct Sleeper final : NodeProgram {
    std::uint64_t target_offset;  // wake = round + offset
    explicit Sleeper(std::uint64_t off) : target_offset(off) {}
    void on_start(NodeContext& ctx) override { ctx.sleep_until(0); }
    void on_round(NodeContext& ctx, std::span<const Incoming>) override {
      if (ctx.round() == 5) ctx.sleep_until(ctx.round() + target_offset);
      ran_ = ctx.round() >= 6;
    }
    bool done() const override { return ran_; }
    bool ran_ = false;
  };
  const auto g = gen::path(2);
  const auto run_with = [&](std::uint64_t off) {
    return run_on_all<Sleeper>(
        g, [&](NodeId) { return std::make_unique<Sleeper>(off); });
  };
  EXPECT_EQ(run_with(1).stats.rounds, 7u);
  EXPECT_EQ(run_with(3).stats.rounds, 9u);
  EXPECT_THROW(run_with(0), ModelError);
  try {
    run_with(0);
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("before the next round 6"),
              std::string::npos)
        << e.what();
  }
}

// A context used outside its node's activation is rejected: node 1
// drives node 0's context while node 0 is done and idle.
TEST(SleepUntil, OutsideOwnActivationThrows) {
  struct Stasher final : NodeProgram {
    NodeContext** zero;
    NodeId id = 0;
    bool ran = false;
    explicit Stasher(NodeContext** z) : zero(z) {}
    void on_start(NodeContext& ctx) override {
      id = ctx.id();
      if (id == 0) *zero = &ctx;
    }
    void on_round(NodeContext& ctx, std::span<const Incoming>) override {
      if (id == 1) (*zero)->sleep_until(ctx.round() + 5);
      ran = true;
    }
    bool done() const override { return id == 0 || ran; }
  };
  NodeContext* zero = nullptr;
  EXPECT_THROW(run_on_all<Stasher>(gen::path(2),
                                   [&](NodeId) {
                                     return std::make_unique<Stasher>(&zero);
                                   }),
               ModelError);
}

// Under a fault plan the engine steps every round (the hook reports each
// one), so a crash in a round where the node sleeps lands where the
// twin's does, and a delayed or link-killed delivery reaches (or misses)
// its sleeping receiver in the same round.
TEST(SleepUntil, CrashLandsInTheTwinsRound) {
  const auto g = timer_graph();
  FaultPlan plan;
  // Node 2 sleeps from round 5 to 1002; it crashes in between.
  plan.crashes.push_back(CrashEvent{2, 500});
  // Node 0's round-3 send to its first neighbour arrives two rounds late.
  FaultEvent delay;
  delay.round = 4;
  delay.from = 0;
  delay.to = g.csr().neighbors(0)[0].to;
  delay.kind = FaultKind::kDelay;
  delay.delay_rounds = 2;
  plan.events.push_back(delay);
  // Node 1's round-1001 broadcast loses its first edge.
  plan.link_down.push_back(
      LinkDownInterval{1, g.csr().neighbors(1)[0].to, 1002, 1002, false});
  const TimerCapture twin = run_timer(g, /*sleeps=*/false, 1, plan);
  EXPECT_EQ(twin.outcome.faults.crashed_nodes, 1u);
  EXPECT_EQ(twin.outcome.faults.delayed, 1u);
  EXPECT_EQ(twin.outcome.faults.link_down_drops, 1u);
  for (const unsigned workers : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    const TimerCapture got = run_timer(g, /*sleeps=*/true, workers, plan);
    EXPECT_EQ(got.metrics.size(), got.stats.rounds);
    EXPECT_EQ(got.stats, twin.stats);
    EXPECT_EQ(got.outcome, twin.outcome);
    EXPECT_EQ(got.trace, twin.trace);
    EXPECT_EQ(got.heard, twin.heard);
  }
}

// ---------------------------------------------------------------------
// BFS tree and aggregate pins
// ---------------------------------------------------------------------

// What one build_bfs_tree or global_aggregate run produced: the ledger
// (zero when the aggregate threw), the traffic digest of its hook log,
// a digest of every node's outputs, and the diagnostic or failure text.
struct PrimitivePin {
  RunStats stats;
  std::uint64_t traffic = 0;
  std::uint64_t outputs = 0;
  std::string text;

  friend bool operator==(const PrimitivePin&, const PrimitivePin&) = default;
};

void PrintTo(const PrimitivePin& p, std::ostream* os) {
  *os << "{{" << p.stats.rounds << ", " << p.stats.messages << ", "
      << p.stats.bits << "}, " << p.traffic << "ull, " << p.outputs
      << "ull, \"" << p.text << "\"}";
}

struct PrimitiveGraph {
  const char* name;
  WeightedGraph g;
  /// Crash-stop events of the BFS tree's crash plan.
  std::vector<CrashEvent> crashes;
};

// Path, grid, star, hypercube, ER and an R-MAT bgraph read back with
// load_bgraph. Each crash plan cuts some nodes off: the path behind
// node 16, the grid's rows 3-5 behind its crashed row 2, the
// hypercube's node 63 behind its six crashed neighbours; on the star,
// ER and R-MAT graphs only the crashed nodes stay unreached.
std::vector<PrimitiveGraph> primitive_graphs() {
  std::vector<PrimitiveGraph> out;
  out.push_back({"path33", gen::path(33), {{16, 1}}});
  std::vector<CrashEvent> row2;
  for (NodeId v = 14; v < 21; ++v) row2.push_back({v, 1});
  out.push_back({"grid6x7", gen::grid(6, 7), row2});
  out.push_back({"star40", gen::star(40), {{39, 0}, {20, 1}}});
  out.push_back({"hypercube6",
                 gen::hypercube(6),
                 {{62, 2}, {61, 2}, {59, 2}, {55, 2}, {47, 2}, {31, 2}}});
  Rng rng(11);
  out.push_back({"er64", gen::erdos_renyi_connected(64, 0.08, rng),
                 {{32, 1}, {63, 0}}});
  const std::string bg = ::testing::TempDir() + "primitive_pins_rmat10.bg";
  (void)gen::rmat_bgraph(bg, 10, 4096, 16, 5);
  out.push_back({"rmat10", load_bgraph(bg), {{512, 1}, {1023, 0}}});
  std::remove(bg.c_str());
  return out;
}

enum class PinPlan { kNone, kDelay, kDrop, kCrash };

Config pin_config(const PrimitiveGraph& pg, PinPlan plan, unsigned workers,
                  std::vector<RoundMetrics>& log) {
  Config cfg;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = 0;
  cfg.hooks.on_round_metrics = [&log](const RoundMetrics& m) {
    log.push_back(m);
  };
  cfg.faults.seed = 17;
  if (plan == PinPlan::kDelay) {
    cfg.faults.probabilities.delay = 0.05;
    cfg.faults.probabilities.delay_rounds = 2;
  } else if (plan == PinPlan::kDrop) {
    cfg.faults.probabilities.drop = 0.05;
  } else if (plan == PinPlan::kCrash) {
    cfg.faults.crashes = pg.crashes;
  }
  return cfg;
}

PrimitivePin pin_bfs_tree(const PrimitiveGraph& pg, PinPlan plan,
                          unsigned workers) {
  std::vector<RoundMetrics> log;
  const BfsTreeResult res =
      build_bfs_tree(pg.g, 0, pin_config(pg, plan, workers, log));
  std::uint64_t h = fnv1a({});
  for (const BfsTreeNodeResult& node : res.nodes) {
    h = fnv1a({node.parent, node.depth, node.children.size()}, h);
    for (const NodeId c : node.children) h = fnv1a({c}, h);
  }
  for (const NodeId v : res.unreached) h = fnv1a({v}, h);
  return {res.stats, traffic_digest(log), h, res.outcome.diagnostic};
}

// Node v holds (7v + 3) mod 101, summed at root 0.
PrimitivePin pin_aggregate(const PrimitiveGraph& pg, PinPlan plan,
                           unsigned workers) {
  std::vector<std::uint64_t> inputs(pg.g.node_count());
  for (NodeId v = 0; v < pg.g.node_count(); ++v) inputs[v] = (7 * v + 3) % 101;
  std::vector<RoundMetrics> log;
  try {
    const AggregateResult res =
        global_aggregate(pg.g, 0, inputs, AggregateOp::kSum, 20,
                         pin_config(pg, plan, workers, log));
    return {res.stats, traffic_digest(log), res.value, ""};
  } catch (const AlgorithmFailure& e) {
    return {RunStats{}, traffic_digest(log), 0, e.what()};
  }
}

// Literals captured from the programs that ran every live node in every
// round, before the BFS tree and the aggregate slept between their own
// events: sleeping may change how many nodes the engine runs, never
// what they send, when, or what they learn. Rows follow
// primitive_graphs(); columns are the plans.
TEST(PrimitivePins, BfsTreeRunsArePinned) {
  const std::vector<std::array<PrimitivePin, 3>> want = {
      {{  // path33
        {{33, 96, 480}, 7026963090838079821ull, 14946624120696105825ull, ""},
        {{41, 96, 480}, 15818247947278525233ull, 14946624120696105825ull,
         ""},
        {{68, 46, 232}, 2942760119888854898ull, 1106807127946113187ull,
         "BFS tree incomplete: 17 of 33 nodes unreached (crashed nodes: "
         "1, deliveries lost to crashes: 1, to link-down: 0)"},
      }},
      {{  // grid6x7
        {{12, 183, 1035}, 14794909078263691668ull, 10178105967809867968ull,
         ""},
        {{12, 183, 1035}, 16443034187577400600ull, 12331009433352799004ull,
         ""},
        {{86, 58, 328}, 16465120454253388342ull, 6519699451306050896ull,
         "BFS tree incomplete: 28 of 42 nodes unreached (crashed nodes: "
         "7, deliveries lost to crashes: 7, to link-down: 0)"},
      }},
      {{  // star40
        {{2, 117, 585}, 11380136994800301001ull, 2791716479041164231ull, ""},
        {{4, 117, 585}, 11380136994800301001ull, 3880327026485772519ull, ""},
        {{2, 115, 577}, 14231874433416094103ull, 1672945194826207059ull,
         "BFS tree incomplete: 1 of 40 nodes unreached (crashed nodes: 1, "
         "deliveries lost to crashes: 1, to link-down: 0)"},
      }},
      {{  // hypercube6
        {{7, 447, 2751}, 4085190399441010425ull, 14594118845561397859ull,
         ""},
        {{9, 447, 2751}, 4085190399441010425ull, 8090989853746387252ull, ""},
        {{130, 398, 2450}, 13476450969294919811ull, 11057305163535808666ull,
         "BFS tree incomplete: 7 of 64 nodes unreached (crashed nodes: 6, "
         "deliveries lost to crashes: 30, to link-down: 0)"},
      }},
      {{  // er64
        {{5, 379, 2275}, 5976003891498675432ull, 16018822992438234590ull,
         ""},
        {{7, 379, 2275}, 1147107181270546486ull, 12191168546497646874ull,
         ""},
        {{5, 366, 2196}, 12913175830895672943ull, 11583597904302824095ull,
         "BFS tree incomplete: 2 of 64 nodes unreached (crashed nodes: 2, "
         "deliveries lost to crashes: 11, to link-down: 0)"},
      }},
      {{  // rmat10
        {{9, 9789, 97449}, 15026100545730215403ull, 1628566343205800094ull,
         ""},
        {{14, 9789, 97449}, 14801330648109993453ull, 6874323092090206654ull,
         ""},
        {{9, 9787, 97437}, 5337054247151913665ull, 10051473019037569475ull,
         "BFS tree incomplete: 1 of 1024 nodes unreached (crashed nodes: "
         "1, deliveries lost to crashes: 143, to link-down: 0)"},
      }},
  };
  const auto graphs = primitive_graphs();
  ASSERT_EQ(want.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto plans = {PinPlan::kNone, PinPlan::kDelay, PinPlan::kCrash};
    std::size_t col = 0;
    for (const PinPlan plan : plans) {
      for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << graphs[i].name << " plan " << col << " workers "
                     << workers);
        EXPECT_EQ(pin_bfs_tree(graphs[i], plan, workers), want[i][col]);
      }
      ++col;
    }
  }
}

TEST(PrimitivePins, AggregateRunsArePinned) {
  const std::vector<std::array<PrimitivePin, 3>> want = {
      {{  // path33
        {{98, 160, 1984}, 16599868049191441943ull, 1472ull, ""},
        {{0, 0, 0}, 5685645412728500253ull, 0ull,
         "global aggregate failed: 4 of 33 nodes without a value (12, 16, "
         "21, 29) after 58 rounds"},
        {{0, 0, 0}, 13446550179000980473ull, 0ull,
         "global aggregate failed: 33 of 33 nodes without a value (0, 1, "
         "2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, ...) after 141 "
         "rounds"},
      }},
      {{  // grid6x7
        {{35, 265, 3022}, 10628989989295406089ull, 2012ull, ""},
        {{0, 0, 0}, 14330519290686442499ull, 0ull,
         "global aggregate failed: 1 of 42 nodes without a value (21) "
         "after 40 rounds"},
        {{0, 0, 0}, 13777323453104719656ull, 0ull,
         "global aggregate failed: 42 of 42 nodes without a value (0, 1, "
         "2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, ...) after 177 "
         "rounds"},
      }},
      {{  // star40
        {{5, 195, 2418}, 9236343414232463287ull, 1843ull, ""},
        {{9, 195, 2418}, 17425768623212868597ull, 1843ull, ""},
        {{0, 0, 0}, 13982514905695552529ull, 0ull,
         "global aggregate failed: 40 of 40 nodes without a value (0, 1, "
         "2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, ...) after 169 "
         "rounds"},
      }},
      {{  // hypercube6
        {{20, 573, 5970}, 8457165632639523997ull, 2992ull, ""},
        {{0, 0, 0}, 8336760347791876554ull, 0ull,
         "global aggregate failed: 1 of 64 nodes without a value (22) "
         "after 23 rounds"},
        {{0, 0, 0}, 1771777495369747978ull, 0ull,
         "global aggregate failed: 64 of 64 nodes without a value (0, 1, "
         "2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, ...) after 265 "
         "rounds"},
      }},
      {{  // er64
        {{14, 505, 5426}, 427332480142563272ull, 2992ull, ""},
        {{0, 0, 0}, 10163084507522211433ull, 0ull,
         "global aggregate failed: 2 of 64 nodes without a value (19, 46) "
         "after 17 rounds"},
        {{0, 0, 0}, 8379929766483580488ull, 0ull,
         "global aggregate failed: 22 of 64 nodes without a value (2, 3, "
         "5, 7, 8, 12, 19, 20, 25, 29, 36, 37, 39, 41, 43, 44, ...) after "
         "265 rounds"},
      }},
      {{  // rmat10
        {{26, 11835, 152250}, 1412940648293265549ull, 51179ull, ""},
        {{0, 0, 0}, 14118448849985731462ull, 0ull,
         "global aggregate failed: 5 of 1024 nodes without a value (206, "
         "416, 432, 448, 578) after 36 rounds"},
        {{0, 0, 0}, 1754005576961935263ull, 0ull,
         "global aggregate failed: 1024 of 1024 nodes without a value (0, "
         "1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, ...) after "
         "4105 rounds"},
      }},
  };
  const auto graphs = primitive_graphs();
  ASSERT_EQ(want.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto plans = {PinPlan::kNone, PinPlan::kDelay, PinPlan::kDrop};
    std::size_t col = 0;
    for (const PinPlan plan : plans) {
      for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << graphs[i].name << " plan " << col << " workers "
                     << workers);
        EXPECT_EQ(pin_aggregate(graphs[i], plan, workers), want[i][col]);
      }
      ++col;
    }
  }
}

// Each node runs on its own events only. On a path a BFS node runs when
// the announce and then its child's adopt reach it (two activations);
// an aggregate node also when its children are known and when the value
// comes down (four). Running every live node in every round sums to
// Theta(n * D) activations on a path: 2079 and 10208 here.
TEST(SleepingPrimitives, ActivationsFollowEvents) {
  const auto g = gen::path(64);
  const std::uint64_t n = g.node_count();
  std::uint64_t activations = 0;
  Config cfg;
  cfg.hooks.on_round_metrics = [&activations](const RoundMetrics& m) {
    activations += m.active_nodes;
  };
  (void)build_bfs_tree(g, 0, cfg);
  EXPECT_LE(activations, 2 * n);
  activations = 0;
  const std::vector<std::uint64_t> inputs(n, 1);
  EXPECT_EQ(global_aggregate(g, 0, inputs, AggregateOp::kSum, 8, cfg).value,
            n);
  EXPECT_LE(activations, 4 * n);
}

}  // namespace
}  // namespace qc::congest
