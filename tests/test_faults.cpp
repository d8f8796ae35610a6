// Tests for the fault-injection subsystem (congest/faults.h) and the
// redesigned run/config API around it:
//   * empty-plan identity — ledger/trace/metrics/outputs byte-identical
//     to the fault-free fast path, pinned against analytic goldens;
//   * schedule determinism — the same seed produces the same faults,
//     counters, and program outputs at workers = 1/2/8;
//   * per-class explicit events (drop/duplicate/delay/corrupt),
//     link-down intervals, crash-stop failures;
//   * robustness counterparts: acked flooding converging under 10%
//     drop, BFS liveness + diagnosable RunOutcome under crash-stop;
//   * the timed-release output rule of Algorithms 1-2 under a crash
//     and under mail delayed past the last scale;
//   * global_aggregate under drops and delays, and its rejection of
//     duplicate and corrupt plans; the BFS tree's children under
//     duplicated adopts;
//   * Algorithm 5's pooled sub-runs under delay and drop plans;
//   * paths::RunRequest required fields and fault-plan plumbing;
//   * quantum link faults and the runtime metrics bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/faults.h"
#include "congest/primitives.h"
#include "congest/simulator.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "paths/distributed.h"
#include "paths/reference.h"
#include "quantum/qnetwork.h"
#include "run_digest.h"
#include "runtime/metrics.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "toolkit_pins.h"
#include "util/rng.h"

namespace qc::congest {
namespace {

// ---------------------------------------------------------------------
// Workload programs
// ---------------------------------------------------------------------

// Every node broadcasts its id once at start and is done after the
// first round — the simplest fully deterministic all-edges workload:
// exactly 2|E| messages, all in the start phase, 1 round.
class BroadcastOnceProgram final : public NodeProgram {
 public:
  explicit BroadcastOnceProgram(std::uint32_t id_bits) : id_bits_(id_bits) {}
  void on_start(NodeContext& ctx) override {
    Message m;
    m.push(ctx.id(), id_bits_);
    ctx.broadcast(m);
  }
  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    (void)ctx;
    received_ += inbox.size();
    finished_ = true;
  }
  bool done() const override { return finished_; }
  std::uint64_t received() const { return received_; }

 private:
  std::uint32_t id_bits_;
  std::uint64_t received_ = 0;
  bool finished_ = false;
};

// Min-id flooding until quiescent — the multi-round workload the
// engine determinism tests use; faults perturb it but it always
// terminates (a quiet node only re-wakes on mail).
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

// Fixed-horizon point-to-point prober: `sender` sends the 16-bit
// payloads to `receiver` at start (ordinals 0..k-1 on that edge), and
// optionally one fresh payload (100 + r) in each round r <
// repeat_rounds. Every node stays live `horizon` rounds, so delayed
// deliveries are observed. Records (round, value, bits) per receipt.
class ProbeProgram final : public NodeProgram {
 public:
  struct Receipt {
    std::uint64_t round;
    std::uint64_t value;
    std::uint32_t bits;

    friend bool operator==(const Receipt&, const Receipt&) = default;
  };

  ProbeProgram(NodeId sender, NodeId receiver,
               std::vector<std::uint64_t> payloads, std::uint64_t horizon,
               std::uint64_t repeat_rounds = 0)
      : sender_(sender),
        receiver_(receiver),
        payloads_(std::move(payloads)),
        horizon_(horizon),
        repeat_rounds_(repeat_rounds) {}

  void on_start(NodeContext& ctx) override {
    if (ctx.id() != sender_) return;
    for (const std::uint64_t p : payloads_) {
      Message m;
      m.push(p, 16);
      ctx.send(receiver_, m);
    }
  }

  void on_round(NodeContext& ctx, std::span<const Incoming> inbox) override {
    for (const Incoming& in : inbox) {
      receipts_.push_back(
          Receipt{rounds_, in.msg.field(0), in.msg.bit_size()});
    }
    if (ctx.id() == sender_ && rounds_ < repeat_rounds_) {
      Message m;
      m.push(100 + rounds_, 16);
      ctx.send(receiver_, m);
    }
    ++rounds_;
  }

  bool done() const override { return rounds_ >= horizon_; }
  const std::vector<Receipt>& receipts() const { return receipts_; }

 private:
  NodeId sender_;
  NodeId receiver_;
  std::vector<std::uint64_t> payloads_;
  std::uint64_t horizon_;
  std::uint64_t repeat_rounds_;
  std::uint64_t rounds_ = 0;
  std::vector<Receipt> receipts_;
};

struct RunCapture {
  RunStats stats;
  RunOutcome outcome;
  std::vector<TraceEntry> trace;
  std::vector<RoundMetrics> metrics;
  std::vector<NodeId> outputs;

  friend bool operator==(const RunCapture&, const RunCapture&) = default;
};

RunCapture run_min_flood(const WeightedGraph& g, unsigned workers,
                         FaultPlan plan = {},
                         std::size_t min_work = Config::Execution{}
                                                    .pooled_round_min_work) {
  Config cfg;
  cfg.hooks.record_trace = true;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = min_work;
  cfg.faults = std::move(plan);
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
  cap.outcome = sim.outcome();
  cap.trace = sim.trace();
  cap.metrics = std::move(metrics);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    cap.outputs.push_back(
        static_cast<const MinFloodProgram&>(*programs[v]).best());
  }
  return cap;
}

// Runs the probe workload on a path graph and returns (receiver
// receipts, outcome, stats).
std::tuple<std::vector<ProbeProgram::Receipt>, RunOutcome, RunStats>
run_probe(const WeightedGraph& g, const FaultPlan& plan, NodeId sender,
          NodeId receiver, std::vector<std::uint64_t> payloads,
          std::uint64_t horizon, std::uint64_t repeat_rounds = 0) {
  Config cfg;
  cfg.faults = plan;
  // Tiny probe graphs get a tiny default B; widen it so several 16-bit
  // probes fit one edge-round (the tests meter faults, not bandwidth).
  cfg.bandwidth_bits = 64;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(std::make_unique<ProbeProgram>(
        sender, receiver, payloads, horizon, repeat_rounds));
  }
  Simulator sim(g, cfg);
  const RunStats stats = sim.run(programs);
  return {static_cast<const ProbeProgram&>(*programs[receiver]).receipts(),
          sim.outcome(), stats};
}

// 7-bit fields keep the acked wire format (1 type bit + item) within
// the default bandwidth even on small graphs: 2 * (14 + 1) = 30 bits
// fits B = 32 at n = 16.
FloodItem make_item(std::uint64_t id, std::uint64_t payload) {
  FloodItem item;
  item.push(id, 7);
  item.push(payload, 7);
  return item;
}

// ---------------------------------------------------------------------
// Empty-plan identity (the acceptance-criteria pin)
// ---------------------------------------------------------------------

// Analytic goldens for the one-shot broadcast workload: an empty fault
// plan must reproduce the fault-free engine bit for bit at any worker
// count. These constants pin the pre-fault-subsystem behaviour: path(6)
// has 5 edges = 10 directed sends of 8 bits, one executed round.
TEST(EmptyPlan, MatchesAnalyticGoldensAtAnyWorkerCount) {
  const auto g = gen::path(6);
  for (const unsigned workers : {1u, 2u, 8u}) {
    Config cfg;
    cfg.execution.workers = workers;
    cfg.hooks.record_trace = true;
    cfg.faults = FaultPlan{};  // explicitly installed, still empty
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (NodeId v = 0; v < 6; ++v) {
      programs.push_back(std::make_unique<BroadcastOnceProgram>(8));
    }
    Simulator sim(g, cfg);
    const RunStats stats = sim.run(programs);
    EXPECT_EQ(stats.rounds, 1u) << "workers=" << workers;
    EXPECT_EQ(stats.messages, 10u) << "workers=" << workers;
    EXPECT_EQ(stats.bits, 80u) << "workers=" << workers;
    EXPECT_EQ(sim.trace().size(), 10u) << "workers=" << workers;
    for (const TraceEntry& t : sim.trace()) EXPECT_EQ(t.round, 0u);
    EXPECT_EQ(sim.fault_counters(), FaultCounters{}) << "workers=" << workers;
    const RunOutcome outcome = sim.outcome();
    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.faults.total(), 0u);
    // Endpoints received their 1 neighbour's id, inner nodes 2.
    for (NodeId v = 0; v < 6; ++v) {
      const auto& p = static_cast<const BroadcastOnceProgram&>(*programs[v]);
      EXPECT_EQ(p.received(), (v == 0 || v == 5) ? 1u : 2u);
    }
  }
}

// Ledger, trace, metrics, and outputs of a multi-round workload with an
// (explicitly installed) empty plan are byte-identical to a config that
// never mentions faults, at every worker count.
TEST(EmptyPlan, IsByteIdenticalToFaultFreeConfig) {
  Rng rng(42);
  const auto g = gen::erdos_renyi_connected(64, 0.1, rng);
  const RunCapture golden = run_min_flood(g, 1);
  for (const unsigned workers : {1u, 2u, 8u}) {
    const RunCapture with_empty_plan = run_min_flood(g, workers, FaultPlan{});
    EXPECT_EQ(with_empty_plan, golden) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------
// Schedule determinism
// ---------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedSameFaultsAtAnyWorkerCount) {
  Rng rng(7);
  const auto g = gen::erdos_renyi_connected(48, 0.12, rng);
  FaultPlan plan;
  plan.seed = 0xfeedface;
  plan.probabilities.drop = 0.10;
  plan.probabilities.duplicate = 0.05;
  plan.probabilities.delay = 0.05;
  plan.probabilities.delay_rounds = 2;
  plan.probabilities.corrupt = 0.05;
  const RunCapture golden = run_min_flood(g, 1, plan);
  // The plan actually fired (otherwise this test pins nothing).
  EXPECT_GT(golden.outcome.faults.dropped, 0u);
  EXPECT_GT(golden.outcome.faults.duplicated, 0u);
  EXPECT_GT(golden.outcome.faults.delayed, 0u);
  EXPECT_GT(golden.outcome.faults.corrupted, 0u);
  for (const unsigned workers : {2u, 8u}) {
    EXPECT_EQ(run_min_flood(g, workers, plan), golden)
        << "workers=" << workers;
  }
}

// The same seeded plan against literals captured from the engine that
// kept separate serial, sharded and faulted merges: the test above
// compares worker counts of one build, this one pins the numbers
// themselves — every fault counter, the ledger, both logs and the
// program outputs.
TEST(FaultDeterminism, SeededPlanMatchesPinnedGolden) {
  Rng rng(7);
  const auto g = gen::erdos_renyi_connected(48, 0.12, rng);
  FaultPlan plan;
  plan.seed = 0xfeedface;
  plan.probabilities.drop = 0.10;
  plan.probabilities.duplicate = 0.05;
  plan.probabilities.delay = 0.05;
  plan.probabilities.delay_rounds = 2;
  plan.probabilities.corrupt = 0.05;
  for (const unsigned workers : {1u, 8u}) {
    const RunCapture got = run_min_flood(g, workers, plan);
    EXPECT_EQ(got.stats, (RunStats{7, 877, 28064})) << "workers=" << workers;
    // dropped, duplicated, delayed, corrupted; no link or crash faults.
    EXPECT_EQ(got.outcome.faults, (FaultCounters{100, 32, 32, 36, 0, 0, 0}))
        << "workers=" << workers;
    EXPECT_EQ(got.trace.size(), 877u) << "workers=" << workers;
    EXPECT_EQ(trace_digest(got.trace), 17230120686097204748ull)
        << "workers=" << workers;
    EXPECT_EQ(got.metrics.size(), 7u) << "workers=" << workers;
    EXPECT_EQ(metrics_digest(got.metrics), 9608064748847836317ull)
        << "workers=" << workers;
    EXPECT_EQ(got.outputs, std::vector<NodeId>(48, 0)) << "workers=" << workers;
  }
}

// The faulted merge stays serial — fault resolution order is part of
// its determinism contract — but it shares the fault-free merge's
// replay, placement and scatter helpers. Forcing the pool on (threshold
// 0) in a faulted pooled run must change nothing: the knob only
// reroutes program phases and fault-free merges.
TEST(FaultDeterminism, ShardingKnobDoesNotPerturbFaultedRuns) {
  Rng rng(9);
  const auto g = gen::erdos_renyi_connected(48, 0.12, rng);
  FaultPlan plan;
  plan.seed = 0xabad1dea;
  plan.probabilities.drop = 0.10;
  plan.probabilities.delay = 0.05;
  const RunCapture golden = run_min_flood(g, 1, plan);
  EXPECT_GT(golden.outcome.faults.total(), 0u);
  for (const unsigned workers : {1u, 8u}) {
    EXPECT_EQ(run_min_flood(g, workers, plan, /*min_work=*/0), golden)
        << "workers=" << workers;
  }
  // And the same graph + knob without a plan routes through the sharded
  // merge: fault-free results must still match their own serial golden.
  const RunCapture free_golden = run_min_flood(g, 1);
  EXPECT_EQ(run_min_flood(g, 8, FaultPlan{}, /*min_work=*/0), free_golden);
}

// Algorithms 1-3 through their entry points under one seeded plan with
// every fault that moves a delivery in time or kills it: delay-by-k,
// drops, a link outage and a crash-stop node. The literals were
// captured from the engine that ran every live node in every round,
// before programs could sleep between their scheduled events; a
// sleeping node must still see every delayed arrival in its round.
TEST(FaultDeterminism, ToolkitRunsUnderSeededPlanArePinned) {
  const auto g = paths::toolkit_graph();
  FaultPlan plan;
  plan.seed = 0x51ee9;
  plan.probabilities.drop = 0.05;
  plan.probabilities.delay = 0.05;
  plan.probabilities.delay_rounds = 3;
  plan.link_down.push_back(
      LinkDownInterval{0, g.csr().neighbors(0)[0].to, 4, 30});
  plan.crashes.push_back(CrashEvent{7, 12});
  for (const unsigned workers : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    Config cfg;
    cfg.execution.workers = workers;
    cfg.execution.pooled_round_min_work = 0;
    cfg.faults = plan;
    const paths::ToolkitPins got = paths::pin_toolkit(g, cfg);
    EXPECT_EQ(got.alg2,
              (paths::ToolkitPin{{42, 68, 408}, 6596295711208691658ull,
                                 12490671475351011572ull}));
    EXPECT_EQ(got.alg1,
              (paths::ToolkitPin{{440, 456, 2736}, 8026453942000641107ull,
                                 5249882728107757904ull}));
    EXPECT_EQ(got.alg3,
              (paths::ToolkitPin{{1972, 2165, 19115}, 11487003139314754035ull,
                                 8703979861573259196ull}));
  }
}

TEST(FaultDeterminism, DifferentSeedsDifferentSchedules) {
  Rng rng(7);
  const auto g = gen::erdos_renyi_connected(48, 0.12, rng);
  FaultPlan a;
  a.seed = 1;
  a.probabilities.drop = 0.2;
  FaultPlan b = a;
  b.seed = 2;
  EXPECT_NE(run_min_flood(g, 1, a).outcome.faults,
            run_min_flood(g, 1, b).outcome.faults);
}

// ---------------------------------------------------------------------
// Explicit per-message events
// ---------------------------------------------------------------------

TEST(FaultEvents, DropDestroysDeliveryButBillsBandwidth) {
  const auto g = gen::path(2);
  FaultPlan plan;
  plan.events.push_back(FaultEvent{0, 0, 1, 0, FaultKind::kDrop, 1, 0, 1});
  const auto [receipts, outcome, stats] = run_probe(g, plan, 0, 1, {7}, 4);
  EXPECT_TRUE(receipts.empty());
  EXPECT_EQ(outcome.faults.dropped, 1u);
  EXPECT_EQ(stats.messages, 1u);  // the attempt is still on the ledger
  EXPECT_EQ(stats.bits, 16u);
}

TEST(FaultEvents, DuplicateDeliversTwoCopies) {
  const auto g = gen::path(2);
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{0, 0, 1, 0, FaultKind::kDuplicate, 1, 0, 1});
  const auto [receipts, outcome, stats] = run_probe(g, plan, 0, 1, {7}, 4);
  ASSERT_EQ(receipts.size(), 2u);
  EXPECT_EQ(receipts[0], (ProbeProgram::Receipt{0, 7, 16}));
  EXPECT_EQ(receipts[1], (ProbeProgram::Receipt{0, 7, 16}));
  EXPECT_EQ(outcome.faults.duplicated, 1u);
  EXPECT_EQ(stats.messages, 1u);  // one send, two deliveries
}

TEST(FaultEvents, DelayShiftsDeliveryRound) {
  const auto g = gen::path(2);
  FaultPlan plan;
  plan.events.push_back(FaultEvent{0, 0, 1, 0, FaultKind::kDelay, 3, 0, 1});
  const auto [receipts, outcome, stats] = run_probe(g, plan, 0, 1, {7}, 8);
  ASSERT_EQ(receipts.size(), 1u);
  // Normal delivery round 0, +3 rounds in flight.
  EXPECT_EQ(receipts[0], (ProbeProgram::Receipt{3, 7, 16}));
  EXPECT_EQ(outcome.faults.delayed, 1u);
}

TEST(FaultEvents, CorruptFlipsMaskedBitsAndPreservesSize) {
  const auto g = gen::path(2);
  FaultPlan plan;
  plan.events.push_back(
      FaultEvent{0, 0, 1, 0, FaultKind::kCorrupt, 1, 0, 0b101});
  const auto [receipts, outcome, stats] = run_probe(g, plan, 0, 1, {7}, 4);
  ASSERT_EQ(receipts.size(), 1u);
  EXPECT_EQ(receipts[0].value, 7u ^ 0b101u);
  EXPECT_EQ(receipts[0].bits, 16u);  // widths survive corruption
  EXPECT_EQ(outcome.faults.corrupted, 1u);
}

TEST(FaultEvents, OrdinalSelectsWithinRound) {
  const auto g = gen::path(2);
  // 3 payloads queued the same round: drop only the middle one.
  FaultPlan plan;
  plan.events.push_back(FaultEvent{0, 0, 1, 1, FaultKind::kDrop, 1, 0, 1});
  const auto [receipts, outcome, stats] =
      run_probe(g, plan, 0, 1, {5, 6, 7}, 4);
  ASSERT_EQ(receipts.size(), 2u);
  EXPECT_EQ(receipts[0].value, 5u);
  EXPECT_EQ(receipts[1].value, 7u);
  EXPECT_EQ(outcome.faults.dropped, 1u);
}

TEST(FaultEvents, ValidationRejectsBadPlans) {
  const auto g = gen::path(3);
  const auto make_sim = [&](const FaultPlan& plan) {
    Config cfg;
    cfg.faults = plan;
    return std::make_unique<Simulator>(g, cfg);
  };
  FaultPlan bad_prob;
  bad_prob.probabilities.drop = 1.5;
  EXPECT_THROW(make_sim(bad_prob), ArgumentError);
  FaultPlan non_edge;
  non_edge.events.push_back(FaultEvent{0, 0, 2, 0, FaultKind::kDrop, 1, 0, 1});
  EXPECT_THROW(make_sim(non_edge), ArgumentError);
  FaultPlan bad_crash;
  bad_crash.crashes.push_back(CrashEvent{9, 0});
  EXPECT_THROW(make_sim(bad_crash), ArgumentError);
  FaultPlan bad_interval;
  bad_interval.link_down.push_back(LinkDownInterval{0, 1, 5, 2, true});
  EXPECT_THROW(make_sim(bad_interval), ArgumentError);
}

// ---------------------------------------------------------------------
// Link-down intervals
// ---------------------------------------------------------------------

TEST(LinkDown, DestroysDeliveriesInsideTheInterval) {
  const auto g = gen::path(2);
  FaultPlan plan;
  plan.link_down.push_back(LinkDownInterval{0, 1, 1, 3, true});
  // Start send (delivery 0) + sends in rounds 0..5 (deliveries 1..6);
  // deliveries 1-3 are destroyed.
  const auto [receipts, outcome, stats] = run_probe(g, plan, 0, 1, {7}, 9, 6);
  ASSERT_EQ(receipts.size(), 4u);
  EXPECT_EQ(receipts[0].round, 0u);
  EXPECT_EQ(receipts[1].round, 4u);
  EXPECT_EQ(receipts[2].round, 5u);
  EXPECT_EQ(receipts[3].round, 6u);
  EXPECT_EQ(outcome.faults.link_down_drops, 3u);
  EXPECT_EQ(stats.messages, 7u);  // every attempt billed
}

TEST(LinkDown, AsymmetricIntervalOnlyKillsOneDirection) {
  const auto g = gen::path(2);
  FaultPlan plan;
  plan.link_down.push_back(LinkDownInterval{1, 0, 0, 50, false});  // 1->0 only
  const auto [receipts, outcome, stats] = run_probe(g, plan, 0, 1, {7}, 4);
  ASSERT_EQ(receipts.size(), 1u);  // 0->1 unaffected
  EXPECT_EQ(outcome.faults.link_down_drops, 0u);
}

// ---------------------------------------------------------------------
// Crash-stop failures
// ---------------------------------------------------------------------

TEST(CrashStop, MidBfsSurfacesDiagnosableOutcome) {
  const auto g = gen::path(8);
  Config cfg;
  cfg.faults.crashes.push_back(CrashEvent{3, 2});
  const BfsTreeResult res = build_bfs_tree(g, 0, cfg);
  EXPECT_FALSE(res.outcome.completed);
  EXPECT_NE(res.outcome.diagnostic.find("unreached"), std::string::npos);
  EXPECT_EQ(res.outcome.faults.crashed_nodes, 1u);
  // Node 3 crashes at round 2, exactly when depth-3 announcements reach
  // it: the tree is cut there and everything behind it stays unreached.
  EXPECT_EQ(res.unreached, (std::vector<NodeId>{3, 4, 5, 6, 7}));
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(res.nodes[v].depth, static_cast<Dist>(v));
  }
  // Liveness: the unreached side gave up at the internal horizon instead
  // of spinning to Config::Execution::max_rounds.
  EXPECT_LE(res.stats.rounds, 2 * g.node_count() + 3);
}

TEST(CrashStop, FaultFreeBfsStillCompletes) {
  const auto g = gen::balanced_binary_tree(15);
  const BfsTreeResult res = build_bfs_tree(g, 0);
  EXPECT_TRUE(res.outcome.completed);
  EXPECT_TRUE(res.outcome.diagnostic.empty());
  EXPECT_TRUE(res.unreached.empty());
}

TEST(CrashStop, CrashedNodeStopsSendingAndReceiving) {
  const auto g = gen::path(2);
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 2});
  // Sender keeps sending rounds 0..5; deliveries at rounds >= 2 are
  // destroyed by the receiver's crash.
  const auto [receipts, outcome, stats] = run_probe(g, plan, 0, 1, {7}, 8, 6);
  ASSERT_EQ(receipts.size(), 2u);  // deliveries at rounds 0 and 1 only
  EXPECT_EQ(outcome.faults.crashed_nodes, 1u);
  EXPECT_EQ(outcome.faults.crash_drops, 5u);
}

// ---------------------------------------------------------------------
// The timed-release output rule (paths/distributed.h)
// ---------------------------------------------------------------------

// Algorithm 1 on path(4) from node 0 with σ = 6 and cap 9: node 1 hears
// the source in round 1 (distance 6, due at offset 6 of scale 0) and
// crashes in round 3, before any scale ends. It reports the scale in
// progress, which here is already the true d̃; nodes behind it hear
// nothing.
TEST(TimedReleaseOutput, CrashMidScaleReportsTheScaleInProgress) {
  const auto g = gen::path(4);
  const paths::HopScale hs{3, 1, g.max_weight()};
  ASSERT_EQ(hs.rounded_cap(), 9u);
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 3});
  const auto res = paths::distributed_bounded_hop_sssp(
      g, paths::RunRequest{}.with_source(0).with_scale(hs).with_faults(plan));
  const auto ref = paths::approx_bounded_hop_from(g, 0, hs);
  EXPECT_EQ(ref[1], 6u);
  EXPECT_EQ(res.approx, (std::vector<Dist>{0, ref[1], kInfDist, kInfDist}));
}

// Algorithm 2 with cap 5 from node 0 on a triangle: node 2 hears 5 over
// its direct edge and 2 via node 1. Delaying node 1's announcement to
// node 2 by 10 rounds lands it after round cap + 1, where node 2 has
// finished: it is ignored, exactly as if it had been dropped.
TEST(TimedReleaseOutput, MailAfterTheLastScaleIsIgnored) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(0, 2, 5);
  const Dist cap = 5;
  const auto run = [&](FaultKind kind) {
    FaultPlan plan;
    plan.events.push_back(FaultEvent{2, 1, 2, 0, kind, 10, 0, 1});
    return paths::distributed_bounded_distance_sssp(
        g, paths::RunRequest{}.with_source(0).with_cap(cap).with_faults(
               plan));
  };
  const auto delayed = run(FaultKind::kDelay);
  EXPECT_GT(delayed.stats.rounds, cap + 2);  // the late mail was delivered
  EXPECT_EQ(delayed.dist, (std::vector<Dist>{0, 1, 5}));
  EXPECT_EQ(delayed.dist, run(FaultKind::kDrop).dist);
}

// ---------------------------------------------------------------------
// Global aggregate under message faults
// ---------------------------------------------------------------------

// The pinned aggregate: node v of ER(24, 0.15, Rng(5)) holds 3v + 1,
// summed at root 0.
WeightedGraph aggregate_graph() {
  Rng rng(5);
  return gen::erdos_renyi_connected(24, 0.15, rng);
}

std::vector<std::uint64_t> aggregate_inputs() {
  std::vector<std::uint64_t> inputs(24);
  for (NodeId v = 0; v < 24; ++v) inputs[v] = 3 * v + 1;
  return inputs;  // sum 852
}

// A run gives up at the internal horizon (4n + 8 rounds); the budget
// adds room for deliveries still delayed past it.
constexpr std::uint64_t kAggregateBudget = 4 * 24 + 8 + 8;

TEST(AggregateFaults, FaultFreeRunIsPinned) {
  // Captured before the aggregate had a liveness horizon.
  const AggregateResult res = global_aggregate(
      aggregate_graph(), 0, aggregate_inputs(), AggregateOp::kSum, 16);
  EXPECT_EQ(res.value, 852u);
  EXPECT_EQ(res.stats, (RunStats{17, 147, 1420}));
}

TEST(AggregateFaults, LateAdoptUnderDelaysFailsWithinTheHorizon) {
  // Three-round delays land adopt messages after their parent reported
  // up, so the late child's input is missing and nobody sends it the
  // final value: this run used to step until max_rounds.
  Config cfg;
  cfg.execution.max_rounds = kAggregateBudget;
  cfg.faults.seed = 7;
  cfg.faults.probabilities.delay = 0.2;
  cfg.faults.probabilities.delay_rounds = 3;
  try {
    (void)global_aggregate(aggregate_graph(), 0, aggregate_inputs(),
                           AggregateOp::kSum, 16, cfg);
    ADD_FAILURE() << "aggregate returned under a late adopt";
  } catch (const AlgorithmFailure& e) {
    EXPECT_NE(std::string(e.what()).find("nodes without a value"),
              std::string::npos)
        << e.what();
  }
}

TEST(AggregateFaults, DroppedMessagesFailWithinTheHorizon) {
  Config cfg;
  cfg.execution.max_rounds = kAggregateBudget;
  cfg.faults.seed = 1;
  cfg.faults.probabilities.drop = 0.1;
  EXPECT_THROW((void)global_aggregate(aggregate_graph(), 0,
                                      aggregate_inputs(), AggregateOp::kSum,
                                      16, cfg),
               AlgorithmFailure);
}

TEST(AggregateFaults, DropsAndDelaysNeverYieldAWrongValue) {
  // Under drop and delay faults the aggregate either returns the true
  // value or throws; it used to return partial sums. Both outcomes
  // occur over these plans, so neither branch is vacuous.
  const auto g = aggregate_graph();
  const auto inputs = aggregate_inputs();
  int returned = 0;
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const auto& [drop, delay, rounds] :
         {std::tuple{0.02, 0.0, 1u}, std::tuple{0.0, 0.1, 1u},
          std::tuple{0.0, 0.2, 3u}, std::tuple{0.02, 0.1, 2u}}) {
      Config cfg;
      cfg.execution.max_rounds = kAggregateBudget;
      cfg.faults.seed = seed;
      cfg.faults.probabilities.drop = drop;
      cfg.faults.probabilities.delay = delay;
      cfg.faults.probabilities.delay_rounds = rounds;
      try {
        EXPECT_EQ(global_aggregate(g, 0, inputs, AggregateOp::kSum, 16, cfg)
                      .value,
                  852u)
            << "seed " << seed << " drop " << drop << " delay " << delay;
        ++returned;
      } catch (const AlgorithmFailure&) {
        ++failed;
      }
    }
  }
  EXPECT_GT(returned, 0);
  EXPECT_GT(failed, 0);
}

// The convergecast has no dedup and no checksum, so a plan that can
// duplicate or corrupt a message is rejected before the run starts,
// whether it sets those classes as probabilities or as explicit events.
// Such a plan used to return 87 for the sum 852 (duplicate = 0.1, plan
// seed 10), or trip a message precondition (corrupt = 0.1).
TEST(AggregateFaults, DuplicateOrCorruptPlanIsRejected) {
  const auto g = aggregate_graph();
  const auto first = g.csr().neighbors(0)[0].to;
  const auto duplicate = [](FaultPlan& p) { p.probabilities.duplicate = 0.1; };
  const auto corrupt = [](FaultPlan& p) { p.probabilities.corrupt = 0.1; };
  const auto event = [first](FaultKind kind) {
    return [first, kind](FaultPlan& p) {
      p.events.push_back(FaultEvent{1, 0, first, 0, kind, 1, 0, 1});
    };
  };
  const std::vector<std::function<void(FaultPlan&)>> plans = {
      duplicate, corrupt, event(FaultKind::kDuplicate),
      event(FaultKind::kCorrupt)};
  for (std::size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "plan " << i);
    Config cfg;
    cfg.faults.seed = 10;
    plans[i](cfg.faults);
    std::uint64_t rounds_run = 0;
    cfg.hooks.on_round_metrics = [&](const RoundMetrics&) { ++rounds_run; };
    try {
      (void)global_aggregate(g, 0, aggregate_inputs(), AggregateOp::kSum, 16,
                             cfg);
      ADD_FAILURE() << "aggregate ran under a duplicate or corrupt plan";
    } catch (const ArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("global_aggregate"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(rounds_run, 0u);
  }
}

// A duplicated adopt reaches the parent as two adjacent copies; the
// parent records that child once. Each of these plans duplicates some
// adopt (the tree used to list 29/26/27 children for 23 nodes).
TEST(BfsTreeFaults, DuplicatedAdoptRecordsTheChildOnce) {
  const auto g = aggregate_graph();
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "plan seed " << seed);
    Config cfg;
    cfg.faults.seed = seed;
    cfg.faults.probabilities.duplicate = 0.1;
    const BfsTreeResult res = build_bfs_tree(g, 0, cfg);
    ASSERT_TRUE(res.outcome.completed);
    EXPECT_GT(res.outcome.faults.duplicated, 0u);
    std::vector<int> listed(g.node_count(), 0);
    for (NodeId p = 0; p < g.node_count(); ++p) {
      for (const NodeId c : res.nodes[p].children) {
        EXPECT_EQ(res.nodes[c].parent, p) << "child " << c;
        ++listed[c];
      }
    }
    for (NodeId v = 1; v < g.node_count(); ++v) {
      EXPECT_EQ(listed[v], 1) << "node " << v;
    }
    EXPECT_EQ(listed[0], 0);
  }
}

// ---------------------------------------------------------------------
// Algorithm 5's sub-runs under a fault plan
// ---------------------------------------------------------------------

// Algorithm 5 from overlay source 2 of a five-member overlay on the
// toolkit graph (built fault-free), under `faults`, with its sub-runs on
// `pool`.
struct OverlayUnderFaults {
  WeightedGraph g = paths::toolkit_graph();
  paths::Params params =
      paths::Params::make(g.node_count(), unweighted_diameter(g));
  paths::OverlayEmbedding emb;

  OverlayUnderFaults() {
    const std::vector<NodeId> set = {1, 5, 9, 14, 20};
    Rng delays(17);
    const auto ms = paths::distributed_multi_source_bhs(
        g, paths::RunRequest{}
               .with_sources(set)
               .with_scale({params.ell, params.eps_inv, g.max_weight()})
               .with_rng(delays));
    emb = paths::distributed_embed_overlay(
        g, ms.approx,
        paths::RunRequest{}.with_sources(set).with_params(params));
  }

  paths::OverlaySsspResult run(const FaultPlan& faults,
                               runtime::ThreadPool* pool) const {
    Config cfg;
    cfg.faults = faults;
    cfg.execution.pool = pool;
    return paths::distributed_overlay_sssp(g, emb,
                                           paths::RunRequest{}
                                               .with_params(params)
                                               .with_overlay_source(2)
                                               .with_config(cfg));
  }
};

TEST(OverlaySsspFaults, DelayOnlyPlanIsEqualAtEveryWorkerCount) {
  const OverlayUnderFaults fx;
  const auto fault_free = fx.run({}, nullptr);
  FaultPlan plan;
  plan.seed = 3;
  plan.probabilities.delay = 0.02;
  plan.probabilities.delay_rounds = 2;
  const auto serial = fx.run(plan, nullptr);
  // The delays stretch the sub-runs; the relaxation is untouched.
  EXPECT_GT(serial.stats.rounds, fault_free.stats.rounds);
  EXPECT_EQ(serial.approx, fault_free.approx);
  for (const unsigned workers : {1u, 2u, 4u}) {
    runtime::ThreadPool pool(workers);
    const auto res = fx.run(plan, &pool);
    EXPECT_EQ(res.stats, serial.stats) << "workers " << workers;
    EXPECT_EQ(res.approx, serial.approx) << "workers " << workers;
  }
}

TEST(OverlaySsspFaults, DropPlanThrowsTheSameAtEveryWorkerCount) {
  const OverlayUnderFaults fx;
  FaultPlan plan;
  plan.seed = 3;
  plan.probabilities.drop = 0.05;
  const auto failure = [&](runtime::ThreadPool* pool) -> std::string {
    try {
      (void)fx.run(plan, pool);
    } catch (const AlgorithmFailure& e) {
      return e.what();
    }
    ADD_FAILURE() << "Algorithm 5 returned under the drop plan";
    return {};
  };
  const std::string serial = failure(nullptr);
  EXPECT_NE(serial.find("without a value"), std::string::npos) << serial;
  for (const unsigned workers : {1u, 2u, 4u}) {
    runtime::ThreadPool pool(workers);
    EXPECT_EQ(failure(&pool), serial) << "workers " << workers;
  }
}

// ---------------------------------------------------------------------
// Acked flooding
// ---------------------------------------------------------------------

TEST(ReliableFlood, MatchesPlainFloodFaultFree) {
  Rng rng(11);
  const auto g = gen::erdos_renyi_connected(20, 0.2, rng);
  std::vector<std::vector<FloodItem>> initial(g.node_count());
  initial[0].push_back(make_item(1, 100));
  initial[5].push_back(make_item(2, 101));
  initial[12].push_back(make_item(3, 102));
  const auto plain = flood_items(g, initial);
  const auto acked = flood_items_reliable(g, initial);
  EXPECT_TRUE(acked.outcome.completed);
  EXPECT_EQ(acked.outcome.faults.total(), 0u);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(acked.items_at[v], plain.items_at[v]) << "node " << v;
  }
}

TEST(ReliableFlood, ConvergesUnderTenPercentDrop) {
  Rng rng(11);
  const auto g = gen::erdos_renyi_connected(20, 0.2, rng);
  std::vector<std::vector<FloodItem>> initial(g.node_count());
  initial[0].push_back(make_item(1, 100));
  initial[5].push_back(make_item(2, 101));
  initial[12].push_back(make_item(3, 102));
  const auto expected = flood_items(g, initial).items_at;

  Config cfg;
  cfg.faults.seed = 99;
  cfg.faults.probabilities.drop = 0.10;
  const auto acked = flood_items_reliable(g, initial, 8, cfg);
  EXPECT_GT(acked.outcome.faults.dropped, 0u);  // faults actually hit
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(acked.items_at[v], expected[v]) << "node " << v;
  }
}

TEST(ReliableFlood, DropScheduleIsDeterministicAcrossWorkers) {
  Rng rng(13);
  const auto g = gen::erdos_renyi_connected(16, 0.25, rng);
  std::vector<std::vector<FloodItem>> initial(g.node_count());
  initial[2].push_back(make_item(1, 100));
  initial[9].push_back(make_item(2, 101));
  const auto run = [&](unsigned workers) {
    Config cfg;
    cfg.execution.workers = workers;
    cfg.faults.seed = 4242;
    cfg.faults.probabilities.drop = 0.10;
    cfg.faults.probabilities.delay = 0.05;
    return flood_items_reliable(g, initial, 4, cfg);
  };
  const auto golden = run(1);
  EXPECT_GT(golden.outcome.faults.total(), 0u);
  for (const unsigned workers : {2u, 8u}) {
    const auto got = run(workers);
    EXPECT_EQ(got.outcome, golden.outcome) << "workers=" << workers;
    EXPECT_EQ(got.items_at, golden.items_at) << "workers=" << workers;
  }
}

TEST(ReliableFlood, RejectsDuplicatePayloads) {
  const auto g = gen::path(16);
  std::vector<std::vector<FloodItem>> initial(16);
  initial[1].push_back(make_item(1, 100));
  initial[13].push_back(make_item(1, 100));
  EXPECT_THROW(flood_items_reliable(g, initial), AlgorithmFailure);
}

// ---------------------------------------------------------------------
// paths::RunRequest
// ---------------------------------------------------------------------

TEST(RunRequestApi, MissingRequiredFieldsFailLoudly) {
  const auto g = gen::path(4);
  // Algorithm 3 without an rng, Algorithms 4/5 without params.
  EXPECT_THROW(paths::distributed_multi_source_bhs(
                   g, paths::RunRequest{}.with_sources({0})),
               ArgumentError);
  EXPECT_THROW(
      paths::distributed_embed_overlay(g, {}, paths::RunRequest{}),
      ArgumentError);
}

TEST(RunRequestApi, CarriesFaultPlanIntoTheEngine) {
  const auto g = gen::path(6);
  FaultPlan plan;
  plan.probabilities.drop = 0.3;
  plan.seed = 3;
  // Drops perturb the SSSP ledger relative to fault-free — proof the
  // plan reached the engine through the request.
  const auto clean = paths::distributed_bounded_distance_sssp(
      g, paths::RunRequest{}.with_source(0).with_cap(10));
  const auto faulted = paths::distributed_bounded_distance_sssp(
      g, paths::RunRequest{}.with_source(0).with_cap(10).with_faults(plan));
  EXPECT_NE(faulted.stats, clean.stats);
}

// ---------------------------------------------------------------------
// Quantum link faults
// ---------------------------------------------------------------------

TEST(QuantumFaults, DownedLinkRejectsQubitTransfer) {
  quantum::QuantumNetwork net(gen::path(2), 1);
  net.set_link_faults({LinkDownInterval{0, 1, 0, 1, true}});
  EXPECT_THROW(net.send_qubit(0, 1, 0), ModelError);
  net.end_round();  // round 1: still down
  EXPECT_THROW(net.send_qubit(0, 1, 0), ModelError);
  net.end_round();  // round 2: back up
  net.send_qubit(0, 1, 0);
  net.end_round();
  EXPECT_EQ(net.owner(0), 1u);
}

TEST(QuantumFaults, ValidationRejectsNonEdges) {
  quantum::QuantumNetwork net(gen::path(3), 1);
  EXPECT_THROW(net.set_link_faults({LinkDownInterval{0, 2, 0, 1, true}}),
               ArgumentError);
}

// ---------------------------------------------------------------------
// Metrics bridge
// ---------------------------------------------------------------------

TEST(FaultMetrics, RecordIntoRegistry) {
  FaultCounters c;
  c.dropped = 3;
  c.delayed = 2;
  c.crashed_nodes = 1;
  runtime::MetricsRegistry registry;
  runtime::record_fault_metrics(c, registry);
  EXPECT_EQ(registry.counter("sim.faults.dropped").value(), 3u);
  EXPECT_EQ(registry.counter("sim.faults.delayed").value(), 2u);
  EXPECT_EQ(registry.counter("sim.faults.crashed_nodes").value(), 1u);
  EXPECT_EQ(registry.counter("sim.faults.corrupted").value(), 0u);
  // Counters accumulate across runs, as phase orchestrations need.
  runtime::record_fault_metrics(c, registry);
  EXPECT_EQ(registry.counter("sim.faults.dropped").value(), 6u);
}

}  // namespace
}  // namespace qc::congest
