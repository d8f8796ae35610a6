// Wall-clock benchmark of the CONGEST simulator fast path against the
// seed engine it replaced.
//
// The seed engine (reproduced verbatim below) allocated two heap vectors
// per message, located neighbour slots by O(degree) row scans (making a
// broadcast O(deg²)), swapped per-node inbox vectors and refilled the
// whole 2m-entry bandwidth ledger every round, and ran strictly
// serially. The fast path stores messages inline, routes through the
// precomputed EdgeSlotIndex, keeps mailboxes in a double-buffered arena,
// touches only the active node set per round, and optionally fans
// on_round out over the work-stealing pool. This bench times both on
// identical workloads (BFS flood, Algorithm 1 bounded-hop SSSP, and the
// Algorithm 4 overlay embedding), asserts the ledgers, traces and
// program outputs are byte-identical (including across worker counts
// and at both extremes of the pooled_round_min_work knob, whose 0
// forces the sharded mailbox merge on), and writes
// BENCH_congest_sim.json with one row per (workload, variant, n,
// workers). The alg1 "fast pooled" row runs with the default
// pooled_round_min_work, which keeps its tiny rounds on the calling
// thread; the "fast pooled always-pool" row forces the pool on every
// program phase and every merge, and documents the fan-out tax the
// threshold removes.
//
// Usage: bench_congest_sim [--smoke] [--large] [--n N] [--out FILE]
//   --smoke   tiny instance for ctest (correctness + JSON, no timing
//             claims)
//   --large   additionally bench alg4_overlay on an n=65536 sparse ER
//             graph (p = 8/n) at w = 1/2/4/8 — the sharded-merge
//             scaling row; excluded from the ctest smoke entry
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "congest/simulator.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "paths/distributed.h"
#include "paths/params.h"
#include "runtime/sweep.h"
#include "util/rng.h"
#include "util/table.h"

// --- seed (pre-fast-path) engine, kept as the comparison baseline -----
// Verbatim from the pre-PR src/congest/{message,simulator}.{h,cpp},
// comments elided; only the namespace differs.

namespace seedsim {

using qc::HalfEdge;
using qc::ModelError;
using qc::NodeId;
using qc::Rng;
using qc::WeightedGraph;

class Message {
 public:
  Message() = default;
  Message& push(std::uint64_t value, std::uint32_t bits) {
    QC_REQUIRE(bits >= 1 && bits <= 64, "field width must be in [1, 64]");
    QC_REQUIRE(bits == 64 || value < (std::uint64_t{1} << bits),
               "field value does not fit in declared width");
    fields_.push_back(value);
    widths_.push_back(bits);
    bit_size_ += bits;
    return *this;
  }
  std::size_t field_count() const { return fields_.size(); }
  std::uint64_t field(std::size_t i) const {
    QC_REQUIRE(i < fields_.size(), "message field index out of range");
    return fields_[i];
  }
  std::uint32_t field_width(std::size_t i) const {
    QC_REQUIRE(i < widths_.size(), "message field index out of range");
    return widths_[i];
  }
  std::uint32_t bit_size() const { return bit_size_; }

 private:
  std::vector<std::uint64_t> fields_;
  std::vector<std::uint32_t> widths_;
  std::uint32_t bit_size_ = 0;
};

struct Incoming {
  NodeId from;
  Message msg;
};

struct Config {
  std::uint32_t bandwidth_bits = 0;
  std::uint64_t max_rounds = 50'000'000;
  std::uint64_t seed = 1;
  bool record_trace = false;
};

struct TraceEntry {
  std::uint64_t round;
  NodeId from;
  NodeId to;
  std::uint32_t bits;
};

struct RunStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

class Simulator;

class NodeContext {
 public:
  NodeId id() const { return id_; }
  NodeId n() const;
  std::span<const HalfEdge> neighbors() const;
  void send(NodeId to, Message m);
  void broadcast(const Message& m);
  Rng& rng();

 private:
  friend class Simulator;
  NodeContext(Simulator& sim, NodeId id) : sim_(&sim), id_(id) {}
  Simulator* sim_;
  NodeId id_;
};

class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  virtual void on_start(NodeContext& ctx) { (void)ctx; }
  virtual void on_round(NodeContext& ctx, std::span<const Incoming> inbox) = 0;
  virtual bool done() const = 0;
};

class Simulator {
 public:
  Simulator(const WeightedGraph& graph, Config config)
      : graph_(&graph),
        config_(config),
        bandwidth_(config.bandwidth_bits != 0
                       ? config.bandwidth_bits
                       : qc::congest::default_bandwidth(graph.node_count())) {
    QC_REQUIRE(graph.node_count() >= 1, "network needs at least one node");
    Rng master(config_.seed);
    node_rngs_.reserve(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      node_rngs_.push_back(master.fork());
    }
    sender_done_.assign(graph.node_count(), false);
    outgoing_.resize(graph.node_count());
    edge_bits_.resize(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      edge_bits_[v].assign(graph.degree(v), 0);
    }
  }

  RunStats run(std::span<const std::unique_ptr<NodeProgram>> programs) {
    const NodeId n = graph_->node_count();
    QC_REQUIRE(programs.size() == n, "need exactly one program per node");
    stats_ = RunStats{};
    round_ = 0;
    outgoing_count_ = 0;
    trace_.clear();
    for (auto& row : outgoing_) row.clear();
    std::vector<NodeContext> contexts;
    contexts.reserve(n);
    for (NodeId v = 0; v < n; ++v) contexts.push_back(NodeContext(*this, v));
    for (NodeId v = 0; v < n; ++v) {
      sender_done_[v] = false;
      programs[v]->on_start(contexts[v]);
    }
    std::vector<std::vector<Incoming>> inboxes(n);
    for (;;) {
      for (NodeId v = 0; v < n; ++v) {
        inboxes[v].clear();
        inboxes[v].swap(outgoing_[v]);
      }
      const bool had_messages = outgoing_count_ > 0;
      outgoing_count_ = 0;
      for (auto& bits : edge_bits_) {
        std::fill(bits.begin(), bits.end(), 0);
      }
      bool all_done = true;
      for (NodeId v = 0; v < n; ++v) {
        if (!programs[v]->done()) {
          all_done = false;
          break;
        }
      }
      if (all_done && !had_messages) break;
      for (NodeId v = 0; v < n; ++v) {
        sender_done_[v] = programs[v]->done() && inboxes[v].empty();
        if (sender_done_[v]) continue;
        programs[v]->on_round(contexts[v], inboxes[v]);
        sender_done_[v] = false;
      }
      ++round_;
      QC_REQUIRE(round_ <= config_.max_rounds, "exceeded max_rounds");
    }
    stats_.rounds = round_;
    return stats_;
  }

  const WeightedGraph& graph() const { return *graph_; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

 private:
  friend class NodeContext;

  void queue_message(NodeId from, NodeId to, Message m) {
    QC_CHECK(from < graph_->node_count(), "sender out of range");
    if (to >= graph_->node_count() || !graph_->has_edge(from, to)) {
      throw ModelError("node " + std::to_string(from) +
                       " tried to message non-neighbour " + std::to_string(to));
    }
    if (sender_done_[from]) {
      throw ModelError("node " + std::to_string(from) +
                       " sent a message after declaring done");
    }
    const auto adj = graph_->neighbors(from);
    std::size_t slot = adj.size();
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (adj[i].to == to) {
        slot = i;
        break;
      }
    }
    QC_CHECK(slot < adj.size(), "neighbour slot lookup failed");
    const std::uint32_t used = edge_bits_[from][slot] + m.bit_size();
    if (used > bandwidth_) {
      throw ModelError("bandwidth exceeded");
    }
    edge_bits_[from][slot] = used;
    stats_.messages += 1;
    stats_.bits += m.bit_size();
    if (config_.record_trace) {
      trace_.push_back(TraceEntry{round_, from, to, m.bit_size()});
    }
    outgoing_[to].push_back(Incoming{from, std::move(m)});
    ++outgoing_count_;
  }

  const WeightedGraph* graph_;
  Config config_;
  std::uint32_t bandwidth_;
  std::uint64_t round_ = 0;
  RunStats stats_;
  std::vector<Rng> node_rngs_;
  std::vector<bool> sender_done_;
  std::vector<std::vector<Incoming>> outgoing_;
  std::uint64_t outgoing_count_ = 0;
  std::vector<std::vector<std::uint32_t>> edge_bits_;
  std::vector<TraceEntry> trace_;
};

inline NodeId NodeContext::n() const { return sim_->graph().node_count(); }
inline std::span<const HalfEdge> NodeContext::neighbors() const {
  return sim_->graph().neighbors(id_);
}
inline void NodeContext::send(NodeId to, Message m) {
  sim_->queue_message(id_, to, std::move(m));
}
inline void NodeContext::broadcast(const Message& m) {
  for (const HalfEdge& h : neighbors()) {
    sim_->queue_message(id_, h.to, m);
  }
}
inline Rng& NodeContext::rng() { return sim_->node_rngs_[id_]; }

}  // namespace seedsim

namespace {

using namespace qc;

// --- engine-generic workload programs ---------------------------------
// The same program source runs on both engines via an Api tag, so the
// comparison isolates engine differences (both variants use the
// pre-fast-path program idiom: map-based per-neighbour state, broadcast
// by node id).

struct SeedApi {
  using Message = seedsim::Message;
  using Incoming = seedsim::Incoming;
  using NodeContext = seedsim::NodeContext;
  using NodeProgram = seedsim::NodeProgram;
};

struct FastApi {
  using Message = congest::Message;
  using Incoming = congest::Incoming;
  using NodeContext = congest::NodeContext;
  using NodeProgram = congest::NodeProgram;
};

/// BFS flood: the source announces 0; every node announces dist on first
/// arrival. Broadcast-heavy, few rounds — the workload the O(deg²)
/// broadcast scan hurt most.
template <typename Api>
class BfsFloodProgram final : public Api::NodeProgram {
 public:
  BfsFloodProgram(NodeId source, std::uint32_t dist_bits)
      : source_(source), dist_bits_(dist_bits) {}

  void on_start(typename Api::NodeContext& ctx) override {
    if (ctx.id() == source_) {
      dist_ = 0;
      announced_ = true;
      typename Api::Message m;
      m.push(0, dist_bits_);
      ctx.broadcast(m);
    }
  }

  void on_round(typename Api::NodeContext& ctx,
                std::span<const typename Api::Incoming> inbox) override {
    if (announced_) return;  // later arrivals can't improve a BFS level
    for (const auto& in : inbox) {
      dist_ = std::min(dist_, in.msg.field(0) + 1);
    }
    if (dist_ != kInfDist) {
      announced_ = true;
      typename Api::Message m;
      m.push(dist_, dist_bits_);
      ctx.broadcast(m);
    }
  }

  bool done() const override { return announced_; }

  Dist value() const { return dist_; }

 private:
  NodeId source_;
  std::uint32_t dist_bits_;
  Dist dist_ = kInfDist;
  bool announced_ = false;
};

/// Algorithm 1 (bounded-hop SSSP): one timed-release pass per weight
/// scale on a fixed schedule — long-running with a shrinking active
/// set, the workload the O(n)-per-round scans hurt most.
template <typename Api>
class HopSsspProgram final : public Api::NodeProgram {
 public:
  HopSsspProgram(NodeId source, const paths::HopScale& scale,
                 std::uint32_t dist_bits)
      : source_(source),
        scale_(scale),
        scales_(scale.scale_count()),
        cap_(scale.rounded_cap()),
        dist_bits_(dist_bits) {}

  void on_start(typename Api::NodeContext& ctx) override {
    for (const HalfEdge& h : ctx.neighbors()) {
      weights_[h.to] = h.weight;
    }
    reset_scale(ctx.id());
  }

  void on_round(typename Api::NodeContext& ctx,
                std::span<const typename Api::Incoming> inbox) override {
    for (const auto& in : inbox) {
      const std::uint64_t w =
          scale_.rounded_weight(weights_.at(in.from), scale_index_);
      best_ = std::min(best_, dist_add(in.msg.field(0), w));
    }
    if (!announced_ && best_ == offset_ && best_ <= cap_) {
      announced_ = true;
      typename Api::Message m;
      m.push(best_, dist_bits_);
      ctx.broadcast(m);
    }
    ++offset_;
    if (offset_ == cap_ + 2) {
      if (best_ <= cap_) {
        dtilde_ = std::min(dtilde_, best_ << scale_index_);
      }
      ++scale_index_;
      if (scale_index_ < scales_) reset_scale(ctx.id());
    }
  }

  bool done() const override { return scale_index_ >= scales_; }

  Dist value() const { return dtilde_; }

 private:
  void reset_scale(NodeId me) {
    best_ = (me == source_) ? 0 : kInfDist;
    offset_ = 0;
    announced_ = false;
  }

  NodeId source_;
  paths::HopScale scale_;
  std::uint32_t scales_;
  Dist cap_;
  std::uint32_t dist_bits_;
  std::map<NodeId, Weight> weights_;
  std::uint32_t scale_index_ = 0;
  Dist best_ = kInfDist;
  Dist offset_ = 0;
  bool announced_ = false;
  Dist dtilde_ = kInfDist;
};

// --- harness ----------------------------------------------------------

double time_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Process CPU time (user + system). For single-threaded variants this is
// the steal- and load-immune measure of "work done on one core", which
// is what the serial speedup claim is about; wall clock on a shared
// machine also charges whatever the neighbours are doing.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double cpu_time_of(const std::function<void()>& fn) {
  const double t0 = cpu_now();
  fn();
  return cpu_now() - t0;
}

// Best-of-k timing: runs the variants interleaved for `batches` rounds
// and keeps each variant's fastest batch. The minimum is the standard
// estimator for "true cost" on a machine with background load (noise is
// strictly additive), and interleaving keeps slow phases of the host
// from landing entirely on one variant. `use_cpu[i]` selects process CPU
// time instead of wall clock (single-threaded variants only — CPU time
// would hide the point of the pooled ones).
std::vector<double> best_of(int batches,
                            std::span<const std::function<void()>> variants,
                            std::span<const bool> use_cpu) {
  std::vector<double> best(variants.size(),
                           std::numeric_limits<double>::infinity());
  for (int b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const double t =
          use_cpu[i] ? cpu_time_of(variants[i]) : time_of(variants[i]);
      best[i] = std::min(best[i], t);
    }
  }
  return best;
}

struct Outcome {
  congest::RunStats stats;
  std::vector<congest::TraceEntry> trace;
  std::vector<Dist> values;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

template <typename Program, typename Make>
Outcome run_seed(const WeightedGraph& g, const Make& make, bool trace) {
  seedsim::Config cfg;
  cfg.record_trace = trace;
  std::vector<std::unique_ptr<seedsim::NodeProgram>> programs;
  programs.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) programs.push_back(make(v));
  seedsim::Simulator sim(g, cfg);
  const seedsim::RunStats s = sim.run(programs);
  Outcome out;
  out.stats = congest::RunStats{s.rounds, s.messages, s.bits};
  out.trace.reserve(sim.trace().size());
  for (const seedsim::TraceEntry& t : sim.trace()) {
    out.trace.push_back(congest::TraceEntry{t.round, t.from, t.to, t.bits});
  }
  out.values.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.values.push_back(static_cast<const Program&>(*programs[v]).value());
  }
  return out;
}

template <typename Program, typename Make>
Outcome run_fast(const WeightedGraph& g, const Make& make, bool trace,
                 unsigned workers,
                 std::size_t min_work =
                     congest::Config::Execution{}.pooled_round_min_work) {
  congest::Config cfg;
  cfg.hooks.record_trace = trace;
  cfg.execution.workers = workers;
  cfg.execution.pooled_round_min_work = min_work;
  std::vector<std::unique_ptr<congest::NodeProgram>> programs;
  programs.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) programs.push_back(make(v));
  congest::Simulator sim(g, cfg);
  Outcome out;
  out.stats = sim.run(programs);
  out.trace = sim.trace();
  out.values.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.values.push_back(static_cast<const Program&>(*programs[v]).value());
  }
  return out;
}

struct Row {
  std::string workload;
  std::string variant;
  NodeId n = 0;           ///< node count of the graph this row ran on
  unsigned workers = 1;   ///< Config::Execution::workers (1 for seed)
  double seconds = 0;
  double speedup = 1.0;   ///< vs the workload's baseline variant (same n)
  bool identical = true;  ///< outcome equals the baseline outcome
};

struct Spec {
  NodeId n = 0;        ///< base graph node count
  std::size_t m = 0;   ///< base graph edge count
  unsigned hardware_workers = 0;  ///< raw std::thread::hardware_concurrency()
  std::vector<unsigned> benched_workers;
  bool large = false;  ///< whether the n=65536 rows were benched
};

std::string to_json(const Spec& spec, const std::vector<Row>& rows,
                    double bfs_serial_speedup, double overlay_w8_speedup,
                    NodeId overlay_n, bool deterministic) {
  std::ostringstream os;
  os << "{\n  \"spec\": {\"n\": " << spec.n << ", \"m\": " << spec.m
     << ", \"hardware_workers\": " << spec.hardware_workers
     << ", \"benched_workers\": [";
  for (std::size_t i = 0; i < spec.benched_workers.size(); ++i) {
    os << (i ? ", " : "") << spec.benched_workers[i];
  }
  os << "], \"large\": " << (spec.large ? "true" : "false")
     << "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"workload\": \"" << r.workload << "\", \"variant\": \""
       << r.variant << "\", \"n\": " << r.n << ", \"workers\": " << r.workers
       << ", \"seconds\": " << r.seconds
       << ", \"speedup_vs_baseline\": " << r.speedup << ", \"identical\": "
       << (r.identical ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"acceptance\": {\"bfs_fast_serial_speedup_vs_seed\": "
     << bfs_serial_speedup << ", \"alg4_overlay_w8_speedup_vs_w1\": "
     << overlay_w8_speedup << ", \"alg4_overlay_speedup_n\": " << overlay_n
     << ", \"byte_identical_at_all_worker_counts\": "
     << (deterministic ? "true" : "false") << "}\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  NodeId n = 2048;
  bool smoke = false;
  bool large = false;
  std::string out_path = "BENCH_congest_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      n = 128;
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<NodeId>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  // Random connected graph, avg degree ~8 — the Theorem 1.1 sweep regime.
  Rng rng(2022);
  auto g = gen::erdos_renyi_connected(n, 8.0 / double(n), rng);
  g = gen::randomize_weights(g, 64, rng);
  g.csr();  // warm the CSR/slot caches outside the timers (one-time cost)
  g.slot_index();
  // Report the machine as it is: hardware_concurrency() verbatim (0 =
  // unknown), not clamped to the worker counts we bench. The benched
  // counts live in spec.benched_workers — on a box with fewer cores
  // than 8 the w=8 rows still run (oversubscribed) and are still
  // byte-identical; they just can't show wall-clock scaling.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<unsigned> benched_workers = {1, 2, 4, 8};
  const int reps_bfs = smoke ? 2 : 8;
  const int reps_hop = smoke ? 1 : 2;
  const int batches = smoke ? 1 : 5;  // best-of-k, see best_of()

  std::printf(
      "congest simulator: %s, avg deg %.1f, B=%u bits, %u hardware "
      "worker(s)\n\n",
      g.summary().c_str(), 2.0 * double(g.edge_count()) / double(n),
      congest::default_bandwidth(n), hw);

  std::vector<Row> rows;
  TextTable table(
      {"workload", "variant", "n", "w", "wall s", "speedup", "identical"});
  const auto push = [&](const std::string& workload,
                        const std::string& variant, NodeId row_n,
                        unsigned workers, double secs, double base_secs,
                        bool identical) {
    const double speedup = secs > 0 ? base_secs / secs : 0.0;
    rows.push_back({workload, variant, row_n, workers, secs, speedup,
                    identical});
    table.add(workload, variant, row_n, workers, secs, speedup,
              identical ? "yes" : "NO");
  };

  bool all_identical = true;
  double bfs_serial_speedup = 0;

  // BFS flood.
  {
    const std::uint32_t dist_bits = bits_for(n + 1);
    const auto seed_make = [&](NodeId) {
      return std::make_unique<BfsFloodProgram<SeedApi>>(0, dist_bits);
    };
    const auto fast_make = [&](NodeId) {
      return std::make_unique<BfsFloodProgram<FastApi>>(0, dist_bits);
    };
    using SeedP = BfsFloodProgram<SeedApi>;
    using FastP = BfsFloodProgram<FastApi>;

    const Outcome golden = run_seed<SeedP>(g, seed_make, /*trace=*/true);
    for (const unsigned w : benched_workers) {
      // Force the pool (min=0) so the identity check covers the parallel
      // scatter path even where n is below the default threshold.
      const Outcome got =
          run_fast<FastP>(g, fast_make, /*trace=*/true, w, /*min_work=*/0);
      all_identical &= got == golden;
    }

    const std::function<void()> variants[] = {
        [&] {
          for (int r = 0; r < reps_bfs; ++r) run_seed<SeedP>(g, seed_make, false);
        },
        [&] {
          for (int r = 0; r < reps_bfs; ++r) run_fast<FastP>(g, fast_make, false, 1);
        },
        [&] {
          for (int r = 0; r < reps_bfs; ++r) run_fast<FastP>(g, fast_make, false, 8);
        },
    };
    const bool use_cpu[] = {true, true, false};
    const std::vector<double> t = best_of(batches, variants, use_cpu);
    push("bfs_flood", "seed serial", n, 1, t[0], t[0], true);
    bfs_serial_speedup = t[1] > 0 ? t[0] / t[1] : 0.0;
    push("bfs_flood", "fast w=1", n, 1, t[1], t[0], all_identical);
    push("bfs_flood", "fast pooled", n, 8, t[2], t[0], all_identical);
  }

  // Algorithm 1: bounded-hop SSSP.
  {
    const paths::HopScale scale{/*ell=*/16, /*eps_inv=*/2, g.max_weight()};
    const std::uint32_t dist_bits = bits_for(scale.rounded_cap() + 2);
    const auto seed_make = [&](NodeId) {
      return std::make_unique<HopSsspProgram<SeedApi>>(0, scale, dist_bits);
    };
    const auto fast_make = [&](NodeId) {
      return std::make_unique<HopSsspProgram<FastApi>>(0, scale, dist_bits);
    };
    using SeedP = HopSsspProgram<SeedApi>;
    using FastP = HopSsspProgram<FastApi>;

    const Outcome golden = run_seed<SeedP>(g, seed_make, /*trace=*/true);
    for (const unsigned w : benched_workers) {
      const Outcome got =
          run_fast<FastP>(g, fast_make, /*trace=*/true, w, /*min_work=*/0);
      all_identical &= got == golden;
      // Both extremes of the pool threshold must agree: the knob may
      // only trade wall-clock, never bytes.
      const Outcome never =
          run_fast<FastP>(g, fast_make, /*trace=*/true, w,
                          std::numeric_limits<std::size_t>::max());
      all_identical &= never == golden;
    }
    // Workload shape for the docs/perf.md serial-bound analysis: alg1
    // runs many rounds each carrying very few deliveries, so neither
    // the pooled round loop nor the sharded merge has work to spread.
    std::printf("alg1_hop_sssp shape: %llu rounds, %llu messages "
                "(%.1f deliveries/round)\n",
                static_cast<unsigned long long>(golden.stats.rounds),
                static_cast<unsigned long long>(golden.stats.messages),
                double(golden.stats.messages) /
                    double(std::max<std::uint64_t>(1, golden.stats.rounds)));

    const std::function<void()> variants[] = {
        [&] {
          for (int r = 0; r < reps_hop; ++r) run_seed<SeedP>(g, seed_make, false);
        },
        [&] {
          for (int r = 0; r < reps_hop; ++r) run_fast<FastP>(g, fast_make, false, 1);
        },
        [&] {
          for (int r = 0; r < reps_hop; ++r) run_fast<FastP>(g, fast_make, false, 8);
        },
        // Diagnostic: the pool forced on for every program phase and
        // every merge. With ~112 deliveries/round the fan-out/join tax
        // dwarfs the work, which is exactly why pooled_round_min_work
        // exists — the default-knob "fast pooled" row above must not
        // regress below "fast w=1", while this row documents the cost
        // the threshold removes.
        [&] {
          for (int r = 0; r < reps_hop; ++r) {
            run_fast<FastP>(g, fast_make, false, 8, /*min_work=*/0);
          }
        },
    };
    const bool use_cpu[] = {true, true, false, false};
    const std::vector<double> t = best_of(batches, variants, use_cpu);
    push("alg1_hop_sssp", "seed serial", n, 1, t[0], t[0], true);
    push("alg1_hop_sssp", "fast w=1", n, 1, t[1], t[0], all_identical);
    push("alg1_hop_sssp", "fast pooled", n, 8, t[2], t[0], all_identical);
    push("alg1_hop_sssp", "fast pooled always-pool", n, 8, t[3], t[0],
         all_identical);
  }

  // Algorithm 4: overlay embedding through the public API (fast engine
  // only — the seed engine predates it); worker counts must agree. This
  // is the sharded-merge scaling workload: every round moves dense
  // broadcast batches, so the merge dominates and per-worker rows show
  // whether the parallel scatter pays off. Returns the w=8 vs w=1
  // speedup for the acceptance record.
  const auto bench_overlay = [&](const WeightedGraph& gg) {
    const NodeId nn = gg.node_count();
    const std::size_t b = std::min<std::size_t>(8, nn);
    std::vector<NodeId> sources;
    for (std::size_t a = 0; a < b; ++a) {
      sources.push_back(static_cast<NodeId>(a * nn / b));
    }
    std::vector<std::vector<Dist>> approx_rows;
    approx_rows.reserve(b);
    for (const NodeId s : sources) approx_rows.push_back(dijkstra(gg, s));
    const paths::Params params = paths::Params::make(nn, /*D=*/16);

    const auto run_overlay = [&](unsigned w, std::size_t min_work) {
      congest::Config cfg;
      cfg.execution.workers = w;
      cfg.execution.pooled_round_min_work = min_work;
      return paths::distributed_embed_overlay(
          gg, approx_rows,
          paths::RunRequest{}
              .with_sources(sources)
              .with_params(params)
              .with_config(cfg));
    };
    const auto same_embedding = [](const paths::OverlayEmbedding& a,
                                   const paths::OverlayEmbedding& b2) {
      return a.w1 == b2.w1 && a.w2 == b2.w2 && a.nearest_k == b2.nearest_k &&
             a.max_w2 == b2.max_w2 && a.stats == b2.stats;
    };
    const std::size_t def_min =
        congest::Config::Execution{}.pooled_round_min_work;

    paths::OverlayEmbedding golden;
    const double t_base =
        time_of([&] { golden = run_overlay(1, def_min); });
    push("alg4_overlay", "fast w=1", nn, 1, t_base, t_base, true);
    double w8_speedup = 0;
    for (const unsigned w : {2u, 4u, 8u}) {
      paths::OverlayEmbedding got;
      const double t_w = time_of([&] { got = run_overlay(w, def_min); });
      bool same = same_embedding(got, golden);
      if (nn < 4 * def_min) {
        // Small graphs sit below the sharding threshold in the timed run
        // above; re-run with the sharded merge forced on so the identity
        // flag covers the parallel scatter path too. Large graphs clear
        // the threshold naturally, so the timed run already did.
        same = same && same_embedding(run_overlay(w, 0), golden);
      }
      all_identical &= same;
      push("alg4_overlay", "fast w=" + std::to_string(w), nn, w, t_w, t_base,
           same);
      if (w == 8) w8_speedup = t_w > 0 ? t_base / t_w : 0.0;
    }
    return w8_speedup;
  };

  double overlay_w8_speedup = bench_overlay(g);
  NodeId overlay_n = n;
  if (large) {
    // The scaling row the acceptance targets: n=65536 sparse ER
    // (p = 8/n), alg4_overlay at w = 1/2/4/8. Separate RNG stream so
    // --large never perturbs the base-graph rows.
    Rng lrng(2023);
    const NodeId ln = 65536;
    auto lg = gen::erdos_renyi_connected(ln, 8.0 / double(ln), lrng);
    lg = gen::randomize_weights(lg, 64, lrng);
    lg.csr();
    lg.slot_index();
    std::printf("large graph: %s, avg deg %.1f\n", lg.summary().c_str(),
                2.0 * double(lg.edge_count()) / double(ln));
    overlay_w8_speedup = bench_overlay(lg);
    overlay_n = ln;
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("bfs fast-path speedup vs seed (one core): %.2fx "
              "(acceptance target >= 3x; byte-identical outcomes %s)\n",
              bfs_serial_speedup, all_identical ? "hold" : "FAIL");
  std::printf("alg4_overlay w=8 vs w=1 at n=%u: %.2fx (the >= 3x target "
              "presumes >= 8 hardware workers; this host reports %u)\n",
              static_cast<unsigned>(overlay_n), overlay_w8_speedup, hw);

  Spec spec;
  spec.n = n;
  spec.m = g.edge_count();
  spec.hardware_workers = hw;
  spec.benched_workers = benched_workers;
  spec.large = large;
  runtime::write_file(out_path, to_json(spec, rows, bfs_serial_speedup,
                                        overlay_w8_speedup, overlay_n,
                                        all_identical));
  std::printf("wrote %s\n", out_path.c_str());

  return all_identical ? 0 : 1;
}
