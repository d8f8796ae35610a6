// Synchronous CONGEST network simulator.
//
// Executes per-node programs round by round on a `WeightedGraph` topology:
// in round r every node receives the messages sent to it in round r-1,
// does local computation, and queues messages for round r+1. The engine
// enforces the model:
//   * a node can only message its direct neighbours,
//   * at most `bandwidth_bits` (= B, default c·ceil(log2 n)) per edge per
//     direction per round,
//   * no activity after a program declares itself done.
// Violations throw `ModelError` — tests exercise this on purpose.
//
// The engine also keeps a ledger (rounds, messages, bits) that the
// benchmarks report; simulated rounds are the paper's complexity measure.
//
// Rounds are event-driven (docs/perf.md, "Event-driven rounds"): a
// program may `sleep_until` its next scheduled event, and a round runs
// only message receivers and live nodes whose wake round has come. When
// no mail is in flight and the fault plan is empty, the engine jumps the
// round counter straight to the earliest wake round; a program that
// never sleeps runs every round, exactly as a round-by-round engine
// would. Skipped rounds are silent, so the ledger, traces and program
// outputs match an always-awake run of the same schedule.
//
// Fast path (see docs/perf.md, "Simulator fast path"): bandwidth
// accounting is O(1) per send into a flat per-directed-edge ledger
// (`EdgeSlotIndex::edge_index`); each sent message is stored once, in
// its sender's outbox, and a mailbox row holds 16-byte `Incoming`
// references to it (docs/perf.md, "Messages by reference"). The merge
// walks each delivery's directed edge, so it hands the receiver the
// sender's slot in the receiver's own row (`Incoming::slot`, from the
// index's reverse-slot table; docs/perf.md, "Receiver slots"): programs
// index per-neighbour state and reply with `send_to_slot(in.slot)`,
// while id-addressed `send(NodeId)`, `neighbor_slot` and
// `has_neighbor` are O(deg) row scans for cold paths. Outboxes and
// mailbox rows are double-buffered by merge: the sends of round r stay
// in their outbox generation while round r+1's receivers read them,
// and that generation is recycled after round r+1's merge, so an inbox
// is valid for its activation only (NodeProgram::on_round). Neither
// buffer allocates in steady state. Each round touches only the active
// node set (due nodes plus message receivers); and with
// `Config::Execution::workers > 1` the independent per-node `on_round`
// calls fan out over a fork/join pool whose workers include the
// engine's own thread (runtime/thread_pool.h). The ledger, traces,
// per-round metrics, and all program outputs are byte-identical at any
// worker count, because there is one mailbox merge and it always
// *replays* (sender id, program order). It is sharded by receiver over
// contiguous degree-balanced node ranges, every shard replaying that
// order into its own arena region; a serial engine, or a pooled phase
// below `Config::Execution::pooled_round_min_work`, runs it as one
// shard on the calling thread (docs/perf.md, "Sharded mailbox
// delivery"). Under a fault plan the merge resolves every send through
// the fault engine serially instead, in the same replay order; the
// deliveries it makes up (corrupted copies, arrived delayed messages)
// live in a buffer of the same generation as the outboxes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "congest/faults.h"
#include "congest/message.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/slot_index.h"
#include "util/rng.h"

namespace qc::runtime {
class ThreadPool;  // runtime/thread_pool.h
}

namespace qc::congest {

/// Per-round observability snapshot handed to
/// Config::Hooks::on_round_metrics after each executed round. Rounds the
/// engine jumps over (every live node asleep, no mail in flight) are not
/// reported: they show as gaps in `round`. They carry no messages, bits
/// or active nodes, so per-run sums and maxima are unaffected.
struct RoundMetrics {
  std::uint64_t round = 0;     ///< the round that just executed
  std::uint64_t messages = 0;  ///< messages queued during that round
  std::uint64_t bits = 0;      ///< bits queued during that round
  NodeId active_nodes = 0;     ///< nodes whose on_round ran
  /// Max over directed edges of (bits queued on that edge) / B — 1.0
  /// means some edge was filled to the bandwidth cap this round.
  double max_edge_utilization = 0.0;

  friend bool operator==(const RoundMetrics&, const RoundMetrics&) = default;
};

/// Engine configuration: a plain aggregate. Fields are grouped into
/// sub-structs — `Execution` (how the run is driven), `Hooks`
/// (observability), `Faults` (the fault plan, see congest/faults.h).
struct Config {
  /// Execution mechanics: the round budget and the parallelism knobs.
  struct Execution {
    /// Hard cap (horizon) on simulated rounds; exceeding it throws
    /// ModelError (guards against non-terminating programs).
    std::uint64_t max_rounds = 50'000'000;
    /// Workers for the round loop, the engine's thread included: 1 =
    /// serial (the default and the reference semantics), 0 = hardware
    /// concurrency, k > 1 = k workers. Nodes within a round are
    /// independent, so the engine fans `on_round` over a pool; results
    /// (ledger, traces, metrics, program outputs) are byte-identical at
    /// any worker count. Programs must then keep their mutable state
    /// per-node (shared data read-only) — every program in this library
    /// already does.
    unsigned workers = 1;
    /// Optional borrowed pool for the round loop; overrides `workers`.
    runtime::ThreadPool* pool = nullptr;
    /// Pooled runs only: a phase of a round whose estimated work falls
    /// below this runs on the calling thread instead of fanning out
    /// over the pool. The program phase counts active nodes plus the
    /// deliveries they read; the mailbox merge counts the deliveries
    /// it writes. Low-traffic workloads (Algorithm 1's hop-limited SSSP
    /// averages ~112 deliveries per round at n=2048) otherwise pay
    /// fork/join overhead every round for chunks that finish in
    /// microseconds (docs/perf.md). 0 = always pool when a pool is
    /// present (the determinism tests force this). Both phases are
    /// byte-identical either way, so this trades wall-clock only,
    /// never results.
    std::size_t pooled_round_min_work = 4096;
  };

  /// Observability hooks. Observers only: they never alter message
  /// flow, the ledger, or the halting rule.
  struct Hooks {
    /// Record every message (round, from, to, bits) — used by the
    /// lower-bound simulation lemma to meter cross-partition traffic.
    bool record_trace = false;
    /// Opt-in per-round observability hook (e.g. feeding a
    /// runtime::MetricsRegistry via runtime::attach_simulator_metrics).
    /// Called once after every executed round (never for a skipped
    /// one, see RoundMetrics); empty = no overhead.
    /// With a pool, Algorithm 5's sub-runs
    /// (paths::distributed_overlay_sssp) may call it concurrently from
    /// pool threads.
    std::function<void(const RoundMetrics&)> on_round_metrics;
  };

  /// The fault schedule (congest/faults.h). Default-constructed = empty
  /// = the fault-free fast path, byte-identical to a config without the
  /// subsystem.
  using Faults = FaultPlan;

  /// Per-edge per-direction bits per round. 0 means "use the CONGEST
  /// default" of kBandwidthLogFactor * ceil(log2 n). Flat: a model
  /// parameter, not an execution knob.
  std::uint32_t bandwidth_bits = 0;
  /// Seed for the engine-supplied per-node RNG streams (and, unless
  /// `faults.seed` overrides it, for probabilistic fault decisions).
  std::uint64_t seed = 1;

  Execution execution;
  Hooks hooks;
  Faults faults;
};

/// One recorded message (sent during `round`, delivered in round+1).
struct TraceEntry {
  std::uint64_t round;
  NodeId from;
  NodeId to;
  std::uint32_t bits;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// Multiplier c in B = c * ceil(log2 n). The paper's B = O(log n); the
/// constant matters only for constant factors. The widest messages in
/// the library are Algorithm 4's overlay edges, which carry a σ-scaled
/// approximate distance of up to ~4·log2(n) bits (log ℓ + log ε⁻¹ +
/// log n + log W for poly(n) weights) plus two node ids, hence c = 8.
inline constexpr std::uint32_t kBandwidthLogFactor = 8;

/// Computes the default bandwidth for an n-node network.
std::uint32_t default_bandwidth(NodeId n);

/// Execution totals for one run.
struct RunStats {
  std::uint64_t rounds = 0;    ///< synchronous rounds elapsed, skipped
                               ///< (all-asleep) rounds included
  std::uint64_t messages = 0;  ///< total point-to-point messages
  std::uint64_t bits = 0;      ///< total bits on all edges

  /// Sums a later phase's ledger into this one.
  RunStats& operator+=(const RunStats& part) {
    rounds += part.rounds;
    messages += part.messages;
    bits += part.bits;
    return *this;
  }

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// Full report for one run: the ledger plus what the fault plan did to
/// it. Primitives that can detect partial completion (e.g. a BFS tree
/// cut off by crash-stop failures) set `completed = false` and explain
/// in `diagnostic`; the raw engine always reports completed runs (a run
/// that cannot finish throws ModelError at the horizon instead).
struct RunOutcome {
  RunStats stats;
  FaultCounters faults;
  bool completed = true;
  std::string diagnostic;  ///< empty when completed

  friend bool operator==(const RunOutcome&, const RunOutcome&) = default;
};

class Simulator;

/// Per-node facilities handed to a program each round.
class NodeContext {
 public:
  NodeId id() const { return id_; }
  NodeId n() const;
  std::uint64_t round() const;
  std::uint32_t bandwidth() const;
  std::span<const HalfEdge> neighbors() const;
  /// True if v is a neighbour. O(deg): a scan of neighbors(), for cold
  /// paths only.
  bool has_neighbor(NodeId v) const;

  /// Slot of `v` in this node's neighbors() row, or EdgeSlotIndex::kNoSlot
  /// if v is not a neighbour. O(deg): a scan of neighbors(). A delivery
  /// already carries its sender's slot, so per-arrival code reads
  /// `in.slot` instead.
  std::uint32_t neighbor_slot(NodeId v) const;

  /// Queues a message to neighbour `to` for delivery next round. Finding
  /// `to`'s slot is an O(deg) row scan: a reply to a delivery uses
  /// send_to_slot(in.slot), and state kept per neighbour keeps slots.
  void send(NodeId to, Message m);
  /// Queues a message to the neighbour at `slot` of neighbors() — the
  /// O(1)-admission fast path for senders that already know the slot
  /// (broadcast uses it for every edge, a reply uses `in.slot`).
  void send_to_slot(std::uint32_t slot, Message m);
  /// Queues a copy of `m` to every neighbour.
  void broadcast(const Message& m);

  /// Deterministic per-node random stream (nodes may use private
  /// randomness in the CONGEST model).
  Rng& rng();

  /// Do not run this node before `round` unless mail arrives (mail
  /// always wakes a node). Callable only during the node's own
  /// activation; every activation resets the wake round to the next
  /// round (round 0 during on_start), and a `round` before that throws
  /// ModelError. A live node's schedule must not depend on rounds it
  /// sleeps through: done() cannot change while it sleeps.
  void sleep_until(std::uint64_t round);

 private:
  friend class Simulator;
  NodeContext(Simulator& sim, NodeId id) : sim_(&sim), id_(id) {}
  Simulator* sim_;
  NodeId id_;
};

/// A distributed algorithm, from one node's point of view.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 0; may send initial messages.
  virtual void on_start(NodeContext& ctx) { (void)ctx; }

  /// Called with the messages delivered this round, in every round in
  /// which the node has mail or is live and due: a node that never
  /// calls NodeContext::sleep_until is due every round. Programs read
  /// the round number from ctx.round() rather than counting calls.
  /// The inbox and the messages its entries reference are valid only
  /// during this call: the engine recycles them after the next merge.
  /// Reading, sending and forwarding them (ctx.send(to, in.msg)) within
  /// the call is fine; a program that keeps a message copies `in.msg`.
  virtual void on_round(NodeContext& ctx, std::span<const Incoming> inbox) = 0;

  /// The engine stops when every node is done and no messages are in
  /// flight. A done node must stay silent (enforced). done() must be a
  /// pure function of program state, and that state may change only
  /// inside on_start/on_round — the engine caches doneness between
  /// activations and re-queries it only after the program runs, so a
  /// done node with an empty inbox is skipped entirely, and a sleeping
  /// node stays live until it next runs.
  virtual bool done() const = 0;
};

/// The synchronous engine. One instance per execution. The topology must
/// not be mutated while the simulator is alive (it holds the graph's
/// cached CSR + slot-index views).
class Simulator {
 public:
  Simulator(const WeightedGraph& graph, Config config = {});
  ~Simulator();

  /// Runs the given programs (one per node, index = node id) to
  /// completion. Returns the ledger for this run.
  RunStats run(std::span<const std::unique_ptr<NodeProgram>> programs);

  const WeightedGraph& graph() const { return *graph_; }
  std::uint32_t bandwidth() const { return bandwidth_; }
  /// Message trace of the last run (empty unless config.record_trace).
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Per-fault-class tallies of the last run (all zero when the plan is
  /// empty — the fault path never executes).
  const FaultCounters& fault_counters() const { return fault_counters_; }
  /// Ledger + fault counters of the last run as one report.
  RunOutcome outcome() const { return RunOutcome{stats_, fault_counters_, true, {}}; }

 private:
  friend class NodeContext;

  /// One queued point-to-point message. It stays in its sender's outbox
  /// until the round that reads it is over; the receiver's mailbox row
  /// references it.
  struct OutMsg {
    NodeId to;
    std::uint32_t slot;  ///< slot of `to` in the sender's adjacency row
    std::uint32_t seq;   ///< sender-local program-order sequence number
    Message msg;
  };

  /// One queued broadcast: stored once and expanded to every neighbour
  /// at scatter time (the dominant primitive — a degree-d broadcast
  /// parks one message, and its d mailbox entries all reference it).
  struct OutBcast {
    std::uint32_t seq;
    Message msg;
  };

  /// Per-sender queue for one round. `seq` orders singles and broadcasts
  /// so the merge can replay the sender's exact program order.
  struct Outbox {
    std::vector<OutMsg> singles;
    std::vector<OutBcast> bcasts;
    std::uint32_t next_seq = 0;

    bool empty() const { return singles.empty() && bcasts.empty(); }
    void clear() {
      singles.clear();
      bcasts.clear();
      next_seq = 0;
    }
  };

  /// Receiver-side mailbox storage: raw memory for `Incoming` entries.
  /// Every merge placement-constructs each row it delivers, and an
  /// Incoming is trivially destructible, so the arena never constructs
  /// ahead of use, never destroys, and drops its old contents on growth.
  class MailArena {
   public:
    MailArena() = default;
    MailArena(const MailArena&) = delete;
    MailArena& operator=(const MailArena&) = delete;
    ~MailArena();

    Incoming* data() { return data_; }
    const Incoming* data() const { return data_; }
    /// Room for `need` entries; the old entries are not kept.
    void ensure_capacity(std::size_t need);

   private:
    Incoming* data_ = nullptr;
    std::size_t cap_ = 0;
  };

  void sleep_node(NodeId v, std::uint64_t round);
  void queue_message(NodeId from, NodeId to, Message m);
  void queue_to_slot(NodeId from, std::uint32_t slot, Message m);
  void queue_broadcast(NodeId from, const Message& m);
  void admit(NodeId from, NodeId to, std::uint32_t slot, Message&& m);
  std::size_t collect_senders(int gen);
  void merge(int dst, runtime::ThreadPool* pool);
  void merge_faulted(int dst);
  void ensure_shard_plan(unsigned workers);
  std::size_t place_rows(std::span<const NodeId> rows, int dst,
                         std::size_t off);
  void apply_crashes();
  void recycle(int b);
  std::uint64_t earliest_wake() const;
  void build_actives();
  void run_actives(std::span<const std::unique_ptr<NodeProgram>> programs,
                   std::vector<NodeContext>& contexts);
  void refresh_live();
  runtime::ThreadPool* round_pool();

  const WeightedGraph* graph_;
  const CsrGraph* csr_;
  const EdgeSlotIndex* slots_;
  Config config_;
  std::uint32_t bandwidth_;
  std::uint64_t round_ = 0;
  RunStats stats_;
  std::vector<Rng> node_rngs_;
  std::vector<TraceEntry> trace_;

  // Activation bookkeeping: a node may send or sleep only during its own
  // activation (on_start, or on_round while active). Epochs advance once
  // per phase; last_active_epoch_[v] == epoch_ iff v runs this phase.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> last_active_epoch_;
  std::vector<char> node_done_;  ///< done() after the node's last run
  std::vector<NodeId> live_;     ///< sorted ids of not-done nodes
  std::vector<NodeId> actives_;  ///< scratch: nodes running this round
  std::vector<NodeId> live_next_;  ///< refresh_live's merge target
  // Wake schedule: a live node runs in round r iff it has mail or
  // wake_[v] <= r. Each activation resets wake_[v] to wake_floor_ (the
  // next round); sleep_until sets it to any round from there on.
  std::vector<std::uint64_t> wake_;
  std::uint64_t wake_floor_ = 0;

  // Per-sender outboxes (worker-private during a parallel round) and the
  // flat per-directed-edge bandwidth ledger, reset via the queued
  // messages themselves (touched slots only, never an O(2m) refill).
  // Outboxes come in two generations, indexed like the mailbox buffer
  // their messages are delivered into: a phase sends into outbox_[g]
  // (g = send_gen_), the merge scatters references to those messages
  // into arena_[g], and recycle(g) empties both once the round that
  // read arena_[g] is over. senders_[g] lists the outboxes with mail.
  std::vector<Outbox> outbox_[2];
  std::vector<NodeId> senders_[2];
  int send_gen_ = 0;
  std::vector<std::uint32_t> edge_bits_;
  std::uint32_t round_max_edge_bits_ = 0;
  std::uint64_t queued_count_ = 0;

  // Double-buffered mailbox arena: arena_[cur_] is delivered this round
  // while the merge scatters next round's messages into arena_[1-cur_].
  // Rows are contiguous spans [inbox_begin_[v], +inbox_count_[v]) of
  // Incoming references into outbox_[b] (or, faulted, fault_msgs_[b]).
  MailArena arena_[2];
  std::vector<std::size_t> inbox_begin_[2];
  std::vector<std::uint32_t> inbox_count_[2];
  std::vector<NodeId> touched_[2];      ///< receivers with messages
  std::vector<char> touched_flag_[2];   ///< same set, as per-node flags
  std::vector<std::size_t> fill_;       ///< scatter cursors, by receiver
  int cur_ = 0;

  std::unique_ptr<runtime::ThreadPool> own_pool_;

  // Shard plan for a pooled merge (built once per worker count by
  // ensure_shard_plan; topology-only, so it survives across runs).
  // Receivers are owned by contiguous degree-balanced node ranges —
  // shard sh owns [shard_bounds_[sh], shard_bounds_[sh+1]) — so every
  // mailbox row, receiver count, fill cursor, and (destination-owned)
  // bandwidth slot is written by exactly one shard. bucket_slot_ is a
  // per-row permutation of each sender's adjacency slots grouped by
  // destination shard (stable, so ascending slot within a group);
  // bucket_off_[from * (S+1) + sh] brackets the group — a shard expands
  // a broadcast by walking only its own bucket instead of filtering the
  // whole row.
  unsigned shard_plan_workers_ = 0;
  std::vector<NodeId> shard_bounds_;       ///< S+1 boundaries
  std::vector<std::uint8_t> node_shard_;   ///< owner shard, per node
  std::vector<std::size_t> bucket_off_;    ///< n x (S+1), row-major
  std::vector<std::uint32_t> bucket_slot_; ///< 2m local slots, bucketed

  // Per-merge scratch (reused, steady-state allocation-free).
  // merge_chunks_ entries are cache-line-sized so the parallel passes
  // never false-share their tallies: entry t < S is shard t (receiver
  // side), entry S + c is accounting chunk c (sender side).
  struct alignas(64) MergeChunk {
    std::uint64_t bits = 0;           ///< sender chunk: ledger bits
    std::uint64_t total = 0;          ///< shard: deliveries owned
    std::uint32_t max_edge_bits = 0;  ///< shard: utilization sample
  };
  std::vector<std::uint64_t> sender_prefix_; ///< delivery-count prefix
  std::vector<std::size_t> sender_bounds_;   ///< accounting chunk cuts
  std::vector<MergeChunk> merge_chunks_;
  std::vector<std::vector<NodeId>> shard_touched_;  ///< pooled merges only
  std::vector<std::size_t> shard_base_;      ///< arena region starts
  std::vector<std::uint64_t> actives_prefix_; ///< run_actives weights
  std::vector<std::size_t> actives_bounds_;

  // Fault path (null/empty unless Config::faults is non-empty — the
  // fast path above is untouched by an empty plan). The faulted merge
  // resolves every send through the engine serially, in the same
  // (sender id, program order) replay as the fault-free merge, so fault
  // outcomes — like the ledger — are identical at any worker count.
  std::unique_ptr<FaultEngine> faults_;
  FaultCounters fault_counters_;
  /// One message after fault resolution, waiting to be scattered: a
  /// reference into an outbox, or (owned != kOutbox) the index of a
  /// message the merge made up in fault_msgs_ of the same generation.
  struct Delivery {
    static constexpr std::uint32_t kOutbox = ~std::uint32_t{0};
    NodeId to;
    NodeId from;
    const Message* msg;
    std::uint32_t owned;
    std::uint32_t slot;  ///< from's slot in to's row (Incoming::slot)
  };
  std::vector<Delivery> resolved_;  ///< scratch, reused across merges
  /// Corrupted copies and arrived delayed messages, by generation (the
  /// mailbox buffer whose rows reference them); recycled with it.
  std::vector<Message> fault_msgs_[2];
  /// A message held back by a delay fault until its new delivery round.
  struct Delayed {
    std::uint64_t round;  ///< adjusted delivery round
    NodeId to;
    NodeId from;
    std::uint32_t slot;  ///< from's slot in to's row (Incoming::slot)
    Message msg;
  };
  std::vector<Delayed> delayed_;  ///< in-flight, insertion-ordered
  std::uint64_t delivery_round_ = 0;  ///< of the merge in progress
  std::vector<std::uint32_t> edge_ordinal_;  ///< per-merge message ordinals
  std::vector<std::size_t> touched_edge_scratch_;
};

/// Convenience: run a homogeneous program type over every node.
/// `make(node_id)` builds the per-node instance. Returns stats and the
/// program objects (so callers can read per-node outputs).
template <typename Program>
struct HomogeneousRun {
  RunStats stats;
  RunOutcome outcome;  ///< stats + fault counters (faults all zero
                       ///< when the config carried no plan)
  std::vector<std::unique_ptr<NodeProgram>> programs;

  Program& at(NodeId v) { return static_cast<Program&>(*programs[v]); }
  const Program& at(NodeId v) const {
    return static_cast<const Program&>(*programs[v]);
  }
};

template <typename Program, typename Factory>
HomogeneousRun<Program> run_on_all(const WeightedGraph& g, Factory&& make,
                                   Config config = {}) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs.push_back(make(v));
  }
  Simulator sim(g, config);
  RunStats stats = sim.run(programs);
  return {stats, sim.outcome(), std::move(programs)};
}

}  // namespace qc::congest
