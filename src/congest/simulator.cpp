#include "congest/simulator.h"

#include <algorithm>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "runtime/thread_pool.h"

namespace qc::congest {

std::uint32_t default_bandwidth(NodeId n) {
  const std::uint32_t logn = std::max<std::uint32_t>(1, clog2(std::max<NodeId>(n, 2)));
  return kBandwidthLogFactor * logn;
}

NodeId NodeContext::n() const { return sim_->csr_->node_count(); }
std::uint64_t NodeContext::round() const { return sim_->round_; }
std::uint32_t NodeContext::bandwidth() const { return sim_->bandwidth(); }

std::span<const HalfEdge> NodeContext::neighbors() const {
  return sim_->csr_->neighbors(id_);
}

bool NodeContext::has_neighbor(NodeId v) const {
  return sim_->slots_->slot(id_, v) != EdgeSlotIndex::kNoSlot;
}

std::uint32_t NodeContext::neighbor_slot(NodeId v) const {
  return sim_->slots_->slot(id_, v);
}

void NodeContext::send(NodeId to, Message m) {
  sim_->queue_message(id_, to, std::move(m));
}

void NodeContext::send_to_slot(std::uint32_t slot, Message m) {
  sim_->queue_to_slot(id_, slot, std::move(m));
}

void NodeContext::broadcast(const Message& m) {
  sim_->queue_broadcast(id_, m);
}

Rng& NodeContext::rng() { return sim_->node_rngs_[id_]; }

void NodeContext::sleep_until(std::uint64_t round) {
  sim_->sleep_node(id_, round);
}

Simulator::Simulator(const WeightedGraph& graph, Config config)
    : graph_(&graph),
      csr_(&graph.csr()),
      slots_(&graph.slot_index()),
      config_(std::move(config)),
      bandwidth_(config_.bandwidth_bits != 0
                     ? config_.bandwidth_bits
                     : default_bandwidth(graph.node_count())) {
  QC_REQUIRE(graph.node_count() >= 1, "network needs at least one node");
  const NodeId n = graph.node_count();
  Rng master(config_.seed);
  node_rngs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    node_rngs_.push_back(master.fork());
  }
  last_active_epoch_.assign(n, 0);
  node_done_.assign(n, 0);
  wake_.assign(n, 0);
  outbox_[0].resize(n);
  outbox_[1].resize(n);
  edge_bits_.assign(slots_->directed_edge_count(), 0);
  for (int b = 0; b < 2; ++b) {
    inbox_begin_[b].assign(n, 0);
    inbox_count_[b].assign(n, 0);
    touched_flag_[b].assign(n, 0);
  }
  fill_.assign(n, 0);
  // An empty plan constructs nothing: the fault path stays cold and the
  // fast path runs exactly as in a fault-free build.
  if (!config_.faults.empty()) {
    faults_ = std::make_unique<FaultEngine>(config_.faults, *slots_, n,
                                            config_.seed);
    edge_ordinal_.assign(slots_->directed_edge_count(), 0);
  }
}

Simulator::~Simulator() = default;

static_assert(sizeof(Incoming) == 16 &&
                  std::is_trivially_destructible_v<Incoming>,
              "a mailbox entry is a (sender, slot, reference) triple");

Simulator::MailArena::~MailArena() {
  if (data_ != nullptr) std::allocator<Incoming>().deallocate(data_, cap_);
}

void Simulator::MailArena::ensure_capacity(std::size_t need) {
  if (need <= cap_) return;
  const std::size_t new_cap = std::max(need, cap_ * 2);
  std::allocator<Incoming> alloc;
  if (data_ != nullptr) alloc.deallocate(data_, cap_);
  data_ = alloc.allocate(new_cap);
  cap_ = new_cap;
}

void Simulator::sleep_node(NodeId v, std::uint64_t round) {
  if (last_active_epoch_[v] != epoch_) {
    throw ModelError("node " + std::to_string(v) +
                     " called sleep_until outside its activation");
  }
  if (round < wake_floor_) {
    throw ModelError("node " + std::to_string(v) +
                     " asked to sleep until round " + std::to_string(round) +
                     ", before the next round " + std::to_string(wake_floor_));
  }
  wake_[v] = round;
}

void Simulator::queue_message(NodeId from, NodeId to, Message m) {
  QC_CHECK(from < csr_->node_count(), "sender out of range");
  const std::uint32_t slot = slots_->slot(from, to);
  if (slot == EdgeSlotIndex::kNoSlot) {
    throw ModelError("node " + std::to_string(from) +
                     " tried to message non-neighbour " + std::to_string(to));
  }
  admit(from, to, slot, std::move(m));
}

void Simulator::queue_to_slot(NodeId from, std::uint32_t slot, Message m) {
  QC_CHECK(from < csr_->node_count(), "sender out of range");
  const auto row = csr_->neighbors(from);
  QC_REQUIRE(slot < row.size(), "neighbour slot out of range");
  admit(from, row[slot].to, slot, std::move(m));
}

// One admission sweep for all of from's edges: the epoch check runs
// once, the bandwidth row is walked sequentially, and the message is
// parked ONCE — expansion to per-receiver copies happens at scatter.
void Simulator::queue_broadcast(NodeId from, const Message& m) {
  QC_CHECK(from < csr_->node_count(), "sender out of range");
  const auto row = csr_->neighbors(from);
  if (row.empty()) return;
  if (last_active_epoch_[from] != epoch_) {
    throw ModelError("node " + std::to_string(from) +
                     " sent a message after declaring done");
  }
  const std::uint32_t bits = m.bit_size();
  const std::size_t base = slots_->edge_index(from, 0);
  for (std::uint32_t s = 0; s < row.size(); ++s) {
    const std::uint32_t used = edge_bits_[base + s] + bits;
    if (used > bandwidth_) {
      throw ModelError("bandwidth exceeded on edge " + std::to_string(from) +
                       "->" + std::to_string(row[s].to) + ": " +
                       std::to_string(used) +
                       " bits > B=" + std::to_string(bandwidth_) +
                       " in round " + std::to_string(round_));
    }
    edge_bits_[base + s] = used;
  }
  auto& box = outbox_[send_gen_][from];
  box.bcasts.emplace_back(box.next_seq++, m);
}

void Simulator::admit(NodeId from, NodeId to, std::uint32_t slot, Message&& m) {
  // Defensive: a program can only reach its own context during its own
  // activation, but a buggy one that stashes a context pointer and sends
  // out of turn must not corrupt the ledger.
  if (last_active_epoch_[from] != epoch_) {
    throw ModelError("node " + std::to_string(from) +
                     " sent a message after declaring done");
  }
  const std::size_t e = slots_->edge_index(from, slot);
  const std::uint32_t used = edge_bits_[e] + m.bit_size();
  if (used > bandwidth_) {
    throw ModelError("bandwidth exceeded on edge " + std::to_string(from) +
                     "->" + std::to_string(to) + ": " + std::to_string(used) +
                     " bits > B=" + std::to_string(bandwidth_) +
                     " in round " + std::to_string(round_));
  }
  edge_bits_[e] = used;
  auto& box = outbox_[send_gen_][from];
  box.singles.emplace_back(to, slot, box.next_seq++, std::move(m));
}

// Generation b's round is over: empty its mailbox rows, the outboxes
// they referenced, and the messages the faulted merge made up for them.
void Simulator::recycle(int b) {
  for (NodeId v : touched_[b]) {
    inbox_count_[b][v] = 0;
    touched_flag_[b][v] = 0;
  }
  touched_[b].clear();
  for (NodeId v : senders_[b]) outbox_[b][v].clear();
  senders_[b].clear();
  fault_msgs_[b].clear();
}

// Shared placement pass: assigns contiguous arena rows (begin offsets +
// fill cursors) for `rows` starting at `off`; returns the end offset.
// Row placement is not observable (programs see spans), only row
// contents are, so each shard places its own receivers from its own
// arena base.
std::size_t Simulator::place_rows(std::span<const NodeId> rows, int dst,
                                  std::size_t off) {
  auto& begin = inbox_begin_[dst];
  const auto& count = inbox_count_[dst];
  for (NodeId v : rows) {
    begin[v] = off;
    fill_[v] = off;
    off += count[v];
  }
  return off;
}

// Builds (or rebuilds, when the worker count changes) the receiver
// shard plan for pooled merges. Topology-only: shard boundaries come
// from the CSR's degree-balanced prefix-sum cut, and the broadcast
// buckets are a per-row counting sort of each sender's adjacency slots
// by destination shard — both deterministic, both reusable across runs.
// Shards are capped at 64: node_shard_ stays one byte per node, and
// past ~64 receiver ranges the fork/join overhead dominates any split.
void Simulator::ensure_shard_plan(unsigned workers) {
  const unsigned want = std::min(workers, 64u);
  if (want == shard_plan_workers_) return;
  shard_plan_workers_ = want;
  const NodeId n = csr_->node_count();
  shard_bounds_ = csr_->balanced_node_shards(want);
  const std::size_t S = shard_bounds_.size() - 1;
  node_shard_.assign(n, 0);
  for (std::size_t sh = 0; sh < S; ++sh) {
    for (NodeId v = shard_bounds_[sh]; v < shard_bounds_[sh + 1]; ++v) {
      node_shard_[v] = static_cast<std::uint8_t>(sh);
    }
  }
  // Broadcast buckets: for every sender row, the local slots grouped by
  // destination shard, stable within a group (ascending slot — the
  // order a one-shard scatter visits them). bucket_off_ holds absolute
  // cuts into bucket_slot_, so a row's group sh is
  // bucket_slot_[off[sh], off[sh+1]).
  bucket_off_.assign(static_cast<std::size_t>(n) * (S + 1), 0);
  bucket_slot_.resize(slots_->directed_edge_count());
  std::vector<std::size_t> cursor(S);
  for (NodeId from = 0; from < n; ++from) {
    const auto row = csr_->neighbors(from);
    std::size_t* off =
        bucket_off_.data() + static_cast<std::size_t>(from) * (S + 1);
    off[0] = slots_->edge_index(from, 0);  // = the row's CSR offset
    std::fill(cursor.begin(), cursor.end(), 0);
    for (const HalfEdge& he : row) ++cursor[node_shard_[he.to]];
    for (std::size_t sh = 0; sh < S; ++sh) off[sh + 1] = off[sh] + cursor[sh];
    std::copy(off, off + S, cursor.begin());
    for (std::uint32_t s = 0; s < row.size(); ++s) {
      bucket_slot_[cursor[node_shard_[row[s].to]]++] = s;
    }
  }
  shard_touched_.resize(S);
}

namespace {

// Replays one sender's outbox in program order: singles and broadcasts
// interleave by their shared seq counter. Every merge pass whose output
// order is observable (trace, mailbox rows, fault decisions) walks the
// outbox through here.
template <typename Box, typename Single, typename Bcast>
void replay(Box& box, Single&& single, Bcast&& bcast) {
  auto si = box.singles.begin();
  auto bi = box.bcasts.begin();
  while (si != box.singles.end() || bi != box.bcasts.end()) {
    if (bi == box.bcasts.end() ||
        (si != box.singles.end() && si->seq < bi->seq)) {
      single(*si++);
    } else {
      bcast(*bi++);
    }
  }
}

// Writes a delivery — the sender, its slot in the receiver's row and a
// reference to the message's one stored copy — into the receiver's row
// at its fill cursor.
struct Scatter {
  Incoming* a;
  std::size_t* fill;

  void operator()(NodeId to, NodeId from, std::uint32_t slot,
                  const Message& m) const {
    ::new (a + fill[to]++) Incoming{from, slot, m};
  }
};

// The first merge visit of a directed edge reads the bits it carried
// this round (the utilization sample) and zeroes its bandwidth slot for
// the next round; later visits find zero and do nothing.
void drain_edge(std::uint32_t& edge_bits, std::uint32_t& max_bits) {
  if (edge_bits != 0) {
    max_bits = std::max(max_bits, edge_bits);
    edge_bits = 0;
  }
}

}  // namespace

// Lists the active senders that queued mail into outbox generation
// `gen` this phase, in ascending id order, with a prefix sum of the
// deliveries each expands to (a broadcast counts once per neighbour).
// Returns the phase's total.
std::size_t Simulator::collect_senders(int gen) {
  auto& senders = senders_[gen];
  senders.clear();
  sender_prefix_.assign(1, 0);
  for (NodeId from : actives_) {
    const Outbox& box = outbox_[gen][from];
    if (box.empty()) continue;
    senders.push_back(from);
    sender_prefix_.push_back(sender_prefix_.back() + box.singles.size() +
                             box.bcasts.size() * csr_->degree(from));
  }
  return static_cast<std::size_t>(sender_prefix_.back());
}

// The fault-free mailbox merge (docs/perf.md, "Sharded mailbox
// delivery"): writes a reference to every delivery queued this phase
// (in outbox generation `dst`) into mailbox buffer `dst` and accounts
// the ledger and the trace. The messages stay where they were queued
// (docs/perf.md, "Messages by reference"). Receivers are
// owned by S contiguous degree-balanced shards; S = 1 — a serial
// engine, or a phase below pooled_round_min_work — runs every task
// below on the calling thread. Two passes around one serial reduce:
//   pass 1 fuses receiver-side counting (one task per shard: count[],
//   touched, shard totals — every write receiver-owned, so shard-
//   disjoint) with sender-side accounting (one task per balanced sender
//   chunk: ledger bits and the trace slice, whose position is known up
//   front because deliveries-per-sender is exactly trace-entries-per-
//   sender);
//   the serial reduce folds chunk tallies in deterministic order and
//   turns shard totals into arena region bases;
//   pass 2 places rows and scatters, one task per shard, each shard
//   replaying ALL senders in (sender id, program order) but emitting
//   only deliveries it owns, so every receiver's row is in that order
//   at any S. Broadcasts expand via the precomputed per-shard buckets,
//   every shard writing references to the one stored copy (shards only
//   read the outboxes); a directed edge's bandwidth slot is owned by its
//   destination's shard, so the reset/utilization sample is race-free
//   too.
// Only unobservable things depend on S: touched_ order (build_actives
// sorts or flag-scans) and arena row placement (programs see spans).
void Simulator::merge(int dst, runtime::ThreadPool* pool) {
  const std::size_t total = collect_senders(dst);
  queued_count_ = total;
  if (total == 0) return;
  std::size_t S = 1;
  if (pool != nullptr && total >= config_.execution.pooled_round_min_work) {
    ensure_shard_plan(pool->worker_count());
    S = shard_bounds_.size() - 1;
  }
  // Tasks [0, k): inline for one shard, else fanned over the pool.
  const auto fan = [&](std::size_t k, auto&& task) {
    if (S == 1) {
      for (std::size_t t = 0; t < k; ++t) task(t);
    } else {
      runtime::parallel_for(*pool, k, task);
    }
  };
  const auto owns = [&](std::size_t t, NodeId to) {
    return S == 1 || node_shard_[to] == t;
  };
  // Adjacency slots of `from` whose receivers shard t owns, ascending.
  const auto for_owned_slots = [&](NodeId from, std::size_t t, auto&& fn) {
    if (S == 1) {
      const auto deg = static_cast<std::uint32_t>(csr_->degree(from));
      for (std::uint32_t s = 0; s < deg; ++s) fn(s);
      return;
    }
    const std::size_t* off =
        bucket_off_.data() + static_cast<std::size_t>(from) * (S + 1);
    for (std::size_t i = off[t]; i < off[t + 1]; ++i) fn(bucket_slot_[i]);
  };

  const auto& outbox = outbox_[dst];
  const auto& senders = senders_[dst];
  auto& arena = arena_[dst];
  auto& count = inbox_count_[dst];
  auto& touched = touched_[dst];
  char* tflag = touched_flag_[dst].data();
  const auto rows_of = [&](std::size_t t) -> std::vector<NodeId>& {
    return S == 1 ? touched : shard_touched_[t];
  };
  const bool record = config_.hooks.record_trace;

  stats_.messages += total;
  arena.ensure_capacity(total);
  const std::size_t trace_base = trace_.size();
  if (record) trace_.resize(trace_base + total);
  if (S == 1) {
    sender_bounds_.assign({0, senders.size()});
  } else {
    runtime::balanced_ranges(sender_prefix_, pool->worker_count() * 2,
                             sender_bounds_);
    for (auto& mine : shard_touched_) mine.clear();
  }
  const std::size_t C = sender_bounds_.size() - 1;
  merge_chunks_.assign(S + C, MergeChunk{});

  // Pass 1: tasks [0, S) count deliveries per owned receiver; tasks
  // [S, S+C) account a sender chunk's ledger bits and fill its trace
  // slice. The two sides touch disjoint state, so they share one
  // fork/join.
  fan(S + C, [&](std::size_t t) {
    if (t < S) {
      auto& mine = rows_of(t);
      std::uint64_t owned = 0;
      const auto note = [&](NodeId to, std::uint32_t k) {
        if (count[to] == 0) {
          mine.push_back(to);
          tflag[to] = 1;
        }
        count[to] += k;
        owned += k;
      };
      for (NodeId from : senders) {
        const Outbox& box = outbox[from];
        for (const OutMsg& sm : box.singles) {
          if (owns(t, sm.to)) note(sm.to, 1);
        }
        if (box.bcasts.empty()) continue;
        const auto row = csr_->neighbors(from);
        const auto k = static_cast<std::uint32_t>(box.bcasts.size());
        for_owned_slots(from, t, [&](std::uint32_t s) { note(row[s].to, k); });
      }
      merge_chunks_[t].total = owned;
      return;
    }
    const std::size_t c = t - S;
    std::uint64_t bits = 0;
    TraceEntry* tr =
        record ? trace_.data() + trace_base + sender_prefix_[sender_bounds_[c]]
               : nullptr;
    for (std::size_t i = sender_bounds_[c]; i < sender_bounds_[c + 1]; ++i) {
      const NodeId from = senders[i];
      const auto row = csr_->neighbors(from);
      replay(
          outbox[from],
          [&](const OutMsg& sm) {
            bits += sm.msg.bit_size();
            if (tr) *tr++ = TraceEntry{round_, from, sm.to, sm.msg.bit_size()};
          },
          [&](const OutBcast& bc) {
            bits += std::uint64_t{bc.msg.bit_size()} * row.size();
            if (!tr) return;
            for (const HalfEdge& he : row) {
              *tr++ = TraceEntry{round_, from, he.to, bc.msg.bit_size()};
            }
          });
    }
    merge_chunks_[t].bits = bits;
  });

  // Serial reduce, deterministic order: ledger bits chunk by chunk,
  // shard totals into contiguous arena region bases.
  for (std::size_t c = 0; c < C; ++c) stats_.bits += merge_chunks_[S + c].bits;
  shard_base_.resize(S);
  std::size_t off = 0;
  for (std::size_t sh = 0; sh < S; ++sh) {
    shard_base_[sh] = off;
    off += static_cast<std::size_t>(merge_chunks_[sh].total);
  }
  QC_CHECK(off == total, "mailbox merge lost deliveries");

  // Pass 2 (one task per shard): place the shard's rows in its arena
  // region, then scatter by replaying every sender's seq order and
  // keeping only owned deliveries.
  const Scatter put{arena.data(), fill_.data()};
  fan(S, [&](std::size_t t) {
    place_rows(rows_of(t), dst, shard_base_[t]);
    std::uint32_t max_bits = 0;
    for (NodeId from : senders) {
      const auto row = csr_->neighbors(from);
      const std::size_t base = slots_->edge_index(from, 0);
      replay(
          outbox[from],
          [&](const OutMsg& sm) {
            if (!owns(t, sm.to)) return;
            const std::size_t e = base + sm.slot;
            drain_edge(edge_bits_[e], max_bits);
            put(sm.to, from, slots_->reverse_slot(e), sm.msg);
          },
          [&](const OutBcast& bc) {
            for_owned_slots(from, t, [&](std::uint32_t s) {
              drain_edge(edge_bits_[base + s], max_bits);
              put(row[s].to, from, slots_->reverse_slot(base + s), bc.msg);
            });
          });
    }
    merge_chunks_[t].max_edge_bits = max_bits;
  });

  for (std::size_t sh = 0; sh < S; ++sh) {
    round_max_edge_bits_ =
        std::max(round_max_edge_bits_, merge_chunks_[sh].max_edge_bits);
  }
  if (S > 1) {
    for (const auto& mine : shard_touched_) {
      touched.insert(touched.end(), mine.begin(), mine.end());
    }
  }
}

// Fault-path merge: the same (sender id, program order) replay as the
// fault-free merge, but serial, and every send is resolved through the
// FaultEngine before it reaches a mailbox. The ledger and trace account
// every *attempted* send — the bandwidth was spent whether or not
// delivery succeeds — so an all-drop plan still shows the full message
// bill. Faults are keyed by delivery round (delivery_round_, set by
// run() before each merge), which is unique per merge even though the
// start merge and round 0's merge both run with round_ == 0. A delivery
// the plan leaves intact references its outbox copy, like the
// fault-free merge's; corrupted copies and arrived delayed messages are
// stored in fault_msgs_[dst], and a duplicate's two deliveries share
// one message.
void Simulator::merge_faulted(int dst) {
  auto& arena = arena_[dst];
  auto& count = inbox_count_[dst];
  auto& touched = touched_[dst];
  char* tflag = touched_flag_[dst].data();
  auto& owned = fault_msgs_[dst];
  FaultCounters& fc = fault_counters_;

  resolved_.clear();
  const auto own = [&](Message&& m) {
    owned.push_back(std::move(m));
    return static_cast<std::uint32_t>(owned.size() - 1);
  };

  // Pass 1a: delayed messages whose adjusted round has come, in the
  // order their delays were decided (deterministic — decisions happen
  // in this serial merge). Only the receiver-crash check is re-run at
  // arrival; the fault decision itself was consumed at the original
  // delivery round.
  if (!delayed_.empty()) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < delayed_.size(); ++i) {
      Delayed& d = delayed_[i];
      if (d.round != delivery_round_) {
        if (keep != i) delayed_[keep] = std::move(d);
        ++keep;
        continue;
      }
      if (faults_->crashed_by(d.to, delivery_round_)) {
        ++fc.crash_drops;
      } else {
        resolved_.push_back(
            Delivery{d.to, d.from, nullptr, own(std::move(d.msg)), d.slot});
      }
    }
    delayed_.resize(keep);
  }

  // Pass 1b: this phase's sends. Resolution order per message:
  // link-down > receiver crash > explicit/probabilistic decision; a
  // delayed message is re-checked against receiver crashes on arrival.
  // The round's explicit-event bucket is resolved once here, not once
  // per message (events_ is a map keyed by delivery round).
  touched_edge_scratch_.clear();
  const std::vector<FaultEvent>* round_events =
      faults_->events_for_round(delivery_round_);
  const auto resolve = [&](NodeId from, NodeId to, std::size_t e,
                           const Message& m) {
    const std::uint32_t bits = m.bit_size();
    stats_.messages += 1;
    stats_.bits += bits;
    if (config_.hooks.record_trace) {
      trace_.push_back(TraceEntry{round_, from, to, bits});
    }
    drain_edge(edge_bits_[e], round_max_edge_bits_);
    const std::uint32_t ordinal = edge_ordinal_[e]++;
    if (ordinal == 0) touched_edge_scratch_.push_back(e);
    if (faults_->link_down(delivery_round_, from, to)) {
      ++fc.link_down_drops;
      return;
    }
    if (faults_->crashed_by(to, delivery_round_)) {
      ++fc.crash_drops;
      return;
    }
    const FaultEngine::Decision d =
        faults_->decide(delivery_round_, from, to, e, ordinal, round_events);
    if (d.drop) {
      ++fc.dropped;
      return;
    }
    if (d.corrupt) ++fc.corrupted;
    // Every copy the plan lets through — delayed, corrupted or
    // duplicated — arrives over edge e, so it carries e's reverse slot.
    const std::uint32_t slot = slots_->reverse_slot(e);
    if (d.delay > 0) {
      ++fc.delayed;
      delayed_.push_back(Delayed{
          delivery_round_ + d.delay, to, from, slot,
          d.corrupt ? FaultEngine::corrupted_copy(m, d) : m});
      return;
    }
    const Delivery out{to, from, &m,
                       d.corrupt ? own(FaultEngine::corrupted_copy(m, d))
                                 : Delivery::kOutbox,
                       slot};
    if (d.duplicate) {
      ++fc.duplicated;
      resolved_.push_back(out);
    }
    resolved_.push_back(out);
  };

  collect_senders(dst);
  for (NodeId from : senders_[dst]) {
    const auto row = csr_->neighbors(from);
    const std::size_t base = slots_->edge_index(from, 0);
    replay(
        outbox_[dst][from],
        [&](const OutMsg& sm) { resolve(from, sm.to, base + sm.slot, sm.msg); },
        [&](const OutBcast& bc) {
          for (std::uint32_t s = 0; s < row.size(); ++s) {
            resolve(from, row[s].to, base + s, bc.msg);
          }
        });
  }
  for (const std::size_t e : touched_edge_scratch_) edge_ordinal_[e] = 0;

  // Pass 2: lay out and scatter the surviving deliveries in resolution
  // order. `owned` is complete now, so its addresses are final.
  const std::size_t total = resolved_.size();
  for (const Delivery& d : resolved_) {
    if (count[d.to]++ == 0) {
      touched.push_back(d.to);
      tflag[d.to] = 1;
    }
  }
  arena.ensure_capacity(total);
  place_rows(touched, dst, 0);
  const Scatter put{arena.data(), fill_.data()};
  for (const Delivery& d : resolved_) {
    put(d.to, d.from, d.slot,
        d.owned == Delivery::kOutbox ? *d.msg : owned[d.owned]);
  }
  // Delayed messages are still in flight: they must keep the run alive
  // until they arrive, so they count as queued work.
  queued_count_ = total + delayed_.size();
}

// Crash-stop: from its crash round on, a node neither computes nor
// sends. Deliveries *to* it are destroyed at merge time; here the node
// is removed from the live set so build_actives never schedules it
// again. crashed_nodes counts crash events that stopped a node that
// was still running (a node that finished before its crash round is
// unaffected); doneness is deterministic, so this tally is too.
void Simulator::apply_crashes() {
  if (live_.empty()) return;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const NodeId v = live_[i];
    if (faults_->crashed_by(v, round_)) {
      node_done_[v] = 1;
      ++fault_counters_.crashed_nodes;
    } else {
      live_[keep++] = v;
    }
  }
  live_.resize(keep);
}

// The round a jump lands on: the earliest wake round of any live node,
// found by one scan of the live set (all ones when it is empty).
std::uint64_t Simulator::earliest_wake() const {
  std::uint64_t next = ~std::uint64_t{0};
  for (const NodeId v : live_) next = std::min(next, wake_[v]);
  return next;
}

// actives = due (live, wake round reached) ∪ touched (has mail) —
// exactly the nodes that must run: done nodes with empty inboxes are
// silent, and so are sleeping ones. live_ is always sorted; touched_
// arrives in first-receipt order, so dense rounds use one O(n) flag scan
// (node_done_ is maintained for every node, and a node outside live_ is
// exactly a node with node_done_ set) while sparse rounds sort the short
// touched list and merge — the active-set design stays sub-O(n) when
// activity is sparse.
void Simulator::build_actives() {
  actives_.clear();
  auto& touched = touched_[cur_];
  const NodeId n = csr_->node_count();
  if ((touched.size() + live_.size()) * 8 >= n) {
    const char* flag = touched_flag_[cur_].data();
    for (NodeId v = 0; v < n; ++v) {
      const bool due = node_done_[v] == 0 && wake_[v] <= round_;
      if (due || flag[v] != 0) actives_.push_back(v);
    }
  } else {
    std::sort(touched.begin(), touched.end());
    auto t = touched.begin();
    for (const NodeId v : live_) {
      while (t != touched.end() && *t < v) actives_.push_back(*t++);
      const bool mail = t != touched.end() && *t == v;
      if (mail) ++t;
      if (mail || wake_[v] <= round_) actives_.push_back(v);
    }
    actives_.insert(actives_.end(), t, touched.end());
  }
}

// After a program phase: only active nodes can change doneness, and a
// sleeping node stays live, so the new live set is the old one merged
// with the round's actives, minus the nodes now done.
void Simulator::refresh_live() {
  live_next_.clear();
  std::set_union(live_.begin(), live_.end(), actives_.begin(), actives_.end(),
                 std::back_inserter(live_next_));
  std::erase_if(live_next_, [&](NodeId v) { return node_done_[v] != 0; });
  live_.swap(live_next_);
}

runtime::ThreadPool* Simulator::round_pool() {
  if (config_.execution.pool != nullptr) return config_.execution.pool;
  if (config_.execution.workers == 1) return nullptr;
  if (!own_pool_) {
    own_pool_ =
        std::make_unique<runtime::ThreadPool>(config_.execution.workers);
  }
  return own_pool_.get();
}

void Simulator::run_actives(
    std::span<const std::unique_ptr<NodeProgram>> programs,
    std::vector<NodeContext>& contexts) {
  const auto& arena = arena_[cur_];
  const auto& begin = inbox_begin_[cur_];
  const auto& count = inbox_count_[cur_];
  const auto run_one = [&](NodeId v) {
    const std::span<const Incoming> inbox =
        count[v] != 0
            ? std::span<const Incoming>(arena.data() + begin[v], count[v])
            : std::span<const Incoming>();
    wake_[v] = wake_floor_;
    programs[v]->on_round(contexts[v], inbox);
    node_done_[v] = programs[v]->done() ? 1 : 0;
  };

  runtime::ThreadPool* pool = round_pool();
  if (pool == nullptr || actives_.size() <= 1) {
    for (NodeId v : actives_) run_one(v);
    return;
  }
  // Auto-serial fallback for low-traffic rounds: when the active set
  // plus this round's queued deliveries is tiny, the per-round
  // fork/join of the pool costs more than the programs themselves
  // (Algorithm 1's hop-limited SSSP is the canonical victim — a
  // handful of frontier messages per round, every round). Work is
  // measured in deliveries, not degree mass: an active node with an
  // empty inbox usually no-ops regardless of its degree. Serial and
  // pooled program phases are byte-identical by construction, so this
  // is a wall-clock decision only (the merge applies the same
  // threshold to its deliveries; 0 always pools).
  std::size_t work = actives_.size();
  for (NodeId v : actives_) work += count[v];
  if (work < config_.execution.pooled_round_min_work) {
    for (NodeId v : actives_) run_one(v);
    return;
  }
  // Everything a worker touches here is owned by the node it runs:
  // programs[v], contexts[v], node_rngs_[v], outbox_[v], node_done_[v],
  // wake_[v], and the sender's disjoint stripe of edge_bits_. Shared
  // engine state (ledger, trace, mailboxes) is only touched in the merge,
  // which partitions it by receiver shard.
  //
  // Chunks are cut by estimated per-node work — 1 + inbox size +
  // degree — not by node count: a hub node's on_round reads and sends
  // orders of magnitude more than a leaf's, and equal-count chunks
  // leave the hub's chunk as the straggler every round.
  actives_prefix_.clear();
  actives_prefix_.reserve(actives_.size() + 1);
  actives_prefix_.push_back(0);
  for (NodeId v : actives_) {
    actives_prefix_.push_back(actives_prefix_.back() + 1 + count[v] +
                              csr_->degree(v));
  }
  runtime::balanced_ranges(actives_prefix_,
                           static_cast<std::size_t>(pool->worker_count()) * 4,
                           actives_bounds_);
  runtime::parallel_for_ranges(
      *pool, actives_bounds_, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) run_one(actives_[i]);
      });
}

RunStats Simulator::run(std::span<const std::unique_ptr<NodeProgram>> programs) {
  const NodeId n = csr_->node_count();
  QC_REQUIRE(programs.size() == n, "need exactly one program per node");

  stats_ = RunStats{};
  round_ = 0;
  queued_count_ = 0;
  round_max_edge_bits_ = 0;
  trace_.clear();
  cur_ = 0;
  // Full reset (not just touched slots): a previous run may have been
  // aborted mid-round by a ModelError, leaving partial residue.
  for (int b = 0; b < 2; ++b) {
    std::fill(inbox_count_[b].begin(), inbox_count_[b].end(), 0u);
    std::fill(touched_flag_[b].begin(), touched_flag_[b].end(), char{0});
    touched_[b].clear();
    // Arena contents may be stale; rows are always constructed before
    // they are spanned, so no reset is needed.
    for (auto& box : outbox_[b]) box.clear();
    senders_[b].clear();
    fault_msgs_[b].clear();
  }
  std::fill(edge_bits_.begin(), edge_bits_.end(), 0u);
  fault_counters_ = FaultCounters{};
  delayed_.clear();
  if (faults_) {
    std::fill(edge_ordinal_.begin(), edge_ordinal_.end(), 0u);
  }

  // The faulted merge stays serial: fault resolution order is part of
  // its determinism contract. A merge into buffer dst ends the phase
  // that read buffer 1-dst, so that generation is recycled right after.
  runtime::ThreadPool* pool = round_pool();
  const auto do_merge = [&](int dst) {
    if (faults_) {
      merge_faulted(dst);
    } else {
      merge(dst, pool);
    }
    recycle(1 - dst);
  };

  std::vector<NodeContext> contexts;
  contexts.reserve(n);
  for (NodeId v = 0; v < n; ++v) contexts.push_back(NodeContext(*this, v));

  // Start hook (counts as pre-round-0 local computation; sends land in
  // round 0 inboxes and in the round 0 metrics report). Every node is
  // due in round 0 unless it sleeps.
  ++epoch_;
  std::fill(last_active_epoch_.begin(), last_active_epoch_.end(), epoch_);
  send_gen_ = 0;
  wake_floor_ = 0;
  std::fill(wake_.begin(), wake_.end(), 0);
  for (NodeId v = 0; v < n; ++v) {
    programs[v]->on_start(contexts[v]);
  }
  live_.clear();
  for (NodeId v = 0; v < n; ++v) {
    node_done_[v] = programs[v]->done() ? 1 : 0;
    if (node_done_[v] == 0) live_.push_back(v);
  }
  actives_.resize(n);
  std::iota(actives_.begin(), actives_.end(), NodeId{0});
  // Start-phase sends are delivered in round 0; round r's sends are
  // delivered in round r+1 (delivery_round_ keys the fault plan).
  delivery_round_ = 0;
  do_merge(0);

  std::uint64_t reported_messages = 0;
  std::uint64_t reported_bits = 0;
  for (;;) {
    // arena_[cur_] holds this round's deliveries (merged last phase).
    const bool had_messages = queued_count_ > 0;
    queued_count_ = 0;
    if (live_.empty() && !had_messages) break;

    // Nothing in flight: jump over the rounds in which every live node
    // sleeps. A fault plan steps (and reports) every round instead, so
    // each crash and link check happens in the round a round-by-round
    // run makes it; delayed messages count as in flight either way.
    if (!had_messages && !faults_) {
      const std::uint64_t next = earliest_wake();
      if (next > config_.execution.max_rounds) {
        throw ModelError("simulation exceeded max_rounds=" +
                         std::to_string(config_.execution.max_rounds));
      }
      round_ = std::max(round_, next);
    }

    if (faults_) apply_crashes();
    build_actives();

    ++epoch_;
    for (NodeId v : actives_) last_active_epoch_[v] = epoch_;
    send_gen_ = 1 - cur_;
    wake_floor_ = round_ + 1;
    run_actives(programs, contexts);
    refresh_live();

    delivery_round_ = round_ + 1;
    do_merge(1 - cur_);

    if (config_.hooks.on_round_metrics) {
      config_.hooks.on_round_metrics(RoundMetrics{
          round_, stats_.messages - reported_messages,
          stats_.bits - reported_bits, static_cast<NodeId>(actives_.size()),
          static_cast<double>(round_max_edge_bits_) / bandwidth_});
      reported_messages = stats_.messages;
      reported_bits = stats_.bits;
    }
    round_max_edge_bits_ = 0;

    ++round_;
    if (round_ > config_.execution.max_rounds) {
      throw ModelError("simulation exceeded max_rounds=" +
                       std::to_string(config_.execution.max_rounds));
    }
    cur_ = 1 - cur_;
  }

  stats_.rounds = round_;
  return stats_;
}

}  // namespace qc::congest
