// Deterministic fault injection for the CONGEST simulator.
//
// The paper's model is a fault-free synchronous network, but every real
// deployment of the Appendix A building blocks must survive dropped,
// delayed, duplicated, and corrupted messages. This header defines the
// fault *plan* — what goes wrong, when — and the engine that resolves it.
// Plans are fully deterministic: probabilistic faults are decided by a
// counter-based hash of (fault seed, delivery round, directed edge,
// per-edge message ordinal), never by a stateful RNG, so the decision
// for a given message is independent of worker count, scheduling, and
// every other message. Two runs with the same seed produce identical
// `FaultCounters` and identical program-visible behaviour at any
// `Config` worker count.
//
// Convention: faults are keyed by **delivery round**. A message sent in
// round r is normally delivered in round r+1; that is the round the
// fault plan sees (on_start sends are delivered in round 0). A link-down
// interval [first, last] destroys every message whose delivery round
// falls inside it; a crash at round c destroys deliveries *to* the
// crashed node from round c on and stops the node's activations from
// round c on. Delay-by-k moves the delivery round from r+1 to r+1+k;
// the fault decision is made once, at the original delivery round, and
// the delayed copy is only re-checked against receiver crashes on
// arrival. An empty plan is guaranteed to leave the engine's fast path
// untouched — ledger, trace, metrics, and outputs stay byte-identical
// to a fault-free build (pinned by tests/test_faults.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "congest/message.h"
#include "graph/graph.h"
#include "graph/slot_index.h"

namespace qc::congest {

/// What happens to one delivered message.
enum class FaultKind : std::uint8_t {
  kDrop,       ///< the message vanishes
  kDuplicate,  ///< the receiver gets two copies
  kDelay,      ///< delivery happens `delay_rounds` rounds late
  kCorrupt,    ///< one field is XOR-perturbed (widths stay valid)
};

/// One explicitly scheduled fault: applies to the `slot`-th message
/// (0-based ordinal) delivered over directed edge (from, to) in
/// delivery round `round`. Explicit events take precedence over the
/// probabilistic model for the message they name.
struct FaultEvent {
  std::uint64_t round = 0;  ///< delivery round (see header convention)
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t slot = 0;  ///< per-edge per-round message ordinal
  FaultKind kind = FaultKind::kDrop;
  std::uint32_t delay_rounds = 1;  ///< kDelay: extra rounds in flight
  std::uint32_t corrupt_field = 0;  ///< kCorrupt: field index to flip
  /// kCorrupt: XOR mask applied to the field value, truncated to the
  /// field's declared width so the corrupted message is still valid.
  std::uint64_t corrupt_mask = 1;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A link outage: messages on edge {a, b} (both directions when
/// `symmetric`, else only a→b) with delivery round in
/// [first_round, last_round] are destroyed.
struct LinkDownInterval {
  NodeId a = 0;
  NodeId b = 0;
  std::uint64_t first_round = 0;
  std::uint64_t last_round = 0;  ///< inclusive
  bool symmetric = true;

  friend bool operator==(const LinkDownInterval&,
                         const LinkDownInterval&) = default;
};

/// Crash-stop node failure: from round `round` on, the node neither
/// computes nor communicates, and deliveries to it are destroyed.
/// (on_start runs before round 0, so a crash at round 0 still lets the
/// node's start-phase sends out.)
struct CrashEvent {
  NodeId node = 0;
  std::uint64_t round = 0;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// Seed-derived per-message fault probabilities. Decisions are drawn
/// independently per message and per class; classes are resolved in
/// priority order drop > duplicate > delay > corrupt, at most one per
/// message.
struct FaultProbabilities {
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double corrupt = 0.0;
  std::uint32_t delay_rounds = 1;  ///< extra rounds for probabilistic delays

  bool any() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || corrupt > 0.0;
  }

  friend bool operator==(const FaultProbabilities&,
                         const FaultProbabilities&) = default;
};

/// The complete fault schedule for one engine run — `Config::Faults`.
/// Default-constructed = empty = the engine's fault-free fast path.
struct FaultPlan {
  /// Seed for probabilistic decisions; 0 derives from the engine seed.
  std::uint64_t seed = 0;
  FaultProbabilities probabilities;
  std::vector<FaultEvent> events;
  std::vector<LinkDownInterval> link_down;
  std::vector<CrashEvent> crashes;

  bool empty() const {
    return !probabilities.any() && events.empty() && link_down.empty() &&
           crashes.empty();
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Per-fault-class tallies for one run; part of `RunOutcome` and
/// exported to a `runtime::MetricsRegistry` via
/// `runtime::record_fault_metrics`.
struct FaultCounters {
  std::uint64_t dropped = 0;          ///< probabilistic + explicit drops
  std::uint64_t duplicated = 0;       ///< extra copies delivered
  std::uint64_t delayed = 0;          ///< messages delivered late
  std::uint64_t corrupted = 0;        ///< messages with a flipped field
  std::uint64_t link_down_drops = 0;  ///< destroyed by link outages
  std::uint64_t crashed_nodes = 0;    ///< crash events applied
  std::uint64_t crash_drops = 0;      ///< deliveries to crashed nodes

  std::uint64_t total() const {
    return dropped + duplicated + delayed + corrupted + link_down_drops +
           crashed_nodes + crash_drops;
  }

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

/// Resolves a `FaultPlan` message by message. Engine-internal: the
/// simulator constructs one per execution when the plan is non-empty
/// and consults it from its serial faulted merge, so resolution order
/// — and with it every counter — is identical at any worker count. Pure
/// decision logic: the tallies live in the simulator's FaultCounters.
class FaultEngine {
 public:
  /// Validates the plan against the topology (event/link endpoints must
  /// be real directed edges, nodes in range) and freezes it.
  FaultEngine(const FaultPlan& plan, const EdgeSlotIndex& slots, NodeId n,
              std::uint64_t engine_seed);

  /// The resolved fate of one message. At most one fault class fires.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    std::uint32_t delay = 0;  ///< extra delivery rounds (0 = on time)
    bool corrupt = false;
    bool corrupt_explicit = false;    ///< use the event's field/mask
    std::uint32_t corrupt_field = 0;  ///< explicit corruption target
    std::uint64_t corrupt_mask = 0;   ///< explicit corruption mask
    std::uint64_t entropy = 0;        ///< probabilistic corruption bits
  };

  /// Decides the fate of the `ordinal`-th message delivered over
  /// directed edge `edge` (= slots.edge_index(from, slot)) in
  /// `delivery_round`. Pure: same arguments, same decision.
  Decision decide(std::uint64_t delivery_round, NodeId from, NodeId to,
                  std::size_t edge, std::uint32_t ordinal) const;

  /// The explicit events scheduled for `delivery_round` (nullptr when
  /// there are none — the common case). The faulted merge hoists this
  /// map lookup out of its per-message loop and passes the result to
  /// the `decide` overload below: one find per merge, not per message.
  const std::vector<FaultEvent>* events_for_round(
      std::uint64_t delivery_round) const;

  /// As `decide`, but with the round's event bucket already resolved
  /// via events_for_round (pass nullptr for an event-free round).
  Decision decide(std::uint64_t delivery_round, NodeId from, NodeId to,
                  std::size_t edge, std::uint32_t ordinal,
                  const std::vector<FaultEvent>* round_events) const;

  /// True iff the directed link from→to is down for `delivery_round`.
  bool link_down(std::uint64_t delivery_round, NodeId from, NodeId to) const;

  /// First round at which `v` is crashed, or kNeverCrashes.
  static constexpr std::uint64_t kNeverCrashes =
      ~static_cast<std::uint64_t>(0);
  std::uint64_t crash_round(NodeId v) const { return crash_round_[v]; }
  bool crashed_by(NodeId v, std::uint64_t round) const {
    return crash_round_[v] <= round;
  }

  /// Returns `m` with the chosen field XOR-perturbed inside its declared
  /// width (so the result is a valid message of identical bit size).
  /// Explicit decisions use (corrupt_field, corrupt_mask); probabilistic
  /// ones derive field and bit from `entropy`. A field-less message is
  /// returned unchanged.
  static Message corrupted_copy(const Message& m, const Decision& d);

 private:
  const FaultEvent* find_event(std::uint64_t delivery_round, NodeId from,
                               NodeId to, std::uint32_t ordinal) const;
  static const FaultEvent* find_in(const std::vector<FaultEvent>* bucket,
                                   NodeId from, NodeId to,
                                   std::uint32_t ordinal);

  std::uint64_t seed_;
  FaultProbabilities probs_;
  /// Events bucketed by delivery round (each bucket is tiny).
  std::map<std::uint64_t, std::vector<FaultEvent>> events_;
  std::vector<LinkDownInterval> link_down_;
  std::vector<std::uint64_t> crash_round_;  ///< per node
};

/// Shared helper: true iff any interval in `intervals` covers
/// (round, from→to). Used by both the classical engine and
/// `quantum::QuantumNetwork` so both observe one link-down semantics.
bool link_down_in(const std::vector<LinkDownInterval>& intervals,
                  std::uint64_t round, NodeId from, NodeId to);

}  // namespace qc::congest
