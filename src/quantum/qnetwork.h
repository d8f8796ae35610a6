// A qubit-level quantum CONGEST network for small instances.
//
// The paper's model: adjacent nodes exchange qubits over O(log n)-qubit
// channels; nodes apply local quantum operations; distinct nodes may
// share entanglement. This class simulates that model exactly (one
// global state vector, a qubit→owner map, per-round per-edge qubit
// budgets, locality-checked gates). It cannot scale past ~20 qubits —
// which is precisely why the library's large-scale engine uses the
// amplitude-exact substitution S1 of DESIGN.md — but it grounds the
// model's claims concretely: tests distribute a leader's superposition
// by CNOT copies along a BFS tree in depth rounds (the Lemma 3.5 Setup
// step) and verify the resulting global entangled state.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/faults.h"
#include "graph/graph.h"
#include "graph/slot_index.h"
#include "quantum/statevector.h"
#include "util/rng.h"

namespace qc::quantum {

class QuantumNetwork {
 public:
  /// A network over `topology` (copied — temporaries are fine) with
  /// `qubit_count` qubits, all initially |0⟩ and owned by node 0.
  /// `qubit_bandwidth` caps qubits per edge per direction per round
  /// (the model's O(log n)).
  QuantumNetwork(WeightedGraph topology, std::uint32_t qubit_count,
                 std::uint32_t qubit_bandwidth = 1);

  std::uint32_t qubit_count() const { return state_.qubit_count(); }
  std::uint64_t rounds() const { return rounds_; }
  const StateVector& state() const { return state_; }

  NodeId owner(std::uint32_t qubit) const;

  /// Initial placement; only allowed before the first round.
  void place(std::uint32_t qubit, NodeId node);

  // --- local operations: `node` must own every operand ---
  void h(NodeId node, std::uint32_t q);
  void x(NodeId node, std::uint32_t q);
  void z(NodeId node, std::uint32_t q);
  void cnot(NodeId node, std::uint32_t control, std::uint32_t target);
  void cz(NodeId node, std::uint32_t control, std::uint32_t target);

  /// Measures qubit q (owned by `node`) in the computational basis;
  /// collapses the global state. Returns the outcome.
  bool measure(NodeId node, std::uint32_t q, Rng& rng);

  /// Installs link outages sharing congest's fault semantics
  /// (congest::LinkDownInterval, keyed by round): a qubit transfer
  /// attempted on a downed link in a covered round throws ModelError.
  /// Quantum transfers cannot be silently dropped-and-retried the way
  /// classical messages are — no-cloning means the in-flight qubit
  /// would be destroyed — so the fault surfaces as a model violation
  /// the protocol must handle (e.g. teleport over another path).
  /// Intervals are validated against the topology. Call before or
  /// between rounds.
  void set_link_faults(std::vector<congest::LinkDownInterval> intervals);

  /// Queues a qubit transfer to a neighbour; committed by end_round().
  /// Throws ModelError on non-neighbours, foreign qubits, exceeding
  /// the per-edge qubit budget this round, or a downed link (see
  /// set_link_faults).
  void send_qubit(NodeId from, NodeId to, std::uint32_t q);

  /// Commits all queued transfers and advances the round counter.
  void end_round();

 private:
  void check_owner(NodeId node, std::uint32_t q) const;

  WeightedGraph topology_;
  const EdgeSlotIndex* slots_;  ///< topology_'s cached index (row scans)
  std::uint32_t qubit_bandwidth_;
  StateVector state_;
  std::vector<NodeId> owner_;
  std::uint64_t rounds_ = 0;
  bool started_ = false;
  struct Transfer {
    NodeId from;
    NodeId to;
    std::uint32_t slot;  ///< slot of `to` in from's adjacency row
    std::uint32_t qubit;
  };
  std::vector<Transfer> pending_;
  /// Qubits queued this round, by dense directed-edge index.
  std::vector<std::uint32_t> edge_in_flight_;
  /// Installed link outages (empty = fault-free).
  std::vector<congest::LinkDownInterval> link_faults_;
};

/// Distributes node 0's superposition qubit to every node by CNOT
/// copies along a BFS tree, in exactly depth(tree) rounds: qubit v is
/// initially held by v's tree parent, which entangles it by a local
/// CNOT and ships it one hop. With qubit 0 prepared as
/// (|0⟩+|1⟩)/√2 the result is the n-qubit GHZ state — every node now
/// holds one share of the leader's superposition (Lemma 3.5's
/// "broadcast using CNOT copies").
/// `parent[v]` is v's BFS-tree parent (ignored for v = 0). Qubit v is
/// node v's share. Returns the rounds used.
std::uint64_t cnot_broadcast(QuantumNetwork& net,
                             const std::vector<NodeId>& parent,
                             const std::vector<Dist>& depth);

/// Shares a Bell pair between adjacent nodes: `from` entangles
/// (epr_local, epr_remote) locally and ships epr_remote — one round.
void share_bell_pair(QuantumNetwork& net, NodeId from, NodeId to,
                     std::uint32_t epr_local, std::uint32_t epr_remote);

/// Standard teleportation of `payload` (held by `from`) onto
/// `epr_remote` (held by adjacent node `to`; must form a Bell pair with
/// `epr_local` at `from`): Bell measurement at `from`, two classical
/// correction bits across the edge (one round), Pauli fix-up at `to`.
/// After the call `epr_remote` carries the payload's state exactly.
struct TeleportResult {
  bool m1 = false;  ///< the Z-basis bit
  bool m2 = false;  ///< the X-correction bit
};
TeleportResult teleport(QuantumNetwork& net, NodeId from, NodeId to,
                        std::uint32_t payload, std::uint32_t epr_local,
                        std::uint32_t epr_remote, Rng& rng);

}  // namespace qc::quantum
