// Reusable distributed primitives on the CONGEST simulator.
//
// These are the O(D)- and O(D+k)-round building blocks the paper's
// algorithms assume:
//   * BFS spanning tree from a root (O(D) rounds);
//   * global aggregate (min/max/sum) by convergecast + downcast
//     ("converge-casting" in the paper's Lemma 3.5 proof, O(D) rounds);
//   * pipelined flooding of k items to every node (O(D + k) rounds) —
//     the "broadcast by pipelining" used by Algorithms 3-5;
//   * acked flooding (flood_items_reliable) — the same dissemination
//     goal made robust to message faults by per-item per-neighbour
//     acknowledgements with retry/timeout/backoff.
//
// Each primitive is a genuine `NodeProgram` (message-level, bandwidth
// checked) plus a convenience wrapper that runs it and collects outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/simulator.h"

namespace qc::congest {

/// A distributed primitive detected that it cannot produce a correct
/// result: bad input (e.g. duplicate flood payloads), or a fault plan
/// broke an assumption the protocol does not tolerate.
/// `paths::AlgorithmFailure` is an alias of this type.
class AlgorithmFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr NodeId kNoParent = static_cast<NodeId>(-1);

/// Output of BFS-tree construction for one node.
struct BfsTreeNodeResult {
  NodeId parent = kNoParent;  ///< kNoParent for the root / unreached
  Dist depth = kInfDist;      ///< hop distance from the root
  std::vector<NodeId> children;
};

/// Result of a BFS-tree build over the whole network.
struct BfsTreeResult {
  RunStats stats;
  /// Full report. Under crash-stop faults the tree can be cut off from
  /// part of the network; then `outcome.completed` is false and
  /// `outcome.diagnostic` says how many nodes stayed unreached.
  RunOutcome outcome;
  std::vector<BfsTreeNodeResult> nodes;
  std::vector<NodeId> unreached;  ///< nodes with no depth (ascending)
};

/// Builds a BFS spanning tree rooted at `root`. Every node learns its
/// parent, depth, and children. O(D) rounds fault-free. Liveness is
/// guaranteed under any fault plan: every node gives up after an
/// internal horizon of ~2n rounds, so a partitioned build terminates
/// and reports the unreached set instead of spinning to max_rounds.
BfsTreeResult build_bfs_tree(const WeightedGraph& g, NodeId root,
                             Config config = {});

/// Associative fold for aggregates.
enum class AggregateOp { kMin, kMax, kSum };

/// Result of a global aggregate.
struct AggregateResult {
  RunStats stats;
  std::uint64_t value = 0;  ///< aggregate, known to every node on return
};

/// Computes op over each node's `inputs[v]` and disseminates the result
/// to all nodes via convergecast + downcast on a BFS tree rooted at
/// `root`. `value_bits` is the encoded width of any partial aggregate
/// (caller guarantees all partials fit). O(D) rounds. Under drop and
/// delay faults it either returns the true aggregate, known to every
/// node, or throws `AlgorithmFailure` naming the nodes left without a
/// value: a node gives up after an internal horizon of ~4n rounds, and
/// one that hears from a child after reporting up counts as without a
/// value. A plan that can duplicate or corrupt a message, as a
/// probability or as an explicit event, is rejected with `ArgumentError`
/// before the run starts: the convergecast has no dedup and no checksum.
AggregateResult global_aggregate(const WeightedGraph& g, NodeId root,
                                 const std::vector<std::uint64_t>& inputs,
                                 AggregateOp op, std::uint32_t value_bits,
                                 Config config = {});

/// One flooded item: an opaque payload that must fit in one message
/// (payload bits + header <= B). Relaying deduplicates by content
/// (field-value tuple), so payloads MUST be globally distinct — give
/// items an id field. Historically two nodes injecting identical
/// payloads silently lost one of them to that dedup; injection now
/// validates distinctness up front and throws `AlgorithmFailure`
/// naming both injection sites instead.
using FloodItem = Message;

/// Result of a pipelined flood.
struct FloodResult {
  RunStats stats;
  /// items_at[v] = all items known to v (its own + received), in a
  /// deterministic order (sorted by content).
  std::vector<std::vector<FloodItem>> items_at;
};

/// How much of the converged flood state to materialize into
/// `FloodResult::items_at`. The protocol (rounds, messages, stats) is
/// identical in all modes — only the final read-out differs. Most
/// callers drive a flood purely for its round cost and read `.stats`;
/// copying every item out of every node is the single largest local
/// cost of a big flood, so skip it when nothing reads the items.
enum class FloodCollect : std::uint8_t {
  kAllNodes,   ///< items_at[v] for every node v (default)
  kFirstNode,  ///< items_at = { node 0's items } only
  kStatsOnly,  ///< items_at left empty
};

/// Floods every node's initial items to all nodes, pipelined: each node
/// relays one not-yet-relayed item per round to all neighbours.
/// O(D + k) rounds for k total items. Throws `AlgorithmFailure` if two
/// injected payloads are identical (see FloodItem).
FloodResult flood_items(const WeightedGraph& g,
                        std::vector<std::vector<FloodItem>> initial,
                        Config config = {},
                        FloodCollect collect = FloodCollect::kAllNodes);

/// Result of an acked flood.
struct ReliableFloodResult {
  RunOutcome outcome;  ///< ledger + what the fault plan did to the run
  /// items_at[v] = all items known to v, sorted by content — identical
  /// to flood_items output whenever the protocol converges.
  std::vector<std::vector<FloodItem>> items_at;
};

/// Acked flooding: like flood_items, but every (item, neighbour) pair
/// is retransmitted on a `timeout_rounds` timeout with exponential
/// backoff until the neighbour acknowledges it, and receivers re-ack
/// retransmissions (so lost acks are also recovered). Converges to the
/// flood_items result under message drop (any probability < 1),
/// duplication, and delay. Corruption is survived but not hidden: the
/// wire format carries no checksum, so a corrupted payload circulates
/// as a spurious extra item. NOT robust to crash-stop failures (a
/// crashed node can never ack; the survivors would retry until the
/// round horizon) — crash recovery needs a membership protocol, which
/// is out of scope here. Costs one extra ack per delivered item and
/// needs 2·(item bits + 1) <= B so a data and an ack message can share
/// an edge each round. Throws `AlgorithmFailure` on duplicate injected
/// payloads, like flood_items.
ReliableFloodResult flood_items_reliable(
    const WeightedGraph& g, std::vector<std::vector<FloodItem>> initial,
    std::uint64_t timeout_rounds = 8, Config config = {});

/// Result of a leader election.
struct ElectionResult {
  RunStats stats;
  NodeId leader = 0;  ///< agreed upon by every node
};

/// Min-id leader election by flooding with a fixed horizon: every node
/// forwards the smallest id it has seen; after `horizon` >= D rounds
/// all nodes agree on the global minimum. (The paper assumes a
/// pre-defined leader; this primitive discharges that assumption —
/// horizon = n is always safe since D <= n-1.)
ElectionResult elect_leader(const WeightedGraph& g, std::uint64_t horizon,
                            Config config = {});

}  // namespace qc::congest
