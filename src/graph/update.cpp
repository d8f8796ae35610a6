#include "graph/update.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace qc {

namespace {

std::uint64_t edge_key(NodeId u, NodeId v) {
  return (std::uint64_t{std::min(u, v)} << 32) | std::uint64_t{std::max(u, v)};
}

/// Simulated per-edge state during validation, then the source of the
/// batch's net effect.
struct TouchedEdge {
  bool initially_present = false;
  bool present = false;
  Weight initial_weight = 0;
  Weight weight = 0;
};

enum class NetKind : std::uint8_t { kInsert, kRemove, kReweight };

struct NetChange {
  NetKind kind;
  NodeId u, v;    // canonical u < v
  Weight weight;  // final weight (kRemove: unused)
};

/// True when a and b share a neighbor in the current adjacency — the
/// 2-hop replacement-path certificate: if every removed edge {a, b}
/// has one, each removal leaves its endpoints connected, so applying
/// the removals one at a time (each against a graph that is still
/// connected by induction) keeps the whole graph connected.
bool have_common_neighbor(const std::vector<std::vector<HalfEdge>>& adj,
                          NodeId a, NodeId b) {
  const auto& ra = adj[a];
  const auto& rb = adj[b];
  const auto& small = ra.size() <= rb.size() ? ra : rb;
  const auto& large = ra.size() <= rb.size() ? rb : ra;
  if (small.size() * large.size() <= 64) {
    for (const HalfEdge& x : small) {
      for (const HalfEdge& y : large) {
        if (x.to == y.to) return true;
      }
    }
    return false;
  }
  std::unordered_set<NodeId> seen;
  seen.reserve(small.size() * 2);
  for (const HalfEdge& x : small) seen.insert(x.to);
  for (const HalfEdge& y : large) {
    if (seen.count(y.to) != 0) return true;
  }
  return false;
}

using TouchedEdges = std::unordered_map<std::uint64_t, TouchedEdge>;

/// Validates the batch against a simulated edge state and returns that
/// state. Checks (and their messages) run in the historical add_edge /
/// set_edge_weight order, sequentially per op, so a batch fails exactly
/// where the equivalent op sequence would — and before anything
/// mutates.
TouchedEdges simulate_ops(const WeightedGraph& g,
                          const std::vector<EdgeOp>& ops) {
  const NodeId n = g.node_count();
  TouchedEdges touched;
  touched.reserve(ops.size() * 2);
  for (const EdgeOp& op : ops) {
    QC_REQUIRE(op.u < n && op.v < n, "node id out of range");
    QC_REQUIRE(op.u != op.v, "self loops are not allowed");
    auto [it, fresh] = touched.try_emplace(edge_key(op.u, op.v));
    TouchedEdge& e = it->second;
    if (fresh) {
      e.initially_present = g.has_edge(op.u, op.v);
      e.present = e.initially_present;
      if (e.present) {
        e.initial_weight = g.edge_weight(op.u, op.v);
        e.weight = e.initial_weight;
      }
    }
    switch (op.kind) {
      case EdgeOpKind::kInsert:
        require_edge_weight(op.weight);
        QC_REQUIRE(!e.present, "parallel edges are not allowed");
        e.present = true;
        e.weight = op.weight;
        break;
      case EdgeOpKind::kRemove:
        if (!e.present) throw ArgumentError("remove_edge: no such edge");
        e.present = false;
        break;
      case EdgeOpKind::kReweight:
        require_edge_weight(op.weight);
        if (!e.present) throw ArgumentError("set_edge_weight: no such edge");
        e.weight = op.weight;
        break;
    }
  }
  return touched;
}

void erase_half(std::vector<HalfEdge>& row, NodeId to) {
  const auto it =
      std::find_if(row.begin(), row.end(),
                   [to](const HalfEdge& h) { return h.to == to; });
  row.erase(it);  // validated present
}

void set_half_weight(std::vector<HalfEdge>& row, NodeId to, Weight w) {
  for (HalfEdge& h : row) {
    if (h.to == to) h.weight = w;
  }
}

}  // namespace

std::vector<NodeId> GraphUpdate::endpoints() const {
  std::vector<NodeId> out;
  out.reserve(ops_.size() * 2);
  for (const EdgeOp& op : ops_) {
    out.push_back(op.u);
    out.push_back(op.v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void WeightedGraph::check_update(const GraphUpdate& update) const {
  simulate_ops(*this, update.ops());
}

UpdateStats WeightedGraph::apply(const GraphUpdate& update) {
  UpdateStats stats;
  const auto& ops = update.ops();
  if (ops.empty()) return stats;

  // ---- Phase 1: validate the whole batch (simulate_ops above).
  const TouchedEdges touched = simulate_ops(*this, ops);

  // ---- Phase 2: reduce to net changes, in first-touch op order (the
  // order inserts append to rows, so it must be deterministic).
  std::vector<NetChange> net;
  net.reserve(touched.size());
  {
    std::unordered_set<std::uint64_t> emitted;
    emitted.reserve(touched.size());
    for (const EdgeOp& op : ops) {
      const std::uint64_t key = edge_key(op.u, op.v);
      if (!emitted.insert(key).second) continue;
      const TouchedEdge& e = touched.find(key)->second;
      const NodeId a = std::min(op.u, op.v);
      const NodeId b = std::max(op.u, op.v);
      if (e.initially_present && !e.present) {
        net.push_back({NetKind::kRemove, a, b, 0});
      } else if (!e.initially_present && e.present) {
        net.push_back({NetKind::kInsert, a, b, e.weight});
      } else if (e.initially_present && e.weight != e.initial_weight) {
        net.push_back({NetKind::kReweight, a, b, e.weight});
      }
    }
  }
  if (net.empty()) return stats;

  bool any_insert = false;
  bool any_remove = false;
  for (const NetChange& c : net) {
    switch (c.kind) {
      case NetKind::kInsert:
        ++stats.inserted;
        any_insert = true;
        break;
      case NetKind::kRemove:
        ++stats.removed;
        any_remove = true;
        break;
      case NetKind::kReweight:
        ++stats.reweighted;
        break;
    }
  }
  stats.topology_changed = any_insert || any_remove;

  ConnCache verdict;
  {
    std::lock_guard<std::mutex> lock(csr_mutex_);
    verdict = connected_cache_;
  }

  // ---- Phase 3: mutate the adjacency rows and the canonical edge
  // list. Rows keep their relative order under removal and append
  // inserts, exactly mirroring the edge list's compact-then-append —
  // so from_edges(n, edges()) reproduces the adjacency verbatim.
  for (const NetChange& c : net) {
    switch (c.kind) {
      case NetKind::kInsert:
        adjacency_[c.u].push_back({c.v, c.weight});
        adjacency_[c.v].push_back({c.u, c.weight});
        break;
      case NetKind::kRemove:
        erase_half(adjacency_[c.u], c.v);
        erase_half(adjacency_[c.v], c.u);
        break;
      case NetKind::kReweight:
        set_half_weight(adjacency_[c.u], c.v, c.weight);
        set_half_weight(adjacency_[c.v], c.u, c.weight);
        break;
    }
  }
  {
    std::unordered_map<std::uint64_t, const NetChange*> by_key;
    by_key.reserve(net.size());
    for (const NetChange& c : net) by_key.emplace(edge_key(c.u, c.v), &c);
    if (any_remove || stats.reweighted != 0) {
      std::size_t out = 0;
      for (std::size_t i = 0; i < edges_.size(); ++i) {
        Edge e = edges_[i];
        const auto it = by_key.find(edge_key(e.u, e.v));
        if (it != by_key.end()) {
          if (it->second->kind == NetKind::kRemove) continue;
          if (it->second->kind == NetKind::kReweight) {
            e.weight = it->second->weight;
          }
        }
        edges_[out++] = e;
      }
      edges_.resize(out);
    }
    for (const NetChange& c : net) {
      if (c.kind == NetKind::kInsert) edges_.push_back({c.u, c.v, c.weight});
    }
  }

  // ---- Phase 4: connectivity tri-state. Reweights never flip it;
  // inserts can only bridge ("disconnected" downgrades); removals can
  // only cut — but a cached "connected" survives when every removed
  // edge's endpoints share a common neighbor in the *final* graph (the
  // replacement-path certificate above).
  ConnCache final_verdict = verdict;
  if (verdict == ConnCache::kDisconnected && any_insert) {
    final_verdict = ConnCache::kUnknown;
  }
  if (verdict == ConnCache::kConnected && any_remove) {
    for (const NetChange& c : net) {
      if (c.kind != NetKind::kRemove) continue;
      if (!have_common_neighbor(adjacency_, c.u, c.v)) {
        final_verdict = ConnCache::kUnknown;
        break;
      }
    }
  }
  stats.connectivity_kept =
      verdict != ConnCache::kUnknown && final_verdict == verdict;

  // ---- Phase 5: the CSR view and slot index embed weights and slot
  // layout, so they go; the next csr() / slot_index() rebuilds them
  // flat from the mutated rows.
  std::lock_guard<std::mutex> lock(csr_mutex_);
  csr_cache_.reset();
  slot_index_cache_.reset();
  connected_cache_ = final_verdict;
  return stats;
}

}  // namespace qc
