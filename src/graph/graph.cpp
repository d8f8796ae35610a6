#include "graph/graph.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "graph/update.h"

namespace qc {

void require_edge_weight(Weight w, std::string_view where) {
  if (is_edge_weight(w)) return;
  throw ArgumentError((where.empty() ? "" : std::string(where) + ": ") +
                      "edge weight " + std::to_string(w) +
                      " is outside [1, " + std::to_string(kInfDist) + ")");
}

// add_edge / remove_edge / set_edge_weight are sugar for one-op
// batches: apply() is the single sanctioned mutation surface, so the
// validation messages, cache invalidation, and connectivity rules live
// in exactly one place (graph/update.cpp).

void WeightedGraph::add_edge(NodeId u, NodeId v, Weight w) {
  apply(GraphUpdate{}.insert(u, v, w));
}

void WeightedGraph::remove_edge(NodeId u, NodeId v) {
  apply(GraphUpdate{}.remove(u, v));
}

WeightedGraph WeightedGraph::from_edges(NodeId n, std::vector<Edge> edges) {
  WeightedGraph g(n);
  std::vector<std::size_t> deg(n, 0);
  for (const Edge& e : edges) {
    QC_REQUIRE(e.u < e.v && e.v < n, "from_edges: edge not canonical");
    require_edge_weight(e.weight, "from_edges");
    ++deg[e.u];
    ++deg[e.v];
  }
  for (NodeId u = 0; u < n; ++u) g.adjacency_[u].reserve(deg[u]);
  for (const Edge& e : edges) {
    g.adjacency_[e.u].push_back({e.v, e.weight});
    g.adjacency_[e.v].push_back({e.u, e.weight});
  }
  g.edges_ = std::move(edges);
  return g;
}

bool WeightedGraph::has_edge(NodeId u, NodeId v) const {
  QC_REQUIRE(u < node_count() && v < node_count(), "node id out of range");
  const auto& adj = adjacency_[u];
  return std::any_of(adj.begin(), adj.end(),
                     [v](const HalfEdge& h) { return h.to == v; });
}

Weight WeightedGraph::edge_weight(NodeId u, NodeId v) const {
  QC_REQUIRE(u < node_count() && v < node_count(), "node id out of range");
  for (const HalfEdge& h : adjacency_[u]) {
    if (h.to == v) return h.weight;
  }
  throw ArgumentError("edge_weight: no such edge");
}

void WeightedGraph::set_edge_weight(NodeId u, NodeId v, Weight w) {
  apply(GraphUpdate{}.reweight(u, v, w));
}

Weight WeightedGraph::max_weight() const {
  Weight w = 1;
  for (const Edge& e : edges_) w = std::max(w, e.weight);
  return w;
}

WeightedGraph WeightedGraph::unweighted_copy() const {
  return reweighted([](Weight) { return Weight{1}; });
}

bool WeightedGraph::is_connected() const {
  const NodeId n = node_count();
  if (n <= 1) return true;
  {
    std::lock_guard<std::mutex> lock(csr_mutex_);
    if (connected_cache_ != ConnCache::kUnknown) {
      return connected_cache_ == ConnCache::kConnected;
    }
  }
  std::vector<bool> seen(n, false);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = true;
  NodeId reached = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const HalfEdge& h : adjacency_[u]) {
      if (!seen[h.to]) {
        seen[h.to] = true;
        ++reached;
        q.push(h.to);
      }
    }
  }
  const bool connected = reached == n;
  {
    std::lock_guard<std::mutex> lock(csr_mutex_);
    if (connected_cache_ == ConnCache::kUnknown) {
      connected_cache_ =
          connected ? ConnCache::kConnected : ConnCache::kDisconnected;
    }
  }
  return connected;
}

void WeightedGraph::validate() const {
  std::size_t half_edges = 0;
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const HalfEdge& h : adjacency_[u]) {
      QC_CHECK(h.to < node_count(), "adjacency points out of range");
      QC_CHECK(h.to != u, "self loop in adjacency");
      QC_CHECK(h.weight >= 1, "non-positive weight");
      QC_CHECK(edge_weight(h.to, u) == h.weight,
               "asymmetric weight in adjacency");
      ++half_edges;
    }
  }
  QC_CHECK(half_edges == 2 * edges_.size(),
           "adjacency/edge-list size mismatch");
  for (const Edge& e : edges_) {
    QC_CHECK(e.u < e.v, "edge list not canonical");
    QC_CHECK(edge_weight(e.u, e.v) == e.weight,
             "edge list weight disagrees with adjacency");
  }
}

std::string WeightedGraph::summary() const {
  std::ostringstream os;
  os << "n=" << node_count() << " m=" << edge_count()
     << " W=" << max_weight();
  return os.str();
}

std::string to_dot(const WeightedGraph& g, const std::string& name) {
  std::ostringstream os;
  os << "graph " << name << " {\n";
  for (const Edge& e : g.edges()) {
    os << "  " << e.u << " -- " << e.v;
    if (e.weight != 1) os << " [label=" << e.weight << "]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace qc
