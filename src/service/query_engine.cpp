#include "service/query_engine.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/io.h"
#include "graph/update.h"
#include "paths/params.h"
#include "paths/reference.h"
#include "runtime/metrics.h"
#include "util/error.h"

namespace qc::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void require_connected(const GraphContext& g) {
  QC_REQUIRE(g.connected(),
             "graph '" + g.name() + "' is not connected");
}

void require_node(const GraphContext& g, NodeId v, const char* what) {
  QC_REQUIRE(v < g.node_count(),
             std::string(what) + " out of range for graph '" + g.name() +
                 "' (n=" + std::to_string(g.node_count()) + ")");
}

// ---------------------------------------------------------------------------
// Built-in handlers. All run on the caller/dispatcher thread (see the
// header's threading rules) and may trigger warm-table builds and fan
// work out with parallel_for themselves.

/// Scalar answers read off the warm eccentricity tables. One class per
/// reduction keeps each type() key a separate registry entry.
class DiameterHandler final : public QueryHandler {
 public:
  std::string type() const override { return "diameter"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    const auto& ecc = ctx.graph.weighted_eccentricities(ctx.pool);
    const Dist d = *std::max_element(ecc.begin(), ecc.end());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i].ok = true;
      results[i].value = d;
    }
  }
};

class RadiusHandler final : public QueryHandler {
 public:
  std::string type() const override { return "radius"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    const auto& ecc = ctx.graph.weighted_eccentricities(ctx.pool);
    const Dist r = *std::min_element(ecc.begin(), ecc.end());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i].ok = true;
      results[i].value = r;
    }
  }
};

class EccentricityHandler final : public QueryHandler {
 public:
  std::string type() const override { return "eccentricity"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    const auto& ecc = ctx.graph.weighted_eccentricities(ctx.pool);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      require_node(ctx.graph, queries[i].node, "eccentricity node");
      results[i].ok = true;
      results[i].value = ecc[queries[i].node];
    }
  }
};

/// Full single-source distance vectors. The batched shape is what pays:
/// sources fan out across the pool with one Dijkstra each, slot i of
/// the result span belonging to query i regardless of execution order.
class SsspHandler final : public QueryHandler {
 public:
  std::string type() const override { return "sssp"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    for (const Query& q : queries) {
      require_node(ctx.graph, q.node, "sssp node");
      require_node(ctx.graph, q.target, "sssp target");
    }
    const CsrGraph& csr = ctx.graph.csr();  // warm on this thread
    runtime::parallel_for(ctx.pool, queries.size(), [&](std::size_t i) {
      DijkstraWorkspace ws;
      ws.dijkstra(csr, queries[i].node, results[i].dist);
      results[i].ok = true;
      results[i].value = results[i].dist[queries[i].target];
    });
  }
};

/// Lemma 3.2 approximate distances d̃^ℓ(node, target) from the resident
/// ToolkitCache. Coalescing shape: prefetch the union of source rows
/// with one pooled ensure_rows, then answer every member from cache.
/// Values are σ-scaled; kInfDist means Lemma 3.2 certifies no bound at
/// this ℓ (the pair is farther than the (1+2/ε)·ℓ eligibility cap).
class ApproxDistanceHandler final : public QueryHandler {
 public:
  std::string type() const override { return "approx_distance"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    std::vector<NodeId> sources;
    sources.reserve(queries.size());
    for (const Query& q : queries) {
      require_node(ctx.graph, q.node, "approx_distance node");
      require_node(ctx.graph, q.target, "approx_distance target");
      sources.push_back(q.node);
    }
    paths::ToolkitCache& cache = ctx.graph.toolkit();
    cache.ensure_rows(sources, &ctx.pool);
    const std::uint64_t sigma = cache.base_scale().sigma();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i].ok = true;
      results[i].value = cache.approx_row(queries[i].node)[queries[i].target];
      results[i].scale = sigma;
    }
  }
};

// ---------------------------------------------------------------------------
// Extension handlers (registered by free functions, not the ctor — they
// are the proof that new specializations ride the registry).

class UnweightedDiameterHandler final : public QueryHandler {
 public:
  std::string type() const override { return "unweighted_diameter"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    const auto& ecc = ctx.graph.hop_eccentricities(ctx.pool);
    const Dist d = *std::max_element(ecc.begin(), ecc.end());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i].ok = true;
      results[i].value = d;
    }
  }
};

class UnweightedEccentricityHandler final : public QueryHandler {
 public:
  std::string type() const override { return "unweighted_eccentricity"; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    const auto& ecc = ctx.graph.hop_eccentricities(ctx.pool);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      require_node(ctx.graph, queries[i].node, "unweighted_eccentricity node");
      results[i].ok = true;
      results[i].value = ecc[queries[i].node];
    }
  }
};

/// Full Theorem 1.1 runs against the resident toolkit. Queries execute
/// serially in batch order (each run is internally deterministic given
/// its seed; oracle_workers = 1 evaluates the sets on the calling
/// thread, so concurrent groups don't contend for a pool). The resident
/// cache never changes the answer — rows are a pure function of
/// (graph, params) — it only makes the second run on a graph cheap.
class Theorem11Handler final : public QueryHandler {
 public:
  explicit Theorem11Handler(bool radius) : radius_(radius) {}
  std::string type() const override {
    return radius_ ? "t11_radius" : "t11_diameter";
  }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    require_connected(ctx.graph);
    QC_REQUIRE(ctx.graph.node_count() >= 2, "Theorem 1.1 needs n >= 2");
    // The quantum drivers walk adjacency rows: a mapped context
    // materializes its owned WeightedGraph here (the mapped view stays
    // live for csr() readers — only an update detaches it).
    const WeightedGraph& wg = ctx.graph.weighted_graph();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      core::Theorem11Options opt;
      opt.seed = queries[i].seed;
      // Mirror the context's toolkit overrides: the resident cache was
      // built with these, and derive_params must agree fieldwise for
      // the driver to accept a borrowed cache.
      opt.eps_inv = ctx.graph.toolkit_eps_inv();
      opt.r_override = ctx.graph.toolkit_r_override();
      opt.oracle_workers = 1;
      opt.toolkit = &ctx.graph.toolkit();
      const core::Theorem11Result out =
          radius_ ? core::quantum_weighted_radius(wg, opt)
                  : core::quantum_weighted_diameter(wg, opt);
      results[i].ok = true;
      results[i].value = out.estimate_scaled;
      results[i].scale = out.total_scale;
    }
  }

 private:
  bool radius_;
};

/// Built-in "update": coalesces the group's edge ops into one
/// GraphUpdate and applies it atomically through
/// GraphContext::apply_update — the engine already holds the graph's
/// exclusive state lock (mutating() below), so in-flight reads are
/// ordered strictly before or after the whole batch. When the
/// coalesced batch fails validation it is replayed op-by-op so every
/// query gets its own verdict — earlier valid ops still land, exactly
/// as if they had been submitted alone. A result's value is the
/// graph's edge count after its op took effect.
class UpdateHandler final : public QueryHandler {
 public:
  std::string type() const override { return "update"; }
  bool mutating() const override { return true; }
  void run_batch(QueryContext& ctx, std::span<const Query> queries,
                 std::span<QueryResult> results) override {
    GraphUpdate batch;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      if (q.op == "insert") {
        batch.insert(q.node, q.target, q.weight);
      } else if (q.op == "remove") {
        batch.remove(q.node, q.target);
      } else if (q.op == "reweight") {
        batch.reweight(q.node, q.target, q.weight);
      } else {
        results[i].ok = false;
        results[i].error =
            q.op.empty() ? "update needs op = insert | remove | reweight"
                         : "unknown update op: " + q.op;
        continue;
      }
      members.push_back(i);
    }
    if (members.empty()) return;
    try {
      ctx.graph.apply_update(batch, ctx.pool, ctx.incremental_updates);
      for (const std::size_t i : members) {
        results[i].ok = true;
        results[i].value = static_cast<Dist>(ctx.graph.edge_count());
      }
    } catch (const ArgumentError&) {
      // The batch as a whole is invalid; degrade to sequential per-op
      // application so each query learns its own fate (deterministic:
      // batch order is admission order).
      for (std::size_t j = 0; j < members.size(); ++j) {
        const std::size_t i = members[j];
        try {
          ctx.graph.apply_update(GraphUpdate{}.push(batch.ops()[j]), ctx.pool,
                                 ctx.incremental_updates);
          results[i].ok = true;
          results[i].value =
              static_cast<Dist>(ctx.graph.edge_count());
        } catch (const std::exception& e) {
          results[i].ok = false;
          results[i].error = e.what();
        }
      }
    }
  }
};

/// Pre/post state of one edge a batch touched (first-touch order).
/// The delta-repair certificates below only care about edges whose
/// state actually changed net.
struct TouchedEdgeState {
  NodeId u = 0, v = 0;       // canonical u < v
  bool before = false, after = false;
  Weight w_before = 1, w_after = 1;

  bool changed() const {
    return before != after || (before && w_before != w_after);
  }
  bool topology_changed() const { return before != after; }
};

std::size_t endpoint_slot(const std::vector<NodeId>& endpoints, NodeId x) {
  return static_cast<std::size_t>(
      std::lower_bound(endpoints.begin(), endpoints.end(), x) -
      endpoints.begin());
}

}  // namespace

// ---------------------------------------------------------------------------
// GraphContext

GraphContext::GraphContext(std::string name, WeightedGraph g,
                           std::uint32_t toolkit_eps_inv,
                           std::uint64_t toolkit_r_override)
    : name_(std::move(name)),
      g_(std::move(g)),
      toolkit_eps_inv_(toolkit_eps_inv),
      toolkit_r_override_(toolkit_r_override) {}

GraphContext::GraphContext(std::string name, CsrGraph view,
                           std::string source_path,
                           std::uint32_t toolkit_eps_inv,
                           std::uint64_t toolkit_r_override)
    : name_(std::move(name)),
      mapped_(std::make_unique<CsrGraph>(std::move(view))),
      source_path_(std::move(source_path)),
      g_materialized_(false),
      toolkit_eps_inv_(toolkit_eps_inv),
      toolkit_r_override_(toolkit_r_override) {
  QC_REQUIRE(mapped_->is_mapped(),
             "graph '" + name_ + "': context view is not memory-mapped");
}

GraphContext::~GraphContext() = default;

const CsrGraph& GraphContext::csr() const {
  return mapped_ ? *mapped_ : g_.csr();
}

NodeId GraphContext::node_count() const {
  return mapped_ ? mapped_->node_count() : g_.node_count();
}

std::size_t GraphContext::edge_count() const {
  return mapped_ ? mapped_->edge_count() : g_.edge_count();
}

const void* GraphContext::mapping_address() const {
  return mapped_ ? mapped_->mapping_address() : nullptr;
}

long GraphContext::mapping_use_count() const {
  return mapped_ ? mapped_->mapping_use_count() : 0;
}

bool GraphContext::connected() const {
  if (mapped_ == nullptr) return g_.is_connected();
  std::lock_guard<std::mutex> lock(warm_mutex_);
  if (mapped_connected_ < 0) {
    // One DFS over the mapped view; no WeightedGraph is materialized
    // just to ask connectivity.
    const CsrGraph& c = *mapped_;
    const NodeId n = c.node_count();
    if (n == 0) {
      mapped_connected_ = 1;
    } else {
      std::vector<char> seen(n, 0);
      std::vector<NodeId> stack = {0};
      seen[0] = 1;
      NodeId visited = 1;
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (const HalfEdge& h : c.neighbors(u)) {
          if (!seen[h.to]) {
            seen[h.to] = 1;
            ++visited;
            stack.push_back(h.to);
          }
        }
      }
      mapped_connected_ = visited == n ? 1 : 0;
    }
  }
  return mapped_connected_ != 0;
}

void GraphContext::materialize_locked() {
  if (g_materialized_) return;
  // Rebuild the edge list from the view's upper-triangle half-edges
  // (u < to), in (u, v) order — exactly the canonical edge list the
  // bcsr file was built from, so the owned graph's CSR reproduces the
  // mapped adjacency bit for bit.
  const CsrGraph& c = *mapped_;
  const NodeId n = c.node_count();
  std::vector<Edge> edges;
  edges.reserve(c.edge_count());
  for (NodeId u = 0; u < n; ++u) {
    for (const HalfEdge& h : c.neighbors(u)) {
      if (h.to > u) edges.push_back({u, h.to, h.weight});
    }
  }
  g_ = WeightedGraph::from_edges(n, std::move(edges));
  g_materialized_ = true;
}

const WeightedGraph& GraphContext::weighted_graph() {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  materialize_locked();
  return g_;
}

paths::Params GraphContext::derive_toolkit_params() const {
  core::Theorem11Options opt;
  opt.eps_inv = toolkit_eps_inv_;
  opt.r_override = toolkit_r_override_;
  return core::derive_params(g_, opt);
}

const std::vector<Dist>& GraphContext::weighted_eccentricities(
    runtime::ThreadPool& pool) {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  if (!ecc_valid_) {
    ecc_ = qc::eccentricities(csr(), &pool);
    ecc_valid_ = true;
  }
  return ecc_;
}

const std::vector<Dist>& GraphContext::hop_eccentricities(
    runtime::ThreadPool& pool) {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  if (!hop_ecc_valid_) {
    hop_ecc_ = qc::unweighted_eccentricities(csr(), &pool);
    hop_ecc_valid_ = true;
  }
  return hop_ecc_;
}

paths::ToolkitCache& GraphContext::toolkit() {
  // An exceptional exit (disconnected graph) leaves the pointer unset,
  // so a later call on a then-valid context retries the construction.
  std::lock_guard<std::mutex> lock(warm_mutex_);
  if (!toolkit_) {
    // The toolkit reads adjacency rows from a WeightedGraph: a mapped
    // context materializes its owned copy here (reads keep flowing
    // from the mapped view; this is not the update-time detach).
    materialize_locked();
    QC_REQUIRE(g_.is_connected(),
               "graph '" + name_ + "' is not connected");
    toolkit_ =
        std::make_unique<paths::ToolkitCache>(g_, derive_toolkit_params());
  }
  return *toolkit_;
}

const paths::Params& GraphContext::toolkit_params() {
  return toolkit().params();
}

GraphContext::UpdateOutcome GraphContext::apply_update(
    const GraphUpdate& update, runtime::ThreadPool& pool, bool incremental) {
  // Copy-on-write detach: the first update on a mapped context
  // materializes the owned graph and drops the view, exactly once —
  // later updates find owned storage and this block is a no-op. From
  // here on the body below runs on owned state either way.
  bool detached_now = false;
  if (mapped_ != nullptr) {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    materialize_locked();
    mapped_.reset();
    mapped_connected_ = -1;
    detached_now = true;
  }

  UpdateOutcome out;
  if (!incremental) {
    out.stats = g_.apply(update);
    out.stats.mapped_detached = detached_now;
    std::lock_guard<std::mutex> lock(warm_mutex_);
    ecc_.clear();
    hop_ecc_.clear();
    ecc_valid_ = hop_ecc_valid_ = false;
    toolkit_.reset();
    out.scratch = true;
    return out;
  }

  // A batch apply() rejects must not pay for the pre-update searches
  // below: validate it first.
  g_.check_update(update);

  // Which warm tables exist decides what pre-update state to capture.
  // Callers hold the exclusive state lock, so nobody flips these under
  // us — the warm mutex is only against the engine's locking being
  // bypassed by a direct GraphContext user.
  bool had_ecc, had_hop, had_toolkit;
  {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    had_ecc = ecc_valid_;
    had_hop = hop_ecc_valid_;
    had_toolkit = toolkit_ != nullptr;
  }

  // Pre-apply state of every touched edge.
  std::vector<TouchedEdgeState> touched;
  {
    std::unordered_set<std::uint64_t> seen;
    for (const EdgeOp& op : update.ops()) {
      const NodeId a = std::min(op.u, op.v);
      const NodeId b = std::max(op.u, op.v);
      if (!seen.insert((static_cast<std::uint64_t>(a) << 32) | b).second) {
        continue;
      }
      TouchedEdgeState e;
      e.u = a;
      e.v = b;
      e.before = g_.has_edge(a, b);
      if (e.before) e.w_before = g_.edge_weight(a, b);
      touched.push_back(e);
    }
  }
  const std::vector<NodeId> endpoints = update.endpoints();

  // Lemma-2 pre-vectors: distances *from each endpoint* in the old
  // graph. By symmetry pre_w[slot(x)][s] = d_old(s, x), so the tight-
  // edge certificate below reads them per source without ever running
  // a per-source search.
  std::vector<std::vector<Dist>> pre_w, pre_h;
  if ((had_ecc || had_hop) && !touched.empty()) {
    const CsrGraph& csr0 = g_.csr();
    if (had_ecc) {
      pre_w.resize(endpoints.size());
      runtime::parallel_for(pool, endpoints.size(), [&](std::size_t i) {
        DijkstraWorkspace ws;
        ws.dijkstra(csr0, endpoints[i], pre_w[i]);
      });
    }
    if (had_hop) {
      pre_h.resize(endpoints.size());
      runtime::parallel_for(pool, endpoints.size(), [&](std::size_t i) {
        DijkstraWorkspace ws;
        ws.bfs(csr0, endpoints[i], pre_h[i]);
      });
    }
  }

  out.stats = g_.apply(update);
  out.stats.mapped_detached = detached_now;

  std::vector<TouchedEdgeState> changed;
  for (TouchedEdgeState e : touched) {
    e.after = g_.has_edge(e.u, e.v);
    if (e.after) e.w_after = g_.edge_weight(e.u, e.v);
    if (e.changed()) changed.push_back(e);
  }
  out.changed_edges = changed.size();
  if (changed.empty()) return out;  // net no-op: every table is exact

  std::vector<NodeId> changed_endpoints;
  changed_endpoints.reserve(changed.size() * 2);
  for (const TouchedEdgeState& e : changed) {
    changed_endpoints.push_back(e.u);
    changed_endpoints.push_back(e.v);
  }
  std::sort(changed_endpoints.begin(), changed_endpoints.end());
  changed_endpoints.erase(
      std::unique(changed_endpoints.begin(), changed_endpoints.end()),
      changed_endpoints.end());

  const bool now_connected = g_.is_connected();

  if (had_toolkit) {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    if (!now_connected) {
      // Params cannot even be derived; drop the cache, the accessor
      // rebuilds if the graph ever reconnects.
      toolkit_.reset();
    } else if (toolkit_->rebind_params(derive_toolkit_params())) {
      out.toolkit_rows_dropped = toolkit_->invalidate_rows(changed_endpoints);
    } else {
      // The row identity (ℓ, 1/ε, max weight) moved: no cached row is
      // reusable. Rebuild the cache shell; rows refill on demand.
      toolkit_ =
          std::make_unique<paths::ToolkitCache>(g_, derive_toolkit_params());
      out.toolkit_rebuilt = true;
    }
  }

  if (!had_ecc && !had_hop) return out;
  if (!now_connected) {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    ecc_.clear();
    hop_ecc_.clear();
    ecc_valid_ = hop_ecc_valid_ = false;
    return out;
  }

  // Post-vectors on the new graph, same endpoint slots.
  const CsrGraph& csr1 = g_.csr();
  std::vector<std::vector<Dist>> post_w, post_h;
  const bool topo_changed = out.stats.topology_changed;
  if (had_ecc) {
    post_w.resize(endpoints.size());
    runtime::parallel_for(pool, endpoints.size(), [&](std::size_t i) {
      DijkstraWorkspace ws;
      ws.dijkstra(csr1, endpoints[i], post_w[i]);
    });
  }
  if (had_hop && topo_changed) {
    post_h.resize(endpoints.size());
    runtime::parallel_for(pool, endpoints.size(), [&](std::size_t i) {
      DijkstraWorkspace ws;
      ws.bfs(csr1, endpoints[i], post_h[i]);
    });
  }

  // Source s is affected iff some changed edge is *tight* from s — on
  // a shortest path in the old graph (its distances may rise) or in
  // the new one (they may fall). Tightness from s reads only the
  // endpoint vectors: d(s,x) + w == d(s,y) (either direction), with
  // the saturating dist_add keeping kInfDist conservative. Unaffected
  // sources keep byte-exact distance vectors, hence eccentricities.
  const NodeId n = g_.node_count();
  std::vector<NodeId> affected_w, affected_h;
  for (NodeId s = 0; s < n; ++s) {
    if (had_ecc) {
      for (const TouchedEdgeState& e : changed) {
        const std::size_t iu = endpoint_slot(endpoints, e.u);
        const std::size_t iv = endpoint_slot(endpoints, e.v);
        const bool tight_old =
            e.before && (dist_add(pre_w[iu][s], e.w_before) == pre_w[iv][s] ||
                         dist_add(pre_w[iv][s], e.w_before) == pre_w[iu][s]);
        const bool tight_new =
            e.after && (dist_add(post_w[iu][s], e.w_after) == post_w[iv][s] ||
                        dist_add(post_w[iv][s], e.w_after) == post_w[iu][s]);
        if (tight_old || tight_new) {
          affected_w.push_back(s);
          break;
        }
      }
    }
    if (had_hop && topo_changed) {
      for (const TouchedEdgeState& e : changed) {
        if (!e.topology_changed()) continue;  // reweights keep hops exact
        const std::size_t iu = endpoint_slot(endpoints, e.u);
        const std::size_t iv = endpoint_slot(endpoints, e.v);
        const bool tight_old =
            e.before && (dist_add(pre_h[iu][s], 1) == pre_h[iv][s] ||
                         dist_add(pre_h[iv][s], 1) == pre_h[iu][s]);
        const bool tight_new =
            e.after && (dist_add(post_h[iu][s], 1) == post_h[iv][s] ||
                        dist_add(post_h[iv][s], 1) == post_h[iu][s]);
        if (tight_old || tight_new) {
          affected_h.push_back(s);
          break;
        }
      }
    }
  }

  std::vector<Dist> fresh_w, fresh_h;
  if (!affected_w.empty()) {
    fresh_w = qc::eccentricities(csr1, affected_w, &pool);
  }
  if (!affected_h.empty()) {
    fresh_h = qc::unweighted_eccentricities(csr1, affected_h, &pool);
  }
  {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    for (std::size_t i = 0; i < affected_w.size(); ++i) {
      ecc_[affected_w[i]] = fresh_w[i];
    }
    for (std::size_t i = 0; i < affected_h.size(); ++i) {
      hop_ecc_[affected_h[i]] = fresh_h[i];
    }
  }
  out.ecc_rows_recomputed = affected_w.size();
  out.hop_rows_recomputed = affected_h.size();
  return out;
}

GraphContext::WarmState GraphContext::warm_state() const {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  WarmState w;
  w.mapped = mapped_ != nullptr;
  w.materialized = g_materialized_;
  w.connectivity =
      w.mapped ? mapped_connected_ >= 0 : g_.connectivity_cached();
  w.weighted_ecc = ecc_valid_;
  w.hop_ecc = hop_ecc_valid_;
  w.csr =
      w.mapped || w.weighted_ecc || w.hop_ecc || toolkit_ != nullptr;
  w.toolkit_rows = toolkit_ ? toolkit_->cached_row_count() : 0;
  return w;
}

// ---------------------------------------------------------------------------
// QueryEngine

QueryEngine::QueryEngine(EngineOptions opt)
    : opt_(opt), pool_(opt.workers) {
  QC_REQUIRE(opt_.max_in_flight >= 1, "max_in_flight must be >= 1");
  QC_REQUIRE(opt_.max_batch >= 1, "max_batch must be >= 1");
  register_builtin_handlers();
  if (opt_.auto_dispatch) {
    dispatcher_.emplace([this] { dispatch_loop(); });
  }
}

QueryEngine::~QueryEngine() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_ && dispatcher_->joinable()) dispatcher_->join();
  // Admitted queries are always answered: drain whatever the dispatcher
  // (or a manual owner) left behind before the promises die.
  while (drain() > 0) {
  }
}

void QueryEngine::register_builtin_handlers() {
  register_handler(std::make_unique<DiameterHandler>());
  register_handler(std::make_unique<RadiusHandler>());
  register_handler(std::make_unique<EccentricityHandler>());
  register_handler(std::make_unique<SsspHandler>());
  register_handler(std::make_unique<ApproxDistanceHandler>());
  register_handler(std::make_unique<UpdateHandler>());
}

GraphContext& QueryEngine::add_graph(std::string name, WeightedGraph g) {
  QC_REQUIRE(!name.empty(), "graph name must be non-empty");
  auto ctx = std::make_unique<GraphContext>(name, std::move(g),
                                            opt_.toolkit_eps_inv,
                                            opt_.toolkit_r_override);
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto [it, inserted] = graphs_.emplace(std::move(name), std::move(ctx));
  QC_REQUIRE(inserted, "graph '" + it->first + "' is already loaded");
  return *it->second;
}

GraphContext& QueryEngine::add_graph_mapped(std::string name,
                                            const std::string& bcsr_path) {
  QC_REQUIRE(!name.empty(), "graph name must be non-empty");
  std::lock_guard<std::mutex> lock(registry_mutex_);
  // Key mappings by canonical path so two specs naming the same file —
  // even through different spellings — share one mapping.
  std::error_code ec;
  std::string key = std::filesystem::weakly_canonical(bcsr_path, ec).string();
  if (ec || key.empty()) key = bcsr_path;
  auto mit = mapped_files_.find(key);
  if (mit == mapped_files_.end()) {
    mit = mapped_files_.emplace(std::move(key), map_csr(bcsr_path)).first;
  }
  auto ctx = std::make_unique<GraphContext>(name, CsrGraph(mit->second),
                                            bcsr_path, opt_.toolkit_eps_inv,
                                            opt_.toolkit_r_override);
  auto [it, inserted] = graphs_.emplace(std::move(name), std::move(ctx));
  QC_REQUIRE(inserted, "graph '" + it->first + "' is already loaded");
  return *it->second;
}

GraphContext* QueryEngine::find_graph(std::string_view name) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  if (name.empty()) {
    return graphs_.size() == 1 ? graphs_.begin()->second.get() : nullptr;
  }
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second.get();
}

std::vector<std::string> QueryEngine::graph_names() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, ctx] : graphs_) names.push_back(name);
  return names;
}

void QueryEngine::register_handler(std::unique_ptr<QueryHandler> handler) {
  QC_REQUIRE(handler != nullptr, "handler must be non-null");
  std::string key = handler->type();
  QC_REQUIRE(!key.empty(), "handler type key must be non-empty");
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto [it, inserted] = handlers_.emplace(std::move(key), std::move(handler));
  QC_REQUIRE(inserted,
             "query type '" + it->first + "' is already registered");
}

bool QueryEngine::has_handler(std::string_view type) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return handlers_.find(type) != handlers_.end();
}

std::vector<std::string> QueryEngine::handler_types() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::string> types;
  types.reserve(handlers_.size());
  for (const auto& [type, h] : handlers_) types.push_back(type);
  return types;
}

void QueryEngine::warm(std::string_view name) {
  GraphContext* ctx = find_graph(name);
  QC_REQUIRE(ctx != nullptr,
             "unknown graph: " + std::string(name.empty() ? "<default>"
                                                          : name));
  std::shared_lock<std::shared_mutex> lock(ctx->state_mutex());
  ctx->csr();
  // The slot index (the reverse-slot table a simulated query's receivers
  // read their senders' slots from) belongs to the owned graph; a mapped
  // context has no owned graph to index until it materializes one.
  if (!ctx->is_mapped()) ctx->graph().slot_index();
  if (ctx->connected()) {
    ctx->weighted_eccentricities(pool_);
    ctx->hop_eccentricities(pool_);
    ctx->toolkit();
  }
}

void QueryEngine::warm_all() {
  for (const std::string& name : graph_names()) warm(name);
}

QueryResult QueryEngine::query(const Query& q) {
  const auto t0 = Clock::now();
  QueryResult r;
  execute_group({&q, 1}, {&r, 1});
  record_query_metrics(q, r, seconds_since(t0));
  return r;
}

std::future<QueryResult> QueryEngine::submit(Query q) {
  std::future<QueryResult> fut;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) throw AdmissionError("engine is stopping");
    if (in_flight_ >= opt_.max_in_flight) {
      if (opt_.metrics) opt_.metrics->counter("service.rejected").add();
      throw AdmissionError(
          "engine saturated: " + std::to_string(in_flight_) +
          " queries in flight (max_in_flight=" +
          std::to_string(opt_.max_in_flight) + ")");
    }
    Pending p;
    p.q = std::move(q);
    p.admitted = Clock::now();
    fut = p.promise.get_future();
    pending_.push_back(std::move(p));
    ++in_flight_;
  }
  queue_cv_.notify_one();
  return fut;
}

std::size_t QueryEngine::drain() {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    const std::size_t n = std::min(pending_.size(), opt_.max_batch);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  }
  if (batch.empty()) return 0;

  // Group compatible queries — same graph, same type — preserving batch
  // order within and across groups (first appearance wins). Mutating
  // queries are barriers on their graph: a read must not join a group
  // formed before a same-graph mutating group (it would run before an
  // update it was admitted after and observe pre-update state), and a
  // mutating query must not join a group formed before any same-graph
  // group (the jumped-over read would observe a write admitted after
  // it). Batches are small (<= max_batch), so the quadratic group scan
  // is noise.
  struct Group {
    std::vector<std::size_t> indices;
    bool mutating = false;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i].q;
    const bool mut = is_mutating_type(q.type);
    Group* home = nullptr;
    std::size_t home_idx = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const Query& rep = batch[groups[gi].indices.front()].q;
      if (rep.graph == q.graph && rep.type == q.type) {
        home = &groups[gi];  // last match: groups repeat past a barrier
        home_idx = gi;
      }
    }
    for (std::size_t gi = home_idx + 1; home != nullptr && gi < groups.size();
         ++gi) {
      const Query& rep = batch[groups[gi].indices.front()].q;
      if (rep.graph == q.graph && (groups[gi].mutating || mut)) home = nullptr;
    }
    if (home == nullptr) {
      groups.push_back({});
      home = &groups.back();
      home->mutating = mut;
    }
    home->indices.push_back(i);
  }

  std::vector<QueryResult> results(batch.size());
  for (const Group& g : groups) {
    std::vector<Query> qs;
    std::vector<QueryResult> rs(g.indices.size());
    qs.reserve(g.indices.size());
    for (const std::size_t i : g.indices) qs.push_back(batch[i].q);
    execute_group(qs, rs);
    for (std::size_t j = 0; j < g.indices.size(); ++j) {
      results[g.indices[j]] = std::move(rs[j]);
    }
  }

  if (opt_.metrics) {
    opt_.metrics->counter("service.batches").add();
    opt_.metrics
        ->histogram("service.batch_size",
                    runtime::exponential_buckets(1.0, 2.0, 12))
        .observe(static_cast<double>(batch.size()));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    record_query_metrics(batch[i].q, results[i],
                         seconds_since(batch[i].admitted));
    batch[i].promise.set_value(std::move(results[i]));
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    in_flight_ -= batch.size();
  }
  return batch.size();
}

std::size_t QueryEngine::in_flight() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return in_flight_;
}

bool QueryEngine::is_mutating_type(std::string_view type) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = handlers_.find(type);
  return it != handlers_.end() && it->second->mutating();
}

void QueryEngine::dispatch_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;  // the destructor drains what remains
    }
    drain();
  }
}

void QueryEngine::execute_group(std::span<const Query> queries,
                                std::span<QueryResult> results) {
  const Query& rep = queries.front();
  QueryHandler* handler = nullptr;
  GraphContext* graph = nullptr;
  std::string error;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = handlers_.find(rep.type);
    if (it == handlers_.end()) {
      error = "unknown query type: " + rep.type;
    } else {
      handler = it->second.get();
    }
  }
  if (error.empty()) {
    graph = find_graph(rep.graph);
    if (graph == nullptr) {
      error = rep.graph.empty()
                  ? "query names no graph and the engine does not serve "
                    "exactly one"
                  : "unknown graph: " + rep.graph;
    }
  }
  if (error.empty()) {
    try {
      QueryContext ctx{*graph, pool_, opt_.incremental_updates};
      // Readers share the graph's state lock; mutating handlers own it
      // exclusively, so no group ever observes a half-applied update.
      if (handler->mutating()) {
        std::unique_lock<std::shared_mutex> lock(graph->state_mutex());
        handler->run_batch(ctx, queries, results);
      } else {
        std::shared_lock<std::shared_mutex> lock(graph->state_mutex());
        handler->run_batch(ctx, queries, results);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!error.empty()) {
      results[i] = QueryResult{};  // discard any partial handler writes
      results[i].error = error;
    }
    results[i].id = queries[i].id;
    results[i].type = queries[i].type;
  }
}

void QueryEngine::record_query_metrics(const Query& q, const QueryResult& r,
                                       double seconds) {
  if (!opt_.metrics) return;
  opt_.metrics->counter("service.queries").add();
  opt_.metrics->counter("service.queries." + q.type).add();
  if (!r.ok) opt_.metrics->counter("service.errors").add();
  opt_.metrics
      ->histogram("service.latency_seconds." + q.type,
                  latency_histogram_bounds())
      .observe(seconds);
}

std::vector<double> latency_histogram_bounds() {
  return runtime::exponential_buckets(1e-6, 2.0, 26);
}

// ---------------------------------------------------------------------------
// Extension registration

void register_unweighted_handlers(QueryEngine& engine) {
  engine.register_handler(std::make_unique<UnweightedDiameterHandler>());
  engine.register_handler(std::make_unique<UnweightedEccentricityHandler>());
}

void register_theorem11_handlers(QueryEngine& engine) {
  engine.register_handler(std::make_unique<Theorem11Handler>(false));
  engine.register_handler(std::make_unique<Theorem11Handler>(true));
}

}  // namespace qc::service
