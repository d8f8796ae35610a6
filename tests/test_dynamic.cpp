// Tests for the dynamic edge-update subsystem: GraphUpdate batch
// semantics (atomic validation, net effect), remove_edge, the cache
// upkeep behind WeightedGraph::apply (CSR view and slot index rebuilt
// after a mutation, connectivity tri-state), the toolkit
// row-invalidation certificate, the service layer's eccentricity delta
// repair, and the "update" query type end to end — every incremental
// result byte-compared against rebuild-from-scratch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/slot_index.h"
#include "graph/update.h"
#include "paths/reference.h"
#include "runtime/thread_pool.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "util/error.h"
#include "util/rng.h"

namespace qc {
namespace {

using service::EngineOptions;
using service::GraphContext;
using service::Query;
using service::QueryEngine;
using service::QueryResult;

/// Asserts every derived structure of `g` (adjacency, cached CSR, slot
/// index, connectivity) is byte-identical to a graph rebuilt from
/// scratch off g.edges(). This is the incremental subsystem's whole
/// contract in one predicate.
void expect_matches_fresh(const WeightedGraph& g) {
  const WeightedGraph fresh =
      WeightedGraph::from_edges(g.node_count(), g.edges());
  ASSERT_EQ(g.node_count(), fresh.node_count());
  ASSERT_EQ(g.edge_count(), fresh.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto a = g.neighbors(u);
    const auto b = fresh.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "adjacency row " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "adjacency row " << u << " slot " << i;
    }
  }
  const CsrGraph& pc = g.csr();  // served after the last mutation
  const CsrGraph fc(fresh);
  ASSERT_EQ(pc.node_count(), fc.node_count());
  ASSERT_EQ(pc.edge_count(), fc.edge_count());
  ASSERT_EQ(pc.max_weight(), fc.max_weight());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto a = pc.neighbors(u);
    const auto b = fc.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "csr row " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "csr row " << u << " slot " << i;
    }
  }
  const EdgeSlotIndex& si = g.slot_index();
  ASSERT_EQ(si.directed_edge_count(), 2 * g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = pc.neighbors(u);
    for (std::uint32_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(si.slot(u, row[i].to), i) << "slot (" << u << ", "
                                          << row[i].to << ")";
      // The receiver's slot of u: row[i].to's row names u there.
      const std::uint32_t r = si.reverse_slot(si.edge_index(u, i));
      const auto back = pc.neighbors(row[i].to);
      ASSERT_LT(r, back.size()) << "reverse slot (" << u << ", " << i << ")";
      ASSERT_EQ(back[r].to, u) << "reverse slot (" << u << ", " << i << ")";
    }
    ASSERT_EQ(si.slot(u, u), EdgeSlotIndex::kNoSlot);
  }
  ASSERT_EQ(g.is_connected(), fresh.is_connected());
  g.validate();
}

WeightedGraph weighted_family(const std::string& family, NodeId n,
                              Weight max_w, std::uint64_t seed) {
  Rng rng(seed);
  WeightedGraph g = gen::from_family(family, n, 1, rng);
  return gen::randomize_weights(g, max_w, rng);
}

// ---------------------------------------------------------------------------
// GraphUpdate batch semantics

TEST(UpdateBatch, ValidationIsAtomic) {
  WeightedGraph g = weighted_family("ER", 24, 9, 7);
  const auto edges_before = g.edges();
  g.csr();  // warm the caches so a bug would leave them stale
  g.slot_index();
  const Edge e0 = edges_before.front();
  // Valid insert riding with an invalid reweight: nothing may land.
  GraphUpdate bad;
  bad.insert(e0.u, e0.v == 0 ? 1 : 0, 5);  // may or may not exist...
  bad.reweight(e0.u, e0.v, 0);             // ...but zero weight never flies
  EXPECT_THROW(g.apply(bad), ArgumentError);
  EXPECT_EQ(g.edges(), edges_before);
  expect_matches_fresh(g);

  GraphUpdate oob;
  oob.insert(0, g.node_count(), 1);
  EXPECT_THROW(g.apply(oob), ArgumentError);
  EXPECT_EQ(g.edges(), edges_before);

  GraphUpdate loop;
  loop.insert(3, 3, 1);
  EXPECT_THROW(g.apply(loop), ArgumentError);
  EXPECT_EQ(g.edges(), edges_before);

  // check_update runs the same validation and never mutates.
  for (const GraphUpdate* u : {&bad, &oob, &loop}) {
    EXPECT_THROW(g.check_update(*u), ArgumentError);
  }
  g.check_update(GraphUpdate{}.reweight(e0.u, e0.v, e0.weight + 1));
  EXPECT_EQ(g.edges(), edges_before);
  expect_matches_fresh(g);
}

TEST(UpdateBatch, NetEffectCancelsInsertRemove) {
  WeightedGraph g = weighted_family("ER", 20, 5, 11);
  g.csr();
  // Pick a non-edge.
  NodeId a = 0, b = 0;
  for (NodeId u = 0; u < g.node_count() && b == 0; ++u) {
    for (NodeId v = u + 1; v < g.node_count(); ++v) {
      if (!g.has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_NE(a, b);
  const auto edges_before = g.edges();
  const UpdateStats s = g.apply(GraphUpdate{}.insert(a, b, 3).remove(a, b));
  EXPECT_EQ(s.inserted, 0u);
  EXPECT_EQ(s.removed, 0u);
  EXPECT_FALSE(s.topology_changed);
  EXPECT_EQ(g.edges(), edges_before);
  expect_matches_fresh(g);
}

TEST(UpdateBatch, RemoveThenReinsertReweightsInPlace) {
  WeightedGraph g = weighted_family("ER", 20, 5, 13);
  g.csr();
  const Edge e = g.edges()[g.edges().size() / 2];
  // Row order must be preserved: net effect is an in-place reweight.
  std::vector<NodeId> row_before;
  for (const HalfEdge& h : g.neighbors(e.u)) row_before.push_back(h.to);

  const UpdateStats s =
      g.apply(GraphUpdate{}.remove(e.u, e.v).insert(e.v, e.u, e.weight + 7));
  EXPECT_EQ(s.inserted, 0u);
  EXPECT_EQ(s.removed, 0u);
  EXPECT_EQ(s.reweighted, 1u);
  EXPECT_FALSE(s.topology_changed);
  EXPECT_EQ(g.edge_weight(e.u, e.v), e.weight + 7);
  std::vector<NodeId> row_after;
  for (const HalfEdge& h : g.neighbors(e.u)) row_after.push_back(h.to);
  EXPECT_EQ(row_after, row_before);
  expect_matches_fresh(g);
}

TEST(UpdateBatch, SequentialValidationAgainstIntermediateState) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 2);
  // Insert then reweight the inserted edge: legal in one batch.
  g.apply(GraphUpdate{}.insert(1, 2, 5).reweight(1, 2, 9));
  EXPECT_EQ(g.edge_weight(1, 2), 9u);
  // Insert twice is a parallel edge even though neither exists yet.
  try {
    g.apply(GraphUpdate{}.insert(2, 3, 1).insert(3, 2, 4));
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("parallel edges"), std::string::npos);
  }
  // Remove twice: second remove sees the edge already gone.
  try {
    g.apply(GraphUpdate{}.remove(0, 1).remove(0, 1));
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("remove_edge: no such edge"),
              std::string::npos);
  }
  EXPECT_TRUE(g.has_edge(0, 1));  // atomicity: the failed batch left it
}

TEST(UpdateBatch, RawCsrArraysServeAfterUpdate) {
  // The raw offsets()/halves() arrays, and write_csr which serializes
  // them, must serve the updated graph right after a mutation on warm
  // caches.
  WeightedGraph g = weighted_family("ER", 32, 9, 17);
  g.csr();
  g.slot_index();
  NodeId a = 0, b = 0;
  for (NodeId u = 0; u < g.node_count() && b == 0; ++u) {
    for (NodeId v = u + 1; v < g.node_count(); ++v) {
      if (!g.has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_NE(a, b);
  const Edge gone = g.edges().front();
  const Edge heavier = g.edges().back();
  g.apply(GraphUpdate{}
              .insert(a, b, 4)
              .remove(gone.u, gone.v)
              .reweight(heavier.u, heavier.v, heavier.weight + 3));

  const std::string path = ::testing::TempDir() + "qc_dynamic_" +
                           std::to_string(::getpid()) + "_raw.bcsr";
  write_csr(g.csr(), path);
  const CsrGraph mapped = map_csr(path);
  std::filesystem::remove(path);

  const CsrGraph fresh(WeightedGraph::from_edges(g.node_count(), g.edges()));
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  EXPECT_TRUE(same(g.csr().offsets(), fresh.offsets()));
  EXPECT_TRUE(same(g.csr().halves(), fresh.halves()));
  EXPECT_TRUE(same(mapped.offsets(), fresh.offsets()));
  EXPECT_TRUE(same(mapped.halves(), fresh.halves()));
}

TEST(RemoveEdge, MatchesAddEdgeContract) {
  WeightedGraph g(5);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 2, 4);
  EXPECT_THROW(g.remove_edge(0, 5), ArgumentError);   // out of range
  EXPECT_THROW(g.remove_edge(2, 2), ArgumentError);   // self loop
  EXPECT_THROW(g.remove_edge(0, 2), ArgumentError);   // no such edge
  g.remove_edge(1, 0);  // unordered endpoints name the same edge
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
  expect_matches_fresh(g);
}

// ---------------------------------------------------------------------------
// Randomized incremental-vs-fresh equivalence

/// One randomized op stream against warm caches, checked after every
/// batch. Degree-skewed: endpoints are biased toward low node ids so
/// rows accumulate both growth and shrinkage.
void run_stream(const std::string& family, NodeId n, std::uint64_t seed) {
  SCOPED_TRACE(family + " n=" + std::to_string(n));
  WeightedGraph g = weighted_family(family, n, 12, seed);
  Rng rng(seed * 97 + 1);
  for (int round = 0; round < 30; ++round) {
    g.csr();  // warm caches: a stale one would show in the check below
    g.slot_index();
    g.is_connected();
    GraphUpdate batch;
    const std::size_t ops = 1 + rng.below(6);
    for (std::size_t k = 0; k < ops; ++k) {
      // Degree skew: square the uniform so low ids dominate.
      const auto pick = [&] {
        const double x = rng.uniform();
        return static_cast<NodeId>(x * x * n);
      };
      NodeId u = pick(), v = pick();
      if (u == v) v = (v + 1) % n;
      const std::uint64_t dice = rng.below(10);
      if (g.has_edge(u, v)) {
        if (dice < 6) {
          batch.reweight(u, v, 1 + rng.below(12));
        } else {
          batch.remove(u, v);
        }
      } else if (dice < 8) {
        batch.insert(u, v, 1 + rng.below(12));
      }
    }
    if (batch.empty()) continue;
    try {
      g.apply(batch);
    } catch (const ArgumentError&) {
      // Duplicate touches inside one batch can collide (e.g. remove
      // after remove); the graph must be untouched — verified below.
    }
    expect_matches_fresh(g);
  }
}

// The two tests differ only in seeds; their names are historical and
// kept stable as test IDs.
TEST(IncrementalEquivalence, RandomizedStreamsCompactAlways) {
  run_stream("ER", 48, 21);
  run_stream("grid", 49, 22);
  run_stream("tree", 40, 23);
}

TEST(IncrementalEquivalence, RandomizedStreamsPatchForever) {
  run_stream("ER", 48, 31);
  run_stream("grid", 49, 32);
  run_stream("tree", 40, 33);
}

// ---------------------------------------------------------------------------
// Connectivity tri-state

TEST(Connectivity, ReweightKeepsVerdict) {
  WeightedGraph g = weighted_family("ER", 16, 6, 41);
  ASSERT_TRUE(g.is_connected());
  ASSERT_TRUE(g.connectivity_cached());
  const Edge e = g.edges().front();
  g.set_edge_weight(e.u, e.v, e.weight + 1);
  EXPECT_TRUE(g.connectivity_cached());
  EXPECT_TRUE(g.is_connected());
}

TEST(Connectivity, TriangleRemovalKeepsConnectedViaCommonNeighbor) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  ASSERT_TRUE(g.is_connected());
  // {0,1} sits on a triangle: endpoints share neighbor 2 after removal.
  g.remove_edge(0, 1);
  EXPECT_TRUE(g.connectivity_cached());
  EXPECT_TRUE(g.is_connected());
}

TEST(Connectivity, BridgeRemovalDowngradesToUnknown) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  ASSERT_TRUE(g.is_connected());
  g.remove_edge(2, 3);  // bridge: no replacement certificate
  EXPECT_FALSE(g.connectivity_cached());
  EXPECT_FALSE(g.is_connected());
}

TEST(Connectivity, InsertOnDisconnectedDowngrades) {
  WeightedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  ASSERT_FALSE(g.is_connected());
  ASSERT_TRUE(g.connectivity_cached());
  g.add_edge(1, 2);  // could (and does) bridge the components
  EXPECT_FALSE(g.connectivity_cached());
  EXPECT_TRUE(g.is_connected());
}

TEST(Connectivity, RemoveOnDisconnectedKeepsDisconnected) {
  WeightedGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  ASSERT_FALSE(g.is_connected());
  g.remove_edge(0, 1);  // removals can never reconnect anything
  EXPECT_TRUE(g.connectivity_cached());
  EXPECT_FALSE(g.is_connected());
}

// ---------------------------------------------------------------------------
// Toolkit row invalidation (the endpoint certificate is exact)

TEST(Toolkit, InvalidatedCacheMatchesFreshRowsEverywhere) {
  WeightedGraph g = weighted_family("ER", 40, 8, 51);
  ASSERT_TRUE(g.is_connected());
  // Pin max_weight: one untouched heaviest edge keeps the row identity
  // (ℓ, 1/ε, W) stable so rebind_params succeeds after reweights.
  const Edge pin = g.edges().front();
  g.set_edge_weight(pin.u, pin.v, 64);

  paths::ToolkitCache cache(g, core::derive_params(g));
  std::vector<NodeId> all(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) all[u] = u;
  cache.ensure_rows(all);
  ASSERT_EQ(cache.cached_row_count(), g.node_count());

  // Reweight a few edges (not the pin, not to above 64).
  GraphUpdate batch;
  const auto& edges = g.edges();
  for (std::size_t i = 1; i < edges.size() && batch.size() < 4; i += 7) {
    batch.reweight(edges[i].u, edges[i].v, 1 + (edges[i].weight % 8));
  }
  ASSERT_FALSE(batch.empty());
  const std::vector<NodeId> endpoints = batch.endpoints();
  g.apply(batch);

  ASSERT_TRUE(cache.rebind_params(core::derive_params(g)));
  const std::size_t dropped = cache.invalidate_rows(endpoints);
  EXPECT_EQ(cache.cached_row_count(), g.node_count() - dropped);

  // Every row — survivor or rebuilt-on-demand — must equal a cache
  // built from scratch on the mutated graph. Survivors being byte-
  // exact is the Lemma's claim; a false survivor would diverge here.
  paths::ToolkitCache scratch(g, core::derive_params(g));
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(cache.approx_row(u), scratch.approx_row(u)) << "row " << u;
  }
}

// ---------------------------------------------------------------------------
// Service-layer eccentricity delta repair

TEST(GraphContextUpdate, EccDeltaRepairMatchesScratch) {
  runtime::ThreadPool pool(2);
  WeightedGraph base = weighted_family("grid", 64, 8, 61);
  GraphContext ctx("g", WeightedGraph(base));
  const auto ecc0 = ctx.weighted_eccentricities(pool);
  const auto hop0 = ctx.hop_eccentricities(pool);
  ASSERT_EQ(ecc0.size(), base.node_count());

  const Edge e = base.edges()[base.edges().size() / 3];
  GraphUpdate batch;
  batch.reweight(e.u, e.v, e.weight + 5);
  const auto outcome = ctx.apply_update(batch, pool, /*incremental=*/true);
  EXPECT_EQ(outcome.changed_edges, 1u);
  EXPECT_FALSE(outcome.scratch);
  // Reweights never touch hop distances.
  EXPECT_EQ(outcome.hop_rows_recomputed, 0u);

  WeightedGraph fresh(base);
  fresh.set_edge_weight(e.u, e.v, e.weight + 5);
  EXPECT_EQ(ctx.weighted_eccentricities(pool), eccentricities(fresh));
  EXPECT_EQ(ctx.hop_eccentricities(pool), unweighted_eccentricities(fresh));
}

TEST(GraphContextUpdate, TopologyChangeRepairsBothTables) {
  runtime::ThreadPool pool(2);
  WeightedGraph base = weighted_family("ER", 36, 6, 67);
  GraphContext ctx("g", WeightedGraph(base));
  ctx.weighted_eccentricities(pool);
  ctx.hop_eccentricities(pool);

  // Insert a chord and remove a triangle edge in one batch.
  NodeId a = 0, b = 0;
  for (NodeId u = 0; u < base.node_count() && b == 0; ++u) {
    for (NodeId v = u + 1; v < base.node_count(); ++v) {
      if (!base.has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_NE(a, b);
  GraphUpdate batch;
  batch.insert(a, b, 2);
  const auto outcome = ctx.apply_update(batch, pool, /*incremental=*/true);
  EXPECT_EQ(outcome.changed_edges, 1u);

  WeightedGraph fresh(base);
  fresh.add_edge(a, b, 2);
  EXPECT_EQ(ctx.weighted_eccentricities(pool), eccentricities(fresh));
  EXPECT_EQ(ctx.hop_eccentricities(pool), unweighted_eccentricities(fresh));
}

TEST(GraphContextUpdate, ScratchPolicyDropsWarmState) {
  runtime::ThreadPool pool(2);
  WeightedGraph base = weighted_family("ER", 24, 6, 71);
  GraphContext ctx("g", WeightedGraph(base));
  ctx.weighted_eccentricities(pool);
  ASSERT_TRUE(ctx.warm_state().weighted_ecc);
  const Edge e = base.edges().front();
  GraphUpdate batch;
  batch.reweight(e.u, e.v, e.weight + 1);
  const auto outcome = ctx.apply_update(batch, pool, /*incremental=*/false);
  EXPECT_TRUE(outcome.scratch);
  EXPECT_FALSE(ctx.warm_state().weighted_ecc);
  // Rebuild-on-demand still gives the right answer.
  WeightedGraph fresh(base);
  fresh.set_edge_weight(e.u, e.v, e.weight + 1);
  EXPECT_EQ(ctx.weighted_eccentricities(pool), eccentricities(fresh));
}

// ---------------------------------------------------------------------------
// The "update" query type

std::vector<Query> update_interleave(NodeId n) {
  std::vector<Query> qs;
  std::uint64_t id = 1;
  Rng rng(83);
  const auto push = [&](std::string type, auto fill) {
    Query q;
    q.id = id++;
    q.type = std::move(type);
    fill(q);
    qs.push_back(q);
  };
  for (int round = 0; round < 8; ++round) {
    push("diameter", [](Query&) {});
    push("eccentricity",
         [&](Query& q) { q.node = static_cast<NodeId>(rng.below(n)); });
    push("sssp", [&](Query& q) {
      q.node = static_cast<NodeId>(rng.below(n));
      q.target = static_cast<NodeId>(rng.below(n));
    });
    push("approx_distance", [&](Query& q) {
      q.node = static_cast<NodeId>(rng.below(n));
      q.target = static_cast<NodeId>(rng.below(n));
    });
    push("update", [&](Query& q) {
      q.op = "reweight";
      // Reweights only — stays connected, so every read type answers.
      q.node = 0;
      q.target = 0;
      q.weight = 1 + rng.below(9);
    });
  }
  return qs;
}

/// Fills the reweight targets with actual edges of g (the generator
/// above can't know them).
void bind_updates(std::vector<Query>& qs, const WeightedGraph& g) {
  Rng rng(89);
  for (Query& q : qs) {
    if (q.type != "update") continue;
    const Edge& e = g.edges()[rng.below(g.edges().size())];
    q.node = e.u;
    q.target = e.v;
  }
}

std::string transcript(QueryEngine& engine, const std::vector<Query>& qs) {
  std::string out;
  for (const Query& q : qs) {
    out += service::format_response(engine.query(q));
    out += '\n';
  }
  return out;
}

TEST(ServiceUpdate, IncrementalMatchesScratchAcrossWorkerCounts) {
  const NodeId n = 24;
  WeightedGraph base = weighted_family("ER", n, 9, 91);
  std::vector<Query> qs = update_interleave(n);
  bind_updates(qs, base);

  std::vector<std::string> transcripts;
  for (const unsigned workers : {1u, 2u, 8u}) {
    for (const bool incremental : {true, false}) {
      EngineOptions opt;
      opt.workers = workers;
      opt.auto_dispatch = false;
      opt.incremental_updates = incremental;
      QueryEngine engine(opt);
      engine.add_graph("g0", WeightedGraph(base));
      transcripts.push_back(transcript(engine, qs));
    }
  }
  for (std::size_t i = 1; i < transcripts.size(); ++i) {
    EXPECT_EQ(transcripts[i], transcripts[0]) << "variant " << i;
  }
}

TEST(ServiceUpdate, UpdatesVisibleToSubsequentReads) {
  EngineOptions opt;
  opt.auto_dispatch = false;
  QueryEngine engine(opt);
  WeightedGraph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  engine.add_graph("g0", std::move(g));

  Query d;
  d.type = "diameter";
  EXPECT_EQ(engine.query(d).value, 4u);

  Query u;
  u.type = "update";
  u.op = "insert";
  u.node = 0;
  u.target = 2;
  u.weight = 1;
  const QueryResult ur = engine.query(u);
  ASSERT_TRUE(ur.ok) << ur.error;
  EXPECT_EQ(ur.value, 3u);  // edge count after the op

  EXPECT_EQ(engine.query(d).value, 2u);  // the chord shortcuts 0-2
  Query s;
  s.type = "sssp";
  s.node = 0;
  s.target = 2;
  EXPECT_EQ(engine.query(s).value, 1u);
}

TEST(ServiceUpdate, MutatingQueriesBarrierCoalescingWithinOneBatch) {
  // read / update / read on one graph drained as a single batch: the
  // two reads must NOT coalesce into one pre-update group. The second
  // read was admitted after the update, so it must observe it —
  // admission order is the order reads observe updates in, even
  // inside a batch.
  EngineOptions opt;
  opt.auto_dispatch = false;
  QueryEngine engine(opt);
  WeightedGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  engine.add_graph("g0", std::move(g));

  const auto read = [&](std::uint64_t id) {
    Query s;
    s.id = id;
    s.type = "sssp";
    s.node = 0;
    s.target = 3;
    return engine.submit(std::move(s));
  };
  const auto update = [&](std::uint64_t id, std::string op, NodeId u,
                          NodeId v, Weight w) {
    Query q;
    q.id = id;
    q.type = "update";
    q.op = std::move(op);
    q.node = u;
    q.target = v;
    q.weight = w;
    return engine.submit(std::move(q));
  };

  auto f1 = read(1);
  auto f2 = update(2, "insert", 0, 3, 1);
  auto f3 = read(3);
  // A second barrier in the same batch: the two updates must not
  // coalesce either (the read between them would observe the remove
  // it was admitted before).
  auto f4 = update(4, "remove", 0, 3, 0);
  auto f5 = read(5);
  while (engine.drain() > 0) {
  }
  EXPECT_EQ(f1.get().value, 3u);  // pre-insert path 0-1-2-3
  ASSERT_TRUE(f2.get().ok);
  EXPECT_EQ(f3.get().value, 1u);  // sees the chord it was admitted after
  ASSERT_TRUE(f4.get().ok);
  EXPECT_EQ(f5.get().value, 3u);  // and the remove is visible again
}

TEST(ServiceUpdate, BatchFallbackGivesPerOpVerdicts) {
  EngineOptions opt;
  opt.auto_dispatch = false;
  QueryEngine engine(opt);
  WeightedGraph g(4);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 2);
  engine.add_graph("g0", std::move(g));

  // One drain batch: valid insert, duplicate insert (invalid), bogus op
  // string, valid reweight. They group (same graph, same type), the
  // coalesced batch fails validation, and the handler degrades to
  // per-op application.
  std::vector<std::future<QueryResult>> futs;
  const auto submit = [&](std::string op, NodeId u, NodeId v, Weight w) {
    Query q;
    q.id = futs.size() + 1;
    q.type = "update";
    q.op = std::move(op);
    q.node = u;
    q.target = v;
    q.weight = w;
    futs.push_back(engine.submit(std::move(q)));
  };
  submit("insert", 0, 2, 5);
  submit("insert", 2, 0, 5);  // duplicate of the first → parallel edge
  submit("frobnicate", 1, 3, 1);
  submit("reweight", 0, 1, 9);
  while (engine.drain() > 0) {
  }
  const QueryResult r0 = futs[0].get();
  const QueryResult r1 = futs[1].get();
  const QueryResult r2 = futs[2].get();
  const QueryResult r3 = futs[3].get();
  EXPECT_TRUE(r0.ok) << r0.error;
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("parallel edges"), std::string::npos) << r1.error;
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("unknown update op"), std::string::npos);
  EXPECT_TRUE(r3.ok) << r3.error;

  // The valid ops landed despite the batch fallback.
  GraphContext* ctx = engine.find_graph("g0");
  ASSERT_NE(ctx, nullptr);
  EXPECT_TRUE(ctx->graph().has_edge(0, 2));
  EXPECT_EQ(ctx->graph().edge_weight(0, 1), 9u);
}

TEST(ServiceUpdate, OutOfRangeUpdateAfterWarmReadKeepsApplyError) {
  // Warm eccentricity tables make apply_update search from the batch's
  // endpoints; an out-of-range id must fail with apply()'s own message
  // before any such search, and leave the graph as it was.
  const WeightedGraph base = weighted_family("ER", 24, 9, 95);
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental" : "scratch");
    EngineOptions opt;
    opt.auto_dispatch = false;
    opt.incremental_updates = incremental;
    QueryEngine engine(opt);
    engine.add_graph("g0", WeightedGraph(base));
    Query d;
    d.type = "diameter";
    ASSERT_TRUE(engine.query(d).ok);
    GraphContext* ctx = engine.find_graph("g0");
    ASSERT_NE(ctx, nullptr);
    ASSERT_TRUE(ctx->warm_state().weighted_ecc);

    Query u;
    u.type = "update";
    u.op = "insert";
    u.node = 0;
    u.target = 999;
    u.weight = 1;
    const QueryResult r = engine.query(u);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("node id out of range"), std::string::npos)
        << r.error;
    EXPECT_EQ(ctx->graph().edge_count(), base.edge_count());
  }
}

TEST(ServiceUpdate, ErrorTextNamesSourceRelativeToCheckout) {
  // An error reply is the same bytes from every build tree: the source
  // location reads src/..., with no directory of the checkout before it.
  EngineOptions opt;
  opt.auto_dispatch = false;
  QueryEngine engine(opt);
  engine.add_graph("g0", weighted_family("ER", 16, 9, 95));
  Query u;
  u.type = "update";
  u.op = "insert";
  u.node = 0;
  u.target = 999;
  const QueryResult r = engine.query(u);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find(" at src/graph/update.cpp:"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.error.find("/src/graph/update.cpp"), std::string::npos)
      << r.error;
}

std::string apply_error(WeightedGraph g, const GraphUpdate& batch) {
  try {
    g.apply(batch);
  } catch (const ArgumentError& e) {
    return e.what();
  }
  return "";
}

TEST(GraphContextUpdate, RejectedBatchLeavesWarmTablesUntouched) {
  // apply_update validates a batch before its pre-update searches from
  // the endpoints; a batch apply() rejects throws apply()'s own message
  // and leaves the graph and every warm table as they were.
  runtime::ThreadPool pool(2);
  const WeightedGraph base = weighted_family("ER", 24, 9, 97);
  GraphContext ctx("g", WeightedGraph(base));
  ctx.weighted_eccentricities(pool);
  ctx.hop_eccentricities(pool);
  const GraphContext::WarmState warm = ctx.warm_state();
  ASSERT_TRUE(warm.weighted_ecc && warm.hop_ecc);

  const Edge e = base.edges().front();
  NodeId absent = 1;  // 0 has no edge to it
  while (base.has_edge(0, absent)) ++absent;
  ASSERT_LT(absent, base.node_count());
  const struct {
    const char* name;
    GraphUpdate batch;
  } cases[] = {
      {"parallel edge", GraphUpdate{}.insert(e.v, e.u, 3)},
      {"missing edge", GraphUpdate{}.remove(0, absent)},
      {"zero weight", GraphUpdate{}.reweight(e.u, e.v, 0)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string expected = apply_error(base, c.batch);
    ASSERT_FALSE(expected.empty());
    try {
      ctx.apply_update(c.batch, pool, /*incremental=*/true);
      ADD_FAILURE() << "batch accepted";
    } catch (const ArgumentError& err) {
      EXPECT_EQ(std::string(err.what()), expected);
    }
    EXPECT_EQ(ctx.warm_state(), warm);
    EXPECT_EQ(ctx.graph().edges(), base.edges());
  }

  // The next valid update answers like the scratch path.
  const GraphUpdate valid = GraphUpdate{}.reweight(e.u, e.v, e.weight + 4);
  ctx.apply_update(valid, pool, /*incremental=*/true);
  GraphContext scratch("s", WeightedGraph(base));
  scratch.apply_update(valid, pool, /*incremental=*/false);
  EXPECT_EQ(ctx.weighted_eccentricities(pool),
            scratch.weighted_eccentricities(pool));
  EXPECT_EQ(ctx.hop_eccentricities(pool), scratch.hop_eccentricities(pool));
}

TEST(ServiceUpdate, T11AnswersTrackUpdates) {
  // The theorem-1.1 handler rides the resident toolkit across updates;
  // its answer after a mutation must equal a fresh engine's on the
  // mutated graph (the cache repair is answer-invisible).
  WeightedGraph base = weighted_family("ER", 16, 6, 97);
  const Edge e = base.edges().front();

  EngineOptions opt;
  opt.auto_dispatch = false;
  QueryEngine live(opt);
  service::register_theorem11_handlers(live);
  live.add_graph("g0", WeightedGraph(base));

  Query t;
  t.type = "t11_diameter";
  t.seed = 5;
  (void)live.query(t);  // warm the toolkit pre-update

  Query u;
  u.type = "update";
  u.op = "reweight";
  u.node = e.u;
  u.target = e.v;
  u.weight = e.weight + 2;
  ASSERT_TRUE(live.query(u).ok);
  const QueryResult after = live.query(t);

  QueryEngine scratch(opt);
  service::register_theorem11_handlers(scratch);
  WeightedGraph mutated(base);
  mutated.set_edge_weight(e.u, e.v, e.weight + 2);
  scratch.add_graph("g0", std::move(mutated));
  const QueryResult expect = scratch.query(t);
  EXPECT_EQ(after, expect);
}

// ---------------------------------------------------------------------------
// Wire keys

TEST(Wire, UpdateRequestKeysParse) {
  const Query q = service::parse_request(
      R"({"id":4,"type":"update","op":"reweight","u":3,"v":9,"w":17})");
  EXPECT_EQ(q.id, 4u);
  EXPECT_EQ(q.type, "update");
  EXPECT_EQ(q.op, "reweight");
  EXPECT_EQ(q.node, 3u);
  EXPECT_EQ(q.target, 9u);
  EXPECT_EQ(q.weight, 17u);
  // Long-form synonyms.
  const Query q2 = service::parse_request(
      R"({"type":"update","op":"insert","node":1,"target":2,"weight":5})");
  EXPECT_EQ(q2.op, "insert");
  EXPECT_EQ(q2.weight, 5u);
  EXPECT_THROW(service::parse_request(R"({"type":"update","ops":"x"})"),
               ArgumentError);
}

}  // namespace
}  // namespace qc
