// Wall-clock benchmark of the CSR shortest-path kernels against the
// seed implementations they replaced.
//
// The seed kernels (short, and reproduced verbatim below, so the
// identity check reads them as independent references) walk the per-node
// `vector<vector<HalfEdge>>` adjacency, allocate fresh dist/heap buffers
// for every source, and run strictly serially. The ported kernels run on
// the flat CSR view with a reusable DijkstraWorkspace (bucket queue for
// max weight W <= 128, heap otherwise) and fan multi-source sweeps out
// over the fork/join pool. This bench times both on the same graphs,
// asserts the outputs are byte-identical (including across worker
// counts), and writes BENCH_graph_kernels.json so the perf trajectory is
// tracked from PR 2 onward.
//
// The sampled_sssp rows time 16 single-source runs on graphs with
// W <= 128 and n·W past 2^22, where a bucket sweep that stepped through
// every distance would cost O(n·W): by default the R-MAT graph of the
// qcbench big_ingest workload (scale 18, 2^21 edges, W = 64; its bgraph
// is written to --dir and removed) and a W = 64 path of 2^18 nodes
// (every gap between settled distances up to W), in the smoke a W = 128
// path of 2^15 + 1 nodes.
//
// Usage: bench_graph_kernels [--smoke] [--n N] [--out FILE] [--dir DIR]
//   --smoke   tiny instance for ctest (correctness + JSON, no timing
//             claims)
#include <algorithm>
#include <cstdio>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "harness.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace {

using namespace qc;

// --- seed (pre-CSR) kernels, kept as the comparison baseline ----------

std::vector<Dist> seed_bfs(const WeightedGraph& g, NodeId s) {
  std::vector<Dist> dist(g.node_count(), kInfDist);
  std::queue<NodeId> q;
  dist[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const HalfEdge& h : g.neighbors(u)) {
      if (dist[h.to] == kInfDist) {
        dist[h.to] = dist[u] + 1;
        q.push(h.to);
      }
    }
  }
  return dist;
}

std::vector<Dist> seed_dijkstra(const WeightedGraph& g, NodeId s) {
  std::vector<Dist> dist(g.node_count(), kInfDist);
  using Item = std::pair<Dist, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[s] = 0;
  pq.emplace(0, s);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const HalfEdge& h : g.neighbors(u)) {
      const Dist nd = dist_add(d, h.weight);
      if (nd < dist[h.to]) {
        dist[h.to] = nd;
        pq.emplace(nd, h.to);
      }
    }
  }
  return dist;
}

std::vector<Dist> seed_eccentricities(const WeightedGraph& g) {
  std::vector<Dist> ecc(g.node_count(), 0);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto dist = seed_dijkstra(g, s);
    ecc[s] = *std::max_element(dist.begin(), dist.end());
  }
  return ecc;
}

std::vector<std::vector<Dist>> seed_apsp(const WeightedGraph& g) {
  std::vector<std::vector<Dist>> rows;
  rows.reserve(g.node_count());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    rows.push_back(seed_dijkstra(g, s));
  }
  return rows;
}

Dist seed_unweighted_diameter(const WeightedGraph& g) {
  Dist d = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto dist = seed_bfs(g, s);
    d = std::max(d, *std::max_element(dist.begin(), dist.end()));
  }
  return d;
}

/// Path of n nodes with weights uniform in [1, max_w]; the first edge
/// gets max_w, so W is exactly max_w.
WeightedGraph weighted_path(NodeId n, Weight max_w, Rng& rng) {
  WeightedGraph g = gen::randomize_weights(gen::path(n), max_w, rng);
  g.set_edge_weight(0, 1, max_w);
  return g;
}

Dist seed_hop_diameter(const WeightedGraph& g) {
  Dist h = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    std::vector<Dist> dist(g.node_count(), kInfDist);
    std::vector<Dist> hops(g.node_count(), kInfDist);
    using Item = std::tuple<Dist, Dist, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[s] = 0;
    hops[s] = 0;
    pq.emplace(0, 0, s);
    while (!pq.empty()) {
      const auto [d, hp, u] = pq.top();
      pq.pop();
      if (d != dist[u] || hp != hops[u]) continue;
      for (const HalfEdge& e : g.neighbors(u)) {
        const Dist nd = dist_add(d, e.weight);
        const Dist nh = hp + 1;
        if (nd < dist[e.to] || (nd == dist[e.to] && nh < hops[e.to])) {
          dist[e.to] = nd;
          hops[e.to] = nh;
          pq.emplace(nd, nh, e.to);
        }
      }
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (hops[v] < kInfDist) h = std::max(h, hops[v]);
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv,
                           {"--smoke", "--n N", "--out FILE", "--dir DIR"});
  const bool smoke = flags.has("--smoke");
  const NodeId n = flags.num<NodeId>("--n", smoke ? 128 : 2048);
  const std::string out_path =
      flags.out_file("--out", "BENCH_graph_kernels.json");
  const std::string dir = flags.dir("--dir", "/tmp");

  // Random connected graph, avg degree ~8, weights small enough for the
  // bucket engine (the regime the Theorem 1.1 pipeline runs in; gadget
  // weights exercise the heap engine via the equivalence tests instead).
  const Weight max_w = 64;
  Rng rng(2022);
  auto g = gen::erdos_renyi_connected(n, 8.0 / double(n), rng);
  g = gen::randomize_weights(g, max_w, rng);
  const CsrGraph& csr = g.csr();
  const unsigned hw = std::max(1u, bench::hardware_workers());

  std::printf("graph kernels: %s, avg deg %.1f\n\n", g.summary().c_str(),
              2.0 * double(g.edge_count()) / double(n));

  // Each kernel's baseline row is its seed serial run.
  bench::Report report;
  const auto push = [&](const std::string& kernel, const std::string& variant,
                        unsigned workers, double secs, double base_secs,
                        bool identical) {
    report.add({kernel, variant, n, workers, secs,
                bench::speedup(base_secs, secs), identical});
  };
  using bench::wall_seconds;

  bool all_identical = true;
  double ecc_pool_speedup = 0;

  // eccentricities — the acceptance kernel.
  {
    std::vector<Dist> golden;
    const double t_seed =
        wall_seconds([&] { golden = seed_eccentricities(g); });
    push("eccentricities", "seed serial", 1, t_seed, t_seed, true);

    std::vector<Dist> got;
    runtime::ThreadPool one(1);
    const double t_csr =
        wall_seconds([&] { got = eccentricities(csr, &one); });
    all_identical &= got == golden;
    push("eccentricities", "csr serial", 1, t_csr, t_seed, got == golden);

    for (const unsigned workers : {2u, hw}) {
      runtime::ThreadPool pool(workers);
      const double t_pool =
          wall_seconds([&] { got = eccentricities(csr, &pool); });
      all_identical &= got == golden;
      push("eccentricities", "csr+pool w=" + std::to_string(workers), workers,
           t_pool, t_seed, got == golden);
      ecc_pool_speedup =
          std::max(ecc_pool_speedup, bench::speedup(t_seed, t_pool));
      if (workers == hw) break;  // avoid double-run when hw == 2
    }
  }

  // all-pairs distances.
  {
    std::vector<std::vector<Dist>> golden;
    const double t_seed = wall_seconds([&] { golden = seed_apsp(g); });
    push("all_pairs_distances", "seed serial", 1, t_seed, t_seed, true);
    std::vector<std::vector<Dist>> got;
    runtime::ThreadPool pool(hw);
    const double t_pool =
        wall_seconds([&] { got = all_pairs_distances(csr, &pool); });
    all_identical &= got == golden;
    push("all_pairs_distances", "csr+pool w=" + std::to_string(hw), hw,
         t_pool, t_seed, got == golden);
  }

  // unweighted diameter (BFS sweep).
  {
    Dist golden = 0;
    const double t_seed =
        wall_seconds([&] { golden = seed_unweighted_diameter(g); });
    push("unweighted_diameter", "seed serial", 1, t_seed, t_seed, true);
    Dist got = 0;
    runtime::ThreadPool pool(hw);
    const double t_pool =
        wall_seconds([&] { got = unweighted_diameter(csr, &pool); });
    all_identical &= got == golden;
    push("unweighted_diameter", "csr+pool w=" + std::to_string(hw), hw,
         t_pool, t_seed, got == golden);
  }

  // hop diameter (lexicographic Dijkstra sweep).
  {
    Dist golden = 0;
    const double t_seed = wall_seconds([&] { golden = seed_hop_diameter(g); });
    push("hop_diameter", "seed serial", 1, t_seed, t_seed, true);
    Dist got = 0;
    runtime::ThreadPool pool(hw);
    const double t_pool =
        wall_seconds([&] { got = hop_diameter(csr, &pool); });
    all_identical &= got == golden;
    push("hop_diameter", "csr+pool w=" + std::to_string(hw), hw, t_pool,
         t_seed, got == golden);
  }

  // sampled single-source runs with n·W past 2^22.
  {
    struct Case {
      std::string label;
      WeightedGraph graph;
    };
    std::vector<Case> cases;
    Rng case_rng(2024);
    if (smoke) {
      cases.push_back(
          {"path W=128", weighted_path((NodeId{1} << 15) + 1, 128, case_rng)});
    } else {
      const std::string bg = dir + "/qc_bench_graph_kernels_rmat18.bg";
      gen::rmat_bgraph(bg, 18, std::uint64_t{1} << 21, 64, 20260808);
      cases.push_back({"rmat-s18 W=64", load_bgraph(bg)});
      std::remove(bg.c_str());
      cases.push_back(
          {"path W=64", weighted_path(NodeId{1} << 18, 64, case_rng)});
    }
    for (const Case& c : cases) {
      const WeightedGraph& sg = c.graph;
      const CsrGraph& scsr = sg.csr();  // built outside the timers
      std::vector<NodeId> sources(16);
      for (NodeId& s : sources) {
        s = static_cast<NodeId>(case_rng.below(sg.node_count()));
      }
      std::vector<std::vector<Dist>> golden(sources.size());
      const double t_seed = wall_seconds([&] {
        for (std::size_t i = 0; i < sources.size(); ++i) {
          golden[i] = seed_dijkstra(sg, sources[i]);
        }
      });
      std::vector<std::vector<Dist>> got(sources.size());
      DijkstraWorkspace ws;
      const double t_ws = wall_seconds([&] {
        for (std::size_t i = 0; i < sources.size(); ++i) {
          ws.dijkstra(scsr, sources[i], got[i]);
        }
      });
      const bool same = got == golden;
      all_identical &= same;
      const std::string workload = "sampled_sssp " + c.label;
      report.add({workload, "seed heap", sg.node_count(), 1, t_seed, 1.0,
                  true});
      report.add({workload, "workspace", sg.node_count(), 1, t_ws,
                  bench::speedup(t_seed, t_ws), same});
      std::printf("sampled sssp %s: n=%u, n*W=%llu, per source %.2f ms seed "
                  "heap vs %.2f ms workspace\n",
                  c.label.c_str(), sg.node_count(),
                  static_cast<unsigned long long>(sg.node_count()) *
                      scsr.max_weight(),
                  1e3 * t_seed / double(sources.size()),
                  1e3 * t_ws / double(sources.size()));
    }
  }

  std::printf("%s\n", report.table().c_str());
  std::printf("eccentricities csr+pool speedup vs seed: %.2fx "
              "(acceptance target >= 3x on multi-core; byte-identical "
              "outputs %s)\n",
              ecc_pool_speedup, all_identical ? "hold" : "FAIL");

  report.spec.add("n", n).add("m", g.edge_count()).add("max_weight", max_w);
  report.acceptance.add("eccentricities_csr_pool_speedup", ecc_pool_speedup)
      .add("byte_identical_at_all_worker_counts", all_identical);
  report.write(out_path);
  return all_identical ? 0 : 1;
}
