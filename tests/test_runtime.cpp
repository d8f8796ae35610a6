// Tests for the runtime subsystem: fork/join pool semantics, seed
// derivation, metrics instruments, and the sweep executor's determinism
// contract (identical aggregated JSON at any worker count).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "congest/primitives.h"
#include "congest/simulator.h"
#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "runtime/metrics.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"

namespace qc::runtime {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON syntax checker (recursive descent). The sweep writes
// machine-readable files; this parses them back so a malformed emitter
// fails here rather than in a downstream notebook.
// ---------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string_lit()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string_lit() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string_view want(lit);
    if (s_.compare(pos_, want.size(), want) != 0) return false;
    pos_ += want.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ull, 2ull, 42ull}) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      seen.insert(derive_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across bases or indices
}

// ---------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 16,
                            [&](std::size_t i) {
                              if (i == 7) {
                                throw ArgumentError("boom at 7");
                              }
                            }),
               ArgumentError);
  // The pool must stay usable after a failed batch.
  std::atomic<int> count{0};
  parallel_for(pool, 8, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ParallelMapPreservesInputOrder) {
  ThreadPool pool(4);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i;
  const auto out = parallel_map(pool, items, [](int v, std::size_t i) {
    EXPECT_EQ(static_cast<std::size_t>(v), i);
    return v * v;
  });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

// A call nested inside a pool index runs on the same pool: the inner
// caller finishes its own job, so nesting cannot deadlock. The first
// two outer indices wait for each other, so both workers are inside an
// outer index when the inner calls start.
TEST(ThreadPool, NestedParallelForOnTheSamePoolFinishes) {
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::vector<std::atomic<int>> hits(64);
  parallel_for(pool, 8, [&](std::size_t i) {
    started++;
    while (started.load() < 2) std::this_thread::yield();
    parallel_for(pool, 8, [&](std::size_t j) { hits[i * 8 + j]++; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(4 * 1000);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int call = 0; call < 200; ++call) {
        parallel_for(pool, 1000,
                     [&](std::size_t i) { hits[t * 1000 + i]++; });
      }
    });
  }
  for (auto& c : callers) c.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 200);
}

// A one-worker pool is the serial path: it starts no thread.
TEST(ThreadPool, OneWorkerPoolRunsEveryIndexOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  parallel_for(pool, ran_on.size(),
               [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
  // So does a null pool.
  std::fill(ran_on.begin(), ran_on.end(), std::thread::id());
  parallel_for(static_cast<ThreadPool*>(nullptr), ran_on.size(),
               [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ThrowingIndicesLeaveEveryOtherIndexRun) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  try {
    parallel_for(pool, hits.size(), [&](std::size_t i) {
      hits[i]++;
      if (i == 5 || i == 40) {
        throw ArgumentError("boom at " + std::to_string(i));
      }
    });
    ADD_FAILURE() << "parallel_for swallowed the exception";
  } catch (const ArgumentError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "boom at 5" || what == "boom at 40") << what;
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  std::atomic<int> count{0};
  parallel_for(pool, 32, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 32);
}

// Many short jobs: a pool thread that finds a job must hold it until it
// is done with it, even when the caller claims the last index first.
TEST(ThreadPool, ManyShortJobsEachRunEveryIndex) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int job = 0; job < 50000; ++job) {
    parallel_for(pool, 4, [&](std::size_t i) { total += i + 1; });
  }
  EXPECT_EQ(total.load(), 50000u * 10u);
}

// The multi-source graph kernels fan out over the pool with per-source
// result slots; outputs must be byte-identical at any worker count.
// n >= 256 so the nullptr path also engages the shared kernel pool.
TEST(ThreadPool, GraphKernelsDeterministicAcrossWorkerCounts) {
  Rng rng(31);
  auto g = gen::erdos_renyi_connected(300, 0.03, rng);
  g = gen::randomize_weights(g, 90, rng);
  const CsrGraph& csr = g.csr();

  ThreadPool one(1);
  const auto ecc = eccentricities(csr, &one);
  const auto apsp = all_pairs_distances(csr, &one);
  const auto uecc = unweighted_eccentricities(csr, &one);
  const Dist ud = unweighted_diameter(csr, &one);
  const Dist hd = hop_diameter(csr, &one);

  for (const unsigned workers : {2u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(eccentricities(csr, &pool), ecc);
    EXPECT_EQ(all_pairs_distances(csr, &pool), apsp);
    EXPECT_EQ(unweighted_eccentricities(csr, &pool), uecc);
    EXPECT_EQ(unweighted_diameter(csr, &pool), ud);
    EXPECT_EQ(hop_diameter(csr, &pool), hd);
  }
  // nullptr -> shared pool (n >= the parallel threshold): same answers.
  EXPECT_EQ(eccentricities(csr), ecc);
  EXPECT_EQ(all_pairs_distances(csr), apsp);
  // And the WeightedGraph shims agree with the CSR overloads.
  EXPECT_EQ(eccentricities(g), ecc);
  EXPECT_EQ(hop_diameter(g), hd);
}

// ---------------------------------------------------------------------
// balanced_ranges: the prefix-sum chunking the sharded mailbox merge
// and the weighted round loop cut their work with.
// ---------------------------------------------------------------------

// Boundary invariants every cut must satisfy: starts at 0, ends at
// count, strictly increasing (no empty chunk), at most max_chunks.
void check_bounds(const std::vector<std::size_t>& b, std::size_t count,
                  std::size_t max_chunks) {
  ASSERT_GE(b.size(), 2u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), count);
  EXPECT_LE(b.size() - 1, std::max<std::size_t>(1, max_chunks));
  for (std::size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LT(b[i], b[i + 1]);
}

TEST(BalancedRanges, SplitsUniformWeightsEvenly) {
  std::vector<std::uint64_t> prefix(101);
  for (std::size_t i = 0; i <= 100; ++i) prefix[i] = i;  // weight 1 each
  const auto b = balanced_ranges(prefix, 4);
  check_bounds(b, 100, 4);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t c = 0; c + 1 < b.size(); ++c) {
    EXPECT_EQ(b[c + 1] - b[c], 25u);
  }
}

TEST(BalancedRanges, HeavyItemDoesNotStarveOtherChunks) {
  // One item holds ~97% of the weight; the cut must still hand every
  // chunk at least one item instead of collapsing around the hub.
  std::vector<std::uint64_t> prefix = {0, 1, 2, 100, 101, 102};
  const auto b = balanced_ranges(prefix, 4);
  check_bounds(b, 5, 4);
  ASSERT_EQ(b.size(), 5u);
}

TEST(BalancedRanges, ZeroTotalFallsBackToEvenCountSplit) {
  const std::vector<std::uint64_t> prefix(9, 0);  // 8 weightless items
  const auto b = balanced_ranges(prefix, 4);
  check_bounds(b, 8, 4);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t c = 0; c + 1 < b.size(); ++c) {
    EXPECT_EQ(b[c + 1] - b[c], 2u);
  }
}

TEST(BalancedRanges, FewerItemsThanChunksClampsChunkCount) {
  const std::vector<std::uint64_t> prefix = {0, 5, 9, 10};
  const auto b = balanced_ranges(prefix, 16);
  check_bounds(b, 3, 16);
  EXPECT_EQ(b.size(), 4u);  // 3 items -> at most 3 chunks
}

TEST(BalancedRanges, EmptyInputYieldsOneEmptyChunk) {
  const std::vector<std::uint64_t> prefix = {0};
  const auto b = balanced_ranges(prefix, 8);
  EXPECT_EQ(b, (std::vector<std::size_t>{0, 0}));
}

TEST(BalancedRanges, RejectsMissingLeadingZero) {
  const std::vector<std::uint64_t> prefix = {1, 2, 3};
  EXPECT_THROW(balanced_ranges(prefix, 2), ArgumentError);
}

TEST(BalancedRanges, ParallelForRangesCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> prefix(301);
  for (std::size_t i = 0; i <= 300; ++i) prefix[i] = i * i;  // skewed
  std::vector<std::size_t> bounds;
  balanced_ranges(prefix, 8, bounds);
  check_bounds(bounds, 300, 8);
  std::vector<std::atomic<int>> hits(300);
  parallel_for_ranges(pool, bounds,
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------
// Metrics instruments
// ---------------------------------------------------------------------

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  MetricsRegistry reg;
  auto& c = reg.counter("events");
  ThreadPool pool(4);
  parallel_for(pool, 1000, [&](std::size_t) { c.add(2); });
  EXPECT_EQ(c.value(), 2000u);
  EXPECT_EQ(&c, &reg.counter("events"));  // same instrument on re-lookup
}

TEST(Metrics, HistogramBucketsObservationsByUpperBound) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (const double v : {0.5, 1.0, 1.5, 3.0, 4.0, 7.9, 8.0, 9.0, 100.0}) {
    h.observe(v);
  }
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);  // 4 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0   (v <= 1)
  EXPECT_EQ(counts[1], 1u);      // 1.5        (v <= 2)
  EXPECT_EQ(counts[2], 2u);      // 3.0, 4.0   (v <= 4)
  EXPECT_EQ(counts[3], 2u);      // 7.9, 8.0   (v <= 8)
  EXPECT_EQ(counts[4], 2u);      // 9.0, 100.0 (overflow)
  EXPECT_EQ(h.count(), 9u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 3.0 + 4.0 + 7.9 + 8.0 + 9.0 +
                                100.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), ArgumentError);
  EXPECT_THROW(Histogram({2.0, 1.0}), ArgumentError);
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(reg.histogram("h"));            // reuse existing layout
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), ArgumentError);
}

TEST(Metrics, NamesAreUniqueAcrossKinds) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), ArgumentError);
  EXPECT_THROW(reg.histogram("x"), ArgumentError);
}

TEST(Metrics, ExponentialBuckets) {
  const auto b = exponential_buckets(1.0, 2.0, 4);
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_THROW(exponential_buckets(0.0, 2.0, 4), ArgumentError);
}

TEST(Metrics, JsonIsValidAndSorted) {
  MetricsRegistry reg;
  reg.counter("z.count").add(3);
  reg.counter("a.count").add(1);
  reg.gauge("ratio").set(1.25);
  reg.histogram("lat", {1.0, 10.0}).observe(5.0);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonParser(json).valid()) << json;
  // Sorted keys: "a.count" must serialize before "z.count".
  EXPECT_LT(json.find("\"a.count\""), json.find("\"z.count\""));
  EXPECT_NE(json.find("\"ratio\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
}

TEST(Metrics, HistogramQuantileIsNearestRankOverBuckets) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // no observations yet
  for (const double v : {0.5, 1.5, 1.6, 3.0, 3.5, 7.0}) h.observe(v);
  // Bucketed observations, smallest-first, by bucket upper bound:
  // 1, 2, 2, 4, 4, 8.
  EXPECT_EQ(h.quantile(0.0), 1.0);   // rank clamps to the 1st
  EXPECT_EQ(h.quantile(0.5), 2.0);   // ceil(0.5 * 6) = 3rd
  EXPECT_EQ(h.quantile(0.95), 8.0);  // ceil(0.95 * 6) = 6th
  EXPECT_EQ(h.quantile(1.0), 8.0);
  h.observe(100.0);  // overflow bucket has no finite upper bound
  EXPECT_TRUE(std::isinf(h.quantile(1.0)));
  EXPECT_EQ(h.quantile(0.5), 4.0);  // ceil(0.5 * 7) = 4th of 1,2,2,4,4,8,inf
  EXPECT_THROW(h.quantile(-0.1), ArgumentError);
  EXPECT_THROW(h.quantile(1.1), ArgumentError);
}

TEST(Metrics, HistogramQuantilesMatchSerialReplayAfterConcurrentRecording) {
  // Many threads record the same deterministic multiset in different
  // interleavings; once recording quiesces, every percentile must equal
  // a serial replay's — quantiles depend on the multiset only, never on
  // recording order (the property the service latency report relies on).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  const auto value_of = [](int t, int i) {
    const auto x = derive_seed(static_cast<std::uint64_t>(t),
                               static_cast<std::uint64_t>(i));
    return 0.001 * static_cast<double>(1 + x % 3000);
  };

  MetricsRegistry reg;
  auto& h = reg.histogram("lat", exponential_buckets(0.001, 2.0, 16));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe(value_of(t, i));
    });
  }
  for (auto& th : threads) th.join();

  Histogram serial(exponential_buckets(0.001, 2.0, 16));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) serial.observe(value_of(t, i));
  }
  ASSERT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket_counts(), serial.bucket_counts());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), serial.quantile(q)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------
// Sweep executor
// ---------------------------------------------------------------------

TaskOutput bfs_cell(const SweepPoint& p, const WeightedGraph& g) {
  congest::Config cfg;
  cfg.bandwidth_bits = p.bandwidth_bits;
  cfg.seed = p.seed;
  const auto res = congest::build_bfs_tree(g, 0, cfg);
  TaskOutput out;
  record_stats(out, res.stats);
  return out;
}

TEST(Sweep, AggregatesInSpecOrder) {
  SweepSpec spec;
  spec.ns = {8, 16};
  spec.families = {"path", "star"};
  spec.seeds = 3;
  ThreadPool pool(2);
  const auto result = run_sweep(spec, bfs_cell, pool);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.tasks, 12u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.cells[0].n, 8u);
  EXPECT_EQ(result.cells[0].family, "path");
  EXPECT_EQ(result.cells[1].family, "star");
  EXPECT_EQ(result.cells[2].n, 16u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.runs, 3u);
    ASSERT_TRUE(cell.metrics.count("rounds"));
    EXPECT_GE(cell.metrics.at("rounds").min, 1.0);
    EXPECT_LE(cell.metrics.at("rounds").p50, cell.metrics.at("rounds").p95);
  }
}

TEST(Sweep, WorkerCountDoesNotChangeAggregatedJson) {
  SweepSpec spec;
  spec.ns = {12, 24};
  spec.families = {"ER", "tree"};
  spec.seeds = 16;
  spec.base_seed = 99;
  ThreadPool two(2);
  ThreadPool eight(8);
  const std::string a = to_json(run_sweep(spec, bfs_cell, two));
  const std::string b = to_json(run_sweep(spec, bfs_cell, eight));
  const std::string serial = to_json(run_sweep_serial(spec, bfs_cell));
  EXPECT_EQ(a, b);       // byte-identical at different worker counts
  EXPECT_EQ(a, serial);  // and identical to the single-thread reference
}

TEST(Sweep, JsonParsesBackAndEchoesSpec) {
  SweepSpec spec;
  spec.ns = {8};
  spec.families = {"path"};
  spec.seeds = 2;
  ThreadPool pool(2);
  const auto result = run_sweep(spec, bfs_cell, pool);
  for (const bool timing : {false, true}) {
    const std::string json = to_json(result, timing);
    EXPECT_TRUE(JsonParser(json).valid()) << json;
  }
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"families\":[\"path\"]"), std::string::npos);
  EXPECT_NE(json.find("\"seeds\":2"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{\"bits\""), std::string::npos);
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  EXPECT_NE(to_json(result, true).find("wall_seconds"), std::string::npos);
}

TEST(Sweep, FailedTasksAreCountedNotFatal) {
  SweepSpec spec;
  spec.ns = {8};
  spec.families = {"path"};
  spec.seeds = 4;
  ThreadPool pool(2);
  const auto result = run_sweep(
      spec,
      [](const SweepPoint& p, const WeightedGraph& g) {
        if (p.seed_index % 2 == 0) {
          throw ArgumentError("planned failure");
        }
        return bfs_cell(p, g);
      },
      pool);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].runs, 2u);
  EXPECT_EQ(result.cells[0].failures, 2u);
  EXPECT_EQ(result.failures, 2u);
  ASSERT_FALSE(result.cells[0].errors.empty());
  EXPECT_NE(result.cells[0].errors[0].find("planned failure"),
            std::string::npos);
}

TEST(Sweep, UnknownFamilyFailsEveryTask) {
  SweepSpec spec;
  spec.ns = {8};
  spec.families = {"no-such-family"};
  spec.seeds = 2;
  ThreadPool pool(2);
  const auto result = run_sweep(spec, bfs_cell, pool);
  EXPECT_EQ(result.failures, 2u);
}

TEST(Sweep, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/sweep_roundtrip.json";
  write_file(path, "{\"ok\":true}");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"ok\":true}");
}

// ---------------------------------------------------------------------
// Simulator metrics hook
// ---------------------------------------------------------------------

TEST(SimulatorMetrics, HookTotalsMatchLedger) {
  const auto g = gen::grid(4, 4);
  MetricsRegistry reg;
  congest::Config cfg;
  attach_simulator_metrics(cfg, reg);
  const auto res = congest::build_bfs_tree(g, 0, cfg);
  EXPECT_EQ(reg.counter("sim.rounds").value(), res.stats.rounds);
  EXPECT_EQ(reg.counter("sim.messages").value(), res.stats.messages);
  EXPECT_EQ(reg.counter("sim.bits").value(), res.stats.bits);
  auto& h = reg.histogram("sim.round_messages");
  EXPECT_EQ(h.count(), res.stats.rounds);
  EXPECT_DOUBLE_EQ(h.sum(), double(res.stats.messages));
  EXPECT_TRUE(JsonParser(reg.to_json()).valid());
}

TEST(SimulatorMetrics, RoundsAreSequential) {
  const auto g = gen::path(6);
  congest::Config cfg;
  std::vector<std::uint64_t> rounds;
  cfg.hooks.on_round_metrics = [&](const congest::RoundMetrics& rm) {
    rounds.push_back(rm.round);
  };
  congest::build_bfs_tree(g, 0, cfg);
  ASSERT_FALSE(rounds.empty());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i], i);
  }
}

}  // namespace
}  // namespace qc::runtime
