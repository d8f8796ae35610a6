// The million-node dataset layer: bgraph v1 binary edge lists, the
// packed/mappable bcsr v1 CSR image, the streaming power-law
// generators, and the large-n determinism contract (pool-parallel
// kernels and the sharded-merge simulator stay byte-identical at any
// worker count even at n = 10^5). docs/datasets.md specs the formats.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/simulator.h"
#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "runtime/thread_pool.h"
#include "util/error.h"
#include "util/rng.h"

namespace qc {
namespace {

using namespace congest;  // NOLINT: Simulator, NodeProgram, Config, ...

// ctest runs each discovered test as its own process, often several at
// once, and tests reuse file names (every BGraph.Rejects* mutant is
// "mutant.bg") — pid-suffix every path so concurrent processes never
// clobber each other's files.
std::string tmp_prefix() {
  return "qc_datasets_" + std::to_string(::getpid()) + "_";
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + tmp_prefix() + name;
}

// Per-process names no longer overwrite the last run's files, so the
// process deletes its own when it exits.
class TmpCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(::testing::TempDir(), ec)) {
      if (entry.path().filename().string().starts_with(tmp_prefix())) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
};
[[maybe_unused]] ::testing::Environment* const kTmpCleanup =
    ::testing::AddGlobalTestEnvironment(new TmpCleanup);

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

WeightedGraph small_random(std::uint64_t seed) {
  Rng rng(seed);
  auto g = gen::erdos_renyi_connected(64, 0.1, rng);
  return gen::randomize_weights(g, 50, rng);
}

// Graphs compare equal iff their edge sets match (edge order is
// insertion order, so sort both — shuffled files load out of order).
void expect_same_graph(const WeightedGraph& a, const WeightedGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  auto ea = a.edges();
  auto eb = b.edges();
  const auto by_pair = [](const Edge& x, const Edge& y) {
    return std::tie(x.u, x.v) < std::tie(y.u, y.v);
  };
  std::sort(ea.begin(), ea.end(), by_pair);
  std::sort(eb.begin(), eb.end(), by_pair);
  EXPECT_EQ(ea, eb);
}

void expect_same_csr(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.max_weight(), b.max_weight());
  ASSERT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin(), b.offsets().end()));
  ASSERT_EQ(a.halves().size(), b.halves().size());
  for (std::size_t i = 0; i < a.halves().size(); ++i) {
    EXPECT_EQ(a.halves()[i].to, b.halves()[i].to) << i;
    EXPECT_EQ(a.halves()[i].weight, b.halves()[i].weight) << i;
  }
}

// --- bgraph round trips -----------------------------------------------

TEST(BGraph, RoundTripMatchesTextGolden) {
  const auto g = small_random(7);
  const std::string bg = tmp_path("roundtrip.bg");
  const BGraphInfo info = write_bgraph(g, bg);
  EXPECT_EQ(info.n, g.node_count());
  EXPECT_EQ(info.m, g.edge_count());
  EXPECT_TRUE(info.sorted);  // canonical edge order is sorted
  expect_same_graph(load_bgraph(bg), g);

  // Text -> binary -> text round trip agrees with the text golden.
  const std::string txt = tmp_path("roundtrip.wg");
  const std::string txt2 = tmp_path("roundtrip2.wg");
  const std::string bg2 = tmp_path("roundtrip2.bg");
  save_graph(g, txt);
  convert_text_to_bgraph(txt, bg2);
  expect_same_graph(load_bgraph(bg2), g);
  convert_bgraph_to_text(bg2, txt2);
  expect_same_graph(load_graph(txt2), g);
}

TEST(BGraph, WriterStreamsAndPatchesHeader) {
  const std::string path = tmp_path("writer.bg");
  {
    BGraphWriter w(path, 5);
    w.add(0, 1, 3);
    w.add(0, 2, 9);
    w.add(3, 4, 1);
    EXPECT_EQ(w.edges_written(), 3u);
    const BGraphInfo info = w.close();
    EXPECT_EQ(info.m, 3u);
    EXPECT_EQ(info.max_weight, 9u);
    EXPECT_TRUE(info.sorted);
  }
  BGraphReader r(path);
  Edge e;
  std::uint64_t seen = 0;
  while (r.next(e)) ++seen;
  EXPECT_EQ(seen, 3u);

  // Out-of-order writes clear the sorted flag but stay valid.
  {
    BGraphWriter w(path, 5);
    w.add(3, 4, 1);
    w.add(0, 1, 3);
    EXPECT_FALSE(w.close().sorted);
  }
  EXPECT_FALSE(BGraphReader(path).info().sorted);
}

TEST(BGraph, ReaderRewindAndSeekAfterPartialReads) {
  const auto g = small_random(13);
  const std::string path = tmp_path("rewind.bg");
  write_bgraph(g, path);

  BGraphReader r(path);
  const std::uint64_t m = r.info().m;
  ASSERT_GE(m, 10u);
  std::vector<Edge> full;
  Edge e;
  while (r.next(e)) full.push_back(e);
  EXPECT_EQ(full.size(), m);
  EXPECT_EQ(r.records_read(), m);

  // Rewind mid-stream (after a partial read that left the IO buffer
  // half-consumed) and the stream restarts from record 0.
  r.rewind();
  EXPECT_EQ(r.records_read(), 0u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(r.next(e));
  r.rewind();
  std::vector<Edge> again;
  while (r.next(e)) again.push_back(e);
  EXPECT_EQ(again, full);

  // seek_record lands on exact record boundaries; the sorted-order
  // check restarts at the seek target instead of tripping on the
  // unseen predecessor.
  r.seek_record(m / 2);
  EXPECT_EQ(r.records_read(), m / 2);
  std::vector<Edge> tail;
  while (r.next(e)) tail.push_back(e);
  EXPECT_EQ(tail, std::vector<Edge>(full.begin() + m / 2, full.end()));

  // Seeking to m is the empty suffix; past m is an error.
  r.seek_record(m);
  EXPECT_FALSE(r.next(e));
  EXPECT_THROW(r.seek_record(m + 1), ArgumentError);
}

TEST(BGraph, WriterRejectsNonCanonicalRecords) {
  const std::string path = tmp_path("badadd.bg");
  BGraphWriter w(path, 4);
  EXPECT_THROW(w.add(2, 1, 1), ArgumentError);   // u >= v
  EXPECT_THROW(w.add(1, 1, 1), ArgumentError);   // self loop
  EXPECT_THROW(w.add(1, 4, 1), ArgumentError);   // v >= n
  EXPECT_THROW(w.add(1, 2, 0), ArgumentError);   // zero weight
  w.add(1, 2, 1);
  w.close();
}

TEST(BGraph, ShuffleThenSortRestoresCanonicalBytes) {
  const auto g = small_random(11);
  const std::string canon = tmp_path("canon.bg");
  const std::string shuf = tmp_path("shuf.bg");
  const std::string resort = tmp_path("resort.bg");
  write_bgraph(g, canon);
  shuffle_bgraph(canon, shuf, /*seed=*/99);
  EXPECT_NE(slurp(canon), slurp(shuf));  // order (and flags) changed
  expect_same_graph(load_bgraph(shuf), g);
  sort_bgraph(shuf, resort);
  EXPECT_EQ(slurp(canon), slurp(resort));

  // Same shuffle seed -> same bytes; different seed -> different order.
  const std::string shuf2 = tmp_path("shuf2.bg");
  shuffle_bgraph(canon, shuf2, /*seed=*/99);
  EXPECT_EQ(slurp(shuf), slurp(shuf2));
}

TEST(BGraph, SortRejectsDuplicateEdges) {
  const std::string path = tmp_path("dup.bg");
  const std::string sorted = tmp_path("dup_sorted.bg");
  {
    BGraphWriter w(path, 4);
    w.add(2, 3, 5);
    w.add(0, 1, 1);
    w.add(2, 3, 7);  // duplicate pair, different weight
    w.close();
  }
  EXPECT_THROW(sort_bgraph(path, sorted), ArgumentError);
}

// Distinct canonical records on n nodes, in random order with random
// weights: every pair of ids at a power-of-two boundary (2^k - 1, 2^k,
// 2^k + 1, which include every digit boundary of the radix sort's key)
// plus up to `extra` random pairs.
std::vector<Edge> boundary_records(std::uint64_t n, std::size_t extra,
                                   std::uint64_t seed) {
  std::vector<NodeId> ids = {0, static_cast<NodeId>(n - 1)};
  for (std::uint64_t p = 1; p <= n; p *= 2) {
    for (const std::uint64_t id : {p - 1, p, p + 1}) {
      if (id < n) ids.push_back(static_cast<NodeId>(id));
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t a = 0; a < ids.size(); ++a) {
    for (std::size_t b = a + 1; b < ids.size(); ++b) {
      pairs.emplace(ids[a], ids[b]);
    }
  }
  Rng rng(seed);
  const std::uint64_t all_pairs = n * (n - 1) / 2;
  const std::uint64_t want =
      std::min<std::uint64_t>(all_pairs, pairs.size() + extra);
  while (pairs.size() < want) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u != v) pairs.emplace(std::min(u, v), std::max(u, v));
  }
  std::vector<Edge> records;
  for (const auto& [u, v] : pairs) {
    records.push_back(Edge{u, v, static_cast<Weight>(1 + rng.below(1000))});
  }
  rng.shuffle(records);
  return records;
}

void write_records(const std::string& path, std::uint64_t n,
                   const std::vector<Edge>& records) {
  BGraphWriter w(path, n);
  for (const Edge& e : records) w.add(e.u, e.v, e.weight);
  w.close();
}

// The file a std::sort by (u, v) of the same records writes.
std::string std_sorted_bytes(std::uint64_t n, std::vector<Edge> records) {
  std::sort(records.begin(), records.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  });
  const std::string path = tmp_path("std_sorted.bg");
  write_records(path, n, records);
  return slurp(path);
}

TEST(BGraph, SortMatchesStdSortAcrossDigitBoundaries) {
  for (const std::uint64_t n :
       {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{4095},
        std::uint64_t{4096}, std::uint64_t{4097},
        (std::uint64_t{1} << 24) + 3}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const auto records = boundary_records(n, 3000, n);
    const std::string in = tmp_path("digits_in.bg");
    const std::string out = tmp_path("digits_out.bg");
    write_records(in, n, records);
    const BGraphInfo info = sort_bgraph(in, out);
    EXPECT_TRUE(info.sorted);
    EXPECT_EQ(info.m, records.size());
    EXPECT_EQ(slurp(out), std_sorted_bytes(n, records));
  }
}

// Budgets on both sides of each switch: the external path below 16
// bytes per record, std::sort in memory from there, and the radix sort
// from 2 * 16 bytes per record (the records and its scratch copy) all
// write the same bytes.
TEST(BGraph, SortSwitchesPathsWithoutChangingBytes) {
  const std::uint64_t n = 4097;
  const auto records = boundary_records(n, 2000, 9);
  const std::string in = tmp_path("switch_in.bg");
  const std::string out = tmp_path("switch_out.bg");
  write_records(in, n, records);
  const std::string want = std_sorted_bytes(n, records);
  const std::uint64_t one = sizeof(Edge) * records.size();
  const std::uint64_t both = 2 * one;
  for (const std::uint64_t budget :
       {one - 16, one, both - 16, both, both + 16}) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    EXPECT_EQ(sort_bgraph(in, out, budget).m, records.size());
    EXPECT_EQ(slurp(out), want);
    EXPECT_FALSE(std::filesystem::exists(out + ".spill"));
  }
}

// --- out-of-core sort and shuffle (ISSUE 10) --------------------------

TEST(BGraph, ExternalSortByteIdenticalToInMemory) {
  const auto g = small_random(37);
  const std::string canon = tmp_path("ext_canon.bg");
  const std::string shuf = tmp_path("ext_shuf.bg");
  write_bgraph(g, canon);
  shuffle_bgraph(canon, shuf, /*seed=*/5);
  const std::uint64_t m = BGraphReader(canon).info().m;
  ASSERT_GE(m, 64u);

  // Golden: the in-memory fast path (default budget).
  const std::string mem = tmp_path("ext_mem.bg");
  sort_bgraph(shuf, mem);
  EXPECT_EQ(slurp(mem), slurp(canon));

  // Spill-forcing byte budgets, from a handful of runs down to
  // three-record runs (~m/3 spill files — keep the merge fan-in well
  // under the fd limit). Every budget must reproduce the in-memory
  // bytes exactly, and the spill directory must be gone afterwards.
  const std::string ext = tmp_path("ext_out.bg");
  for (const std::uint64_t budget : {std::uint64_t{1024},
                                     std::uint64_t{256},
                                     std::uint64_t{48}}) {
    ASSERT_LT(budget, m * sizeof(Edge)) << "budget must force the spill path";
    const BGraphInfo info = sort_bgraph(shuf, ext, budget);
    EXPECT_TRUE(info.sorted) << "budget=" << budget;
    EXPECT_EQ(info.m, m) << "budget=" << budget;
    EXPECT_EQ(slurp(ext), slurp(canon)) << "budget=" << budget;
    EXPECT_FALSE(std::filesystem::exists(ext + ".spill"))
        << "budget=" << budget;
  }
}

TEST(BGraph, ExternalSortRejectsDuplicatesAndCleansUp) {
  const std::string path = tmp_path("ext_dup.bg");
  const std::string sorted = tmp_path("ext_dup_sorted.bg");
  {
    BGraphWriter w(path, 64);
    for (NodeId v = 1; v < 40; ++v) w.add(0, v, v);
    w.add(5, 9, 1);
    w.add(0, 7, 3);  // duplicate of (0, 7) above, lands in a later run
    w.close();
  }
  // Budget of 10 records per run: the duplicate pair straddles runs and
  // is only adjacent inside the merge, so the merge's dedup check —
  // not the run sort — must fire.
  EXPECT_THROW(sort_bgraph(path, sorted, /*mem_budget_bytes=*/160),
               ArgumentError);
  // Error-path hygiene: no spill directory, no partial output husk.
  EXPECT_FALSE(std::filesystem::exists(sorted + ".spill"));
  EXPECT_FALSE(std::filesystem::exists(sorted));
}

TEST(BGraph, ExternalShuffleDeterministicBoundedAndLossless) {
  const auto g = small_random(41);
  const std::string canon = tmp_path("ext_shuf_canon.bg");
  write_bgraph(g, canon);
  const std::uint64_t m = BGraphReader(canon).info().m;
  const std::uint64_t budget = 512;  // 32-record budget forces buckets
  ASSERT_LT(budget, m * sizeof(Edge));

  const std::string a = tmp_path("ext_shuf_a.bg");
  const std::string b = tmp_path("ext_shuf_b.bg");
  shuffle_bgraph(canon, a, /*seed=*/99, budget);
  shuffle_bgraph(canon, b, /*seed=*/99, budget);
  EXPECT_EQ(slurp(a), slurp(b));  // pure function of (input, seed, budget)
  EXPECT_FALSE(std::filesystem::exists(a + ".spill"));

  shuffle_bgraph(canon, b, /*seed=*/100, budget);
  EXPECT_NE(slurp(a), slurp(b));  // seed changes the permutation

  // Lossless: the scattered-and-reshuffled file holds the same edge
  // set, and re-sorting restores the canonical bytes.
  expect_same_graph(load_bgraph(a), g);
  const std::string resort = tmp_path("ext_shuf_resort.bg");
  sort_bgraph(a, resort);
  EXPECT_EQ(slurp(resort), slurp(canon));
}

// Byte-mutation fuzzing aimed at the external-sort merge path: flip the
// low bit of one byte at a stride across a valid shuffled file and sort
// it with a spill-forcing budget. The stride is coprime to the record
// size, so the sweep hits every lane of the 16-byte record layout: id
// and weight low bytes usually stay in range (the mutant sorts cleanly,
// possibly as a different graph), high bytes and header fields trip
// validation. Every mutant must either sort cleanly or throw
// ArgumentError — never crash, never leave spill temp files behind.
TEST(BGraph, ExternalSortSurvivesByteMutationFuzzing) {
  const auto g = small_random(43);
  const std::string canon = tmp_path("fuzz_canon.bg");
  const std::string shuf = tmp_path("fuzz_shuf.bg");
  write_bgraph(g, canon);
  shuffle_bgraph(canon, shuf, /*seed=*/7);
  const std::string good = slurp(shuf);
  const std::string mutant = tmp_path("fuzz_mutant.bg");
  const std::string out = tmp_path("fuzz_out.bg");
  const std::string in_memory = tmp_path("fuzz_in_memory.bg");

  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < good.size(); i += 13) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    spit(mutant, bad);
    try {
      const BGraphInfo info =
          sort_bgraph(mutant, out, /*mem_budget_bytes=*/1024);
      // Accepted mutants must still produce a well-formed sorted file,
      // and the in-memory sort at the default budget the same bytes.
      EXPECT_TRUE(info.sorted) << "byte " << i;
      EXPECT_TRUE(BGraphReader(out).info().sorted) << "byte " << i;
      sort_bgraph(mutant, in_memory);
      EXPECT_EQ(slurp(in_memory), slurp(out)) << "byte " << i;
      ++accepted;
    } catch (const ArgumentError&) {
      EXPECT_FALSE(std::filesystem::exists(out + ".spill")) << "byte " << i;
      EXPECT_THROW(sort_bgraph(mutant, in_memory), ArgumentError)
          << "byte " << i;
      ++rejected;
    }
    EXPECT_FALSE(std::filesystem::exists(mutant + ".spill")) << "byte " << i;
  }
  // The sweep must exercise both outcomes: header/id corruption is
  // caught, weight-lane bit flips pass through.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(BGraph, SummaryCountsDegreesAndWeights) {
  const std::string path = tmp_path("summary.bg");
  {
    BGraphWriter w(path, 6);  // star around node 0 + one extra edge
    w.add(0, 1, 2);
    w.add(0, 2, 8);
    w.add(0, 3, 2);
    w.add(0, 4, 4);
    w.add(1, 2, 3);
    w.close();
  }
  const BGraphSummary s = summarize_bgraph(path);
  EXPECT_EQ(s.info.m, 5u);
  EXPECT_EQ(s.min_weight, 2u);
  EXPECT_EQ(s.info.max_weight, 8u);
  EXPECT_EQ(s.max_degree, 4u);  // node 0
  EXPECT_EQ(s.isolated, 1u);    // node 5
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0 * 5 / 6);
  ASSERT_GE(s.degree_hist_log2.size(), 3u);
  EXPECT_EQ(s.degree_hist_log2[0], 2u);  // degree 1: nodes 3, 4
  EXPECT_EQ(s.degree_hist_log2[1], 2u);  // degree 2..3: nodes 1, 2
  EXPECT_EQ(s.degree_hist_log2[2], 1u);  // degree 4..7: node 0
}

// --- malformed input rejection (byte offsets in every message) --------

std::string valid_bytes() {
  const auto g = small_random(3);
  const std::string path = tmp_path("valid.bg");
  write_bgraph(g, path);
  return slurp(path);
}

void expect_rejected_mentioning(const std::string& bytes,
                                const std::string& needle) {
  const std::string path = tmp_path("mutant.bg");
  spit(path, bytes);
  try {
    WeightedGraph g = load_bgraph(path);
    FAIL() << "expected ArgumentError mentioning '" << needle << "'";
  } catch (const ArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(BGraph, RejectsCorruptHeaderWithByteOffsets) {
  const std::string good = valid_bytes();

  std::string bad = good;
  bad[0] = 'X';  // magic
  expect_rejected_mentioning(bad, "byte 0");

  bad = good;
  bad[8] = 2;  // version field at offset 8
  expect_rejected_mentioning(bad, "byte 8");

  bad = good;
  bad[16 + 4] = 0x01;  // n at offset 16 pushed past 2^32
  expect_rejected_mentioning(bad, "byte 16");

  bad = good;
  bad[24 + 6] = 0x7f;  // m at offset 24 overflows the payload size
  expect_rejected_mentioning(bad, "byte 24");

  bad = good;
  for (int i = 0; i < 8; ++i) bad[32 + i] = 0;  // max_weight = 0
  expect_rejected_mentioning(bad, "byte 32");
}

// A header max_weight of kInfDist promises weights every distance
// kernel would read as missing edges; the one weight rule rejects it
// in bgraph and bcsr headers alike.
TEST(EdgeWeightRule, BGraphHeaderRejectsInfDist) {
  std::string bad = valid_bytes();
  std::memcpy(&bad[32], &kInfDist, 8);
  expect_rejected_mentioning(bad, "byte 32");
}

TEST(EdgeWeightRule, BcsrHeaderRejectsInfDist) {
  const std::string path = tmp_path("inf_weight.bcsr");
  write_csr(small_random(31).csr(), path);
  std::string bytes = slurp(path);
  std::memcpy(&bytes[32], &kInfDist, 8);
  spit(path, bytes);
  EXPECT_THROW(map_csr(path), ArgumentError);
  EXPECT_THROW(read_csr(path), ArgumentError);
}

TEST(BGraph, RejectsTruncatedAndOversizedFiles) {
  const std::string good = valid_bytes();
  // Too short for even the header.
  expect_rejected_mentioning(good.substr(0, 20), "");
  // One record byte missing / one extra byte appended: the exact-size
  // check fires before any record is produced.
  expect_rejected_mentioning(good.substr(0, good.size() - 1),
                             "overflows the file");
  expect_rejected_mentioning(good + "x", "size mismatch");
}

TEST(BGraph, RejectsCorruptRecordsWithByteOffsets) {
  const std::string good = valid_bytes();
  const auto record_off = [](std::size_t i) {
    return kBGraphHeaderBytes + i * kBGraphRecordBytes;
  };
  const auto offset_str = [&](std::size_t i) {
    return "byte " + std::to_string(record_off(i));
  };

  // Record 2: u = v (equal endpoints).
  std::string bad = good;
  std::copy_n(&good[record_off(2) + 4], 4, &bad[record_off(2)]);
  expect_rejected_mentioning(bad, offset_str(2));

  // Record 0: v >= n.
  bad = good;
  bad[record_off(0) + 4 + 3] = 0x7f;
  expect_rejected_mentioning(bad, offset_str(0));

  // Record 1: weight 0.
  bad = good;
  for (int i = 0; i < 8; ++i) bad[record_off(1) + 8 + i] = 0;
  expect_rejected_mentioning(bad, offset_str(1));

  // Record 3: weight above the header max_weight.
  bad = good;
  bad[record_off(3) + 8 + 6] = 0x7f;
  expect_rejected_mentioning(bad, offset_str(3));
}

// --- streaming CSR build ----------------------------------------------

TEST(BcsrIo, StreamBuildMatchesInMemoryCsr) {
  const auto g = small_random(19);
  const std::string path = tmp_path("stream.bg");
  write_bgraph(g, path);
  const CsrGraph streamed = csr_from_bgraph(path);
  expect_same_csr(streamed, g.csr());
  // And the kernels agree end to end.
  EXPECT_EQ(dijkstra(streamed, 0), dijkstra(g, 0));
  EXPECT_EQ(eccentricities(streamed), eccentricities(g));
}

TEST(BcsrIo, ParallelBuildByteIdenticalAtWorkerCounts) {
  // Unsorted input (shuffled) and sorted input both shard; the place
  // pass writes disjoint slots, so every worker count reproduces the
  // serial build — and hence the serial bcsr bytes — exactly.
  const auto g = small_random(47);
  const std::string canon = tmp_path("par_canon.bg");
  const std::string shuf = tmp_path("par_shuf.bg");
  write_bgraph(g, canon);
  shuffle_bgraph(canon, shuf, /*seed=*/3);

  // Only the canonical file reproduces g.csr()'s adjacency-row order;
  // a shuffled file's rows follow its record order, so there the
  // serial build of the same file is the golden.
  expect_same_csr(csr_from_bgraph(canon), g.csr());
  for (const std::string& input : {canon, shuf}) {
    const CsrGraph serial = csr_from_bgraph(input);
    const std::string golden_path = tmp_path("par_golden.bcsr");
    write_csr(serial, golden_path);
    const std::string golden = slurp(golden_path);
    for (const unsigned workers : {1u, 2u, 8u}) {
      runtime::ThreadPool pool(workers);
      const CsrGraph sharded = csr_from_bgraph(input, &pool);
      expect_same_csr(sharded, serial);
      const std::string got = tmp_path("par_got.bcsr");
      write_csr(sharded, got);
      EXPECT_EQ(slurp(got), golden) << input << " workers=" << workers;
    }
  }
}

TEST(BcsrIo, WriteReadMapAllAgree) {
  const auto g = small_random(23);
  const std::string path = tmp_path("image.bcsr");
  write_csr(g.csr(), path);

  const CsrGraph copied = read_csr(path);
  EXPECT_FALSE(copied.is_mapped());
  expect_same_csr(copied, g.csr());

  const CsrGraph mapped = map_csr(path);
  EXPECT_TRUE(mapped.is_mapped());
  expect_same_csr(mapped, g.csr());
  EXPECT_EQ(dijkstra(mapped, 3), dijkstra(g, 3));
  EXPECT_EQ(bfs_distances(mapped, 3), bfs_distances(g.csr(), 3));

  // Deterministic bytes: writing the same graph twice is bit-identical
  // (padding lanes are zeroed).
  const std::string path2 = tmp_path("image2.bcsr");
  write_csr(g.csr(), path2);
  EXPECT_EQ(slurp(path), slurp(path2));
}

TEST(BcsrIo, MappedCopiesShareAndReweightDetaches) {
  const auto g = small_random(29);
  const std::string path = tmp_path("detach.bcsr");
  write_csr(g.csr(), path);

  const CsrGraph mapped = map_csr(path);
  const CsrGraph share = mapped;  // copy of a mapped graph shares pages
  EXPECT_TRUE(share.is_mapped());
  EXPECT_EQ(share.halves().data(), mapped.halves().data());

  // assign_reweighted must never write through the read-only mapping —
  // both from a mapped base and on the self path.
  CsrGraph target = map_csr(path);
  target.assign_reweighted(target, [](Weight) { return Weight{7}; });
  EXPECT_FALSE(target.is_mapped());
  for (const auto& h : target.halves()) EXPECT_EQ(h.weight, 7u);
  CsrGraph from_base;
  from_base.assign_reweighted(mapped, [](Weight w) { return w + 1; });
  EXPECT_FALSE(from_base.is_mapped());
  // The source mapping is untouched by either path.
  expect_same_csr(mapped, g.csr());
}

TEST(BcsrIo, MapRejectsCorruptOffsets) {
  const auto g = small_random(31);
  const std::string path = tmp_path("corrupt.bcsr");
  write_csr(g.csr(), path);
  std::string bytes = slurp(path);
  // Break monotonicity of the offsets array (first entry after the
  // 48-byte header must be 0).
  bytes[kBGraphHeaderBytes] = 0x05;
  const std::string bad = tmp_path("corrupt2.bcsr");
  spit(bad, bytes);
  EXPECT_THROW(map_csr(bad), ArgumentError);
  EXPECT_THROW(read_csr(bad), ArgumentError);
}

// The half-edge check builds its error text only for a bad half-edge;
// the text must still name the half-edge, its byte and the reason.
TEST(BcsrIo, BadHalfEdgeErrorNamesIndexByteAndReason) {
  const auto g = small_random(53);
  const std::string path = tmp_path("halves.bcsr");
  write_csr(g.csr(), path);
  const std::string good = slurp(path);
  const std::uint64_t n = g.node_count();
  const std::size_t i = 37;
  const std::size_t at = kBGraphHeaderBytes +
                         (n + 1) * sizeof(std::size_t) + i * sizeof(HalfEdge);
  ASSERT_LT(at + sizeof(HalfEdge), good.size());
  const auto with = [&](std::size_t offset, std::uint64_t value,
                        std::size_t width) {
    std::string bytes = good;
    std::memcpy(bytes.data() + at + offset, &value, width);
    return bytes;
  };
  const std::string where =
      "half-edge " + std::to_string(i) + " at byte " + std::to_string(at);
  const struct {
    std::string bytes;
    const char* reason;
  } cases[] = {
      {with(0, n, 4), ": target out of range"},
      {with(8, 0, 8), ": weight outside [1, max_weight]"},
      {with(8, g.max_weight() + 1, 8), ": weight outside [1, max_weight]"},
  };
  const std::string bad = tmp_path("halves_bad.bcsr");
  for (const auto& c : cases) {
    SCOPED_TRACE(c.reason);
    spit(bad, c.bytes);
    for (const bool mapped : {true, false}) {
      try {
        (void)(mapped ? map_csr(bad) : read_csr(bad));
        ADD_FAILURE() << "loaded a bad half-edge, mapped=" << mapped;
      } catch (const ArgumentError& e) {
        EXPECT_NE(std::string(e.what()).find(where + c.reason),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_EQ(map_csr(bad, /*validate_edges=*/false).halves().size(),
              g.csr().halves().size());
  }
}

// --- streaming generators ---------------------------------------------

TEST(StreamingGenerators, SeedDeterministicByteIdenticalFiles) {
  const std::string a = tmp_path("gen_a.bg");
  const std::string b = tmp_path("gen_b.bg");

  gen::rmat_bgraph(a, /*scale=*/10, /*target_edges=*/4096, /*max_w=*/32, 5);
  gen::rmat_bgraph(b, /*scale=*/10, /*target_edges=*/4096, /*max_w=*/32, 5);
  EXPECT_EQ(slurp(a), slurp(b));
  gen::rmat_bgraph(b, 10, 4096, 32, /*seed=*/6);
  EXPECT_NE(slurp(a), slurp(b));

  gen::chung_lu_bgraph(a, /*n=*/1024, /*target_edges=*/4096,
                       /*exponent=*/2.5, /*max_w=*/32, 5);
  gen::chung_lu_bgraph(b, 1024, 4096, 2.5, 32, 5);
  EXPECT_EQ(slurp(a), slurp(b));

  gen::erdos_renyi_bgraph(a, /*n=*/1024, /*p=*/0.01, /*max_w=*/32, 5);
  gen::erdos_renyi_bgraph(b, 1024, 0.01, 32, 5);
  EXPECT_EQ(slurp(a), slurp(b));
}

TEST(StreamingGenerators, OutputsAreCanonicalConnectedAndOnBudget) {
  const std::string path = tmp_path("gen_check.bg");
  const auto check = [&](const BGraphInfo& info, std::uint64_t n,
                         std::uint64_t at_least_m) {
    EXPECT_EQ(info.n, n);
    EXPECT_GE(info.m, at_least_m);  // repair edges may add a few
    // sort_bgraph doubles as the full duplicate-freedom validator.
    const std::string sorted = tmp_path("gen_check_sorted.bg");
    sort_bgraph(path, sorted);
    const WeightedGraph g = load_bgraph(sorted);
    const auto d = bfs_distances(g, 0);
    EXPECT_TRUE(std::none_of(d.begin(), d.end(),
                             [](Dist x) { return x == kInfDist; }))
        << "generator output must be connected";
  };
  check(gen::rmat_bgraph(path, 9, 2048, 16, 77), 512, 2048);
  check(gen::chung_lu_bgraph(path, 700, 2100, 2.3, 16, 77), 700, 2100);
  check(gen::erdos_renyi_bgraph(path, 600, 0.012, 16, 77), 600, 1);

  // RMAT degree skew: the classic parameters concentrate mass on low
  // ids, so the max degree far exceeds the average.
  gen::rmat_bgraph(path, 10, 8192, 16, 3);
  const BGraphSummary s = summarize_bgraph(path);
  EXPECT_GE(s.max_degree, static_cast<std::uint64_t>(4 * s.avg_degree));
}

TEST(StreamingGenerators, GridBgraphIsRoadLikeAndDeterministic) {
  const std::string a = tmp_path("grid_a.bg");
  const std::string b = tmp_path("grid_b.bg");

  const BGraphInfo info =
      gen::grid_bgraph(a, /*rows=*/20, /*cols=*/30, /*diagonal_p=*/0.25,
                       /*max_w=*/9, /*seed=*/5);
  EXPECT_EQ(info.n, 600u);
  EXPECT_TRUE(info.sorted);  // strictly increasing (u, v) emission
  EXPECT_LE(info.max_weight, 9u);
  // Axis edges are always present; diagonals add at most one per cell.
  const std::uint64_t axis = 20u * 29 + 19u * 30;
  EXPECT_GE(info.m, axis);
  EXPECT_LE(info.m, axis + 19u * 29);

  // Seed-deterministic bytes; a different seed moves weights/diagonals.
  gen::grid_bgraph(b, 20, 30, 0.25, 9, 5);
  EXPECT_EQ(slurp(a), slurp(b));
  gen::grid_bgraph(b, 20, 30, 0.25, 9, 6);
  EXPECT_NE(slurp(a), slurp(b));

  // Connected by construction (no repair pass to lean on).
  const WeightedGraph g = load_bgraph(a);
  const auto d = bfs_distances(g, 0);
  EXPECT_TRUE(std::none_of(d.begin(), d.end(),
                           [](Dist x) { return x == kInfDist; }));

  // Degenerate diagonal probabilities pin the edge count exactly.
  EXPECT_EQ(gen::grid_bgraph(a, 4, 5, 0.0, 3, 1).m, 4u * 4 + 3u * 5);
  EXPECT_EQ(gen::grid_bgraph(a, 4, 5, 1.0, 3, 1).m,
            4u * 4 + 3u * 5 + 3u * 4);

  // A 1 x k grid degenerates to a weighted path (D = n - 1 hops).
  const BGraphInfo path_info = gen::grid_bgraph(a, 1, 8, 0.5, 4, 2);
  EXPECT_EQ(path_info.n, 8u);
  EXPECT_EQ(path_info.m, 7u);

  EXPECT_THROW(gen::grid_bgraph(a, 0, 5, 0.1, 3, 1), ArgumentError);
  EXPECT_THROW(gen::grid_bgraph(a, 1, 1, 0.1, 3, 1), ArgumentError);
  EXPECT_THROW(gen::grid_bgraph(a, 4, 5, -0.1, 3, 1), ArgumentError);
  EXPECT_THROW(gen::grid_bgraph(a, 4, 5, 1.5, 3, 1), ArgumentError);
  EXPECT_THROW(gen::grid_bgraph(a, 4, 5, 0.1, 0, 1), ArgumentError);
}

TEST(StreamingGenerators, RejectsInfeasibleParameters) {
  const std::string path = tmp_path("gen_bad.bg");
  // Target above the simple-graph ceiling n(n-1)/2.
  EXPECT_THROW(gen::rmat_bgraph(path, 3, 100, 8, 1), ArgumentError);
  EXPECT_THROW(gen::chung_lu_bgraph(path, 8, 100, 2.5, 8, 1),
               ArgumentError);
  EXPECT_THROW(gen::chung_lu_bgraph(path, 8, 4, /*exponent=*/1.5, 8, 1),
               ArgumentError);
  EXPECT_THROW(gen::erdos_renyi_bgraph(path, 8, 1.5, 8, 1), ArgumentError);
  EXPECT_THROW(gen::erdos_renyi_bgraph(path, 8, 0.5, /*max_w=*/0, 1),
               ArgumentError);
}

// --- the large-n determinism contract (ISSUE 8 acceptance) ------------

// Shared n = 10^5 dataset for the worker-identity tests below: RMAT
// scale 17 (131072 nodes) streamed to disk once, then CSR-built.
class LargeN : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Every ctest process regenerates this suite-shared dataset under
    // its own pid-suffixed tmp_path.
    path_ = new std::string(tmp_path("large_n.bg"));
    info_ = new BGraphInfo(
        gen::rmat_bgraph(*path_, /*scale=*/17, /*target_edges=*/400000,
                         /*max_w=*/100, /*seed=*/20260808));
    csr_ = new CsrGraph(csr_from_bgraph(*path_));
  }
  static void TearDownTestSuite() {
    delete csr_;
    csr_ = nullptr;
    delete info_;
    info_ = nullptr;
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
  }

  static std::string* path_;
  static BGraphInfo* info_;
  static CsrGraph* csr_;
};

std::string* LargeN::path_ = nullptr;
BGraphInfo* LargeN::info_ = nullptr;
CsrGraph* LargeN::csr_ = nullptr;

TEST_F(LargeN, SampledEccentricitiesByteIdenticalAtWorkerCounts) {
  ASSERT_GE(csr_->node_count(), 100000u);
  // 32 sample sources spread across the id space (RMAT skew means they
  // cover wildly different degrees).
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < csr_->node_count();
       s += csr_->node_count() / 32) {
    sources.push_back(s);
  }
  runtime::ThreadPool one(1);
  const auto golden = eccentricities(*csr_, std::span(sources), &one);
  ASSERT_EQ(golden.size(), sources.size());
  // Connected dataset: every sampled eccentricity is finite.
  EXPECT_TRUE(std::none_of(golden.begin(), golden.end(),
                           [](Dist d) { return d == kInfDist; }));
  for (const unsigned workers : {2u, 8u}) {
    runtime::ThreadPool pool(workers);
    EXPECT_EQ(eccentricities(*csr_, std::span(sources), &pool), golden)
        << "workers=" << workers;
  }
}

TEST_F(LargeN, ParallelCsrBuildByteIdenticalAtScale) {
  // 400k records over up-to-16 shards: the per-shard degree reduce and
  // precomputed place cursors must reproduce the serial CSR exactly.
  for (const unsigned workers : {2u, 8u}) {
    runtime::ThreadPool pool(workers);
    expect_same_csr(csr_from_bgraph(*path_, &pool), *csr_);
  }
}

TEST_F(LargeN, ExternalSortMatchesInMemoryAtScale) {
  // 6.4 MB of records against a 1 MiB budget: seven spill runs through
  // the loser-tree merge, byte-identical to the one-shot sort.
  const std::string mem = tmp_path("large_mem.bg");
  const std::string ext = tmp_path("large_ext.bg");
  sort_bgraph(*path_, mem);
  sort_bgraph(*path_, ext, /*mem_budget_bytes=*/std::uint64_t{1} << 20);
  EXPECT_EQ(slurp(mem), slurp(ext));
  std::remove(mem.c_str());
  std::remove(ext.c_str());
}

// Hop-level flood from a root: each node adopts 1 + the minimum level
// in its first non-empty inbox (synchronous rounds make that the exact
// BFS distance), re-broadcasts once, and goes quiet.
class BfsFloodProgram final : public NodeProgram {
 public:
  explicit BfsFloodProgram(NodeId root) : root_(root) {}
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == root_) {
      level_ = 0;
      Message m;
      m.push(0, 32);
      ctx.broadcast(m);
      sent_ = true;
    }
  }
  void on_round(NodeContext& ctx,
                std::span<const Incoming> inbox) override {
    if (level_ != kInfDist || inbox.empty()) return;
    Dist best = kInfDist;
    for (const Incoming& in : inbox) {
      best = std::min(best, static_cast<Dist>(in.msg.field(0)) + 1);
    }
    level_ = best;
    Message m;
    m.push(level_, 32);
    ctx.broadcast(m);
    sent_ = true;
  }
  bool done() const override { return sent_; }
  Dist level() const { return level_; }

 private:
  NodeId root_ = 0;
  Dist level_ = kInfDist;
  bool sent_ = false;
};

// A BFS flood over the full 10^5-node graph through the sharded merge:
// stats, per-round metrics, and program outputs byte-identical at
// workers 1/2/8. (The trace is left off — recording 10^5 nodes' sends
// would swamp the test — the ledger digest inside RunStats still pins
// every message byte.)
struct FloodCapture {
  RunStats stats;
  std::vector<RoundMetrics> metrics;
  std::vector<Dist> hops;
  friend bool operator==(const FloodCapture&, const FloodCapture&) = default;
};

TEST_F(LargeN, ShardedMergeSimulatorByteIdenticalAtWorkerCounts) {
  const WeightedGraph g = load_bgraph(*path_);
  ASSERT_GE(g.node_count(), 100000u);

  const auto run = [&](unsigned workers) {
    Config cfg;
    cfg.execution.workers = workers;
    cfg.execution.pooled_round_min_work = 0;  // force sharded path
    FloodCapture cap;
    cfg.hooks.on_round_metrics = [&](const RoundMetrics& rm) {
      cap.metrics.push_back(rm);
    };
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      programs.push_back(std::make_unique<BfsFloodProgram>(/*root=*/0));
    }
    Simulator sim(g, cfg);
    cap.stats = sim.run(programs);
    cap.hops.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      cap.hops.push_back(
          static_cast<const BfsFloodProgram&>(*programs[v]).level());
    }
    return cap;
  };

  const FloodCapture golden = run(1);
  EXPECT_EQ(golden.hops, bfs_distances(g, 0));
  for (const unsigned workers : {2u, 8u}) {
    EXPECT_EQ(run(workers), golden) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace qc
