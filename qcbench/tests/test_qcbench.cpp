// Tests of the benchmark's own arithmetic and bookkeeping.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace qcbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(nearest_rank(100, 0.5), 50u);
  EXPECT_EQ(nearest_rank(100, 0.99), 99u);
  EXPECT_EQ(nearest_rank(101, 0.5), 51u);
  EXPECT_EQ(nearest_rank(5, 0.01), 1u);
  EXPECT_DOUBLE_EQ(*percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(*percentile(v, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile_supported(999, 0.99));  // rank 990, 9 beyond
  EXPECT_TRUE(percentile_supported(1000, 0.99));  // rank 990, 10 beyond
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(0, 0.5));
  std::vector<double> v(999, 1.0);
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  EXPECT_TRUE(percentile(v, 0.99, false).has_value());
  v.push_back(2.0);
  EXPECT_DOUBLE_EQ(*percentile(v, 0.99), 1.0);
  EXPECT_FALSE(percentile({}, 0.5, false).has_value());
}

std::vector<ServedGraph> two_graphs() {
  std::vector<ServedGraph> g(2);
  g[0] = {"er", 50, {{0, 1}}, false};
  g[1] = {"grid", 40, {{0, 1}, {1, 2}, {2, 3}}, true};
  return g;
}

TEST(Schedule, SameSeedSameStream) {
  const auto graphs = two_graphs();
  const Mix mix;
  const auto a = make_schedule(7, 100, 0.25, 2.0, 150, graphs, mix, 1);
  const auto b = make_schedule(7, 100, 0.25, 2.0, 150, graphs, mix, 1);
  ASSERT_EQ(a.size(), b.size());
  std::size_t updates = 0, reads = 0;
  double last_update = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    const auto& x = a[i].query;
    const auto& y = b[i].query;
    EXPECT_EQ(x.id, i + 1);
    EXPECT_TRUE(x.id == y.id && x.graph == y.graph && x.type == y.type &&
                x.node == y.node && x.target == y.target && x.op == y.op &&
                x.weight == y.weight);
    if (x.type == "update") {
      ++updates;
      EXPECT_EQ(x.graph, "grid");  // only graphs that take updates
      EXPECT_EQ(x.op, "reweight");
      EXPECT_EQ(x.weight, 1u);
      EXPECT_EQ(x.target, x.node + 1);  // one of grid's edges
      if (updates > 1) {
        EXPECT_NEAR(a[i].at_s - last_update, 0.25, 1e-9);  // fixed cadence
      }
      last_update = a[i].at_s;
    } else {
      ++reads;
    }
    if (i > 0) {
      EXPECT_GE(a[i].at_s, a[i - 1].at_s);
    }
  }
  EXPECT_EQ(updates, 8u);  // floor(2.0 s / 0.25 s), whatever the seed
  EXPECT_GE(reads, 150u);
  EXPECT_GE(a.back().at_s, 2.0);

  const auto c = make_schedule(8, 100, 0.25, 2.0, 150, graphs, mix, 1);
  std::size_t c_updates = 0;
  for (const Request& r : c) c_updates += r.is_read() ? 0 : 1;
  EXPECT_EQ(c_updates, 8u);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_s != c[i].at_s || a[i].query.type != c[i].query.type;
  }
  EXPECT_TRUE(differs);
}

TEST(Failures, WrongAnswerAndAdmissionErrorCountOnce) {
  qc::service::QueryResult ref;
  ref.ok = true;
  ref.value = 42;

  Response good;
  good.result = ref;
  Response wrong = good;
  wrong.result.value = 41;
  Response refused;
  refused.refused = true;

  FailureLedger ledger;
  ledger.record(response_correct(good, ref));
  ledger.record(response_correct(wrong, ref), "wrong");
  ledger.record(response_correct(refused, ref), "refused");
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 2u);

  FailureLedger run;
  run.run("ok", [] { return true; });
  run.run("wrong", [] { return false; });
  run.run("admission", []() -> bool {
    throw qc::service::AdmissionError("engine saturated");
  });
  run.run("other", []() -> bool { throw std::runtime_error("boom"); });
  EXPECT_EQ(run.attempted(), 4u);
  EXPECT_EQ(run.failed(), 3u);
  ASSERT_EQ(run.notes().size(), 3u);
  EXPECT_NE(run.notes()[1].find("engine saturated"), std::string::npos);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, double a, double b) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = "x.y";
  s.start_s = a;
  s.end_s = b;
  return s;
}

TEST(Trace, SelfTimeSubtractsCoveredChildTime) {
  // Root [0, 10]; children [1, 3] and [2, 5] overlap (cover [1, 5]) and
  // [8, 12] sticks out of the root (only [8, 10] counts). Grandchild
  // [1.5, 2] is charged to its own parent only.
  const std::vector<SpanRecord> spans = {
      span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 2, 5),
      span(4, 1, 8, 12), span(5, 2, 1.5, 2),
  };
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 4 - 2);
  EXPECT_DOUBLE_EQ(self[1], 2 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 4);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  EXPECT_EQ(layer_of("paths.alg3"), "paths");
  EXPECT_EQ(layer_of("bench"), "bench");
}

TEST(Trace, NestedSpansRecordParentsAndLayers) {
  Tracer t(true);
  {
    auto outer = t.span("core.call", 7);
    { auto inner = t.span("paths.alg3", 7); }
  }
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "paths.alg3");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[0].op, 7u);
  const auto layers = t.self_seconds_by_layer();
  EXPECT_EQ(layers.size(), 2u);
  EXPECT_GE(layers.at("core"), 0.0);

  Tracer off(false);
  { auto s = off.span("core.call"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace qcbench
