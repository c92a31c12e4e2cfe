// Self-tests of the benchmark harness's own measurement code: the tail
// percentile rule, open-loop due-time latency, span self time and the
// metric catalogue. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // n, n-1, ..., 1 (unsorted on purpose)
}

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_percentile(iota_samples(999), 99.0).has_value());
  const auto p99 = tail_percentile(iota_samples(1000), 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);  // ranks 991..1000 lie beyond: exactly ten
  EXPECT_FALSE(tail_percentile(iota_samples(19), 50.0).has_value());
  EXPECT_EQ(*tail_percentile(iota_samples(20), 50.0), 10.0);
  EXPECT_THROW(best_window_ms(iota_samples(999), 99.0, 1), std::runtime_error);
  EXPECT_EQ(best_window_ms(iota_samples(1000), 99.0, 1), 990.0 * 1e3);
}

TEST(TailPercentile, BestWindowSkipsDisturbedWindows) {
  // 5000 samples in five windows of 1000: a neighbour slows windows 0-3,
  // window 4 is quiet. The quiet window's p99 is reported.
  std::vector<double> samples(5000, 2.0);
  for (std::size_t i = 4000; i < 5000; ++i) samples[i] = 1.0;
  for (std::size_t i = 0; i < 4000; i += 50) samples[i] = 9.0;
  EXPECT_EQ(best_window_ms(samples, 99.0, 16), 1.0 * 1e3);
  EXPECT_EQ(best_window_ms(samples, 50.0, 16), 1.0 * 1e3);
  // One window: the whole run, disturbances included.
  EXPECT_EQ(best_window_ms(samples, 99.0, 1), 9.0 * 1e3);
  // Windows never hold fewer samples than the percentile needs: with 1999
  // samples p99 gets one window even when more are allowed.
  const std::vector<double> short_run(samples.begin(), samples.begin() + 1999);
  EXPECT_EQ(best_window_ms(short_run, 99.0, 16), 9.0 * 1e3);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

// A synchronous system that stalls 50 ms on one input: every input due
// during the stall must show the wait in its due-time latency, because
// the generator's schedule is not re-based after it falls behind.
TEST(OpenLoop, InjectedStallRaisesLaterLatency) {
  constexpr std::size_t kN = 40, kStall = 10;
  constexpr double kPeriod = 0.005;
  const double t0 = now_s() + 0.01;
  std::vector<double> due(kN);
  for (std::size_t i = 0; i < kN; ++i) due[i] = t0 + i * kPeriod;
  std::vector<double> done(kN, -1.0);
  const std::vector<double> late = run_open_loop(due, [&](std::size_t i) {
    if (i == kStall) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done[i] = now_s();
  });
  const std::vector<double> lat = due_latencies(due, done);
  ASSERT_EQ(lat.size(), kN);
  EXPECT_GE(lat[kStall], 0.050);
  // Inputs due 5, 10 and 15 ms after the stalled one waited behind it.
  EXPECT_GE(lat[kStall + 1], 0.040);
  EXPECT_GE(lat[kStall + 2], 0.035);
  EXPECT_GE(lat[kStall + 3], 0.030);
  EXPECT_GE(late[kStall + 1], 0.040);
  // Well before the stall, inputs went out on time.
  EXPECT_LT(lat[kStall - 5], lat[kStall + 1]);
  // Undelivered inputs are left out, not counted as zero latency.
  done[3] = -1.0;
  EXPECT_EQ(due_latencies(due, done).size(), kN - 1);
}

Span make_span(std::uint32_t id, std::uint32_t parent, double a, double b) {
  Span s;
  s.name = parent == 0 ? "layer.parent" : "layer.child";
  s.id = id;
  s.parent = parent;
  s.start = a;
  s.end = b;
  return s;
}

TEST(SelfTime, SubtractsUnionOfChildrenClippedToParent) {
  const Span parent = make_span(1, 0, 0.0, 10.0);
  // [1,3] and [2,5] overlap (union 4), [8,12] is clipped to [8,10] (2).
  const std::vector<Span> kids = {make_span(2, 1, 1.0, 3.0),
                                  make_span(3, 1, 2.0, 5.0),
                                  make_span(4, 1, 8.0, 12.0)};
  EXPECT_DOUBLE_EQ(self_time(parent, kids), 4.0);
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 10.0);

  std::vector<Span> all = kids;
  all.push_back(parent);
  const std::vector<double> self = self_times(all);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[0], 2.0);  // a leaf's self time is its duration
  const std::vector<double> sums =
      child_sums(all, "layer.parent", "layer.child");
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_DOUBLE_EQ(sums[0], 2.0 + 3.0 + 4.0);
}

TEST(SelfTime, TracerNestsScopesAndWritesChromeJson) {
  Tracer tracer(true);
  {
    const Tracer::Scope outer(tracer, "layer.outer", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Tracer::Scope inner(tracer, "layer.inner", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.req, 7u);
  const std::vector<double> self = self_times(spans);
  EXPECT_NEAR(self[1], outer.duration() - inner.duration(), 1e-12);
  EXPECT_EQ(durations(spans, "layer.inner", true).size(), 0u);

  Tracer off(false);
  { const Tracer::Scope s(off, "layer.off"); }
  EXPECT_TRUE(off.spans().empty());

  const std::string path = testing::TempDir() + "perfbench_trace.json";
  tracer.write_chrome(path);
  std::ifstream is(path);
  std::stringstream text;
  text << is.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\":\"layer.inner\""), std::string::npos);
  EXPECT_NE(text.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Catalogue, NamesMatchPatternAndAreUnique) {
  const std::regex pattern("[A-Za-z0-9_.-]+");
  std::set<std::string> seen;
  const auto check = [&](const std::string& name) {
    EXPECT_TRUE(std::regex_match(name, pattern)) << name;
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_LE(name.size(), 64u) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
  };
  for (const std::string& w : workload_names()) check(w);
  for (const MetricDef& d : end_to_end_metrics()) check(d.name);
  for (const MetricDef& d : end_to_end_ungated_metrics()) check(d.name);
  for (const MetricDef& d : per_layer_metrics()) {
    check(d.name);
    // Per-layer metrics are <module>.<metric>.
    EXPECT_NE(std::string(d.name).find('.'), std::string::npos) << d.name;
  }
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name(""));
}

TEST(Catalogue, SetupMetricIsPresent) {
  bool found = false;
  for (const MetricDef& d : end_to_end_metrics())
    if (std::string(d.name) == "setup_s") {
      found = true;
      EXPECT_STREQ(d.unit, "s");
      EXPECT_STREQ(d.better, "lower");
    }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace perfbench
