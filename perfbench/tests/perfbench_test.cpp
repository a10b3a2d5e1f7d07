// Unit tests of the benchmark's own arithmetic: tail-percentile selection,
// span self time, open-loop due-time and lateness accounting, backlog-growth
// detection, and fail_frac counting.  Wrong results are injected only into
// the checkers' test inputs, never into the program.
#include <gtest/gtest.h>

#include <random>

#include "checks.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i + 1);
  }
  return v;
}

// --- tail percentile selection ---------------------------------------------

TEST(Tail, NearestRankPercentile) {
  const auto v = iota(100); // 1..100
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(median(iota(4)), 2.5);
}

TEST(Tail, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_TRUE(tail_supported(100, 90.0));
  EXPECT_FALSE(tail_supported(99, 90.0));
  EXPECT_TRUE(tail_supported(1000, 99.0));
  EXPECT_FALSE(tail_supported(999, 99.0));
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(150), 90.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
}

TEST(Tail, SupportedPercentileAlwaysLeavesTenBeyond) {
  for (std::size_t n = 20; n < 3000; n += 7) {
    const double q = highest_supported_percentile(n);
    ASSERT_GT(q, 0.0) << n;
    const auto v = iota(n);
    const double p = percentile(v, q);
    std::size_t beyond = 0;
    for (const double x : v) {
      beyond += x > p ? 1 : 0;
    }
    EXPECT_GE(beyond, 10u) << "n=" << n << " q=" << q;
  }
}

TEST(Tail, MedianOverWindowsIgnoresOneSlowStretch) {
  EXPECT_EQ(window_count(99, 20), 4u);
  EXPECT_EQ(window_count(10000, 20), 5u);
  EXPECT_EQ(window_count(5, 20), 1u);
  std::vector<double> v(100, 1.0);
  for (std::size_t i = 40; i < 60; ++i) {
    v[i] = 50.0; // a burst of outside load slows one window
  }
  const auto med = [](const std::vector<double>& w) { return median(w); };
  EXPECT_EQ(median_of_windows(v, 5, med), 1.0);
  EXPECT_EQ(median_of_windows(iota(10), 1, med), 5.5);
}

// --- self time ---------------------------------------------------------------

span_rec span(const char* name, std::uint64_t t0, std::uint64_t t1,
              std::int64_t parent) {
  return span_rec{name, t0, t1, parent, 0, 1};
}

TEST(SelfTime, ChildrenSubtractOnce) {
  // parent [0,100) with children [10,30) and [20,50) (overlapping, e.g. on
  // two threads) and [90,120) (clipped at the parent's end).
  const std::vector<span_rec> s = {
      span("op", 0, 100, -1), span("a", 10, 30, 0), span("b", 20, 50, 0),
      span("c", 90, 120, 0), span("d", 12, 14, 1)};
  const auto self = self_times_ns(s);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(SelfTime, UnionOfIntervals) {
  EXPECT_DOUBLE_EQ(covered_ns({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25.0);
  EXPECT_DOUBLE_EQ(covered_ns({{0, 10}, {5, 15}, {20, 30}}, 8, 25), 12.0);
  EXPECT_DOUBLE_EQ(covered_ns({}, 0, 10), 0.0);
}

TEST(SelfTime, SummaryAndTraceJson) {
  const std::vector<span_rec> s = {span("op", 0, 4000, -1),
                                   span("cg_solve", 1000, 3000, 0)};
  const auto rows = summarize(s);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].self_us, 2.0);
  EXPECT_DOUBLE_EQ(rows[1].self_us, 2.0);
  const std::string js = chrome_trace_json(s);
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(js.find("\"parent\":0"), std::string::npos);
}

TEST(SelfTime, RecorderNestsSpansPerThread) {
  tracer t;
  t.enable(true);
  {
    const tracer::scope outer(t, "outer", 7);
    const tracer::scope inner(t, "inner", 7);
  }
  const auto s = t.spans();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[1].op, 7u);
  EXPECT_LE(s[0].t0, s[1].t0);
  EXPECT_GE(s[0].t1, s[1].t1);
}

// --- open-loop accounting ----------------------------------------------------

TEST(OpenLoop, LatencyRunsFromDueTime) {
  // Due at 1.000 s, sent 2 ms late, done at 1.010 s: the 2 ms the generator
  // lost still count against the job.
  const job_times j{1.000, 1.002, 1.010};
  EXPECT_NEAR(latency_ms(j), 10.0, 1e-9);
  EXPECT_NEAR(lateness_ms(j), 2.0, 1e-9);
  EXPECT_EQ(lateness_ms({1.0, 0.999, 1.01}), 0.0);
  EXPECT_LT(latency_ms({1.0, 1.0, -1.0}), 0.0); // never completed
}

TEST(OpenLoop, ArrivalsAreSeededSortedAndCounted) {
  std::mt19937_64 a(42), b(42), c(43);
  const auto x = poisson_arrivals(a, 500.0, 2.0);
  EXPECT_EQ(x.size(), 1000u);
  EXPECT_EQ(x, poisson_arrivals(b, 500.0, 2.0));
  EXPECT_NE(x, poisson_arrivals(c, 500.0, 2.0));
  EXPECT_TRUE(std::is_sorted(x.begin(), x.end()));
  EXPECT_GE(x.front(), 0.0);
  EXPECT_LT(x.back(), 2.0);
}

TEST(OpenLoop, StableBacklogIsNotGrowing) {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<int> noise(0, 4);
  std::vector<backlog_sample> s;
  for (int i = 0; i < 2000; ++i) {
    s.push_back({i * 0.001, static_cast<double>(noise(rng))});
  }
  const auto v = backlog_growth(s);
  EXPECT_FALSE(v.growing) << v.growth;
  EXPECT_EQ(v.max, 4.0);
}

TEST(OpenLoop, OverloadBacklogIsGrowing) {
  // Arrivals outpace service by 100 jobs/s for 2 s.
  std::vector<backlog_sample> s;
  for (int i = 0; i < 2000; ++i) {
    s.push_back({i * 0.001, 2.0 + 100.0 * i * 0.001 + (i % 3)});
  }
  const auto v = backlog_growth(s);
  EXPECT_TRUE(v.growing);
  EXPECT_NEAR(v.slope_per_s, 100.0, 1.0);
  EXPECT_NEAR(v.growth, 200.0, 3.0);
}

TEST(OpenLoop, SmallDriftBelowFloorIsNotGrowing) {
  std::vector<backlog_sample> s;
  for (int i = 0; i < 100; ++i) {
    s.push_back({i * 0.01, 1.0 + 0.05 * i}); // +5 jobs over the phase
  }
  EXPECT_FALSE(backlog_growth(s).growing);
}

// --- checks and fail_frac ----------------------------------------------------

TEST(Checks, InjectedWrongResultCountsInFailFrac) {
  const std::vector<double> truth = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> wrong = truth;
  wrong[2] = 3.5; // the deliberately wrong result, in the test input only
  check_tally t;
  std::string why;
  for (int i = 0; i < 3; ++i) {
    t.record(check_cg(true, truth, truth, 1e-12, &why), "ok");
  }
  t.record(check_cg(true, wrong, truth, 1e-12, &why), why);
  EXPECT_EQ(t.attempted(), 4u);
  EXPECT_EQ(t.failed(), 1u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.25);
  ASSERT_EQ(t.messages().size(), 1u);
  EXPECT_NE(t.messages()[0].find("max error"), std::string::npos);
}

TEST(Checks, NonConvergedAndNaNFail) {
  const std::vector<double> truth = {1.0, 2.0};
  std::string why;
  EXPECT_FALSE(check_cg(false, truth, truth, 1.0, &why));
  EXPECT_EQ(why, "cg did not converge");
  const std::vector<double> nan = {1.0, std::nan("")};
  EXPECT_FALSE(check_cg(true, nan, truth, 1.0, &why));
  const std::vector<double> short_x = {1.0};
  EXPECT_FALSE(check_cg(true, short_x, truth, 1.0, &why)); // size mismatch
}

TEST(Checks, BitwiseEqualityIsExact) {
  const std::vector<double> a = {1.0, 0.1 + 0.2};
  std::vector<double> b = a;
  EXPECT_TRUE(bitwise_equal(a, b));
  b[1] = std::nextafter(b[1], 1.0);
  EXPECT_FALSE(bitwise_equal(a, b));
  EXPECT_FALSE(bitwise_equal(0.0, -0.0));
}

TEST(Checks, MirrorSymmetryAndMassDrift) {
  const std::size_t n = 5;
  std::vector<double> f(n * n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      const double dx = static_cast<double>(x) - 2.0;
      const double dy = static_cast<double>(y) - 2.0;
      f[x * n + y] = 1.0 + dx * dx + dy * dy;
    }
  }
  EXPECT_EQ(max_asymmetry(f, n), 0.0);
  f[0 * n + 1] += 0.9; // breaks the diagonal and both mirrors
  EXPECT_GT(max_asymmetry(f, n), 0.05);
  EXPECT_DOUBLE_EQ(rel_drift(101.0, 100.0), 0.01);
}

TEST(Checks, FailCountsBatchOfOps) {
  check_tally t;
  t.attempt(10);
  t.fail("mass drift", 10); // a failed conservation check voids its batch
  EXPECT_DOUBLE_EQ(t.fail_frac(), 1.0);
}

} // namespace
} // namespace perfbench
