// Self-tests of the benchmark's measurement rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "harness.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

}  // namespace

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  // 1000 samples: the nearest-rank p99 is the 990th, with 10 beyond it.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  ASSERT_TRUE(supported_percentile(ramp(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*supported_percentile(ramp(1000), 0.99), 990.0);
  // 999 samples leave only 9 beyond: not reported.
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(supported_percentile(ramp(999), 0.99).has_value());
  EXPECT_FALSE(supported_percentile({}, 0.5).has_value());
}

TEST(Percentile, TailFallsBackToTheHighestSupportedPercentile) {
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(2000), 0.99), 1980.0);
  // 40 samples support no p99; the sample with ten above it is the 30th.
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(40), 0.99), 30.0);
  // Too few for any tail: the median.
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(5), 0.99), 3.0);
}

TEST(Percentile, MedianAndNearestRankIgnoreInputOrder) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1.0), 5.0);
}

TEST(Percentile, WindowedMedianIgnoresOneStalledWindow) {
  std::vector<std::vector<double>> windows(5, ramp(1000));
  for (double& v : windows[2]) v += 1000.0;  // a stall shifts one window
  ASSERT_TRUE(windowed_percentile(windows, 0.99).has_value());
  EXPECT_DOUBLE_EQ(*windowed_percentile(windows, 0.99), 990.0);
  // Windows too small to support a p99 do not count.
  windows = {ramp(1000), ramp(1000), ramp(500)};
  EXPECT_FALSE(windowed_percentile(windows, 0.99).has_value());
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = poisson_schedule(5000.0, 2.0, 42);
  const auto b = poisson_schedule(5000.0, 2.0, 42);
  const auto c = poisson_schedule(5000.0, 2.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  // 10 000 expected arrivals: within 5 standard deviations (~500).
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  EXPECT_THROW(poisson_schedule(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Ladder, BracketThenClimbToTheKnee) {
  RateLadder ladder(1000.0, 1.05);
  // Bracket: 1000 and 2000 pass, 4000 fails.
  ladder.record(true);
  EXPECT_DOUBLE_EQ(ladder.current(), 2000.0);
  ladder.record(true);
  EXPECT_DOUBLE_EQ(ladder.current(), 4000.0);
  ladder.record(false);
  EXPECT_FALSE(ladder.done());  // the bracket's failure does not count
  // Climb from the last passing bracket rate in 5 % steps: pass, one
  // noisy failure, pass, then two failures end it.
  EXPECT_DOUBLE_EQ(ladder.current(), 2100.0);
  const bool verdicts[] = {true, false, true, false, false};
  for (bool v : verdicts) {
    ASSERT_FALSE(ladder.done());
    ladder.record(v);
  }
  EXPECT_TRUE(ladder.done());
  EXPECT_EQ(ladder.rungs(), 8u);
  EXPECT_NEAR(ladder.knee(), 2000.0 * 1.05 * 1.05 * 1.05, 1e-9);
}

TEST(Ladder, FailingStartClimbsFromHalfTheStart) {
  RateLadder ladder(1000.0, 1.05);
  ladder.record(false);
  EXPECT_DOUBLE_EQ(ladder.current(), 525.0);
  ladder.record(false);
  ladder.record(false);
  EXPECT_TRUE(ladder.done());
  EXPECT_EQ(ladder.knee(), 0.0);
}

TEST(Ladder, StepsAreAtMostTenPercent) {
  EXPECT_THROW(RateLadder(1000.0, 1.11), std::invalid_argument);
  EXPECT_THROW(RateLadder(1000.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(RateLadder(1000.0, 1.10));
}

TEST(Accounting, EveryRequestLandsInOneBucket) {
  // The generator sent 100 and saw 4 refused; the server served 90 and
  // shed 2. The ledger got 90 results and 4 rejections, so 6 are pending:
  // 2 of them shed, 4 lost under the watchdog.
  const Tally t = tally(100, 90, 4, 2, 6, 0);
  EXPECT_TRUE(t.balanced);
  EXPECT_EQ(t.shed, 2u);
  EXPECT_EQ(t.unanswered, 4u);
  EXPECT_EQ(t.failed(), 10u);
  EXPECT_EQ(t.attempted, t.served + t.rejected + t.shed + t.unanswered);
  EXPECT_TRUE(tally(100, 96, 4, 0, 0, 0).balanced);
}

TEST(Accounting, ImbalanceIsDetected) {
  // The server served 91 but one result never reached the ledger, which
  // holds 90 results and 4 rejections: 6 pending, 2 shed.
  EXPECT_FALSE(tally(100, 91, 4, 2, 6, 0).balanced);
  // The ledger holds a request the generator never submitted: 101 slots,
  // 90 results, 4 rejections, so 7 pending against the server's 2 shed.
  EXPECT_FALSE(tally(100, 90, 4, 2, 7, 0).balanced);
  // A result answered twice.
  EXPECT_FALSE(tally(100, 90, 4, 2, 6, 1).balanced);
  // The server reports more shed than the ledger has pending.
  EXPECT_FALSE(tally(100, 90, 4, 7, 6, 0).balanced);
}

TEST(ResultLine, HasExactlyTheResultKeys) {
  Metrics m;
  m["p50_ms"] = {0.125, "ms"};
  m["setup_s"] = {1.0 / 3.0, "s"};
  const std::string line = result_json(true, 7, 0, m);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": "
            "{\"p50_ms\": {\"value\": 0.125, \"unit\": \"ms\"}, \"setup_s\": "
            "{\"value\": 0.33333333333333331, \"unit\": \"s\"}}}");
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] sticks out
  // of the parent: covered = [1, 5] + [8, 10] = 6, self = 4.
  std::vector<Span> spans{
      {"p", 0, 10, 1, 0, 0, 1},
      {"a", 1, 3, 2, 1, 0, 1},
      {"b", 2, 5, 3, 1, 0, 1},
      {"c", 8, 12, 4, 1, 0, 1},
  };
  const auto self = self_times_s(spans);
  EXPECT_DOUBLE_EQ(self.at(1), 4e-9);
  EXPECT_DOUBLE_EQ(self.at(2), 2e-9);
  EXPECT_DOUBLE_EQ(self.at(4), 4e-9);
}

TEST(Trace, ScopesNestAndDisabledTracerRecordsNothing) {
  Tracer off(false);
  { Tracer::Scope s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    Tracer::Scope outer(on, "outer");
    Tracer::Scope inner(on, "inner", 42);
  }
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];  // closes first
  const Span& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 42u);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(on.durations_s("outer").size(), 1u);
}
