#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/check.hpp"

namespace oclp {
namespace {

TEST(ServeMetrics, CountersStartAtZero) {
  ServeMetrics m;
  const auto s = m.snapshot();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_EQ(s.served, 0u);
  EXPECT_EQ(s.rejected_full, 0u);
  EXPECT_EQ(s.shed_oldest, 0u);
  EXPECT_EQ(s.shed_deadline, 0u);
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.checks, 0u);
  EXPECT_EQ(s.check_errors, 0u);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 0.0);
}

TEST(ServeMetrics, LifecycleCountersAccumulate) {
  ServeMetrics m;
  for (int i = 0; i < 7; ++i) m.on_submitted();
  m.on_rejected_full();
  m.on_shed_oldest();
  m.on_shed_oldest();
  m.on_shed_deadline();
  m.on_check(false);
  m.on_check(true);
  m.on_check(true);
  const auto s = m.snapshot();
  EXPECT_EQ(s.submitted, 7u);
  EXPECT_EQ(s.rejected_full, 1u);
  EXPECT_EQ(s.shed_oldest, 2u);
  EXPECT_EQ(s.shed_deadline, 1u);
  EXPECT_EQ(s.checks, 3u);
  EXPECT_EQ(s.check_errors, 2u);
}

TEST(ServeMetrics, ServedReturnsOneBasedSequence) {
  ServeMetrics m;
  EXPECT_EQ(m.on_served(), 1u);
  EXPECT_EQ(m.on_served(), 2u);
  EXPECT_EQ(m.on_served(), 3u);
  EXPECT_EQ(m.served(), 3u);
}

TEST(ServeMetrics, QueueDepthTracksLatestAndPeak) {
  ServeMetrics m;
  m.queue_depth_sample(3);
  m.queue_depth_sample(9);
  m.queue_depth_sample(2);
  const auto s = m.snapshot();
  EXPECT_EQ(s.queue_depth, 2u);
  EXPECT_EQ(s.queue_peak, 9u);
}

TEST(ServeMetrics, BatchesFeedMeanSizeAndLatencyHistogram) {
  ServeMetrics m(/*latency_hist_max_ms=*/10.0, /*latency_bins=*/10);
  m.on_batch(4, {0.5, 1.5, 2.5, 3.5});
  m.on_batch(2, {9.5, 99.0});  // 99 clamps into the last bin
  const auto s = m.snapshot();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 3.0);
  ASSERT_EQ(s.latency_counts.size(), 10u);
  ASSERT_EQ(s.latency_bin_lo_ms.size(), 10u);
  EXPECT_DOUBLE_EQ(s.latency_bin_lo_ms.front(), 0.0);
  EXPECT_DOUBLE_EQ(s.latency_bin_lo_ms.back(), 9.0);
  EXPECT_EQ(s.latency_counts[0], 1u);  // 0.5
  EXPECT_EQ(s.latency_counts[1], 1u);  // 1.5
  EXPECT_EQ(s.latency_counts.back(), 2u);  // 9.5 and the clamped 99.0
  std::uint64_t total = 0;
  for (auto c : s.latency_counts) total += c;
  EXPECT_EQ(total, 6u);
  // The overflow counter disambiguates the clamped tail: of the two
  // last-bin samples, exactly one was genuinely out of range.
  EXPECT_EQ(s.latency_overflow, 1u);
}

TEST(ServeMetrics, LatencyOverflowCountsOnlyOutOfRangeSamples) {
  ServeMetrics m(/*latency_hist_max_ms=*/10.0, /*latency_bins=*/10);
  const auto empty = m.snapshot();
  EXPECT_EQ(empty.latency_overflow, 0u);
  // 10.0 is the exclusive upper edge: [0, 10) in range, 10.0 overflows.
  m.on_batch(4, {0.0, 9.999, 10.0, 250.0});
  const auto s = m.snapshot();
  EXPECT_EQ(s.latency_overflow, 2u);
  std::uint64_t total = 0;
  for (auto c : s.latency_counts) total += c;
  EXPECT_EQ(total, 4u);  // overflow samples still clamp into the last bin
}

TEST(ServeMetrics, WindowTraceAndFrequencyTimeline) {
  ServeMetrics m;
  m.record_initial_frequency(310.0);
  m.on_served();
  m.on_served();
  m.on_window(0.0, 310.0, /*freq_changed=*/false);
  m.on_window(0.5, 155.0, /*freq_changed=*/true);
  m.on_served();
  m.on_window(0.0, 310.0, /*freq_changed=*/true);
  const auto s = m.snapshot();
  ASSERT_EQ(s.window_error_rates.size(), 3u);
  EXPECT_DOUBLE_EQ(s.window_error_rates[1], 0.5);
  // Timeline: the initial point plus the two actual changes — unchanged
  // windows do not spam it.
  ASSERT_EQ(s.frequency_timeline.size(), 3u);
  EXPECT_EQ(s.frequency_timeline[0].at_served, 0u);
  EXPECT_DOUBLE_EQ(s.frequency_timeline[0].freq_mhz, 310.0);
  EXPECT_EQ(s.frequency_timeline[1].at_served, 2u);
  EXPECT_DOUBLE_EQ(s.frequency_timeline[1].freq_mhz, 155.0);
  EXPECT_EQ(s.frequency_timeline[2].at_served, 3u);
  EXPECT_DOUBLE_EQ(s.frequency_timeline[2].freq_mhz, 310.0);
}

TEST(ServeMetrics, PoolGaugesComeFromThePool) {
  ServeMetrics m;
  const auto s = m.snapshot();
  EXPECT_EQ(s.pool_queue_depth, 0u);
  EXPECT_EQ(s.pool_inflight, 0u);
}

TEST(ServeMetrics, JsonContainsEveryKey) {
  ServeMetrics m;
  m.record_initial_frequency(300.0);
  m.on_submitted();
  m.on_served();
  m.on_batch(1, {1.0});
  m.on_window(0.25, 150.0, true);
  const auto json = m.snapshot().to_json();
  for (const char* key :
       {"\"submitted\"", "\"served\"", "\"rejected_full\"", "\"shed_oldest\"",
        "\"shed_deadline\"", "\"failed\"", "\"batches\"",
        "\"mean_batch_size\"", "\"checks\"", "\"check_errors\"",
        "\"queue_depth\"", "\"queue_peak\"",
        "\"pool_queue_depth\"", "\"pool_inflight\"", "\"window_error_rates\"",
        "\"frequency_timeline\"", "\"at_served\"", "\"freq_mhz\"",
        "\"latency_hist_max_ms\"", "\"latency_overflow\"",
        "\"latency_bin_lo_ms\"", "\"latency_counts\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  EXPECT_NE(json.find("0.25"), std::string::npos);
}

TEST(ServeMetrics, ConstructorValidation) {
  EXPECT_THROW(ServeMetrics(0.0, 10), CheckError);
  EXPECT_THROW(ServeMetrics(10.0, 0), CheckError);
}

}  // namespace
}  // namespace oclp
