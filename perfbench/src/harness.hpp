// Measurement helpers of the end-to-end benchmark: the percentile rule,
// the open-loop arrival schedule, the rate ladder, request accounting and
// the result line the benchmark prints. Pure logic with no dependency on
// the library, so tests/test_harness.cpp pins every rule directly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// beyond it; below that it is one outlier's value, not a tail.
inline constexpr std::size_t kMinBeyond = 10;

double median(std::vector<double> v);

/// Nearest-rank q-quantile of `v` (q in (0, 1]); `v` need not be sorted.
double nearest_rank(std::vector<double> v, double q);

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The q-quantile, or nothing when fewer than kMinBeyond samples lie
/// beyond it.
std::optional<double> supported_percentile(std::vector<double> v, double q);

/// The q-quantile when supported, else the highest percentile that is
/// (the sample with kMinBeyond samples above it; the median when there
/// are too few samples for any tail).
double tail_percentile(std::vector<double> v, double q);

/// The q-quantile as the median over windows of a phase: each window's
/// q-quantile where it is supported, then the median of those, so one
/// stall of the host moves one window rather than the whole figure.
/// Nothing when fewer than three windows support the quantile.
std::optional<double> windowed_percentile(
    const std::vector<std::vector<double>>& windows, double q);

/// Open-loop Poisson arrivals: offsets in seconds from the phase start,
/// exponential gaps at `rate_per_s`, covering [0, duration_s). The same
/// seed gives the same schedule.
std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed);

/// Consecutive failing rungs that end a ladder's climb: one noisy rung
/// does not end it.
inline constexpr int kLadderMaxFailures = 2;

/// Stepped rate search for the knee. A bracket doubles the rate from
/// `start_rps` while rungs pass; from the last passing bracket rate the
/// ladder then climbs by `step` (a factor of at most 1.10) and stops after
/// kLadderMaxFailures consecutive failing rungs. The knee is the highest
/// passing rung.
class RateLadder {
 public:
  RateLadder(double start_rps, double step);

  bool done() const {
    return !bracketing_ && consecutive_failures_ >= kLadderMaxFailures;
  }
  double current() const { return rate_; }
  /// Record the verdict of the current rung and move to the next.
  void record(bool pass);
  /// Highest passing rung (0 when none passed).
  double knee() const { return knee_; }
  std::size_t rungs() const { return rungs_; }

 private:
  double rate_;
  double step_;
  bool bracketing_ = true;
  int consecutive_failures_ = 0;
  double knee_ = 0.0;
  std::size_t rungs_ = 0;
};

/// Every attempted request ends in exactly one bucket. The counts come
/// from three independent places: the generator (`attempted`, and
/// `rejected` — submits the system refused), the server's own metrics
/// (`served`, `shed`) and the result ledger (`pending`: requests it holds
/// no result or rejection for once the watchdog gave up waiting, and
/// `duplicates`). Pending requests the server did not shed were lost.
/// A result that never reached the ledger, or a submit the ledger never
/// saw, breaks the balance.
struct Tally {
  std::uint64_t attempted = 0, served = 0, rejected = 0, shed = 0,
                unanswered = 0, duplicates = 0;
  bool balanced = false;  ///< attempted == served + rejected + shed + unanswered
  std::uint64_t failed() const { return rejected + shed + unanswered; }
};

Tally tally(std::uint64_t attempted, std::uint64_t served,
            std::uint64_t rejected, std::uint64_t shed,
            std::uint64_t pending, std::uint64_t duplicates);

/// Named metrics with units, printed in insertion-independent name order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

}  // namespace perfbench
