// Telemetry for the serving runtime.
//
// Counters on the request hot path are lock-free atomics; the latency
// histogram (common/histogram) and the window/frequency traces are updated
// off the per-request fast path (per served batch / per closed governor
// window) under a small mutex. snapshot() assembles a consistent-enough
// point-in-time view — counters may advance between reads, which is the
// usual contract for serving metrics — and Snapshot::to_json() renders it
// for dashboards and the bench trajectory files (BENCH_serve.json).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hpp"

namespace oclp {

class ServeMetrics {
 public:
  /// Latency histogram over [0, latency_hist_max_ms). Histogram clamps
  /// out-of-range values into the last bin, which would make a saturated
  /// tail indistinguishable from a real p99 — so samples at or beyond the
  /// range are additionally counted in `latency_overflow`.
  explicit ServeMetrics(double latency_hist_max_ms = 50.0,
                        std::size_t latency_bins = 40);

  // --- request lifecycle (lock-free) --------------------------------------
  void on_submitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected_full() { rejected_full_.fetch_add(1, std::memory_order_relaxed); }
  void on_shed_oldest() { shed_oldest_.fetch_add(1, std::memory_order_relaxed); }
  void on_shed_deadline() { shed_deadline_.fetch_add(1, std::memory_order_relaxed); }
  /// `n` picked-up requests that reached no outcome: their batch threw.
  void on_failed(std::size_t n) { failed_.fetch_add(n, std::memory_order_relaxed); }
  void on_check(bool error);
  std::uint64_t on_served();  ///< returns the serve sequence number (1-based)

  void queue_depth_sample(std::size_t depth);

  // --- design hot-swap (lock-free; see serve/swap.hpp) ---------------------
  /// One mirrored request compared on the shadow datapath.
  void on_shadow_compare(bool mismatch);
  /// A swap committed after `latency_ns` (Lower → Shadow → Flip, wall).
  void on_swap_committed(std::uint64_t latency_ns);
  void on_swap_aborted() { swaps_aborted_.fetch_add(1, std::memory_order_relaxed); }
  /// Gauge: generation of the design the replicas currently serve (0 =
  /// construction design; bumps on every committed swap).
  void set_design_generation(std::uint64_t gen) {
    design_generation_.store(gen, std::memory_order_relaxed);
  }

  // --- off-hot-path traces (one lock per batch / per window) ---------------
  /// A batch finished; `latencies_ms` are the per-request submit→served
  /// latencies of its served requests.
  void on_batch(std::size_t batch_size, const std::vector<double>& latencies_ms);
  /// A governor window closed at `error_rate`; `freq_mhz` is the frequency
  /// after the decision, appended to the timeline when it changed.
  void on_window(double error_rate, double freq_mhz, bool freq_changed);
  /// Seed the frequency timeline with the initial operating point.
  void record_initial_frequency(double freq_mhz);

  std::uint64_t served() const { return served_.load(std::memory_order_relaxed); }

  struct FreqEvent {
    std::uint64_t at_served = 0;  ///< serve count when the change landed
    double freq_mhz = 0.0;
  };

  struct Snapshot {
    /// submitted == served + rejected_full + shed_oldest + shed_deadline +
    /// failed once the server is idle.
    std::uint64_t submitted = 0, rejected_full = 0, shed_oldest = 0,
                  shed_deadline = 0, failed = 0, served = 0, batches = 0,
                  checks = 0, check_errors = 0;
    // Design hot-swap health (serve/swap.hpp).
    std::uint64_t design_generation = 0, swaps_committed = 0, swaps_aborted = 0,
                  swap_latency_ns = 0, shadow_compared = 0, shadow_mismatch = 0;
    std::size_t queue_depth = 0, queue_peak = 0;
    /// pool_inflight: batches a worker has in service (filled in by
    /// ProjectionServer::metrics_snapshot). pool_queue_depth stays 0: no
    /// second queue sits behind the bounded one, whose depth is queue_depth.
    std::size_t pool_queue_depth = 0, pool_inflight = 0;
    double mean_batch_size = 0.0;
    std::vector<double> window_error_rates;   ///< per closed governor window
    std::vector<FreqEvent> frequency_timeline;
    // Latency histogram: parallel bin edges (lo of each bin) and counts.
    std::vector<double> latency_bin_lo_ms;
    std::vector<std::uint64_t> latency_counts;
    double latency_hist_max_ms = 0.0;
    /// Samples >= latency_hist_max_ms; they also sit clamped in the last
    /// bin, so last-bin count minus overflow is the genuine in-range tail.
    std::uint64_t latency_overflow = 0;

    std::string to_json() const;
  };

  Snapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> submitted_{0}, rejected_full_{0}, shed_oldest_{0},
      shed_deadline_{0}, failed_{0}, served_{0}, batches_{0}, checks_{0},
      check_errors_{0};
  std::atomic<std::uint64_t> design_generation_{0}, swaps_committed_{0},
      swaps_aborted_{0}, swap_latency_ns_{0}, shadow_compared_{0},
      shadow_mismatch_{0};
  std::atomic<std::size_t> queue_depth_{0}, queue_peak_{0};

  mutable std::mutex mutex_;  // guards the histogram and traces below
  Histogram latency_ms_;
  double latency_hist_max_ms_;
  std::uint64_t latency_overflow_ = 0;
  std::uint64_t batched_requests_ = 0;
  std::vector<double> window_error_rates_;
  std::vector<FreqEvent> frequency_timeline_;
};

}  // namespace oclp
