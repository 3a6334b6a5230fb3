#include "serve/metrics.hpp"

#include <sstream>

#include "common/check.hpp"

namespace oclp {

ServeMetrics::ServeMetrics(double latency_hist_max_ms, std::size_t latency_bins)
    : latency_ms_(0.0, latency_hist_max_ms, latency_bins),
      latency_hist_max_ms_(latency_hist_max_ms) {
  OCLP_CHECK(latency_hist_max_ms > 0.0 && latency_bins >= 1);
}

void ServeMetrics::on_check(bool error) {
  checks_.fetch_add(1, std::memory_order_relaxed);
  if (error) check_errors_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t ServeMetrics::on_served() {
  return served_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ServeMetrics::on_shadow_compare(bool mismatch) {
  shadow_compared_.fetch_add(1, std::memory_order_relaxed);
  if (mismatch) shadow_mismatch_.fetch_add(1, std::memory_order_relaxed);
}

void ServeMetrics::on_swap_committed(std::uint64_t latency_ns) {
  swaps_committed_.fetch_add(1, std::memory_order_relaxed);
  swap_latency_ns_.fetch_add(latency_ns, std::memory_order_relaxed);
}

void ServeMetrics::queue_depth_sample(std::size_t depth) {
  queue_depth_.store(depth, std::memory_order_relaxed);
  std::size_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !queue_peak_.compare_exchange_weak(peak, depth,
                                            std::memory_order_relaxed)) {
  }
}

void ServeMetrics::on_batch(std::size_t batch_size,
                            const std::vector<double>& latencies_ms) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  batched_requests_ += batch_size;
  latency_ms_.add(latencies_ms);
  for (double l : latencies_ms)
    if (l >= latency_hist_max_ms_) ++latency_overflow_;
}

void ServeMetrics::on_window(double error_rate, double freq_mhz,
                             bool freq_changed) {
  std::lock_guard lock(mutex_);
  window_error_rates_.push_back(error_rate);
  if (freq_changed)
    frequency_timeline_.push_back(
        {served_.load(std::memory_order_relaxed), freq_mhz});
}

void ServeMetrics::record_initial_frequency(double freq_mhz) {
  std::lock_guard lock(mutex_);
  frequency_timeline_.push_back({0, freq_mhz});
}

ServeMetrics::Snapshot ServeMetrics::snapshot() const {
  Snapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.shed_oldest = shed_oldest_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.checks = checks_.load(std::memory_order_relaxed);
  s.check_errors = check_errors_.load(std::memory_order_relaxed);
  s.design_generation = design_generation_.load(std::memory_order_relaxed);
  s.swaps_committed = swaps_committed_.load(std::memory_order_relaxed);
  s.swaps_aborted = swaps_aborted_.load(std::memory_order_relaxed);
  s.swap_latency_ns = swap_latency_ns_.load(std::memory_order_relaxed);
  s.shadow_compared = shadow_compared_.load(std::memory_order_relaxed);
  s.shadow_mismatch = shadow_mismatch_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  s.mean_batch_size = s.batches == 0
                          ? 0.0
                          : static_cast<double>(batched_requests_) /
                                static_cast<double>(s.batches);
  s.window_error_rates = window_error_rates_;
  s.frequency_timeline = frequency_timeline_;
  s.latency_hist_max_ms = latency_hist_max_ms_;
  s.latency_overflow = latency_overflow_;
  s.latency_bin_lo_ms.reserve(latency_ms_.bins());
  s.latency_counts.reserve(latency_ms_.bins());
  for (std::size_t b = 0; b < latency_ms_.bins(); ++b) {
    s.latency_bin_lo_ms.push_back(latency_ms_.bin_lo(b));
    s.latency_counts.push_back(latency_ms_.count(b));
  }
  return s;
}

namespace {
template <typename T>
void json_array(std::ostream& os, const char* key, const std::vector<T>& xs) {
  os << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < xs.size(); ++i) os << (i ? ", " : "") << xs[i];
  os << "]";
}
}  // namespace

std::string ServeMetrics::Snapshot::to_json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\n"
     << "  \"submitted\": " << submitted << ",\n"
     << "  \"served\": " << served << ",\n"
     << "  \"rejected_full\": " << rejected_full << ",\n"
     << "  \"shed_oldest\": " << shed_oldest << ",\n"
     << "  \"shed_deadline\": " << shed_deadline << ",\n"
     << "  \"failed\": " << failed << ",\n"
     << "  \"batches\": " << batches << ",\n"
     << "  \"mean_batch_size\": " << mean_batch_size << ",\n"
     << "  \"checks\": " << checks << ",\n"
     << "  \"check_errors\": " << check_errors << ",\n"
     << "  \"design_generation\": " << design_generation << ",\n"
     << "  \"swaps_committed\": " << swaps_committed << ",\n"
     << "  \"swaps_aborted\": " << swaps_aborted << ",\n"
     << "  \"swap_latency_ns\": " << swap_latency_ns << ",\n"
     << "  \"shadow_compared\": " << shadow_compared << ",\n"
     << "  \"shadow_mismatch\": " << shadow_mismatch << ",\n"
     << "  \"queue_depth\": " << queue_depth << ",\n"
     << "  \"queue_peak\": " << queue_peak << ",\n"
     << "  \"pool_queue_depth\": " << pool_queue_depth << ",\n"
     << "  \"pool_inflight\": " << pool_inflight << ",\n";
  json_array(os, "window_error_rates", window_error_rates);
  os << ",\n  \"frequency_timeline\": [";
  for (std::size_t i = 0; i < frequency_timeline.size(); ++i)
    os << (i ? ", " : "") << "{\"at_served\": " << frequency_timeline[i].at_served
       << ", \"freq_mhz\": " << frequency_timeline[i].freq_mhz << "}";
  os << "],\n"
     << "  \"latency_hist_max_ms\": " << latency_hist_max_ms << ",\n"
     << "  \"latency_overflow\": " << latency_overflow << ",\n";
  json_array(os, "latency_bin_lo_ms", latency_bin_lo_ms);
  os << ",\n";
  json_array(os, "latency_counts", latency_counts);
  os << "\n}\n";
  return os.str();
}

}  // namespace oclp
