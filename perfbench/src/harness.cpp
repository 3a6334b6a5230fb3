#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + mid));
}

static std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t i = rank_index(v.size(), q);
  std::nth_element(v.begin(), v.begin() + i, v.end());
  return v[i];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

std::optional<double> supported_percentile(std::vector<double> v, double q) {
  if (samples_beyond(v.size(), q) < kMinBeyond) return std::nullopt;
  return nearest_rank(std::move(v), q);
}

double tail_percentile(std::vector<double> v, double q) {
  if (samples_beyond(v.size(), q) >= kMinBeyond)
    return nearest_rank(std::move(v), q);
  if (v.size() <= 2 * kMinBeyond) return median(std::move(v));
  const std::size_t i = v.size() - 1 - kMinBeyond;
  std::nth_element(v.begin(), v.begin() + i, v.end());
  return v[i];
}

std::optional<double> windowed_percentile(
    const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const auto& w : windows)
    if (auto v = supported_percentile(w, q)) per_window.push_back(*v);
  if (per_window.size() < 3) return std::nullopt;
  return median(std::move(per_window));
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0))
    throw std::invalid_argument("poisson_schedule: rate and duration must be > 0");
  oclp::Rng rng(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    at.push_back(t);
  }
  return at;
}

RateLadder::RateLadder(double start_rps, double step)
    : rate_(start_rps), step_(step) {
  if (!(start_rps > 0.0) || !(step > 1.0) || step > 1.10)
    throw std::invalid_argument("RateLadder: need start > 0, 1 < step <= 1.10");
}

void RateLadder::record(bool pass) {
  ++rungs_;
  if (bracketing_) {
    if (pass) {
      knee_ = rate_;
      rate_ *= 2.0;
    } else {
      bracketing_ = false;
      rate_ = (knee_ > 0.0 ? knee_ : rate_ / 2.0) * step_;
    }
    return;
  }
  if (pass) {
    knee_ = std::max(knee_, rate_);
    consecutive_failures_ = 0;
  } else {
    ++consecutive_failures_;
  }
  rate_ *= step_;
}

Tally tally(std::uint64_t attempted, std::uint64_t served,
            std::uint64_t rejected, std::uint64_t shed,
            std::uint64_t pending, std::uint64_t duplicates) {
  Tally t;
  t.attempted = attempted;
  t.served = served;
  t.rejected = rejected;
  t.shed = shed;
  t.duplicates = duplicates;
  t.unanswered = pending > shed ? pending - shed : 0;
  t.balanced = duplicates == 0 && shed <= pending &&
               attempted == served + rejected + shed + t.unanswered;
  return t;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace perfbench
