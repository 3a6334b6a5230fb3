#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include <sys/prctl.h>

#include "common/rng.hpp"

namespace perfbench {

bool ReferenceSet::matches(std::uint32_t vector,
                           const std::vector<double>& y) const {
  for (const auto& refs : per_design) {
    const auto& ref = refs[vector];
    if (ref.size() != y.size()) continue;
    bool ok = true;
    for (std::size_t k = 0; k < y.size() && ok; ++k)
      ok = std::abs(y[k] - ref[k]) <= kCheckTolerance;
    if (ok) return true;
  }
  return false;
}

std::uint64_t Ledger::begin_phase(std::size_t n) {
  if (pending() != 0)
    throw std::logic_error("ledger: a phase began before the last one drained");
  if (n > capacity_) {
    slots_ = std::make_unique<RequestSlot[]>(n);
    capacity_ = n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    RequestSlot& s = slots_[i];
    s.due_ns = s.done_ns = 0;
    s.freq_mhz = s.service_ms = 0.0;
    s.vector = 0;
    s.checked = s.check_error = s.mismatch = false;
    s.state.store(static_cast<std::uint8_t>(RequestState::Pending),
                  std::memory_order_relaxed);
  }
  base_ = next_;
  next_ += n;
  return base_;
}

void Ledger::on_result(const oclp::ServeResult& r) {
  const std::int64_t now = now_ns();
  if (r.id < base_ || r.id >= next_) {
    duplicates_.fetch_add(1);  // a result for a request never submitted
    return;
  }
  RequestSlot& s = slot(r.id);
  std::uint8_t expected = static_cast<std::uint8_t>(RequestState::Pending);
  if (s.state.load(std::memory_order_acquire) != expected) {
    duplicates_.fetch_add(1);
    return;
  }
  s.done_ns = now;
  s.freq_mhz = r.freq_mhz;
  s.service_ms = r.latency_ms;
  s.checked = r.checked;
  s.check_error = r.check_error;
  s.mismatch = !refs_.matches(s.vector, r.y);
  if (!s.state.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(RequestState::Served),
          std::memory_order_acq_rel)) {
    duplicates_.fetch_add(1);
    return;
  }
  if (s.mismatch) mismatches_.fetch_add(1, std::memory_order_relaxed);
  served_.fetch_add(1, std::memory_order_release);
}

void Ledger::on_rejected(std::uint64_t id) {
  slot(id).state.store(static_cast<std::uint8_t>(RequestState::Rejected),
                       std::memory_order_release);
  rejected_.fetch_add(1, std::memory_order_release);
}

bool Ledger::drain(const std::function<std::uint64_t()>& shed,
                   std::int64_t deadline_ns) const {
  for (;;) {
    if (pending() <= shed()) return true;
    if (now_ns() >= deadline_ns) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

namespace {
constexpr std::int64_t kMinSleepNs = 20'000;
}  // namespace

PhaseStats drive_phase(Ledger& ledger, const std::vector<double>& offsets,
                       std::size_t pool_size, std::uint64_t seed,
                       const Generator& gen, Tracer& tracer) {
  PhaseStats ph;
  ph.count = offsets.size();
  ph.first_id = ledger.begin_phase(offsets.size());
  ph.late_ms.reserve(offsets.size());
  ph.submit_us.reserve(offsets.size());
  // Wake at the due time, not up to the default 50 us timer slack later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  oclp::Rng pick(seed);
  ph.start_ns = now_ns() + 1'000'000;  // 1 ms head start for the first due
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::uint64_t id = ph.first_id + i;
    RequestSlot& s = ledger.slot(id);
    s.vector = static_cast<std::uint32_t>(pick.uniform_u64(pool_size));
    s.due_ns = ph.start_ns + static_cast<std::int64_t>(offsets[i] * 1e9);
    std::int64_t now = now_ns();
    if (gen.tick) gen.tick(now);
    // Sleep to the due time unless it is too close for a sleep to help.
    if (now < s.due_ns - kMinSleepNs) {
      std::this_thread::sleep_until(SteadyClock::time_point(
          std::chrono::nanoseconds(s.due_ns)));
      now = now_ns();
    }
    ph.late_ms.push_back(static_cast<double>(now - s.due_ns) * 1e-6);
    bool accepted = false;
    const std::int64_t submit_start = now_ns();
    {
      Tracer::Scope span(tracer, "serve.submit", id);
      accepted = gen.submit(id, s.vector);
    }
    ph.submit_us.push_back(static_cast<double>(now_ns() - submit_start) * 1e-3);
    if (!accepted) ledger.on_rejected(id);
  }
  ph.last_due_ns = offsets.empty() ? ph.start_ns
                                   : ledger.slot(ph.first_id + ph.count - 1).due_ns;
  return ph;
}

double drive_saturated(Ledger& ledger, std::size_t n, std::size_t window,
                       std::size_t pool_size, std::uint64_t seed,
                       const Generator& gen,
                       const std::function<std::uint64_t()>& shed,
                       std::int64_t deadline_ns) {
  const std::uint64_t first = ledger.begin_phase(n);
  const std::uint64_t rejected = ledger.rejected();
  const std::uint64_t answered = ledger.served() + rejected;
  oclp::Rng pick(seed);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    // Outstanding = submitted so far minus answered in this phase.
    while (i - (ledger.served() + ledger.rejected() - answered) >= window &&
           now_ns() < deadline_ns)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    RequestSlot& s = ledger.slot(first + i);
    s.vector = static_cast<std::uint32_t>(pick.uniform_u64(pool_size));
    s.due_ns = now_ns();
    if (!gen.submit(first + i, s.vector)) ledger.on_rejected(first + i);
  }
  if (!ledger.drain(shed, deadline_ns) || ledger.pending() != 0 ||
      ledger.rejected() != rejected)
    return 0.0;
  std::int64_t last = start;
  for (std::size_t i = 0; i < n; ++i)
    last = std::max(last, ledger.slot(first + i).done_ns);
  return static_cast<double>(n) / (static_cast<double>(last - start) * 1e-9);
}

PhaseView view_phase(const Ledger& ledger, const PhaseStats& phase,
                     double window_s) {
  PhaseView v;
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  v.windows.resize(static_cast<std::size_t>(
      (phase.last_due_ns - phase.start_ns) / window_ns + 1));
  v.latency_ms.reserve(phase.count);
  for (std::size_t i = 0; i < phase.count; ++i) {
    const RequestSlot& s = ledger.slot(phase.first_id + i);
    switch (static_cast<RequestState>(s.state.load(std::memory_order_acquire))) {
      case RequestState::Served:
        ++v.served;
        v.latency_ms.push_back(static_cast<double>(s.done_ns - s.due_ns) * 1e-6);
        v.windows[static_cast<std::size_t>((s.due_ns - phase.start_ns) / window_ns)]
            .push_back(v.latency_ms.back());
        v.service_ms.push_back(s.service_ms);
        v.freq_weighted_sum += s.freq_mhz;
        v.mismatches += s.mismatch ? 1 : 0;
        v.checks += s.checked ? 1 : 0;
        v.check_errors += s.check_error ? 1 : 0;
        break;
      case RequestState::Rejected:
        ++v.rejected;
        break;
      case RequestState::Pending:
        ++v.pending;
        break;
    }
  }
  return v;
}

}  // namespace perfbench
