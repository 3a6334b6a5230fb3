// Open-loop load generation for the serving workloads: one generator
// thread submits requests at their Poisson due times whatever the server
// is doing, and every request's latency is timed from its due time, so a
// stall also charges the requests that queued up behind it. A ledger
// records each request's outcome exactly once; a watchdog bounds every
// wait, so a hang shows up as unanswered requests instead of a hung run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

enum class RequestState : std::uint8_t { Pending = 0, Served = 1, Rejected = 2 };

struct RequestSlot {
  std::int64_t due_ns = 0;
  std::int64_t done_ns = 0;
  double freq_mhz = 0.0;
  double service_ms = 0.0;  ///< ServeResult::latency_ms (submit → served)
  std::uint32_t vector = 0; ///< index of the payload in the request pool
  bool checked = false, check_error = false, mismatch = false;
  std::atomic<std::uint8_t> state{0};
};

/// Per-element |Δy| within which a served result matches its reference:
/// the server's own duplicate-check tolerance.
inline constexpr double kCheckTolerance = 0.05;

/// Settled reference outputs of each pooled payload, per design the
/// serving side may be running: a served result is correct when it is
/// within kCheckTolerance of the reference of one of them.
struct ReferenceSet {
  std::vector<std::vector<std::vector<double>>> per_design;  ///< [design][vector][k]
  bool matches(std::uint32_t vector, const std::vector<double>& y) const;
};

/// Outcome of every request of the current phase, plus run-wide counts.
/// Phases run one after another and each is drained before the next
/// begins, so the slot array is reused from phase to phase.
class Ledger {
 public:
  explicit Ledger(const ReferenceSet& refs) : refs_(refs) {}

  /// Start a phase of `n` requests; returns its first id (ids run on
  /// across phases, starting at 1). Throws if a request of an earlier
  /// phase is still unanswered.
  std::uint64_t begin_phase(std::size_t n);
  RequestSlot& slot(std::uint64_t id) { return slots_[id - base_]; }
  const RequestSlot& slot(std::uint64_t id) const { return slots_[id - base_]; }

  /// Result callback (any worker thread).
  void on_result(const oclp::ServeResult& r);
  void on_rejected(std::uint64_t id);

  std::uint64_t allocated() const { return next_ - 1; }
  std::uint64_t served() const { return served_.load(); }
  std::uint64_t rejected() const { return rejected_.load(); }
  std::uint64_t mismatches() const { return mismatches_.load(); }
  /// Results for a request that was never submitted, or answered twice.
  std::uint64_t duplicates() const { return duplicates_.load(); }
  std::uint64_t pending() const { return allocated() - served() - rejected(); }

  /// Wait until every allocated request is served, rejected or counted by
  /// `shed()`, or until `deadline_ns`. True when nothing is left pending.
  bool drain(const std::function<std::uint64_t()>& shed,
             std::int64_t deadline_ns) const;

 private:
  const ReferenceSet& refs_;
  std::unique_ptr<RequestSlot[]> slots_;
  std::size_t capacity_ = 0;
  std::uint64_t base_ = 1, next_ = 1;  ///< current phase: ids [base_, next_)
  std::atomic<std::uint64_t> served_{0}, rejected_{0}, mismatches_{0},
      duplicates_{0};
};

/// Everything measured about one open-loop phase.
struct PhaseStats {
  std::uint64_t first_id = 0;
  std::size_t count = 0;
  std::int64_t start_ns = 0;
  std::int64_t last_due_ns = 0;
  std::vector<double> late_ms;    ///< how late each submit ran
  std::vector<double> submit_us;  ///< each submit call, its span included
};

/// Requests the generator handed to the system and the ones it refused,
/// counted apart from the ledger so the accounting balances independent
/// tallies.
struct SubmitCounts {
  std::uint64_t attempted = 0, refused = 0;
};

/// Generator-thread hooks: `submit` hands request `id` (payload
/// `vector`) to the system and returns false on rejection; `tick` runs
/// between submits (gauge sampling, control events) with the phase clock.
struct Generator {
  std::function<bool(std::uint64_t id, std::uint32_t vector)> submit;
  std::function<void(std::int64_t now_ns)> tick;
};

/// Drive one phase: submit ledger ids [first, first + offsets.size()) at
/// start + offsets, payloads drawn from `pool_size` vectors by `seed`.
PhaseStats drive_phase(Ledger& ledger, const std::vector<double>& offsets,
                       std::size_t pool_size, std::uint64_t seed,
                       const Generator& gen, Tracer& tracer);

/// Closed-loop saturation: submit `n` requests as fast as the system takes
/// them, keeping at most `window` outstanding (well under the queue
/// capacity, so nothing is rejected), then wait for the last answer under
/// `deadline_ns`. Returns requests served per second, or 0 if a request
/// was rejected or the phase did not finish.
double drive_saturated(Ledger& ledger, std::size_t n, std::size_t window,
                       std::size_t pool_size, std::uint64_t seed,
                       const Generator& gen,
                       const std::function<std::uint64_t()>& shed,
                       std::int64_t deadline_ns);

/// Latency view of a phase's served requests (due → result), also split
/// into consecutive windows of `window_s` seconds by due time.
struct PhaseView {
  std::vector<double> latency_ms, service_ms;
  std::vector<std::vector<double>> windows;
  std::uint64_t served = 0, rejected = 0, pending = 0, mismatches = 0,
                checks = 0, check_errors = 0;
  double freq_weighted_sum = 0.0;
};
PhaseView view_phase(const Ledger& ledger, const PhaseStats& phase,
                     double window_s);

}  // namespace perfbench
