// In-memory span recorder for the traced benchmark run. Spans are taken
// in the benchmark's own code around each public library call (the
// library itself is not instrumented), kept in memory and written at exit
// as a Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// A disabled Tracer records nothing, so the untraced run pays one branch
// per would-be span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: the layer.call it measures
  std::int64_t start_ns = 0, end_ns = 0;
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< enclosing span on the same thread, or 0
  std::uint64_t request = 0; ///< request id the span served, or 0
  std::uint32_t thread = 0;  ///< small per-thread index
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction. Nested
  /// scopes on one thread become parent/child.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    const char* name_;
    std::uint64_t request_;
    std::int64_t start_ns_ = 0;
    std::uint32_t id_ = 0, parent_ = 0;
  };

  std::vector<Span> spans() const;

  /// Durations (seconds) of every span named `name`.
  std::vector<double> durations_s(const std::string& name) const;

  /// Write every span as Chrome trace-event JSON ("X" complete events).
  void write_chrome_json(const std::string& path) const;

 private:
  std::uint32_t next_id();
  void push(const Span& s);

  bool enabled_;
  mutable std::mutex mutex_;  // guards spans_ and ids_
  std::vector<Span> spans_;
  std::uint32_t ids_ = 0;
};

/// Self time of each span (seconds), keyed by span id: its duration minus
/// the part of its interval covered by its children.
std::map<std::uint32_t, double> self_times_s(const std::vector<Span>& spans);

}  // namespace perfbench
