// The benchmark program:
//
//   perfbench --workload design_flow|serve_stream|fleet_drift --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics. --trace 1 runs it untraced and then traced, reports the
// per-layer metrics of the traced run plus trace.overhead_frac (traced vs
// untraced), and writes the spans as Chrome trace-event JSON. The last
// stdout line is the result: {"correct", "attempted", "failed", "metrics"}.
// Any failed check makes the exit code non-zero.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Kills the process if a run wedges: a hang must end as a failed run
/// within a bounded time, not as a process that never exits.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: watchdog fired after %.0f s\n",
                         seconds);
            std::fflush(stderr);
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::jthread thread_;  // declared last: joins before the members above go
};

WorkloadResult run_once(const RunOptions& opts, Tracer& tracer) {
  if (opts.workload == "design_flow") return run_design_flow(opts, tracer);
  if (opts.workload == "serve_stream") return run_serve_stream(opts, tracer);
  if (opts.workload == "fleet_drift") return run_fleet_drift(opts, tracer);
  throw std::invalid_argument("unknown workload " + opts.workload);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "design_flow|serve_stream|fleet_drift --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") opts.workload = val;
      else if (arg == "--seed") opts.seed = std::stoull(val);
      else if (arg == "--seconds") opts.seconds = std::stod(val);
      else if (arg == "--trace") trace = std::stoi(val) != 0;
      else if (arg == "--trace-out") trace_out = val;
      else usage(("unknown option " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  if (!(opts.seconds >= 1.0 && opts.seconds <= 60.0))
    usage("--seconds must lie in [1, 60]");

  Watchdog watchdog(trace ? 170.0 : 165.0);
  WorkloadResult result;
  try {
    Tracer off(false);
    result = run_once(opts, off);
    if (trace) {
      Tracer on(true);
      WorkloadResult traced = run_once(opts, on);
      traced.layer["trace.overhead_frac"] = {
          traced.overhead_basis / result.overhead_basis - 1.0, "ratio"};
      complete_layers(traced.layer);
      traced.attempted += result.attempted;
      traced.failed += result.failed;
      traced.failures.insert(traced.failures.end(), result.failures.begin(),
                             result.failures.end());
      if (!trace_out.empty()) on.write_chrome_json(trace_out);
      result = std::move(traced);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& f : result.failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n",
                 opts.workload.c_str(), f.c_str());
  const Metrics& out = trace ? result.layer : result.e2e;
  const auto& expected = trace ? per_layer_metrics() : end_to_end_metrics();
  bool complete = true;
  for (const auto& [name, unit] : expected) {
    if (!out.count(name)) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", name.c_str());
      complete = false;
    }
  }
  const bool correct =
      result.failures.empty() && complete && result.attempted > 0;
  for (const auto& [name, m] : out)
    std::printf("%-44s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  std::cout << result_json(correct, result.attempted, result.failed, out)
            << std::endl;
  return correct ? 0 : 1;
}
