// Serving-runtime benchmark (DESIGN.md "Serving runtime"): deploys a small
// over-clocked Linear Projection design behind the ProjectionServer and
// measures
//
//  1. throughput vs micro-batch size — the max_batch / max_wait batching
//     trade-off of the server's workers under a closed-loop load of
//     identical request streams;
//  2. batch scaling of the projection kernel itself — samples/sec of the
//     batched run_stream path (ProjectionCircuit::project_batch) against
//     the per-sample scalar loop, on the same jittered clock stream, with
//     a bitwise checksum proving the two paths agree on every output;
//  3. the degradation trace: a temperature-derate step injected mid-run,
//     the sampled safe-frequency checks catching the error-rate breach,
//     the FrequencyGovernor stepping the clock down to the characterised
//     floor and re-ramping after recovery.
//
// Results go to BENCH_serve.json so successive PRs can track the serving
// trajectory mechanically. `--smoke` shrinks the load for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "charlib/sweep.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "fabric/calibration.hpp"
#include "serve/server.hpp"

using namespace oclp;

namespace {

constexpr int kWlX = 8;

LinearProjectionDesign serve_design(double freq_mhz) {
  const MultConfig cfg{MultArch::Array, 8, 1};
  LinearProjectionDesign d;
  d.columns.push_back(make_column(
      {255.0 / 256, -239.0 / 256, 251.0 / 256, -223.0 / 256}, cfg));
  d.columns.push_back(make_column(
      {-247.0 / 256, 233.0 / 256, 253.0 / 256, 227.0 / 256}, cfg));
  d.target_freq_mhz = freq_mhz;
  d.origin = "bench-serve";
  return d;
}

Device make_device() {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  return device;
}

std::vector<std::vector<std::uint32_t>> request_stream(std::size_t n,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> reqs(n);
  for (auto& codes : reqs) {
    codes.resize(4);
    for (auto& c : codes)
      c = static_cast<std::uint32_t>(rng.uniform_u64(1u << kWlX));
  }
  return reqs;
}

struct ThroughputPoint {
  std::size_t max_batch = 0;
  std::uint64_t served = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double mean_batch_size = 0.0;
};

ThroughputPoint throughput_at_batch(std::size_t max_batch,
                                    std::size_t requests) {
  const auto design = serve_design(150.0);
  const Device device = make_device();
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = false;

  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = requests;  // closed-loop: nothing is shed
  cfg.max_batch = max_batch;
  cfg.max_wait_ms = 0.0;  // take whatever has queued up
  cfg.check_fraction = 0.05;
  cfg.governor.f_target_mhz = 150.0;
  cfg.governor.f_floor_mhz = 100.0;

  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  const auto stream = request_stream(requests, 0xBE7C4);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i)
    server.submit({static_cast<std::uint64_t>(i + 1), stream[i], 0.0});
  server.wait_idle();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto snap = server.metrics_snapshot();

  ThroughputPoint p;
  p.max_batch = max_batch;
  p.served = snap.served;
  p.seconds = dt;
  p.requests_per_sec = static_cast<double>(snap.served) / dt;
  p.mean_batch_size = snap.mean_batch_size;
  return p;
}

struct BatchScalingPoint {
  std::size_t batch = 0;
  double samples_per_sec = 0.0;
  double speedup = 0.0;  ///< vs the scalar per-sample loop of the same run
};

struct BatchScaling {
  std::size_t samples = 0;
  double scalar_samples_per_sec = 0.0;
  std::vector<BatchScalingPoint> points;
  double batch1_vs_scalar_speedup = 0.0;   ///< at batch size 1
  double batched_vs_scalar_speedup = 0.0;  ///< at the largest batch size
  bool checksum_match = true;  ///< batched outputs bitwise equal to scalar
};

// Kernel-level batch scaling: the same jittered request stream pushed
// through a per-sample project() loop and through project_batch at several
// batch sizes, each on a fresh circuit with the same clock seed — so the
// batched path must reproduce the scalar jitter draw order and outputs bit
// for bit (checked via memcmp on every y vector).
BatchScaling run_batch_scaling(bool smoke) {
  const auto design = serve_design(150.0);
  const Device device = make_device();
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = true;  // every sample gets its own jittered period
  constexpr std::uint64_t kClockSeed = 42;

  BatchScaling out;
  out.samples = smoke ? 2048 : 16384;
  const auto stream = request_stream(out.samples, 0xBA7C);

  // Scalar baseline: one timed advance/capture per sample.
  std::vector<std::vector<double>> want(out.samples);
  {
    ProjectionCircuit scalar(design, device, plan, kWlX, nullptr, kClockSeed);
    std::vector<double> y;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < out.samples; ++s) {
      scalar.project(stream[s], y);
      want[s] = y;
    }
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    out.scalar_samples_per_sec = static_cast<double>(out.samples) / dt;
  }

  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                            std::size_t{64}}) {
    ProjectionCircuit batched(design, device, plan, kWlX, nullptr, kClockSeed);
    std::vector<const std::vector<std::uint32_t>*> inputs;
    std::vector<std::vector<double>> ys;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s0 = 0; s0 < out.samples; s0 += batch) {
      const std::size_t bn = std::min(batch, out.samples - s0);
      inputs.clear();
      for (std::size_t i = 0; i < bn; ++i) inputs.push_back(&stream[s0 + i]);
      batched.project_batch(inputs, ys);
      for (std::size_t i = 0; i < bn; ++i)
        out.checksum_match =
            out.checksum_match && ys[i].size() == want[s0 + i].size() &&
            std::memcmp(ys[i].data(), want[s0 + i].data(),
                        ys[i].size() * sizeof(double)) == 0;
    }
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    BatchScalingPoint p;
    p.batch = batch;
    p.samples_per_sec = static_cast<double>(out.samples) / dt;
    p.speedup = p.samples_per_sec / out.scalar_samples_per_sec;
    out.points.push_back(p);
  }
  out.batch1_vs_scalar_speedup = out.points.front().speedup;
  out.batched_vs_scalar_speedup = out.points.back().speedup;
  // Batch 1 must never lose to the per-sample loop: project_batch
  // delegates single-sample batches to project() itself, so anything far
  // below 1.0 here means that fast path broke (the 0.9 slack only absorbs
  // timer noise, not a real regression).
  OCLP_CHECK_MSG(out.batch1_vs_scalar_speedup >= 0.9,
                 "batch-1 projection regressed to "
                     << out.batch1_vs_scalar_speedup
                     << "x of the scalar path");
  return out;
}

struct DegradationTrace {
  double f_target_mhz = 0.0, f_floor_mhz = 0.0, hot_derate = 0.0;
  ServeMetrics::Snapshot snap;
};

DegradationTrace degradation_trace(bool smoke) {
  const Device device = make_device();
  std::vector<double> freqs;
  for (double f = 120.0; f <= 540.0; f += 20.0) freqs.push_back(f);
  const auto curve =
      error_rate_curve(device, 8, kWlX, reference_location_1(), freqs,
                       smoke ? 200 : 600, 99);
  const auto regimes = find_regimes(curve);
  const double fb = regimes.error_free_fmax_mhz;
  const double fc = regimes.usable_fmax_mhz;

  DegradationTrace trace;
  trace.f_target_mhz = 0.9 * fb;
  trace.hot_derate = (fc + 20.0) / trace.f_target_mhz;
  trace.f_floor_mhz = std::min(0.5 * fb, 0.9 * fb / trace.hot_derate);

  GovernorConfig gov;
  gov.f_target_mhz = trace.f_target_mhz;
  gov.f_floor_mhz = trace.f_floor_mhz;
  gov.slo_error_rate = 0.05;
  gov.window_checks = smoke ? 16 : 32;
  gov.step_down_factor = trace.f_floor_mhz / trace.f_target_mhz;
  gov.step_up_mhz = trace.f_target_mhz - trace.f_floor_mhz;
  gov.healthy_windows_to_ramp = 2;

  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 1.0;
  cfg.governor = gov;

  const auto design = serve_design(trace.f_target_mhz);
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = false;

  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  const std::size_t w = gov.window_checks;
  const auto stream = request_stream(6 * w, 2014);
  std::uint64_t id = 0;
  auto drive = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++id)
      server.submit({id + 1, stream[id], 0.0});
    server.wait_idle();
  };
  drive(2 * w);                        // nominal
  server.set_timing_derate(trace.hot_derate);
  drive(2 * w);                        // breach, step down, hold at floor
  server.set_timing_derate(1.0);
  drive(2 * w);                        // recover, ramp back
  trace.snap = server.metrics_snapshot();
  return trace;
}

void write_json(const char* path, bool smoke,
                const std::vector<ThroughputPoint>& points,
                const BatchScaling& scaling, const DegradationTrace& trace) {
  std::ofstream os(path);
  os.precision(10);
  os << "{\n  \"bench\": \"serve\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"throughput_vs_batch\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    os << "    {\"max_batch\": " << p.max_batch << ", \"served\": " << p.served
       << ", \"seconds\": " << p.seconds
       << ", \"requests_per_sec\": " << p.requests_per_sec
       << ", \"mean_batch_size\": " << p.mean_batch_size << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"batch_scaling\": {\n"
     << "    \"samples\": " << scaling.samples << ",\n"
     << "    \"scalar_samples_per_sec\": " << scaling.scalar_samples_per_sec
     << ",\n    \"points\": [\n";
  for (std::size_t i = 0; i < scaling.points.size(); ++i) {
    const auto& p = scaling.points[i];
    os << "      {\"batch\": " << p.batch
       << ", \"samples_per_sec\": " << p.samples_per_sec
       << ", \"speedup\": " << p.speedup << "}"
       << (i + 1 < scaling.points.size() ? "," : "") << "\n";
  }
  os << "    ],\n"
     << "    \"batch1_vs_scalar_speedup\": "
     << scaling.batch1_vs_scalar_speedup << ",\n"
     << "    \"batched_vs_scalar_speedup\": "
     << scaling.batched_vs_scalar_speedup << ",\n"
     << "    \"batched_vs_scalar_checksum_match\": "
     << (scaling.checksum_match ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"degradation\": {\n"
     << "    \"f_target_mhz\": " << trace.f_target_mhz << ",\n"
     << "    \"f_floor_mhz\": " << trace.f_floor_mhz << ",\n"
     << "    \"hot_derate\": " << trace.hot_derate << ",\n"
     << "    \"served\": " << trace.snap.served << ",\n"
     << "    \"latency_overflow\": " << trace.snap.latency_overflow << ",\n"
     << "    \"design_generation\": " << trace.snap.design_generation << ",\n"
     << "    \"swaps_committed\": " << trace.snap.swaps_committed << ",\n"
     << "    \"swaps_aborted\": " << trace.snap.swaps_aborted << ",\n"
     << "    \"swap_latency_ns\": " << trace.snap.swap_latency_ns << ",\n"
     << "    \"shadow_compared\": " << trace.snap.shadow_compared << ",\n"
     << "    \"shadow_mismatch\": " << trace.snap.shadow_mismatch << ",\n"
     << "    \"checks\": " << trace.snap.checks << ",\n"
     << "    \"check_errors\": " << trace.snap.check_errors << ",\n"
     << "    \"window_error_rates\": [";
  for (std::size_t i = 0; i < trace.snap.window_error_rates.size(); ++i)
    os << (i ? ", " : "") << trace.snap.window_error_rates[i];
  os << "],\n    \"frequency_timeline\": [";
  for (std::size_t i = 0; i < trace.snap.frequency_timeline.size(); ++i)
    os << (i ? ", " : "") << "{\"at_served\": "
       << trace.snap.frequency_timeline[i].at_served
       << ", \"freq_mhz\": " << trace.snap.frequency_timeline[i].freq_mhz
       << "}";
  os << "]\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const std::size_t requests = smoke ? 256 : 4096;
  std::vector<ThroughputPoint> points;
  for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                            std::size_t{64}}) {
    points.push_back(throughput_at_batch(batch, requests));
    std::printf("throughput: max_batch=%-3zu %8.0f req/s (mean batch %.2f)\n",
                points.back().max_batch, points.back().requests_per_sec,
                points.back().mean_batch_size);
  }

  const auto scaling = run_batch_scaling(smoke);
  std::printf("batch scaling: scalar %8.0f samples/s\n",
              scaling.scalar_samples_per_sec);
  for (const auto& p : scaling.points)
    std::printf("batch scaling: batch=%-3zu %8.0f samples/s (%.2fx)\n",
                p.batch, p.samples_per_sec, p.speedup);
  std::printf("batch scaling: checksum %s\n",
              scaling.checksum_match ? "MATCH" : "MISMATCH");

  const auto trace = degradation_trace(smoke);
  std::printf(
      "degradation: target %.1f MHz, hot derate %.2fx -> floor %.1f MHz; "
      "%llu/%llu checks errored; %zu frequency changes; "
      "%llu latencies past the histogram\n",
      trace.f_target_mhz, trace.hot_derate, trace.f_floor_mhz,
      static_cast<unsigned long long>(trace.snap.check_errors),
      static_cast<unsigned long long>(trace.snap.checks),
      trace.snap.frequency_timeline.size(),
      static_cast<unsigned long long>(trace.snap.latency_overflow));

  write_json("BENCH_serve.json", smoke, points, scaling, trace);
  std::printf("-> BENCH_serve.json\n");
  return 0;
}
