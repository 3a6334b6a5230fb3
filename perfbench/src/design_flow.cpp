// design_flow: die after die of the reference family through the offline
// flow. charlib/timing and bayes do nearly all the work and serve does
// none, so sweep and Gibbs gains show here and serving gains must not.
#include <cmath>
#include <memory>
#include <numeric>

#include "charlib/sweep.hpp"
#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace oclp;

namespace {

constexpr std::size_t kSetups = 151;  ///< set-up takes milliseconds: ~1 s of them
constexpr std::size_t kFamilyDies = 32;  ///< the timed loop cycles over them

struct Setup {
  FlowData data;
  std::vector<Device> dies;
};

Setup set_up(std::uint64_t seed, Tracer& tracer) {
  Setup s;
  s.data = make_flow_data();
  const std::uint64_t family = hash_mix(seed, 0xFA31);
  for (std::size_t i = 0; i < kFamilyDies; ++i)
    s.dies.push_back(make_die(family_die_seed(family, i), tracer));
  return s;
}

}  // namespace

WorkloadResult run_design_flow(const RunOptions& opts, Tracer& tracer) {
  WorkloadResult res;

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (std::size_t i = 0; i < kSetups; ++i) {
    setup.reset();
    const std::int64_t t0 = now_ns();
    setup = std::make_unique<Setup>(set_up(opts.seed, tracer));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // Timed loop: one die per iteration until the run's time is spent.
  std::vector<FlowResult> flows;
  std::vector<double> flow_ms, best_mse;
  double readying_s = 0.0;
  std::size_t readied = 0;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  while (res.attempted == 0 || now_ns() < end) {
    const std::size_t i = res.attempted % kFamilyDies;
    FlowResult f = run_flow(setup->dies[i], setup->data,
                            hash_mix(opts.seed, 0xF10, i), ExecPolicy(), tracer);
    ++res.attempted;
    const bool ok = !f.designs.empty() && std::isfinite(f.mse[f.best]);
    res.check(ok, "die " + std::to_string(i) + " committed no usable design");
    if (!ok) {
      ++res.failed;
      continue;
    }
    flow_ms.push_back(f.total_s * 1e3);
    // Each die's flow is deterministic: count every die of the family once.
    if (res.attempted <= kFamilyDies) best_mse.push_back(f.mse[f.best]);
    readying_s += f.lower_s + f.evaluate_s;
    readied += f.designs.size();
    flows.push_back(std::move(f));
  }

  // The committed designs must not depend on the execution policy: rerun
  // the first die serially and compare design-set checksums.
  if (!flows.empty()) {
    Tracer off(false);
    const FlowResult serial = run_flow(setup->dies[0], setup->data,
                                       hash_mix(opts.seed, 0xF10, 0),
                                       ExecPolicy::serial(), off);
    res.check(serial.checksum == flows.front().checksum,
              "serial rerun of die 0 committed a different design set");
  }
  if (flows.empty()) return res;

  const double flow_s = median(flow_ms) * 1e-3;
  res.e2e["setup_s"] = {median(setup_s), "s"};
  res.e2e["flow_s"] = {flow_s, "s/die"};
  res.e2e["flow_mse"] = {std::accumulate(best_mse.begin(), best_mse.end(), 0.0) /
                             static_cast<double>(best_mse.size()),
                         "MSE"};
  // A die is this workload's unit of work.
  res.e2e["throughput_per_s"] = {1e3 * static_cast<double>(flow_ms.size()) /
                                     std::accumulate(flow_ms.begin(), flow_ms.end(), 0.0),
                                 "1/s"};
  // Simulated clock the committed designs were evaluated at.
  res.e2e["served_mhz"] = {flows.front().designs[flows.front().best].target_freq_mhz,
                           "MHz"};
  // Readying a committed design: lower it and check it on held-out data.
  // The mean, not the median: a die commits either cheap designs (narrow
  // unpipelined multipliers) or dearer ones (some wide and pipelined), about
  // 6.5 against 10 ms each, so a median jumps between the two with the
  // seed's family mix.
  res.e2e["rollout_s"] = {readying_s / static_cast<double>(readied), "s"};
  res.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.overhead_basis = flow_s;

  if (tracer.enabled()) {
    put_layer(res.layer, "loadgen.p50_ms", median(flow_ms));
    put_layer(res.layer, "loadgen.p99_ms", tail_percentile(flow_ms, 0.99));
    add_flow_layers(res.layer, flows, tracer);
    add_gibbs_layer(res.layer, flows.front(), setup->data, tracer);
    // The flow's own timed stream: the characterisation stimulus.
    const auto& design = flows.front().designs[flows.front().best];
    const auto stimulus = uniform_stream(kDataWordLength, 4096 * design.dims_p(),
                                         hash_mix(hash_mix(opts.seed, 0xF10, 0), 3));
    std::vector<std::vector<std::uint32_t>> payloads;
    for (std::size_t s = 0; s + design.dims_p() <= stimulus.size();
         s += design.dims_p())
      payloads.emplace_back(stimulus.begin() + static_cast<std::ptrdiff_t>(s),
                            stimulus.begin() + static_cast<std::ptrdiff_t>(s + design.dims_p()));
    add_kernel_layers(res.layer, design, setup->dies[0], flows.front().models,
                      payloads, opts.seed, tracer);
    put_layer(res.layer, "loadgen.failed_frac",
              static_cast<double>(res.failed) / static_cast<double>(res.attempted));
  }
  return res;
}

}  // namespace perfbench
