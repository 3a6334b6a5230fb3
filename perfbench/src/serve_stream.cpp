// serve_stream: one ProjectionServer deploys the smallest-area design
// Algorithm 1 commits for the reference die, over-clocked at 310 MHz with
// the governor and 5 % duplicate checks, under open-loop Poisson traffic
// of quantised Table-I test vectors. serve, core.project_batch and timing
// do all the work: low rates exercise the batch-1 path and per-request
// dispatch, the ladder's high rates the batch-64 kernel.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "fabric/calibration.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace oclp;

namespace {

/// Timed cold rollouts after each ladder rung. One lasts about a
/// millisecond and moves with how fast the host starts threads, so the
/// rollout time is the median of many, spread over the run.
constexpr std::size_t kColdDeploysPerRung = 16;

struct Deployment : ServingBase {
  using ServingBase::ServingBase;
  std::unique_ptr<ProjectionServer> server;
};

ServeConfig serve_config(std::uint64_t seed) {
  ServeConfig sc;
  sc.workers = serving_workers(2);
  sc.queue_capacity = 4096;
  sc.max_batch = 64;
  sc.max_wait_ms = 0.0;
  sc.check_fraction = 0.05;
  sc.check_tolerance = kCheckTolerance;
  sc.seed = hash_mix(seed, 0x5E4E);
  sc.governor.f_target_mhz = kTargetMhz;
  return sc;
}

std::unique_ptr<Deployment> deploy(const RunOptions& opts, Tracer& tracer) {
  auto d = std::make_unique<Deployment>(opts, tracer);
  if (d->flow.designs.empty()) return d;
  d->serve({d->flow.designs.front()}, tracer);
  const LinearProjectionDesign& design = d->designs.front();
  Ledger* ledger = d->ledger.get();
  d->server = std::make_unique<ProjectionServer>(
      design, d->die, simulated_plan(design, reference_location_1()),
      kDataWordLength, &d->flow.models, serve_config(opts.seed),
      [ledger](const ServeResult& r) { ledger->on_result(r); });
  return d;
}

/// Append the wall times of kColdDeploysPerRung cold rollouts of the
/// deployed design to `out`: lower the replicas, start the pool, stop.
void cold_deploys(const Deployment& d, std::uint64_t seed, Tracer& tracer,
                  std::vector<double>& out) {
  const LinearProjectionDesign& design = d.designs.front();
  const CircuitPlan plan = simulated_plan(design, reference_location_1());
  for (std::size_t i = 0; i < kColdDeploysPerRung; ++i) {
    const std::int64_t t0 = now_ns();
    Tracer::Scope span(tracer, "serve.cold_deploy");
    ProjectionServer cold(design, d.die, plan, kDataWordLength, &d.flow.models,
                          serve_config(seed), nullptr);
    cold.stop();
    out.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
}

}  // namespace

WorkloadResult run_serve_stream(const RunOptions& opts, Tracer& tracer) {
  WorkloadResult res;
  const double nominal_s = 0.2 * opts.seconds;

  SetupLog setups;
  const auto d = timed_setups(setups, [&] { return deploy(opts, tracer); });
  res.check(d->server != nullptr, "the flow committed no design to deploy");
  if (!d->server) return res;
  ProjectionServer& server = *d->server;
  Ledger& ledger = *d->ledger;

  const Servers servers = servers_of(server);
  SubmitCounts counts;
  Gauges gauges;
  const Generator gen =
      open_loop_generator(server, d->data, counts, gauges, tracer.enabled());
  const auto shed = [&servers] { return totals(servers).shed; };
  const std::size_t pool = d->data.test_codes.size();

  // Warm-up (excluded), the fixed nominal rate, then the ladder and the
  // saturation bursts for the rest of the run.
  const std::int64_t timed_end =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  drive_phase(ledger, poisson_schedule(kNominalServeRps, kWarmupS,
                                       hash_mix(opts.seed, 0xA1)),
              pool, hash_mix(opts.seed, 0xA2), gen, tracer);
  bool drained = ledger.drain(shed, watchdog_deadline());
  const PhaseStats nominal = drive_phase(
      ledger, poisson_schedule(kNominalServeRps, nominal_s, hash_mix(opts.seed, 0xB1)),
      pool, hash_mix(opts.seed, 0xB2), gen, tracer);
  drained = ledger.drain(shed, watchdog_deadline()) && drained;
  const PhaseView nv = view_phase(ledger, nominal, kNominalWindowS);
  const std::uint64_t nominal_failed = ledger.rejected() + ledger.pending();
  // Memory at the nominal rate; the ladder's overload rungs queue far more.
  res.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  // Cold deploys and saturation bursts (as long as the rung) take turns
  // with the ladder's rungs, so both sample the host over the rest of the
  // run.
  const auto seconds_left = [timed_end] {
    return static_cast<double>(timed_end - now_ns()) * 1e-9;
  };
  Saturation saturation(ledger, pool, hash_mix(opts.seed, 0xD1), gen, shed);
  std::vector<double> deploy_s;
  const LadderReport ladder =
      drained ? run_ladder(ledger, kNominalServeRps, seconds_left(), pool,
                           hash_mix(opts.seed, 0xC1), gen, shed,
                           [&](double rung_s) {
                             cold_deploys(*d, opts.seed, tracer, deploy_s);
                             return saturation.run_for(
                                 std::min(rung_s, seconds_left()));
                           })
              : LadderReport{};
  while (drained && !ladder.lost_requests &&
         saturation.bursts() < kSaturationBursts && saturation.run_for(0.0)) {
  }
  if (deploy_s.empty()) cold_deploys(*d, opts.seed, tracer, deploy_s);
  const double saturated = saturation.throughput();
  std::fprintf(stderr, "perfbench: %zu saturation bursts, median %.0f req/s\n",
               saturation.bursts(), saturated);

  // Accounting under the watchdog: every request served, rejected, shed or
  // counted as unanswered — never silently lost.
  ledger.drain(shed, watchdog_deadline());
  const ServerTotals st = totals(servers);
  check_serving(res, ledger, counts, st, nominal_failed,
                serve_config(opts.seed).governor.slo_error_rate);
  res.check(!ladder.lost_requests, "a ladder rung never drained");
  res.check(saturated > 0.0, "a saturation burst did not complete");
  res.check(ladder.knee_rps > 0.0, "no ladder rung met the latency limit");

  report_serving(res, setups, d->flow, nv, nominal);
  res.e2e["throughput_per_s"] = {saturated, "1/s"};
  res.e2e["rollout_s"] = {median(deploy_s), "s"};

  if (tracer.enabled()) {
    add_serving_layers(res, *d, setups, nv, nominal, gauges, st, opts.seed,
                       tracer);
    const double b64_rps =
        1e9 / res.layer.at("core.project_batch_ns_per_sample.b64").value;
    put_layer(res.layer, "serve.kernel_share", ladder.knee_rps / b64_rps);
    put_layer(res.layer, "loadgen.max_rate_rps", ladder.knee_rps);
  }
  return res;
}

}  // namespace perfbench
