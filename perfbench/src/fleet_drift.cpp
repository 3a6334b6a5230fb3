// fleet_drift: a ProjectionFleet with the background re-characterisation
// thread on, under open-loop traffic at a fixed rate. Mid-run one die gets
// a derate step, then a control thread issues staged swap_design rollouts
// between two committed designs. The read path (routing, serving) runs
// beside the write path (subsweeps, model publication, Lower/Shadow/Flip),
// so a read-path gain that stalls the control plane — or the reverse —
// shows here and nowhere else.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "core/baseline.hpp"
#include "fabric/calibration.hpp"
#include "serve/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace oclp;

namespace {

constexpr std::size_t kDies = 3;
constexpr double kDerate = 1.3;          ///< delays stretch 30 % on die 0
constexpr double kRecheckPeriodMs = 20.0;
constexpr std::size_t kCanary = 1;       ///< a die the drift leaves alone
constexpr double kSwapGapS = 0.5;       ///< between staged rollouts
constexpr double kSaturationS = 8.0;  ///< bursts stop once this is spent
constexpr double kSaturationReserveS = 9.0;

std::set<MultConfig> configs_of(const LinearProjectionDesign& d) {
  std::set<MultConfig> s;
  for (const auto& col : d.columns) s.insert(col.config);
  return s;
}

struct FleetDeployment : ServingBase {
  using ServingBase::ServingBase;
  std::unique_ptr<ProjectionFleet> fleet;
};

FleetConfig fleet_config(std::uint64_t seed) {
  FleetConfig fc;
  fc.num_dies = kDies;
  fc.device = reference_device_config();
  fc.wl_x = kDataWordLength;
  fc.serve.workers = std::max<std::size_t>(1, serving_workers(kDies) / kDies);
  fc.serve.queue_capacity = 4096;
  fc.serve.max_batch = 64;
  fc.serve.max_wait_ms = 0.0;
  fc.serve.check_fraction = 0.05;
  fc.serve.check_tolerance = kCheckTolerance;
  fc.recheck_period_ms = kRecheckPeriodMs;
  fc.seed = hash_mix(seed, 0xF5EE);
  return fc;
}

std::unique_ptr<FleetDeployment> deploy(const RunOptions& opts,
                                        Tracer& tracer) {
  auto d = std::make_unique<FleetDeployment>(opts, tracer);
  const auto& designs = d->flow.designs;
  if (designs.empty()) return d;
  // The fleet serves design A and rolls out design B; B's multiplier
  // configurations must be ones the fleet characterised for A. Prefer the
  // smallest committed A with another committed design inside its
  // configurations; otherwise roll out the KLT design at A's first column
  // configuration (the paper's baseline design).
  std::size_t a = 0, b = 0;
  for (std::size_t i = 0; i < designs.size() && a == b; ++i) {
    const auto ci = configs_of(designs[i]);
    for (std::size_t j = 0; j < designs.size() && a == b; ++j) {
      const auto cj = configs_of(designs[j]);
      if (i != j && std::includes(ci.begin(), ci.end(), cj.begin(), cj.end())) {
        a = i;
        b = j;
      }
    }
  }
  std::vector<LinearProjectionDesign> served{designs[a], designs[b]};
  if (a == b) {
    const MultConfig c = designs.front().columns.front().config;
    served[1] = make_klt_design(d->data.x_train, designs.front().dims_k(), c,
                                kTargetMhz, kDataWordLength, *d->flow.area,
                                &d->flow.models);
  }
  d->serve(std::move(served), tracer);
  Ledger* ledger = d->ledger.get();
  Tracer::Scope span(tracer, "serve.fleet_ctor");
  d->fleet = std::make_unique<ProjectionFleet>(
      d->designs[0], fleet_config(opts.seed),
      [ledger](std::size_t, const ServeResult& r) { ledger->on_result(r); });
  return d;
}

/// Shadow-validate on every mirrored request: the router gives some dies
/// little traffic, and a sampled shadow phase there would wait long.
SwapConfig swap_config() {
  SwapConfig sc;
  sc.shadow_fraction = 1.0;
  return sc;
}

/// What the control thread measured.
struct ControlLog {
  double recheck_ms = 0.0;
  std::uint64_t detect_cycles = 0;
  double floor_after_mhz = 0.0;
  bool drift_detected = false;
  std::vector<double> rollout_s;
  std::vector<SwapReport> die_swaps;
  bool all_committed = true;
  std::string abort_reason;  ///< of the die that stopped a rollout
  std::string error;
};

/// The control plane's script over a traffic phase of `span_s` seconds
/// starting at `t0`: an operator re-probe of a healthy die, a derate step
/// on die 0 until the re-characterisation thread moves its floor, then
/// staged rollouts A → B → A … while the phase lasts.
void control_script(ProjectionFleet& fleet, const LinearProjectionDesign& a,
                    const LinearProjectionDesign& b, std::int64_t t0,
                    double span_s, ControlLog& log, Tracer& tracer) {
  const auto at = [&](double frac) {
    std::this_thread::sleep_until(SteadyClock::time_point(std::chrono::nanoseconds(
        t0 + static_cast<std::int64_t>(frac * span_s * 1e9))));
  };
  try {
    at(0.05);
    std::int64_t s = now_ns();
    {
      Tracer::Scope span(tracer, "charlib.recharacterise");
      fleet.recharacterise(kCanary);
    }
    log.recheck_ms = ms_between(s, now_ns());

    at(0.1);
    const double floor0 = fleet.die_status(0).f_floor_mhz;
    const std::uint64_t c0 = fleet.recharacterisation_cycles();
    fleet.set_die_drift(0, kDerate);
    const std::int64_t give_up = now_ns() + 3'000'000'000;
    while (now_ns() < give_up) {
      const DieStatus st = fleet.die_status(0);
      if (st.f_floor_mhz != floor0) {
        log.drift_detected = true;
        log.floor_after_mhz = st.f_floor_mhz;
        log.detect_cycles = fleet.recharacterisation_cycles() - c0;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // A transient step: the die cools again. While it ran slow the router
    // sent it almost no traffic, and a shadow phase there would starve.
    fleet.set_die_drift(0, 1.0);

    at(0.25);
    const std::int64_t end = t0 + static_cast<std::int64_t>(0.95 * span_s * 1e9);
    for (int i = 0;; ++i) {
      const double last = log.rollout_s.empty() ? 0.0 : log.rollout_s.back();
      if (now_ns() + static_cast<std::int64_t>(1.5 * last * 1e9) >= end) break;
      s = now_ns();
      FleetSwapReport rep;
      {
        Tracer::Scope span(tracer, "serve.fleet_swap_design");
        rep = fleet.swap_design(i % 2 == 0 ? b : a, swap_config(), kCanary);
      }
      log.rollout_s.push_back(static_cast<double>(now_ns() - s) * 1e-9);
      log.all_committed = log.all_committed && rep.committed;
      for (std::size_t die = 0; die < rep.dies.size(); ++die) {
        log.die_swaps.push_back(rep.dies[die]);
        if (!rep.dies[die].abort_reason.empty())
          log.abort_reason = "die " + std::to_string(die) + ": " +
                             rep.dies[die].abort_reason;
      }
      if (!rep.committed) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(kSwapGapS));
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

}  // namespace

WorkloadResult run_fleet_drift(const RunOptions& opts, Tracer& tracer) {
  WorkloadResult res;
  // Warm-up, saturation, then the traffic phase with the control script.
  const double traffic_s = opts.seconds - kWarmupS - kSaturationReserveS;

  SetupLog setups;
  const auto d = timed_setups(setups, [&] { return deploy(opts, tracer); });
  res.check(d->fleet != nullptr, "the flow committed no design to deploy");
  if (!d->fleet) return res;
  ProjectionFleet& fleet = *d->fleet;
  Ledger& ledger = *d->ledger;

  const Servers servers = servers_of(fleet);
  SubmitCounts counts;
  Gauges gauges;
  const Generator gen =
      open_loop_generator(fleet, d->data, counts, gauges, tracer.enabled());
  const auto shed = [&servers] { return totals(servers).shed; };
  const std::size_t pool = d->data.test_codes.size();

  drive_phase(ledger, poisson_schedule(kNominalFleetRps, kWarmupS,
                                       hash_mix(opts.seed, 0xA1)),
              pool, hash_mix(opts.seed, 0xA2), gen, tracer);
  ledger.drain(shed, watchdog_deadline());
  // Capacity of the fresh fleet, before drift and swaps move its dies'
  // clocks (and so the router's choices) differently from run to run.
  Saturation saturation(ledger, pool, hash_mix(opts.seed, 0xD1), gen, shed);
  saturation.run_for(kSaturationS);
  const double saturated = saturation.throughput();
  std::fprintf(stderr, "perfbench: %zu saturation bursts, median %.0f req/s\n",
               saturation.bursts(), saturated);

  // Traffic phase with the control script running beside the generator.
  const std::uint64_t cycles0 = fleet.recharacterisation_cycles();
  std::vector<std::uint64_t> routed0;
  for (std::size_t i = 0; i < fleet.num_dies(); ++i)
    routed0.push_back(fleet.die_status(i).routed);
  ControlLog log;
  const auto schedule = poisson_schedule(kNominalFleetRps, traffic_s,
                                         hash_mix(opts.seed, 0xB1));
  const std::int64_t control_t0 = now_ns() + 1'000'000;
  std::jthread control([&] {
    control_script(fleet, d->designs[0], d->designs[1], control_t0, traffic_s,
                   log, tracer);
  });
  const PhaseStats traffic =
      drive_phase(ledger, schedule, pool, hash_mix(opts.seed, 0xB2), gen, tracer);
  control.join();
  ledger.drain(shed, watchdog_deadline());
  const PhaseView tv = view_phase(ledger, traffic, kNominalWindowS);
  const std::uint64_t nominal_failed = ledger.rejected() + ledger.pending();
  res.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const std::uint64_t recheck_cycles = fleet.recharacterisation_cycles() - cycles0;
  std::vector<double> routed;
  for (std::size_t i = 0; i < fleet.num_dies(); ++i)
    routed.push_back(static_cast<double>(fleet.die_status(i).routed - routed0[i]));

  const ServerTotals st = totals(servers);
  check_serving(res, ledger, counts, st, nominal_failed,
                fleet_config(opts.seed).serve.governor.slo_error_rate);
  res.check(log.error.empty(), "control plane failed: " + log.error);
  res.check(log.drift_detected, "the derate step never moved die 0's floor");
  res.check(!log.rollout_s.empty() && log.all_committed,
            "a staged rollout did not commit on every die (" +
                log.abort_reason + ")");
  res.check(saturated > 0.0, "a saturation burst did not complete");

  report_serving(res, setups, d->flow, tv, traffic);
  res.e2e["throughput_per_s"] = {saturated, "1/s"};
  res.e2e["rollout_s"] = {median(log.rollout_s), "s"};

  if (tracer.enabled()) {
    add_serving_layers(res, *d, setups, tv, traffic, gauges, st, opts.seed,
                       tracer);
    put_layer(res.layer, "serve.route_imbalance",
              *std::max_element(routed.begin(), routed.end()) /
                  std::max(1.0, median(routed)));
    put_layer(res.layer, "charlib.recheck_ms", log.recheck_ms);
    put_layer(res.layer, "charlib.recheck_cycles", static_cast<double>(recheck_cycles));
    put_layer(res.layer, "serve.drift_detect_cycles",
              static_cast<double>(log.detect_cycles));
    put_layer(res.layer, "serve.floor_after_drift_mhz", log.floor_after_mhz);
    std::vector<double> lower, shadow, flip, shadow_mismatch;
    for (const auto& r : log.die_swaps) {
      lower.push_back(r.lower_ms);
      shadow.push_back(r.shadow_ms);
      flip.push_back(r.flip_ms);
      shadow_mismatch.push_back(r.observed_mismatch_rate);
    }
    put_layer(res.layer, "serve.swap_lower_ms", median(lower));
    put_layer(res.layer, "serve.swap_shadow_ms", median(shadow));
    put_layer(res.layer, "serve.swap_flip_ms", median(flip));
    put_layer(res.layer, "serve.swap_shadow_mismatch_rate", median(shadow_mismatch));
  }
  return res;
}

}  // namespace perfbench
