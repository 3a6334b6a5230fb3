#include "serve/fleet.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fabric/calibration.hpp"

namespace oclp {
namespace {

constexpr int kWlX = 8;

// Same deep-carry design as the server tests: the coefficients that miss
// timing first, so per-die fB differences show up on a coarse grid.
LinearProjectionDesign fleet_design() {
  const MultConfig cfg{MultArch::Array, 8, 1};
  LinearProjectionDesign d;
  d.columns.push_back(make_column(
      {255.0 / 256, -239.0 / 256, 251.0 / 256, -223.0 / 256}, cfg));
  d.columns.push_back(make_column(
      {-247.0 / 256, 233.0 / 256, 253.0 / 256, 227.0 / 256}, cfg));
  d.target_freq_mhz = 400.0;
  d.origin = "fleet-test";
  return d;
}

FleetConfig base_config(std::vector<std::uint64_t> die_seeds) {
  FleetConfig cfg;
  cfg.die_seeds = std::move(die_seeds);
  cfg.device = reference_device_config();
  cfg.wl_x = kWlX;
  cfg.with_jitter = false;
  cfg.serve.workers = 1;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ms = 0.0;
  cfg.serve.check_fraction = 0.0;
  return cfg;
}

std::vector<std::uint32_t> random_codes(Rng& rng, std::size_t p) {
  std::vector<std::uint32_t> codes(p);
  for (auto& c : codes)
    c = static_cast<std::uint32_t>(rng.uniform_u64(1u << kWlX));
  return codes;
}

/// Thread-safe capture of (die, result) for every served request.
struct FleetLog {
  std::mutex mutex;
  std::vector<std::pair<std::size_t, ServeResult>> results;
  ProjectionFleet::ResultCallback callback() {
    return [this](std::size_t die, const ServeResult& r) {
      std::lock_guard lock(mutex);
      results.emplace_back(die, r);
    };
  }
};

// --- light suite (also runs under tsan) -------------------------------------

TEST(ProjectionFleet, CharacterisesEachDieAndServesExactly) {
  const auto design = fleet_design();
  FleetLog log;
  ProjectionFleet fleet(design, base_config({kReferenceDieSeed, 83}),
                        log.callback());
  ASSERT_EQ(fleet.num_dies(), 2u);

  const auto s0 = fleet.die_status(0);
  const auto s1 = fleet.die_status(1);
  EXPECT_EQ(s0.die_seed, kReferenceDieSeed);
  EXPECT_EQ(s1.die_seed, 83u);
  // Distinct silicon → distinct measured error-free clocks and operating
  // points (the acceptance scenario's premise).
  EXPECT_GT(s0.error_free_fmax_mhz, 0.0);
  EXPECT_GT(s1.error_free_fmax_mhz, 0.0);
  EXPECT_NE(s0.error_free_fmax_mhz, s1.error_free_fmax_mhz);
  EXPECT_NE(s0.inter_die_factor, s1.inter_die_factor);
  for (const auto& s : {s0, s1}) {
    EXPECT_DOUBLE_EQ(s.f_target_mhz, 0.9 * s.error_free_fmax_mhz);
    EXPECT_DOUBLE_EQ(s.f_floor_mhz, 0.5 * s.error_free_fmax_mhz);
    EXPECT_DOUBLE_EQ(s.freq_mhz, s.f_target_mhz);
    EXPECT_DOUBLE_EQ(s.recheck_fmax_mhz, s.error_free_fmax_mhz);
    EXPECT_DOUBLE_EQ(s.derate, 1.0);
    EXPECT_EQ(s.recharacterisations, 0u);
  }
  // Both dies publish a model per column multiplier configuration.
  const auto models = fleet.die_models(1);
  ASSERT_TRUE(models);
  EXPECT_EQ(models->count(MultConfig{MultArch::Array, 8, 1}), 1u);

  // Both dies serve below their own fB → every result is bit-exact.
  const Device ref_device(reference_device_config(), kReferenceDieSeed);
  auto plan = simulated_plan(design, Placement{0, 30, 3});
  plan.with_jitter = false;
  ProjectionCircuit reference(design, ref_device, plan, kWlX, nullptr, 1);

  Rng rng(7);
  std::vector<std::vector<std::uint32_t>> codes_by_id(13);
  for (std::uint64_t id = 1; id <= 12; ++id) {
    codes_by_id[id] = random_codes(rng, 4);
    EXPECT_TRUE(fleet.submit({id, codes_by_id[id], 0.0}));
  }
  fleet.wait_idle();
  fleet.stop();

  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 12u);
  for (const auto& [die, r] : log.results) {
    const auto exact = reference.project_exact(codes_by_id[r.id]);
    ASSERT_EQ(r.y.size(), exact.size());
    for (std::size_t k = 0; k < exact.size(); ++k)
      EXPECT_NEAR(r.y[k], exact[k], 1e-12) << "die " << die << " id " << r.id;
  }
  EXPECT_EQ(fleet.die_status(0).routed + fleet.die_status(1).routed, 12u);
}

TEST(ProjectionFleet, RouterSpreadsLoadAcrossPausedQueues) {
  auto cfg = base_config({kReferenceDieSeed, 83});
  cfg.serve.start_paused = true;
  FleetLog log;
  ProjectionFleet fleet(fleet_design(), cfg, log.callback());

  Rng rng(11);
  for (std::uint64_t id = 1; id <= 10; ++id)
    ASSERT_TRUE(fleet.submit({id, random_codes(rng, 4), 0.0}));

  // Queue depth discounts headroom, so neither paused die hoards the
  // whole burst.
  const auto s0 = fleet.die_status(0);
  const auto s1 = fleet.die_status(1);
  EXPECT_EQ(s0.queue_depth + s1.queue_depth, 10u);
  EXPECT_GT(s0.queue_depth, 0u);
  EXPECT_GT(s1.queue_depth, 0u);
  EXPECT_EQ(s0.routed, s0.queue_depth);
  EXPECT_EQ(s1.routed, s1.queue_depth);

  fleet.resume();
  fleet.wait_idle();
  fleet.stop();
  std::lock_guard lock(log.mutex);
  EXPECT_EQ(log.results.size(), 10u);
}

TEST(ProjectionFleet, BackgroundThreadRecharacterisesWhileServing) {
  auto cfg = base_config({kReferenceDieSeed, 83});
  cfg.recheck_period_ms = 2.0;
  cfg.recheck_samples = 60;
  FleetLog log;
  ProjectionFleet fleet(fleet_design(), cfg, log.callback());

  // Serve while the control thread probes in the background.
  Rng rng(13);
  for (std::uint64_t id = 1; id <= 20; ++id)
    ASSERT_TRUE(fleet.submit({id, random_codes(rng, 4), 0.0}));
  fleet.wait_idle();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.recharacterisation_cycles() < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  fleet.stop();

  EXPECT_GE(fleet.recharacterisation_cycles(), 3u);
  // Round-robin: both dies were visited, and with no drift each probe
  // confirms the construction-time regime.
  const auto s0 = fleet.die_status(0);
  const auto s1 = fleet.die_status(1);
  EXPECT_GE(s0.recharacterisations, 1u);
  EXPECT_GE(s1.recharacterisations, 1u);
  EXPECT_GT(s0.recheck_fmax_mhz, 0.0);
  std::lock_guard lock(log.mutex);
  EXPECT_EQ(log.results.size(), 20u);
}

TEST(ProjectionFleet, ThrowingBackgroundRecheckIsContainedPerDie) {
  // A drift so large that every grid point lands past the supporting
  // logic's Fmax makes die 1's probe throw. The background thread must
  // count it, leave die 1's models and floor as they were, keep cycling
  // die 0 and keep the fleet serving.
  auto cfg = base_config({kReferenceDieSeed, 83});
  cfg.recheck_period_ms = 2.0;
  cfg.recheck_samples = 60;
  FleetLog log;
  ProjectionFleet fleet(fleet_design(), cfg, log.callback());
  fleet.set_die_drift(1, 1000.0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto wait_for = [&](auto&& done) {
    while (!done() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return done();
  };
  // Every cycle that starts after the drift throws, so once one failure is
  // counted the die's snapshot can no longer move.
  ASSERT_TRUE(wait_for([&] { return fleet.die_status(1).recheck_failures >= 1; }));
  const auto models = fleet.die_models(1);
  const double floor_mhz = fleet.die_status(1).f_floor_mhz;
  const auto die0_cycles = fleet.die_status(0).recharacterisations;
  ASSERT_TRUE(wait_for([&] {
    return fleet.die_status(1).recheck_failures >= 2 &&
           fleet.die_status(0).recharacterisations > die0_cycles;
  }));

  Rng rng(17);
  for (std::uint64_t id = 1; id <= 20; ++id)
    ASSERT_TRUE(fleet.submit({id, random_codes(rng, 4), 0.0}));
  fleet.wait_idle();
  fleet.stop();

  const auto s1 = fleet.die_status(1);
  EXPECT_GE(s1.recheck_failures, 2u);
  EXPECT_EQ(fleet.die_models(1), models);
  EXPECT_EQ(s1.f_floor_mhz, floor_mhz);
  EXPECT_EQ(fleet.die_status(0).recheck_failures, 0u);
  std::lock_guard lock(log.mutex);
  EXPECT_EQ(log.results.size(), 20u);
}

TEST(ProjectionFleet, Validation) {
  const auto design = fleet_design();
  {
    auto cfg = base_config({});
    cfg.num_dies = 0;
    EXPECT_THROW(ProjectionFleet(design, cfg), CheckError);
  }
  {
    auto cfg = base_config({kReferenceDieSeed});
    cfg.target_fraction = 1.5;
    EXPECT_THROW(ProjectionFleet(design, cfg), CheckError);
  }
  {
    auto cfg = base_config({kReferenceDieSeed});
    cfg.floor_fraction = cfg.target_fraction + 0.1;
    EXPECT_THROW(ProjectionFleet(design, cfg), CheckError);
  }
  {
    auto cfg = base_config({kReferenceDieSeed});
    cfg.recheck_period_ms = -1.0;
    EXPECT_THROW(ProjectionFleet(design, cfg), CheckError);
  }
  {
    auto cfg = base_config({kReferenceDieSeed});
    EXPECT_THROW(ProjectionFleet(LinearProjectionDesign{}, cfg), CheckError);
  }
  {
    auto cfg = base_config({kReferenceDieSeed});
    ProjectionFleet fleet(design, cfg);
    EXPECT_THROW(fleet.die_status(1), CheckError);
    EXPECT_THROW(fleet.set_die_drift(0, 0.0), CheckError);
    EXPECT_THROW(fleet.recharacterise(1), CheckError);
    fleet.stop();
  }
}

// --- heavy acceptance suite (not in the tsan filter) ------------------------

// The ISSUE acceptance scenario: three dies with distinct error-free
// clocks; inject drift on die 0; one re-characterisation cycle must move
// that die's floor while the other dies keep serving bit-exactly; and the
// governor — now unlocked by the lower floor — must converge below the
// *old* floor, which AIMD alone could never reach.
TEST(FleetRecharacterisation, DriftMovesOneDiesFloorOthersStayExact) {
  const auto design = fleet_design();
  auto cfg = base_config({kReferenceDieSeed, 83, 13});
  // Check every request on die 0 so the governor sees the drift quickly;
  // small windows make the trajectory short and deterministic (1 worker,
  // jitter-free plan).
  cfg.serve.check_fraction = 1.0;
  cfg.serve.governor.window_checks = 4;
  cfg.serve.governor.slo_error_rate = 0.05;
  cfg.serve.governor.step_down_factor = 0.5;
  cfg.serve.governor.step_up_mhz = 10.0;
  cfg.serve.governor.healthy_windows_to_ramp = 2;

  FleetLog log;
  ProjectionFleet fleet(design, cfg, log.callback());
  ASSERT_EQ(fleet.num_dies(), 3u);

  const auto b0 = fleet.die_status(0);
  const auto b1 = fleet.die_status(1);
  const auto b2 = fleet.die_status(2);
  ASSERT_GT(b0.error_free_fmax_mhz, 0.0);
  EXPECT_NE(b0.error_free_fmax_mhz, b1.error_free_fmax_mhz);
  EXPECT_NE(b0.error_free_fmax_mhz, b2.error_free_fmax_mhz);
  EXPECT_NE(b1.error_free_fmax_mhz, b2.error_free_fmax_mhz);

  // Drift severe enough that the OLD floor is no longer error-free:
  // floor × derate sits above the die's true fB, so the AIMD loop alone
  // (clamped at that floor) cannot restore exactness — only the
  // re-characterised floor move can.
  const double kDerate = 2.6;
  ASSERT_GT(b0.f_floor_mhz * kDerate, b0.error_free_fmax_mhz);
  fleet.set_die_drift(0, kDerate);

  // One cycle detects it.
  const auto report = fleet.recharacterise(0);
  EXPECT_GT(report.probed, 0u);
  const auto a0 = fleet.die_status(0);
  EXPECT_EQ(a0.recharacterisations, 1u);
  EXPECT_LT(a0.recheck_fmax_mhz, b0.error_free_fmax_mhz);
  EXPECT_LT(a0.f_floor_mhz, b0.f_floor_mhz);
  EXPECT_DOUBLE_EQ(a0.f_floor_mhz,
                   std::min(a0.f_target_mhz, 0.5 * a0.recheck_fmax_mhz));
  EXPECT_DOUBLE_EQ(fleet.server(0).governor().floor_mhz(), a0.f_floor_mhz);
  // The new floor is safe under the drift it was measured at.
  EXPECT_LE(a0.f_floor_mhz * kDerate, b0.error_free_fmax_mhz);

  // The other dies are untouched: floors unmoved, results still exact.
  EXPECT_DOUBLE_EQ(fleet.die_status(1).f_floor_mhz, b1.f_floor_mhz);
  EXPECT_DOUBLE_EQ(fleet.die_status(2).f_floor_mhz, b2.f_floor_mhz);

  const Device ref_device(reference_device_config(), kReferenceDieSeed);
  auto plan = simulated_plan(design, Placement{0, 30, 3});
  plan.with_jitter = false;
  ProjectionCircuit reference(design, ref_device, plan, kWlX, nullptr, 1);

  Rng rng(17);
  std::vector<std::vector<std::uint32_t>> codes_by_id(41);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    codes_by_id[id] = random_codes(rng, 4);
    const std::size_t die = 1 + (id % 2);  // drive the healthy dies directly
    ASSERT_TRUE(fleet.server(die).submit({id, codes_by_id[id], 0.0}));
  }
  fleet.server(1).wait_idle();
  fleet.server(2).wait_idle();
  {
    std::lock_guard lock(log.mutex);
    ASSERT_EQ(log.results.size(), 40u);
    for (const auto& [die, r] : log.results) {
      EXPECT_NE(die, 0u);
      const auto exact = reference.project_exact(codes_by_id[r.id]);
      for (std::size_t k = 0; k < exact.size(); ++k)
        EXPECT_NEAR(r.y[k], exact[k], 1e-12)
            << "die " << die << " id " << r.id;
    }
  }

  // Drive the drifted die: every request checked, windows of 4, so the
  // governor steps down through the old floor (impossible before the
  // re-characterised limits) and settles in the drift-adjusted error-free
  // regime.
  for (std::uint64_t id = 100; id < 200; ++id)
    ASSERT_TRUE(fleet.server(0).submit({id, random_codes(rng, 4), 0.0}));
  fleet.server(0).wait_idle();
  const double settled = fleet.server(0).governor().frequency_mhz();
  EXPECT_LT(settled, b0.f_floor_mhz);
  EXPECT_GE(settled, a0.f_floor_mhz);

  fleet.stop();
}

}  // namespace
}  // namespace oclp
