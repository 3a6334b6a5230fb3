#include "timing/razor.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "netlist/sta.hpp"

namespace oclp {
namespace {

// A Razor-protected wl×wl multiplier with uniform per-cell delay, snapped
// onto the PsGrid as the calibration snaps every delay.
RazorSim make_razor(int wl, double cell_delay, RazorConfig cfg) {
  Netlist nl = make_multiplier(wl, wl);
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type))
      delays[i] = PsGrid::snap_ns(cell_delay);
  return RazorSim(std::move(nl), std::move(delays), cfg);
}

std::vector<std::uint8_t> mult_in(unsigned a, unsigned b, int wl) {
  auto bits = to_bits(a, wl);
  append_bits(bits, b, wl);
  return bits;
}

TEST(Razor, NoErrorsAtSlowClock) {
  RazorConfig cfg;
  auto razor = make_razor(6, 0.5, cfg);
  razor.reset(mult_in(0, 0, 6));
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const unsigned a = rng.uniform_u64(64), b = rng.uniform_u64(64);
    const auto res = razor.step(mult_in(a, b, 6), 50.0);
    ASSERT_FALSE(res.error_detected);
    ASSERT_FALSE(res.undetected_error);
    ASSERT_EQ(from_bits(res.outputs), static_cast<std::uint64_t>(a) * b);
  }
  EXPECT_EQ(razor.errors_detected(), 0u);
  EXPECT_DOUBLE_EQ(razor.effective_throughput(), 1.0);
}

TEST(Razor, DetectsAndCorrectsOverclockErrors) {
  // Over-clocked so the main register misses timing, but a generous shadow
  // margin guarantees the shadow sees the settled value: every error is
  // detected and corrected; none escape.
  RazorConfig cfg;
  cfg.shadow_margin_ns = 50.0;
  cfg.recovery_penalty_cycles = 1;
  auto razor = make_razor(8, 0.4, cfg);
  razor.reset(mult_in(0, 0, 8));
  Rng rng(2);
  std::size_t wrong_after_recovery = 0;
  for (int i = 0; i < 1000; ++i) {
    const unsigned a = rng.uniform_u64(256), b = rng.uniform_u64(256);
    const auto res = razor.step(mult_in(a, b, 8), 3.0);
    ASSERT_FALSE(res.undetected_error);
    if (from_bits(res.outputs) != static_cast<std::uint64_t>(a) * b)
      ++wrong_after_recovery;
  }
  EXPECT_GT(razor.errors_detected(), 20u);
  EXPECT_EQ(razor.errors_undetected(), 0u);
  EXPECT_EQ(wrong_after_recovery, 0u);  // recovery restores correctness...
  EXPECT_LT(razor.effective_throughput(), 1.0);  // ...but costs cycles
  EXPECT_EQ(razor.cycles_consumed(),
            razor.samples_processed() + razor.errors_detected());
}

TEST(Razor, ThroughputPenaltyScalesWithRecoveryCost) {
  Rng rng(3);
  std::vector<std::pair<unsigned, unsigned>> stream;
  for (int i = 0; i < 800; ++i)
    stream.emplace_back(rng.uniform_u64(256), rng.uniform_u64(256));

  auto run = [&](int penalty) {
    RazorConfig cfg;
    cfg.shadow_margin_ns = 50.0;
    cfg.recovery_penalty_cycles = penalty;
    auto razor = make_razor(8, 0.4, cfg);
    razor.reset(mult_in(0, 0, 8));
    for (const auto& [a, b] : stream) razor.step(mult_in(a, b, 8), 3.0);
    return razor.effective_throughput();
  };
  EXPECT_GT(run(1), run(4));
}

TEST(Razor, TightShadowMarginLetsErrorsEscape) {
  // A shadow latch barely behind the main clock cannot cover the deep MSb
  // chains: silent corruption becomes possible (the designer's burden the
  // paper alludes to).
  RazorConfig cfg;
  cfg.shadow_margin_ns = 0.05;
  auto razor = make_razor(8, 0.4, cfg);
  razor.reset(mult_in(0, 0, 8));
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const unsigned a = rng.uniform_u64(256), b = rng.uniform_u64(256);
    razor.step(mult_in(a, b, 8), 2.5);
  }
  EXPECT_GT(razor.errors_undetected(), 0u);
}

TEST(Razor, UndetectedStepsReturnStaleOutputs) {
  // Whenever the shadow itself was stale, the returned outputs — recovered
  // or not — cannot equal the settled product: silent corruption for real.
  RazorConfig cfg;
  cfg.shadow_margin_ns = 0.05;
  auto razor = make_razor(8, 0.4, cfg);
  razor.reset(mult_in(0, 0, 8));
  Rng rng(6);
  std::size_t undetected_steps = 0, detected_steps = 0;
  for (int i = 0; i < 2000; ++i) {
    const unsigned a = rng.uniform_u64(256), b = rng.uniform_u64(256);
    const auto res = razor.step(mult_in(a, b, 8), 2.5);
    if (res.error_detected) ++detected_steps;
    if (res.undetected_error) {
      ++undetected_steps;
      EXPECT_NE(from_bits(res.outputs), static_cast<std::uint64_t>(a) * b);
    }
  }
  ASSERT_GT(undetected_steps, 0u);
  EXPECT_EQ(razor.errors_undetected(), undetected_steps);
  EXPECT_EQ(razor.errors_detected(), detected_steps);
}

TEST(Razor, UndetectedErrorsDoNotPayRecoveryPenalty) {
  // Only *detected* errors trigger flush-and-replay; escaped errors cost
  // nothing on the schedule (that is what makes them dangerous).
  RazorConfig cfg;
  cfg.shadow_margin_ns = 0.05;
  cfg.recovery_penalty_cycles = 4;
  auto razor = make_razor(8, 0.4, cfg);
  razor.reset(mult_in(0, 0, 8));
  Rng rng(7);
  for (int i = 0; i < 1500; ++i)
    razor.step(mult_in(rng.uniform_u64(256), rng.uniform_u64(256), 8), 2.5);
  EXPECT_GT(razor.errors_undetected(), 0u);
  EXPECT_EQ(razor.cycles_consumed(),
            razor.samples_processed() + 4 * razor.errors_detected());
}

TEST(Razor, ZeroRecoveryPenaltyKeepsFullThroughput) {
  RazorConfig cfg;
  cfg.shadow_margin_ns = 50.0;
  cfg.recovery_penalty_cycles = 0;
  auto razor = make_razor(8, 0.4, cfg);
  razor.reset(mult_in(0, 0, 8));
  Rng rng(8);
  for (int i = 0; i < 600; ++i)
    razor.step(mult_in(rng.uniform_u64(256), rng.uniform_u64(256), 8), 3.0);
  EXPECT_GT(razor.errors_detected(), 0u);  // errors occur and are corrected
  EXPECT_EQ(razor.cycles_consumed(), razor.samples_processed());
  EXPECT_DOUBLE_EQ(razor.effective_throughput(), 1.0);
}

TEST(Razor, ConfigValidation) {
  RazorConfig bad;
  bad.shadow_margin_ns = 0.0;
  Netlist nl = make_multiplier(3, 3);
  std::vector<double> delays(nl.num_cells(), PsGrid::snap_ns(0.1));
  EXPECT_THROW(RazorSim(std::move(nl), std::move(delays), bad), CheckError);
}

TEST(Razor, RejectsOffGridDelayNamingTheCell) {
  // Razor lowers its cone like every OverclockSim: an uncalibrated
  // (off-grid) delay is a construction error naming the cell.
  NetlistBuilder nb;
  const auto in = nb.add_inputs(2);
  const auto n1 = nb.and_(in[0], in[1]);
  nb.mark_output(nb.xor_(n1, in[0]));
  const Netlist nl = nb.build();
  std::vector<double> delays{0.5, 0.1};  // 0.1·1024 = 102.4: off-grid
  try {
    RazorSim(nl, delays, RazorConfig{});
    FAIL() << "off-grid delay must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("delay of cell 1"), std::string::npos)
        << e.what();
  }
  delays[1] = PsGrid::snap_ns(delays[1]);
  EXPECT_NO_THROW(RazorSim(nl, delays, RazorConfig{}));
}

TEST(OverclockSim, ResampleLastMatchesStepSemantics) {
  Netlist nl = make_multiplier(6, 6);
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type)) delays[i] = PsGrid::snap_ns(0.4);
  OverclockSim sim(std::move(nl), std::move(delays));
  sim.reset(mult_in(0, 0, 6));
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const unsigned a = rng.uniform_u64(64), b = rng.uniform_u64(64);
    const auto main = sim.step(mult_in(a, b, 6), 2.0);
    EXPECT_EQ(sim.resample_last(2.0), main);  // same period → same capture
    // A huge resample period returns the settled truth.
    EXPECT_EQ(from_bits(sim.resample_last(1e9)),
              static_cast<std::uint64_t>(a) * b);
    EXPECT_EQ(sim.resample_last(1e9), sim.last_settled_outputs());
  }
}

TEST(OverclockSim, ResampleBeforeStepThrows) {
  Netlist nl = make_multiplier(3, 3);
  std::vector<double> delays(nl.num_cells(), PsGrid::snap_ns(0.1));
  OverclockSim sim(std::move(nl), std::move(delays));
  EXPECT_THROW(sim.resample_last(1.0), CheckError);
  sim.reset(mult_in(0, 0, 3));
  EXPECT_THROW(sim.last_settled_outputs(), CheckError);
}

}  // namespace
}  // namespace oclp
