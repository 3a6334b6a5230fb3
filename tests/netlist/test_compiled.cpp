// Lowering edge cases of the compiled levelized datapath: constant cones,
// free-cell (Buf/Const) elision, dead-cell sweeping, and the compiled
// ProjectionCircuit's clock/derate equivalence.
#include "netlist/compiled.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "core/circuit_eval.hpp"
#include "core/design.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "mult/multiplier.hpp"
#include "netlist/netlist.hpp"
#include "timing/overclock_sim.hpp"

namespace oclp {
namespace {

TEST(CompiledNetlist, AllConstantConeFoldsAway) {
  NetlistBuilder nb;
  const auto in = nb.add_inputs(2);
  const auto c0 = nb.const0();
  const auto c1 = nb.const1();
  const auto n1 = nb.and_(in[0], c0);  // provably 0
  const auto n2 = nb.or_(c1, in[1]);   // provably 1
  const auto n3 = nb.xor_(n1, n2);     // both fanins constant -> provably 1
  nb.mark_output(n1);
  nb.mark_output(n2);
  nb.mark_output(n3);
  const Netlist nl = nb.build();

  const CompiledNetlist cnl = CompiledNetlist::compile(nl);
  EXPECT_EQ(cnl.num_cells(), 0u);
  EXPECT_EQ(cnl.num_levels(), 0u);
  EXPECT_EQ(cnl.stats().elided_free, 2u);      // the two Const cells
  EXPECT_EQ(cnl.stats().folded_constant, 3u);  // n1, n2, n3
  EXPECT_EQ(cnl.out_net(0), CompiledNetlist::kConst0Net);
  EXPECT_EQ(cnl.out_net(1), CompiledNetlist::kConst1Net);
  EXPECT_EQ(cnl.out_net(2), CompiledNetlist::kConst1Net);

  std::vector<std::uint8_t> scratch, out;
  for (std::uint8_t a = 0; a < 2; ++a)
    for (std::uint8_t b = 0; b < 2; ++b) {
      const std::vector<std::uint8_t> inputs{a, b};
      cnl.eval_outputs(inputs, scratch, out);
      EXPECT_EQ(out, nl.evaluate_outputs(inputs));
    }

  // A constant cone never transitions: even an absurdly short period
  // captures the functional value.
  OverclockSim sim(nl, std::vector<double>(nl.num_cells(), PsGrid::snap_ns(0.7)));
  sim.reset({0, 0});
  const auto captured = sim.step({1, 1}, 1e-9);
  EXPECT_EQ(captured, nl.evaluate_outputs({1, 1}));
  EXPECT_EQ(sim.last_output_settle_ns(), 0.0);
}

TEST(CompiledNetlist, BufChainsFeedingOutputsKeepSettleExact) {
  NetlistBuilder nb;
  const auto a = nb.add_input();
  const auto b1 = nb.add_cell(CellType::Buf, a);
  const auto b2 = nb.add_cell(CellType::Buf, b1);
  const auto g = nb.not_(a);
  const auto b3 = nb.add_cell(CellType::Buf, g);
  const auto b4 = nb.add_cell(CellType::Buf, b3);
  nb.mark_output(b2);  // input reaches an output through free cells only
  nb.mark_output(b4);
  const Netlist nl = nb.build();

  const CompiledNetlist cnl = CompiledNetlist::compile(nl);
  EXPECT_EQ(cnl.stats().elided_free, 4u);
  EXPECT_EQ(cnl.num_cells(), 1u);  // only the Not survives
  EXPECT_EQ(cnl.out_net(0), cnl.input_net(0));
  EXPECT_EQ(cnl.out_net(1), cnl.cell_net(0));

  // Buffers are annotated with (ignored) nonzero delays on purpose: the
  // chain must contribute exactly zero to the settle profile.
  std::vector<double> delays(nl.num_cells(), 123.0);
  const double not_delay = PsGrid::snap_ns(0.3);
  delays[static_cast<std::size_t>(g) - nl.num_inputs()] = not_delay;
  OverclockSim sim(nl, delays);
  OverclockSim::State st;
  sim.reset(st, {0});
  sim.advance(st, {1});
  EXPECT_EQ(st.out_next, (std::vector<std::uint8_t>{1, 0}));
  EXPECT_EQ(st.out_prev, (std::vector<std::uint8_t>{0, 1}));
  EXPECT_EQ(st.out_settle[0], 0.0);  // registered input through Bufs
  EXPECT_EQ(st.out_settle[1], not_delay);  // exactly the Not's delay
  EXPECT_EQ(st.last_output_settle_ns, not_delay);
}

TEST(CompiledNetlist, DeadCellsWithSideFaninAreSweptOnlyWhenRequested) {
  NetlistBuilder nb;
  const auto in = nb.add_inputs(2);
  const auto live = nb.xor_(in[0], in[1]);
  const auto dead1 = nb.and_(live, in[0]);  // side fanin on a live net
  const auto dead2 = nb.not_(dead1);
  (void)dead2;
  nb.mark_output(live);
  const Netlist nl = nb.build();

  const CompiledNetlist swept = CompiledNetlist::compile(nl);
  EXPECT_EQ(swept.stats().swept_dead, 2u);
  EXPECT_EQ(swept.num_cells(), 1u);
  EXPECT_EQ(swept.out_net(0), swept.cell_net(0));
  EXPECT_EQ(swept.alias_of(dead2), -1);  // swept nets lose their alias

  // Structural mode (what STA uses): nothing folded, nothing swept, every
  // original net still addressable.
  CompileOptions structural;
  structural.fold_constants = false;
  structural.sweep_dead = false;
  const CompiledNetlist full = CompiledNetlist::compile(nl, structural);
  EXPECT_EQ(full.stats().swept_dead, 0u);
  EXPECT_EQ(full.num_cells(), 3u);
  for (std::int32_t n = 0; n < static_cast<std::int32_t>(nl.num_nets()); ++n)
    EXPECT_GE(full.alias_of(n), 0) << "net " << n;

  // The swept form still evaluates the outputs identically.
  std::vector<std::uint8_t> scratch, out;
  for (std::uint8_t a = 0; a < 2; ++a)
    for (std::uint8_t b = 0; b < 2; ++b) {
      const std::vector<std::uint8_t> inputs{a, b};
      swept.eval_outputs(inputs, scratch, out);
      EXPECT_EQ(out, nl.evaluate_outputs(inputs));
    }
}

TEST(CompiledNetlist, LevelsAreContiguousAndRespectFanins) {
  Rng rng(7);
  NetlistBuilder nb;
  nb.add_inputs(4);
  for (int i = 0; i < 40; ++i) {
    const auto pick = [&] {
      return static_cast<std::int32_t>(rng.uniform_u64(nb.num_nets()));
    };
    nb.add_cell(CellType::Nand2, pick(), pick());
  }
  for (int o = 0; o < 6; ++o)
    nb.mark_output(static_cast<std::int32_t>(rng.uniform_u64(nb.num_nets())));
  const Netlist nl = nb.build();

  const CompiledNetlist cnl = CompiledNetlist::compile(nl);
  ASSERT_GE(cnl.num_levels(), 1u);
  EXPECT_EQ(cnl.level_begin(0), 0u);
  EXPECT_EQ(cnl.level_begin(cnl.num_levels()), cnl.num_cells());
  const auto base = cnl.cell_net(0);
  for (std::size_t l = 0; l < cnl.num_levels(); ++l) {
    EXPECT_LT(cnl.level_begin(l), cnl.level_begin(l + 1));  // non-empty
    for (std::size_t ci = cnl.level_begin(l); ci < cnl.level_begin(l + 1); ++ci)
      for (int k = 0; k < 3; ++k) {
        const auto f = cnl.fanin(ci, k);
        if (f >= base) {  // a cell fanin must live in a strictly lower level
          EXPECT_LT(static_cast<std::size_t>(f - base), cnl.level_begin(l));
        }
      }
  }
}

TEST(PsGrid, CalibrationDelaysRoundTripBitwise) {
  // Property over real calibration-produced delays: every annotate_timing
  // delay quantises exactly and dequantises back to the identical double —
  // the invariant that makes the integer and double settle kernels agree
  // bitwise. Cover several placements (each re-rolls routing draws).
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  const Netlist nl = make_multiplier_arch(MultArch::Array, 6, 6);
  for (std::uint64_t seed : {1ull, 9ull, 77ull}) {
    Placement place = reference_location_1();
    place.route_seed = seed;
    const auto delays = annotate_timing(nl, device, place);
    for (std::size_t i = 0; i < delays.size(); ++i) {
      std::uint32_t ticks = 0;
      ASSERT_TRUE(PsGrid::try_ticks(delays[i], ticks)) << "cell " << i;
      ASSERT_EQ(PsGrid::to_ns(ticks), delays[i]) << "cell " << i;
      // snap is idempotent on grid points.
      ASSERT_EQ(PsGrid::snap_ns(delays[i]), delays[i]) << "cell " << i;
    }
  }
}

TEST(PsGrid, TicksRejectOffGridNegativeAndOversize) {
  std::uint32_t t = 0;
  EXPECT_TRUE(PsGrid::try_ticks(0.0, t));
  EXPECT_EQ(t, 0u);
  EXPECT_TRUE(PsGrid::try_ticks(0.5, t));
  EXPECT_EQ(t, 512u);
  // A decimal picosecond is NOT on the binary grid (0.001·1024 = 1.024):
  // exactly why the grid is 2^-10 ns and not 10^-3 ns.
  EXPECT_FALSE(PsGrid::try_ticks(0.001, t));
  EXPECT_FALSE(PsGrid::try_ticks(-0.5, t));
  EXPECT_FALSE(PsGrid::try_ticks(std::nan(""), t));
  // 2^32 ticks = 4194304 ns: first value past the uint32 range.
  EXPECT_TRUE(PsGrid::try_ticks(4194304.0 - PsGrid::to_ns(1), t));
  EXPECT_EQ(t, 0xFFFFFFFFu);
  EXPECT_FALSE(PsGrid::try_ticks(4194304.0, t));
}

TEST(PsGrid, PeriodThresholdMatchesDoubleCompareForJitteredPeriods) {
  // The capture rule `settle > period` must agree between the double path
  // (grid-exact settle doubles) and the integer path (ticks vs
  // ⌊period·2^10⌋) for arbitrary non-grid periods — including exact ties.
  Rng rng(123);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto ticks = static_cast<std::uint32_t>(rng.uniform_u64(1u << 14));
    double period = rng.uniform(0.0, 16.0);
    if (trial % 7 == 0) period = PsGrid::to_ns(ticks);  // force a tie
    ASSERT_EQ(PsGrid::to_ns(ticks) > period,
              ticks > PsGrid::period_ticks(period))
        << "ticks " << ticks << " period " << period;
  }
  // Degenerate and saturating periods.
  EXPECT_EQ(PsGrid::period_ticks(-1.0), 0u);
  EXPECT_EQ(PsGrid::period_ticks(0.0), 0u);
  EXPECT_EQ(PsGrid::period_ticks(1e30),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(CompiledNetlist, QuantiseDelaysRejectsOffGridNamingTheCell) {
  NetlistBuilder nb;
  const auto in = nb.add_inputs(2);
  const auto n1 = nb.and_(in[0], in[1]);
  const auto n2 = nb.xor_(n1, in[0]);
  nb.mark_output(n2);
  const Netlist nl = nb.build();
  const CompiledNetlist cnl = CompiledNetlist::compile(nl);

  std::vector<double> delays{0.5, 0.1};  // 0.1·1024 = 102.4: off-grid
  try {
    cnl.quantise_delays(cnl.gather_delays(delays));
    FAIL() << "off-grid delay must be rejected";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("delay of cell 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("grid"), std::string::npos) << msg;
  }

  // The same contract one layer up: every OverclockSim lowers strictly.
  EXPECT_THROW(OverclockSim(nl, delays), CheckError);
  const std::vector<double> exact{0.5, 0.25};
  EXPECT_EQ(OverclockSim(nl, exact).critical_path_ticks(), 768u);
}

TEST(CompiledNetlist, QuantiseDelaysRejectsWorstCasePathOverflow) {
  // Two cells of 2^31 ticks each: either alone fits uint32, their chained
  // worst-case settle path does not.
  const double half_range_ns = PsGrid::to_ns(1u << 31);
  NetlistBuilder nb;
  const auto a = nb.add_input();
  const auto n1 = nb.not_(a);
  const auto n2 = nb.not_(n1);
  nb.mark_output(n2);
  const Netlist nl = nb.build();
  const CompiledNetlist cnl = CompiledNetlist::compile(nl);

  const std::vector<double> delays(2, half_range_ns);
  try {
    cnl.quantise_delays(cnl.gather_delays(delays));
    FAIL() << "overflowing path must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(OverclockSim(nl, delays), CheckError);

  // Halving one link brings the path back under the range.
  const std::vector<double> fits{half_range_ns, PsGrid::to_ns((1u << 31) - 1)};
  std::uint64_t worst = 0;
  cnl.quantise_delays(cnl.gather_delays(fits), &worst);
  EXPECT_EQ(worst, (1ull << 32) - 1);
  OverclockSim sim(nl, fits);
  EXPECT_EQ(sim.critical_path_ticks(), (1ull << 32) - 1);
}

class CompiledProjection : public ::testing::Test {
 protected:
  CompiledProjection() : device_(reference_device_config(), kReferenceDieSeed) {
    device_.set_temperature(kCharacterisationTempC);
    const MultConfig cfg{MultArch::Array, 5, 1};
    design_.columns.push_back(make_column({0.75, -0.5, 0.25, 0.125}, cfg));
    design_.columns.push_back(make_column({-0.25, 0.625, -0.75, 0.5}, cfg));
    design_.target_freq_mhz = 310.0;
  }

  std::vector<std::uint32_t> random_codes(Rng& rng) const {
    std::vector<std::uint32_t> codes(design_.dims_p());
    for (auto& c : codes)
      c = static_cast<std::uint32_t>(rng.uniform_u64(1u << kWlX));
    return codes;
  }

  static constexpr int kWlX = 7;
  Device device_;
  LinearProjectionDesign design_;
};

TEST_F(CompiledProjection, SetClockDerateMatchesEquivalentFrequency) {
  // delay x d == period / d: a derated clock at f must behave exactly like
  // an underated clock at f*d (same jitter stream, no corrections).
  const auto plan = simulated_plan(design_, reference_location_1());
  ProjectionCircuit derated(design_, device_, plan, kWlX, nullptr, 42);
  ProjectionCircuit scaled(design_, device_, plan, kWlX, nullptr, 42);
  derated.set_clock(300.0, 0.8);
  scaled.set_clock(300.0 * 0.8, 1.0);
  EXPECT_DOUBLE_EQ(derated.clock_mhz(), 300.0);  // nominal excludes derate
  EXPECT_DOUBLE_EQ(scaled.clock_mhz(), 240.0);

  Rng rng(11);
  std::vector<double> ya, yb;
  for (int s = 0; s < 40; ++s) {
    const auto codes = random_codes(rng);
    derated.project(codes, ya);
    scaled.project(codes, yb);
    ASSERT_EQ(ya.size(), yb.size());
    for (std::size_t k = 0; k < ya.size(); ++k)
      ASSERT_EQ(ya[k], yb[k]) << "sample " << s << " dim " << k;
  }
}

TEST_F(CompiledProjection, ProjectSettledMatchesExactReference) {
  const auto plan = simulated_plan(design_, reference_location_1());
  ProjectionCircuit circuit(design_, device_, plan, kWlX, nullptr, 3);

  Rng rng(23);
  std::vector<std::vector<std::uint32_t>> requests;
  for (int i = 0; i < 130; ++i) requests.push_back(random_codes(rng));
  std::vector<const std::vector<std::uint32_t>*> batch;
  for (const auto& r : requests) batch.push_back(&r);

  std::vector<std::vector<double>> ys;
  circuit.project_settled(batch, ys);
  ASSERT_EQ(ys.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto exact = circuit.project_exact(requests[i]);
    ASSERT_EQ(ys[i].size(), exact.size());
    for (std::size_t k = 0; k < exact.size(); ++k)
      ASSERT_EQ(ys[i][k], exact[k]) << "request " << i << " dim " << k;
  }
}

}  // namespace
}  // namespace oclp
