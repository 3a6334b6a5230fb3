// Property tests for the lane-parallel dense row fills: every dispatchable
// ISA variant (scalar / AVX2 / AVX-512), forced through the dense path,
// the sparse path, and the adaptive crossover, must reproduce per-sample
// advance() bitwise on arbitrary circuits — settled words, toggle layout,
// settle ticks — including partial 64-lane tails and the all-lanes-toggle /
// zero-toggle extremes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "timing/lane_kernels.hpp"
#include "timing/overclock_sim.hpp"
#include "stream_oracle.hpp"

namespace oclp {
namespace {

// A random DAG over 1-3 input cells; with_regs sprinkles PipeRegs in so the
// two-track (kRegs) kernels get exercised too.
Netlist random_netlist(std::size_t n_in, std::size_t n_cells, std::size_t n_out,
                       bool with_regs, Rng& rng) {
  static const CellType kTypes[] = {
      CellType::Not,   CellType::And2, CellType::Or2,   CellType::Xor2,
      CellType::Nand2, CellType::Nor2, CellType::Xnor2, CellType::AndNot2,
      CellType::Maj3,  CellType::Xor3, CellType::Mux2};
  NetlistBuilder nb;
  nb.add_inputs(n_in);
  for (std::size_t i = 0; i < n_cells; ++i) {
    const auto pick = [&] {
      return static_cast<std::int32_t>(rng.uniform_u64(nb.num_nets()));
    };
    if (with_regs && rng.uniform_u64(8) == 0) {
      nb.reg_(pick());
      continue;
    }
    const CellType type = kTypes[rng.uniform_u64(std::size(kTypes))];
    const std::int32_t a = pick();
    const std::int32_t b = cell_arity(type) > 1 ? pick() : -1;
    const std::int32_t c = cell_arity(type) > 2 ? pick() : -1;
    nb.add_cell(type, a, b, c);
  }
  for (std::size_t o = 0; o < n_out; ++o)
    nb.mark_output(static_cast<std::int32_t>(rng.uniform_u64(n_in + n_cells)));
  return nb.build();
}

// Random delays snapped onto the PsGrid, as the calibration does.
std::vector<double> grid_delays(const Netlist& nl, Rng& rng) {
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type))
      delays[i] = PsGrid::snap_ns(rng.uniform(0.05, 0.9));
  return delays;
}

std::vector<std::uint8_t> random_stream(std::size_t n, std::size_t n_in,
                                        Rng& rng) {
  std::vector<std::uint8_t> inputs(n * n_in);
  for (auto& b : inputs) b = static_cast<std::uint8_t>(rng.uniform_u64(2));
  return inputs;
}

class LaneKernelSeeds : public ::testing::TestWithParam<int> {};

TEST_P(LaneKernelSeeds, EveryIsaAndCrossoverMatchesReference) {
  Rng rng(GetParam() * 7919 + 3);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(6, 64, 10, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    OverclockSim sim(std::move(nl), delays);

    std::vector<std::uint8_t> init(sim.netlist().num_inputs());
    for (auto& b : init) b = static_cast<std::uint8_t>(rng.uniform_u64(2));

    lane::DenseKernels variants[3];
    const int nv = lane::all_dense_kernels(variants);
    ASSERT_GE(nv, 1);
    // n covers a lone chunk, both sides of the 64-lane boundary, and a
    // multi-chunk stream with a partial tail.
    for (std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{131}}) {
      const auto inputs = random_stream(n, sim.netlist().num_inputs(), rng);
      for (int v = 0; v < nv; ++v) {
        // Cutoff 0 forces every toggled cell down the dense row fill,
        // 65 forces the sparse toggled-lane path, and the ISA default
        // exercises the adaptive switch.
        for (const int cutoff : {0, 65, variants[v].dense_cutoff}) {
          lane::DenseKernels k = variants[v];
          k.dense_cutoff = cutoff;
          sim.set_lane_kernels(k);
          ASSERT_NO_FATAL_FAILURE(expect_stream_matches_advance(
              sim, init, inputs, n, {},
              std::string(variants[v].isa) + " cutoff " +
                  std::to_string(cutoff) + " n " + std::to_string(n) +
                  (with_regs ? " regs" : "")));
        }
      }
    }
    sim.set_lane_kernels(lane::dense_kernels());
  }
}

TEST_P(LaneKernelSeeds, ToggleDensityExtremesMatchReference) {
  // All-lanes-toggle: complement the whole input vector every sample, so
  // every input net toggles in every lane and the dense fill runs at full
  // occupancy. Zero-toggle: repeat one vector for the whole stream, so
  // after the first sample no toggle word has any bit set and the kernel
  // must coast through empty rows.
  Rng rng(GetParam() * 104729 + 11);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(5, 48, 8, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    OverclockSim sim(std::move(nl), delays);

    const std::size_t nin = sim.netlist().num_inputs();
    std::vector<std::uint8_t> init(nin, 0);
    const std::size_t n = 97;  // partial tail in the second chunk

    std::vector<std::uint8_t> alternating(n * nin);
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t i = 0; i < nin; ++i)
        alternating[s * nin + i] = static_cast<std::uint8_t>(s & 1);

    std::vector<std::uint8_t> constant(n * nin, 1);

    lane::DenseKernels variants[3];
    const int nv = lane::all_dense_kernels(variants);
    for (int v = 0; v < nv; ++v) {
      for (const int cutoff : {0, 65, variants[v].dense_cutoff}) {
        lane::DenseKernels k = variants[v];
        k.dense_cutoff = cutoff;
        sim.set_lane_kernels(k);
        const std::string tag = std::string(variants[v].isa) + " cutoff " +
                                std::to_string(cutoff) +
                                (with_regs ? " regs" : "");
        ASSERT_NO_FATAL_FAILURE(expect_stream_matches_advance(
            sim, init, alternating, n, {}, tag + " all-toggle"));
        ASSERT_NO_FATAL_FAILURE(expect_stream_matches_advance(
            sim, init, constant, n, {}, tag + " zero-toggle"));
      }
    }
    sim.set_lane_kernels(lane::dense_kernels());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneKernelSeeds, ::testing::Range(1, 7));

TEST(LaneKernels, DispatchSelectsASupportedVariant) {
  const lane::DenseKernels& k = lane::dense_kernels();
  ASSERT_NE(k.fill, nullptr);
  ASSERT_NE(k.fill2, nullptr);
  EXPECT_GT(k.dense_cutoff, 0);
  EXPECT_LE(k.dense_cutoff, 64);

  // The dispatched variant must be one of the enumerable ones, and the
  // enumeration always starts with the portable scalar kernel.
  lane::DenseKernels variants[3];
  const int nv = lane::all_dense_kernels(variants);
  ASSERT_GE(nv, 1);
  ASSERT_LE(nv, 3);
  EXPECT_STREQ(variants[0].isa, "scalar");
  bool found = false;
  for (int v = 0; v < nv; ++v)
    if (variants[v].fill == k.fill && variants[v].fill2 == k.fill2)
      found = true;
  EXPECT_TRUE(found) << "dispatched isa " << k.isa;
}

}  // namespace
}  // namespace oclp
