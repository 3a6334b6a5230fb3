#include "timing/overclock_sim.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "netlist/sta.hpp"
#include "stream_oracle.hpp"

namespace oclp {
namespace {

// A sim over a wa×wb multiplier with uniform per-cell delay, snapped onto
// the PsGrid as the calibration snaps every delay.
OverclockSim make_sim(int wa, int wb, double cell_delay) {
  Netlist nl = make_multiplier(wa, wb);
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type))
      delays[i] = PsGrid::snap_ns(cell_delay);
  return OverclockSim(std::move(nl), std::move(delays));
}

std::vector<std::uint8_t> mult_inputs(unsigned a, int wa, unsigned b, int wb) {
  auto bits = to_bits(a, wa);
  append_bits(bits, b, wb);
  return bits;
}

TEST(OverclockSim, StepBeforeResetThrows) {
  auto sim = make_sim(4, 4, 1.0);
  EXPECT_THROW(sim.step(mult_inputs(1, 4, 1, 4), 100.0), CheckError);
}

TEST(OverclockSim, SlowClockMatchesFunctionalModel) {
  auto sim = make_sim(4, 4, 1.0);
  Rng rng(3);
  sim.reset(mult_inputs(0, 4, 0, 4));
  for (int i = 0; i < 200; ++i) {
    const unsigned a = rng.uniform_u64(16), b = rng.uniform_u64(16);
    const auto out = sim.step(mult_inputs(a, 4, b, 4), 1000.0);
    EXPECT_EQ(from_bits(out), static_cast<std::uint64_t>(a) * b);
  }
}

TEST(OverclockSim, PeriodAtCriticalPathIsErrorFree) {
  Netlist nl = make_multiplier(5, 5);
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type)) delays[i] = PsGrid::snap_ns(0.7);
  const double critical = static_timing(nl, delays).critical_path_ns;
  OverclockSim sim(std::move(nl), std::move(delays));
  Rng rng(5);
  sim.reset(mult_inputs(0, 5, 0, 5));
  for (int i = 0; i < 300; ++i) {
    const unsigned a = rng.uniform_u64(32), b = rng.uniform_u64(32);
    const auto out = sim.step(mult_inputs(a, 5, b, 5), critical);
    ASSERT_EQ(from_bits(out), static_cast<std::uint64_t>(a) * b);
    ASSERT_LE(sim.last_output_settle_ns(), critical);
  }
}

TEST(OverclockSim, AbsurdOverclockProducesStaleOutputs) {
  auto sim = make_sim(4, 4, 1.0);
  sim.reset(mult_inputs(15, 4, 15, 4));  // settled at 225
  // A period far below one cell delay: nothing settles; the register keeps
  // the previous frame's values.
  const auto out = sim.step(mult_inputs(3, 4, 3, 4), 0.01);
  EXPECT_EQ(from_bits(out), 225u);
}

TEST(OverclockSim, NoInputChangeNoError) {
  auto sim = make_sim(6, 6, 1.0);
  sim.reset(mult_inputs(42, 6, 17, 6));
  for (int i = 0; i < 5; ++i) {
    const auto out = sim.step(mult_inputs(42, 6, 17, 6), 0.01);
    EXPECT_EQ(from_bits(out), 42u * 17u);  // nothing toggles, nothing fails
    EXPECT_DOUBLE_EQ(sim.last_output_settle_ns(), 0.0);
  }
}

TEST(OverclockSim, ErrorsAreMonotoneInPeriod) {
  // For the same stream, a longer period can only capture more settled
  // bits: per-sample errors at period T2 > T1 are a subset.
  Rng rng(7);
  std::vector<std::pair<unsigned, unsigned>> stream;
  for (int i = 0; i < 400; ++i)
    stream.emplace_back(rng.uniform_u64(256), rng.uniform_u64(256));

  auto run = [&](double period) {
    auto sim = make_sim(8, 8, 0.4);
    sim.reset(mult_inputs(0, 8, 0, 8));
    int errors = 0;
    for (const auto& [a, b] : stream) {
      const auto out = sim.step(mult_inputs(a, 8, b, 8), period);
      if (from_bits(out) != static_cast<std::uint64_t>(a) * b) ++errors;
    }
    return errors;
  };

  int prev = run(2.0);
  EXPECT_GT(prev, 0);
  for (double period : {2.5, 3.0, 3.5, 4.5, 6.0, 9.0}) {
    const int e = run(period);
    EXPECT_LE(e, prev) << "period " << period;
    prev = e;
  }
  EXPECT_EQ(prev, 0);  // slow enough: error-free
}

TEST(OverclockSim, MsbsFailBeforeLsbs) {
  // Moderate over-clocking: the long MSb chains miss timing while the LSBs
  // still settle — the paper's "high error values are expected".
  Rng rng(11);
  auto sim = make_sim(8, 8, 0.4);
  sim.reset(mult_inputs(0, 8, 0, 8));
  std::vector<int> bit_errors(16, 0);
  for (int i = 0; i < 2000; ++i) {
    const unsigned a = rng.uniform_u64(256), b = rng.uniform_u64(256);
    const auto out = sim.step(mult_inputs(a, 8, b, 8), 3.2);
    const auto truth = static_cast<std::uint64_t>(a) * b;
    const auto got = from_bits(out);
    for (int bit = 0; bit < 16; ++bit)
      if (((got ^ truth) >> bit) & 1) ++bit_errors[bit];
  }
  int low = 0, high = 0;
  for (int bit = 0; bit < 8; ++bit) low += bit_errors[bit];
  for (int bit = 8; bit < 16; ++bit) high += bit_errors[bit];
  EXPECT_GT(high, low);
  EXPECT_EQ(bit_errors[0], 0);  // product LSB is a single AND gate
}

TEST(OverclockSim, DataDependence_SparseMultiplicandFailsLess) {
  // m = 1 (single partial product) vs m = 255 (all rows toggling).
  Rng rng(13);
  std::vector<unsigned> xs;
  for (int i = 0; i < 1500; ++i) xs.push_back(rng.uniform_u64(256));

  auto errors_for = [&](unsigned m) {
    auto sim = make_sim(8, 8, 0.4);
    sim.reset(mult_inputs(m, 8, 0, 8));
    int errors = 0;
    for (unsigned x : xs) {
      const auto out = sim.step(mult_inputs(m, 8, x, 8), 3.2);
      if (from_bits(out) != static_cast<std::uint64_t>(m) * x) ++errors;
    }
    return errors;
  };

  EXPECT_LT(errors_for(1), errors_for(255));
  EXPECT_EQ(errors_for(0), 0);  // zero multiplicand: nothing ever toggles
}

TEST(OverclockSim, ExternalStateMatchesConvenienceApi) {
  // The const advance()/capture() path over a caller-owned State must
  // reproduce step() exactly — it is the engine under the single-pass
  // multi-frequency characterisation.
  auto sim = make_sim(6, 6, 0.5);
  auto shadow = make_sim(6, 6, 0.5);
  OverclockSim::State st;
  Rng rng(17);
  sim.reset(st, mult_inputs(0, 6, 0, 6));
  shadow.reset(mult_inputs(0, 6, 0, 6));
  std::vector<std::uint8_t> captured;
  for (int i = 0; i < 200; ++i) {
    const unsigned a = rng.uniform_u64(64), b = rng.uniform_u64(64);
    const double period = 1.0 + 0.05 * (i % 40);
    sim.advance(st, mult_inputs(a, 6, b, 6));
    sim.capture(st, period, captured);
    const auto& ref = shadow.step(mult_inputs(a, 6, b, 6), period);
    ASSERT_EQ(captured, ref) << "i=" << i;
    ASSERT_DOUBLE_EQ(st.last_output_settle_ns, shadow.last_output_settle_ns());
  }
}

TEST(OverclockSim, OneAdvanceManyCaptures) {
  // A single advance supports captures at any number of periods: tiny
  // period → previous frame, huge period → fully settled frame, and the
  // fresh-bit set grows with the period.
  auto sim = make_sim(8, 8, 0.4);
  OverclockSim::State st;
  sim.reset(st, mult_inputs(201, 8, 187, 8));
  sim.advance(st, mult_inputs(44, 8, 99, 8));
  std::vector<std::uint8_t> out;
  sim.capture(st, 1e-9, out);
  EXPECT_EQ(from_bits(out), 201u * 187u);  // nothing settled: stale frame
  sim.capture(st, 1e9, out);
  EXPECT_EQ(from_bits(out), 44u * 99u);  // everything settled
  int prev_fresh = -1;
  for (double period : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    sim.capture(st, period, out);
    int fresh = 0;
    for (std::size_t k = 0; k < st.out_settle.size(); ++k)
      if (st.out_settle[k] <= period) ++fresh;
    EXPECT_GE(fresh, prev_fresh);
    prev_fresh = fresh;
  }
}

TEST(OverclockSim, ExternalStateBeforeResetThrows) {
  auto sim = make_sim(4, 4, 1.0);
  OverclockSim::State st;
  EXPECT_THROW(sim.advance(st, mult_inputs(1, 4, 1, 4)), CheckError);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(sim.capture(st, 1.0, out), CheckError);
}

TEST(OverclockSim, StepBufferReuseKeepsResultsIndependent) {
  // step() returns a reference to a reusable buffer; copying it (as every
  // caller does) must preserve values across subsequent steps.
  auto sim = make_sim(4, 4, 1.0);
  sim.reset(mult_inputs(0, 4, 0, 4));
  const std::vector<std::uint8_t> first = sim.step(mult_inputs(3, 4, 5, 4), 1e3);
  const auto second = sim.step(mult_inputs(7, 4, 9, 4), 1e3);
  EXPECT_EQ(from_bits(first), 15u);
  EXPECT_EQ(from_bits(second), 63u);
}

// A netlist whose outputs are a chain of `n` Not cells (output k is the
// k-th inversion of the single input) — n outputs from n cells.
OverclockSim make_wide_output_sim(std::size_t n_outputs) {
  NetlistBuilder nb;
  std::int32_t net = nb.add_input();
  std::vector<std::int32_t> outs;
  for (std::size_t i = 0; i < n_outputs; ++i) {
    net = nb.not_(net);
    outs.push_back(net);
  }
  nb.mark_outputs(outs);
  Netlist nl = nb.build();
  std::vector<double> delays(nl.num_cells(), 0.5);
  return OverclockSim(std::move(nl), std::move(delays));
}

TEST(OverclockSim, RunStreamAcceptsExactly64Outputs) {
  auto sim = make_wide_output_sim(64);
  OverclockSim::State st;
  sim.reset(st, {0});
  const std::uint8_t inputs[2] = {1, 0};
  OverclockSim::SweepStream stream;
  sim.run_stream(st, inputs, 2, stream);
  ASSERT_EQ(stream.settled.size(), 2u);
  // Input 1: chain of Nots → output k = ~(k-th inversion of 1): bits
  // 0,1,0,1,… (even outputs invert once). Input 0 flips every bit.
  EXPECT_EQ(stream.settled[0], 0xAAAAAAAAAAAAAAAAull);
  EXPECT_EQ(stream.settled[1], 0x5555555555555555ull);
  // Every output toggled at both edges; a huge period captures them all.
  EXPECT_EQ(stream.capture_word(0, 1e9), stream.settled[0]);
  // A period shorter than the first cell delay captures the stale frame.
  EXPECT_EQ(stream.capture_word(1, 0.1), stream.settled[0]);
}

TEST(OverclockSim, RunStreamRejectsMoreThan64Outputs) {
  auto sim = make_wide_output_sim(65);
  OverclockSim::State st;
  sim.reset(st, {0});
  const std::uint8_t inputs[1] = {1};
  OverclockSim::SweepStream stream;
  try {
    sim.run_stream(st, inputs, 1, stream);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("65 outputs"), std::string::npos)
        << e.what();
  }
}

TEST(OverclockSim, RunStreamEmptyStreamLeavesStateUntouched) {
  auto sim = make_sim(4, 4, 1.0);
  OverclockSim::State st;
  sim.reset(st, mult_inputs(3, 4, 5, 4));
  const auto prev_snapshot = st.prev;
  OverclockSim::SweepStream stream;
  stream.settled.assign(9, 123);  // stale garbage a previous run left
  sim.run_stream(st, nullptr, 0, stream);
  EXPECT_TRUE(stream.settled.empty());
  ASSERT_EQ(stream.toggle_begin.size(), 1u);
  EXPECT_EQ(stream.toggle_begin[0], 0u);
  EXPECT_TRUE(stream.toggle_bit.empty());
  EXPECT_EQ(st.prev, prev_snapshot);
  EXPECT_FALSE(st.stepped);
  EXPECT_TRUE(st.initialised);

  // The untouched state continues exactly like a sim that never saw the
  // empty stream.
  auto shadow = make_sim(4, 4, 1.0);
  shadow.reset(mult_inputs(3, 4, 5, 4));
  std::vector<std::uint8_t> captured;
  sim.advance(st, mult_inputs(7, 4, 9, 4));
  sim.capture(st, 2.5, captured);
  EXPECT_EQ(captured, shadow.step(mult_inputs(7, 4, 9, 4), 2.5));
}

TEST(OverclockSim, DelaySizeMismatchThrows) {
  Netlist nl = make_multiplier(3, 3);
  EXPECT_THROW(OverclockSim(std::move(nl), {1.0, 2.0}), CheckError);
}

TEST(OverclockSim, InvalidPeriodThrows) {
  auto sim = make_sim(3, 3, 1.0);
  sim.reset(mult_inputs(0, 3, 0, 3));
  EXPECT_THROW(sim.step(mult_inputs(1, 3, 1, 3), 0.0), CheckError);
}

// --- Integer-picosecond stream kernel vs scalar advance() ----------------

// Random per-cell delays snapped onto the PsGrid.
std::vector<double> grid_delays(const Netlist& nl, Rng& rng) {
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type))
      delays[i] = PsGrid::snap_ns(rng.uniform(0.05, 0.9));
  return delays;
}

// Row-major random input stream for a wa×wb multiplier.
std::vector<std::uint8_t> random_stream(std::size_t n, int wa, int wb, Rng& rng) {
  const auto nin = static_cast<std::size_t>(wa + wb);
  std::vector<std::uint8_t> inputs(n * nin);
  for (auto& b : inputs) b = static_cast<std::uint8_t>(rng.uniform_u64(2));
  return inputs;
}

TEST(OverclockSim, IntegerKernelMatchesScalarAdvanceBitwise) {
  // The exactness theorem, end to end: with grid-exact delays the integer
  // run_stream and per-sample double advance()/capture() must agree on
  // every recorded value — settled words, toggle layout, settle ticks
  // (exact dequantisation onto the doubles), post-stream state, and
  // captures at arbitrary jittered periods including exact ties. Batch
  // sizes cover a lone sample, both sides of the 64-lane chunk boundary,
  // and a multi-chunk stream with a partial tail.
  Rng rng(2014);
  const int wa = 5, wb = 5;
  Netlist nl = make_multiplier(wa, wb);
  const auto delays = grid_delays(nl, rng);
  OverclockSim sim(std::move(nl), delays);
  ASSERT_GT(sim.critical_path_ticks(), 0u);

  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                        std::size_t{65}, std::size_t{197}}) {
    const auto inputs = random_stream(n, wa, wb, rng);
    std::vector<double> periods(8);
    for (auto& p : periods) p = rng.uniform(0.1, 8.0);
    ASSERT_NO_FATAL_FAILURE(expect_stream_matches_advance(
        sim, mult_inputs(3, wa, 1, wb), inputs, n, periods,
        "n=" + std::to_string(n)));
  }
}

TEST(OverclockSim, IntegerKernelInteroperatesWithStepAndResample) {
  // A streamed prefix followed by step()/resample_last must behave exactly
  // like a sim that stepped the prefix sample by sample: the stream leaves
  // identical register state.
  Rng rng(55);
  const int wa = 4, wb = 4;
  Netlist nl = make_multiplier(wa, wb);
  const auto delays = grid_delays(nl, rng);
  Netlist nl2 = nl;
  OverclockSim isim(std::move(nl), delays);
  OverclockSim dsim(std::move(nl2), delays);

  const std::size_t n = 70;
  const std::size_t nin = static_cast<std::size_t>(wa + wb);
  const auto inputs = random_stream(n, wa, wb, rng);
  OverclockSim::SweepStream is;
  isim.reset(mult_inputs(0, wa, 0, wb));
  dsim.reset(mult_inputs(0, wa, 0, wb));
  isim.run_stream(inputs.data(), n, is);
  for (std::size_t s = 0; s < n; ++s)
    dsim.step({inputs.begin() + static_cast<std::ptrdiff_t>(s * nin),
               inputs.begin() + static_cast<std::ptrdiff_t>((s + 1) * nin)},
              1.0);
  for (int i = 0; i < 30; ++i) {
    const unsigned a = rng.uniform_u64(16), b = rng.uniform_u64(16);
    const double period = rng.uniform(0.3, 6.0);
    ASSERT_EQ(isim.step(mult_inputs(a, wa, b, wb), period),
              dsim.step(mult_inputs(a, wa, b, wb), period));
    ASSERT_EQ(isim.last_output_settle_ns(), dsim.last_output_settle_ns());
    const double re = rng.uniform(0.3, 6.0);
    ASSERT_EQ(isim.resample_last(re), dsim.resample_last(re));
  }
}

}  // namespace
}  // namespace oclp
