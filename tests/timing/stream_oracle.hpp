// The scalar advance()/capture() path as the oracle for the integer
// run_stream kernel. With grid-exact delays every settle tick dequantises
// exactly onto advance()'s double (see PsGrid), so the two must agree
// bitwise on every recorded value — not just closely.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/compiled.hpp"
#include "timing/overclock_sim.hpp"

namespace oclp {

/// Streams `n` row-major input vectors through run_stream and, sample by
/// sample, through advance() from the same `init` state. Asserts that the
/// settled words, the toggle layout, the settle ticks and the post-stream
/// state match, and that capture_word/capture_word_ticks reproduce
/// capture() at every period in `periods` plus an exact tie on every
/// toggled settle time. Wrap calls in ASSERT_NO_FATAL_FAILURE.
inline void expect_stream_matches_advance(const OverclockSim& sim,
                                          const std::vector<std::uint8_t>& init,
                                          const std::vector<std::uint8_t>& inputs,
                                          std::size_t n,
                                          const std::vector<double>& periods,
                                          const std::string& what) {
  OverclockSim::State st, ref;
  sim.reset(st, init);
  sim.reset(ref, init);
  OverclockSim::SweepStream stream;
  sim.run_stream(st, inputs.data(), n, stream);
  ASSERT_EQ(stream.settled.size(), n) << what;

  const std::size_t nin = init.size();
  std::vector<std::uint8_t> in(nin), captured;
  for (std::size_t s = 0; s < n; ++s) {
    std::copy_n(inputs.begin() + static_cast<std::ptrdiff_t>(s * nin), nin,
                in.begin());
    sim.advance(ref, in);
    std::uint64_t settled = 0;
    std::uint32_t t = stream.toggle_begin[s];
    for (std::size_t k = 0; k < ref.out_next.size(); ++k) {
      settled |= static_cast<std::uint64_t>(ref.out_next[k]) << k;
      if (ref.out_prev[k] == ref.out_next[k]) continue;
      ASSERT_LT(t, stream.toggle_begin[s + 1]) << what << " sample " << s;
      ASSERT_EQ(stream.toggle_bit[t], k) << what << " sample " << s;
      ASSERT_EQ(PsGrid::to_ns(stream.toggle_settle_ticks[t]), ref.out_settle[k])
          << what << " sample " << s << " output " << k;
      ++t;
    }
    ASSERT_EQ(t, stream.toggle_begin[s + 1]) << what << " sample " << s;
    ASSERT_EQ(stream.settled[s], settled) << what << " sample " << s;

    const auto expect_capture = [&](double period) {
      sim.capture(ref, period, captured);
      std::uint64_t want = 0;
      for (std::size_t k = 0; k < captured.size(); ++k)
        want |= static_cast<std::uint64_t>(captured[k]) << k;
      ASSERT_EQ(stream.capture_word(s, period), want)
          << what << " sample " << s << " period " << period;
      ASSERT_EQ(stream.capture_word_ticks(s, PsGrid::period_ticks(period)), want)
          << what << " sample " << s << " period " << period;
    };
    for (const double period : periods) expect_capture(period);
    for (t = stream.toggle_begin[s]; t < stream.toggle_begin[s + 1]; ++t)
      if (stream.toggle_settle_ticks[t] > 0)  // capture needs a positive period
        expect_capture(PsGrid::to_ns(stream.toggle_settle_ticks[t]));
  }

  // After the stream, `st` must look like n advance() calls.
  ASSERT_EQ(st.prev, ref.prev) << what;
  ASSERT_EQ(st.out_settle, ref.out_settle) << what;
  ASSERT_EQ(st.out_prev, ref.out_prev) << what;
  ASSERT_EQ(st.out_next, ref.out_next) << what;
  ASSERT_EQ(st.last_output_settle_ns, ref.last_output_settle_ns) << what;
}

}  // namespace oclp
