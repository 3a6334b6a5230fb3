// Property tests of the Gibbs sampler's λ band kernel: every ISA variant
// must reproduce the scalar variant bit for bit (wmax, weights, total and
// the unpruned span), and the shared polynomial exponential must stay within 1 ULP of
// std::exp on the unpruned range [kLogPrune, 0].
#include "bayes/grid_kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace oclp::band {
namespace {

std::uint64_t ulp_distance(double a, double b) {
  const auto ia = static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(a));
  const auto ib = static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(b));
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The 2·2^wl − 1 signed-magnitude coefficient grid, ascending.
std::vector<double> make_grid(int wl) {
  const int half = (1 << wl) - 1;
  std::vector<double> grid;
  for (int m = -half; m <= half; ++m)
    grid.push_back(static_cast<double>(m) / static_cast<double>(1 << wl));
  return grid;
}

/// Log-prior of a hardware-shaped prior: mostly mild penalties, with some
/// codes forbidden outright (log 1e-300), so bands hold entries on both
/// sides of the prune.
std::vector<double> make_log_prior(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> lp(size);
  for (auto& v : lp)
    v = rng.uniform() < 0.1 ? std::log(1e-300) : -8.0 * rng.uniform() - 0.5;
  return lp;
}

struct Band {
  BandResult result;
  std::vector<double> weights;
};

constexpr double kSentinel = -12345.0;

Band run(const BandKernel& kernel, const std::vector<double>& grid,
        const std::vector<double>& lp, std::size_t lo, std::size_t hi,
        double mu, double k) {
  Band r{{}, std::vector<double>(grid.size(), kSentinel)};
  r.result = kernel.fn(grid.data(), lp.data(), lo, hi, mu, k, r.weights.data());
  return r;
}

TEST(GridKernel, DispatchPicksAVariantTheHostRuns) {
  BandKernel all[2];
  const int n = all_band_kernels(all);
  ASSERT_GE(n, 1);
  EXPECT_STREQ(all[0].isa, "scalar");
  bool found = false;
  for (int i = 0; i < n; ++i) found = found || all[i].fn == band_kernel().fn;
  EXPECT_TRUE(found) << band_kernel().isa;
}

TEST(GridKernel, ScalarVariantMatchesThePlainLoop) {
  // Scores and wmax exactly as the unfused scoring loop computes them;
  // weights within 1 ULP of std::exp, zero below the prune; total in
  // index order; [first, last] the unpruned span; entries outside the
  // band untouched.
  BandKernel all[2];
  all_band_kernels(all);
  const auto grid = make_grid(7);
  const auto lp = make_log_prior(grid.size(), 3);
  const std::size_t lo = 20, hi = 200;
  for (const double k : {0.0, 60.0, 4000.0}) {
    const double mu = 0.3141;
    const Band got = run(all[0], grid, lp, lo, hi, mu, k);
    double wmax = -1e300;
    std::vector<double> s(grid.size());
    for (std::size_t g = lo; g <= hi; ++g) {
      const double d = grid[g] - mu;
      s[g] = lp[g] - d * d * k;
      wmax = std::max(wmax, s[g]);
    }
    EXPECT_TRUE(same_bits(got.result.wmax, wmax)) << "k=" << k;
    double total = 0.0;
    std::size_t first = hi + 1, last = lo;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      if (g < lo || g > hi) {
        EXPECT_EQ(got.weights[g], kSentinel);
        continue;
      }
      const double e = s[g] - wmax;
      if (e < kLogPrune) {
        EXPECT_EQ(got.weights[g], 0.0) << "g=" << g;
      } else {
        EXPECT_LE(ulp_distance(got.weights[g], std::exp(e)), 1u) << "g=" << g;
        first = std::min(first, g);
        last = g;
      }
      total += got.weights[g];
    }
    EXPECT_TRUE(same_bits(got.result.total, total)) << "k=" << k;
    EXPECT_EQ(got.result.first, first) << "k=" << k;
    EXPECT_EQ(got.result.last, last) << "k=" << k;
  }
}

TEST(GridKernel, EveryVariantIsBitwiseIdenticalToScalar) {
  BandKernel all[2];
  const int n = all_band_kernels(all);
  if (n == 1) GTEST_SKIP() << "host runs the scalar variant only";
  std::size_t bands = 0, pruned = 0, kept = 0;
  for (int wl = 3; wl <= 9; ++wl) {
    const auto grid = make_grid(wl);
    const auto lp = make_log_prior(grid.size(), 100 + static_cast<std::uint64_t>(wl));
    const std::size_t size = grid.size();
    // μ off-grid (between codes, beyond either end) and on-grid; k from a
    // flat conditional (k = 0) to one sharp enough to prune most of a band.
    const double step = 1.0 / static_cast<double>(1 << wl);
    for (const double mu : {0.2 + step / 3.0, -0.77 - step / 7.0, 1.05, grid[1]}) {
      for (const double k : {0.0, 25.0, 900.0}) {
        for (std::size_t len = 1; len <= size; ++len) {
          // Bands touching the low edge, the high edge, and one inside.
          for (const std::size_t lo : {std::size_t{0}, size - len, (size - len) / 2}) {
            const std::size_t hi = lo + len - 1;
            const Band ref = run(all[0], grid, lp, lo, hi, mu, k);
            for (int v = 1; v < n; ++v) {
              const Band got = run(all[v], grid, lp, lo, hi, mu, k);
              ASSERT_TRUE(same_bits(got.result.wmax, ref.result.wmax))
                  << all[v].isa << " wl=" << wl << " len=" << len << " lo=" << lo;
              ASSERT_TRUE(same_bits(got.result.total, ref.result.total))
                  << all[v].isa << " wl=" << wl << " len=" << len << " lo=" << lo;
              ASSERT_EQ(got.result.first, ref.result.first)
                  << all[v].isa << " wl=" << wl << " len=" << len << " lo=" << lo;
              ASSERT_EQ(got.result.last, ref.result.last)
                  << all[v].isa << " wl=" << wl << " len=" << len << " lo=" << lo;
              for (std::size_t g = 0; g < size; ++g)
                ASSERT_TRUE(same_bits(got.weights[g], ref.weights[g]))
                    << all[v].isa << " wl=" << wl << " len=" << len
                    << " lo=" << lo << " g=" << g;
            }
            ++bands;
            for (std::size_t g = lo; g <= hi; ++g)
              ++(ref.weights[g] == 0.0 ? pruned : kept);
          }
        }
      }
    }
  }
  // The sweep really did straddle the prune.
  EXPECT_GT(pruned, bands);
  EXPECT_GT(kept, bands);
}

TEST(GridKernel, ExpIsWithinOneUlpOfStdExpOnTheUnprunedRange) {
  EXPECT_EQ(exp_poly(0.0), 1.0);
  EXPECT_EQ(exp_poly(-0.0), 1.0);
  std::vector<double> xs{kLogPrune, -std::numeric_limits<double>::denorm_min(),
                         -1e-300, -1e-17};
  // Dense uniform sweep, plus the reduction's seams at odd multiples of
  // ln2/2 where the rounding of n flips.
  Rng rng(7);
  for (int i = 0; i < (1 << 20); ++i) xs.push_back(kLogPrune * rng.uniform());
  for (int j = 1; j < 130; j += 2) {
    const double seam = -0.5 * j * std::log(2.0);
    for (int u = -4; u <= 4; ++u) xs.push_back(seam + u * 1e-15);
  }
  std::uint64_t worst = 0;
  for (const double x : xs) {
    if (x < kLogPrune) continue;
    const std::uint64_t d = ulp_distance(exp_poly(x), std::exp(x));
    worst = std::max(worst, d);
    ASSERT_LE(d, 1u) << "x=" << x;
  }
  EXPECT_LE(worst, 1u);

  // Every vector variant exponentiates the same values: with grid == μ the
  // scores are the log-prior itself, and one entry at 0 makes wmax 0.
  BandKernel all[2];
  const int n = all_band_kernels(all);
  const std::size_t chunk = 1023;
  for (int v = 0; v < n; ++v) {
    for (std::size_t c0 = 0; c0 < xs.size(); c0 += chunk - 1) {
      std::vector<double> lp{0.0};
      for (std::size_t i = c0; i < xs.size() && lp.size() < chunk; ++i)
        lp.push_back(xs[i]);
      const std::vector<double> grid(lp.size(), 0.25);
      const Band got = run(all[v], grid, lp, 0, lp.size() - 1, 0.25, 1.0);
      ASSERT_EQ(got.result.wmax, 0.0);
      ASSERT_EQ(got.weights[0], 1.0) << all[v].isa;
      ASSERT_EQ(got.result.first, 0u);
      ASSERT_EQ(got.result.last, lp.size() - 1);
      for (std::size_t i = 1; i < lp.size(); ++i)
        ASSERT_TRUE(same_bits(got.weights[i], exp_poly(lp[i])))
            << all[v].isa << " x=" << lp[i];
    }
  }
}

}  // namespace
}  // namespace oclp::band
