#include "bayes/gibbs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace oclp {
namespace {

MultConfig acfg(int wl) { return MultConfig{MultArch::Array, wl, 1}; }

// Centered rank-1 data x_i = u z_i + noise with a planted unit direction.
Matrix rank1_data(const std::vector<double>& direction, std::size_t n,
                  double mode_sd, double noise, std::uint64_t seed) {
  Rng rng(seed);
  const auto u = normalized(direction);
  Matrix x(u.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double z = rng.normal(0.0, mode_sd);
    for (std::size_t r = 0; r < u.size(); ++r)
      x(r, i) = z * u[r] + rng.normal(0.0, noise);
  }
  return x;
}

GibbsSettings fast_settings(std::uint64_t seed) {
  GibbsSettings s;
  s.burn_in = 150;
  s.samples = 400;
  s.seed = seed;
  return s;
}

TEST(Gibbs, RecoversPlantedDirectionUpToQuantisation) {
  const std::vector<double> dir{0.6, -0.3, 0.65, 0.1, -0.2, 0.28};
  const Matrix x = rank1_data(dir, 200, 0.2, 0.01, 3);
  const auto prior = make_flat_prior(acfg(7), 310.0);
  const auto res = sample_projection(x, prior, fast_settings(5));

  const auto u = normalized(dir);
  const double nl = norm(res.lambda);
  ASSERT_GT(nl, 0.5);  // near unit norm thanks to the anchored factor prior
  ASSERT_LT(nl, 1.3);
  double cosine = std::abs(dot(u, res.lambda)) / nl;
  EXPECT_GT(cosine, 0.995);
}

TEST(Gibbs, LambdaValuesAreOnTheGrid) {
  const Matrix x = rank1_data({1, 2, -1}, 100, 0.2, 0.02, 7);
  const auto prior = make_flat_prior(acfg(4), 310.0);
  const auto res = sample_projection(x, prior, fast_settings(9));
  for (double v : res.lambda) {
    const auto idx = prior.nearest_index(v);
    EXPECT_DOUBLE_EQ(prior.value(idx), v);
  }
}

TEST(Gibbs, DeterministicInSeed) {
  const Matrix x = rank1_data({1, -1, 2}, 80, 0.2, 0.02, 11);
  const auto prior = make_flat_prior(acfg(5), 310.0);
  const auto a = sample_projection(x, prior, fast_settings(42));
  const auto b = sample_projection(x, prior, fast_settings(42));
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.lambda_mean, b.lambda_mean);
}

TEST(Gibbs, DifferentSeedsStillAgreeOnTheMode) {
  const Matrix x = rank1_data({2, 1, -1, 0.5}, 300, 0.25, 0.01, 13);
  const auto prior = make_flat_prior(acfg(6), 310.0);
  const auto a = sample_projection(x, prior, fast_settings(1));
  const auto b = sample_projection(x, prior, fast_settings(2));
  // Directions must agree even though chains differ.
  const double cosine = std::abs(dot(a.lambda, b.lambda)) /
                        (norm(a.lambda) * norm(b.lambda));
  EXPECT_GT(cosine, 0.98);
}

TEST(Gibbs, HardPriorExcludesForbiddenCodesOnWeakData) {
  // Forbid all codes with |value| > 0.5. On weak (noise-only) data the
  // likelihood is flat, so the posterior follows the prior and the
  // forbidden half of the grid must never be sampled. (On strong data the
  // prior is a soft penalty by design — the objective T trades errors for
  // accuracy — so exclusion is only guaranteed when the data does not
  // overwhelmingly demand a forbidden code.)
  ErrorModel model(acfg(5), 9, {310.0});
  for (std::uint32_t m = 0; m < 32; ++m)
    model.set(m, 0, m > 16 ? 1e9 : 0.0, 0.0, 0.0);
  const auto prior = make_prior(model, acfg(5), 310.0, 8.0);

  Rng rng(17);
  Matrix x(3, 150);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 150; ++c) x(r, c) = rng.normal(0.0, 0.02);
  const auto res = sample_projection(x, prior, fast_settings(19));
  for (double v : res.lambda) EXPECT_LE(std::abs(v), 16.0 / 32.0 + 1e-12);
}

TEST(Gibbs, PriorShiftsPosteriorAwayFromPenalisedCodes) {
  // Same data, hard vs flat prior: the hard prior must strictly reduce the
  // use of penalised codes.
  ErrorModel model(acfg(6), 9, {310.0});
  for (std::uint32_t m = 0; m < 64; ++m)
    model.set(m, 0, (m % 2 == 1) ? 1e8 : 0.0, 0.0, 0.0);  // odd codes dirty
  const auto hard = make_prior(model, acfg(6), 310.0, 6.0);
  const auto flat = make_flat_prior(acfg(6), 310.0);

  const Matrix x = rank1_data({0.9, -0.5, 0.7, 0.3}, 250, 0.25, 0.02, 21);
  const auto res_hard = sample_projection(x, hard, fast_settings(23));
  const auto res_flat = sample_projection(x, flat, fast_settings(23));

  auto dirty_count = [](const std::vector<double>& lambda) {
    int n = 0;
    for (double v : lambda) {
      const auto mag = static_cast<unsigned>(std::lround(std::abs(v) * 64.0));
      if (mag % 2 == 1) ++n;
    }
    return n;
  };
  EXPECT_EQ(dirty_count(res_hard.lambda), 0);
  // The flat prior has no reason to avoid odd codes for this direction.
  EXPECT_GT(dirty_count(res_flat.lambda), 0);
}

TEST(Gibbs, PsiEstimatesNoiseScale) {
  const double noise = 0.05;
  const Matrix x = rank1_data({1, 1, 1, 1}, 500, 0.3, noise, 23);
  const auto prior = make_flat_prior(acfg(7), 310.0);
  auto settings = fast_settings(29);
  settings.burn_in = 300;
  settings.samples = 700;
  const auto res = sample_projection(x, prior, settings);
  for (double psi : res.psi) {
    EXPECT_GT(psi, noise * noise * 0.3);
    EXPECT_LT(psi, noise * noise * 5.0);
  }
}

TEST(Gibbs, InputValidation) {
  const auto prior = make_flat_prior(acfg(4), 310.0);
  EXPECT_THROW(sample_projection(Matrix(3, 1), prior, fast_settings(1)),
               CheckError);  // too few cases
  GibbsSettings bad = fast_settings(1);
  bad.samples = 0;
  EXPECT_THROW(sample_projection(Matrix(3, 10, 0.5), prior, bad), CheckError);
}

TEST(Gibbs, LogLikelihoodIsFinite) {
  const Matrix x = rank1_data({1, -2}, 100, 0.2, 0.02, 31);
  const auto prior = make_flat_prior(acfg(5), 310.0);
  const auto res = sample_projection(x, prior, fast_settings(33));
  EXPECT_TRUE(std::isfinite(res.avg_log_likelihood));
}

TEST(Gibbs, VisitHistogramShapeAndMass) {
  const Matrix x = rank1_data({1, -1, 0.5}, 120, 0.2, 0.02, 35);
  const auto prior = make_flat_prior(acfg(5), 310.0);
  const auto settings = fast_settings(37);
  const auto res = sample_projection(x, prior, settings);
  ASSERT_EQ(res.visits.size(), x.rows());
  for (const auto& row : res.visits) {
    ASSERT_EQ(row.size(), prior.size());
    std::uint64_t mass = 0;
    for (auto v : row) mass += v;
    EXPECT_EQ(mass, static_cast<std::uint64_t>(settings.samples));
  }
}

// Golden determinism contract: the restructured sampler must reproduce the
// retained reference implementation draw for draw. The discrete chain (λ
// draws, hence the per-entry visit counts) is required to be bitwise
// identical; the continuous outputs go through an algebraically equivalent
// O(1) sufficient-statistics form, so they are pinned to a few ulps.
TEST(Gibbs, FastPathMatchesReferenceBitwise) {
  for (const int wl : {3, 6, 9}) {
    for (const std::uint64_t seed : {5ull, 17ull}) {
      const Matrix x =
          rank1_data({0.6, -0.3, 0.65, 0.1, -0.2, 0.28}, 100, 0.2, 0.02, seed);
      const auto prior = make_flat_prior(acfg(wl), 310.0);
      const auto settings = fast_settings(seed * 7 + 1);
      const auto fast = sample_projection(x, prior, settings);
      auto ref_settings = settings;
      ref_settings.reference_impl = true;
      const auto ref = sample_projection(x, prior, ref_settings);

      EXPECT_EQ(fast.lambda, ref.lambda) << "wl=" << wl << " seed=" << seed;
      EXPECT_EQ(fast.visits, ref.visits) << "wl=" << wl << " seed=" << seed;
      ASSERT_EQ(fast.psi.size(), ref.psi.size());
      for (std::size_t r = 0; r < ref.psi.size(); ++r) {
        EXPECT_NEAR(fast.psi[r], ref.psi[r], std::abs(ref.psi[r]) * 1e-12);
        EXPECT_NEAR(fast.lambda_mean[r], ref.lambda_mean[r],
                    std::abs(ref.lambda_mean[r]) * 1e-12 + 1e-15);
      }
      EXPECT_NEAR(fast.avg_log_likelihood, ref.avg_log_likelihood,
                  std::abs(ref.avg_log_likelihood) * 1e-12);
    }
  }
}

TEST(Gibbs, HardwarePriorChainMatchesReferenceBitwise) {
  // Same contract under a non-flat prior, where the fast path's scoring
  // band is widest (the prior spreads the log-weights), at the largest
  // word-lengths (where the band kernel scores the most entries per row)
  // and the Table-I chain length.
  for (const int wl : {7, 8, 9}) {
    ErrorModel model(acfg(wl), 9, {310.0});
    Rng noise(47 + static_cast<std::uint64_t>(wl));
    for (std::uint32_t m = 0; m < (1u << wl); ++m)
      model.set(m, 0, noise.uniform() * 1e6, 0.0, 0.0);
    const auto prior = make_prior(model, acfg(wl), 310.0, 4.0);
    const Matrix x =
        rank1_data({0.9, -0.5, 0.7, 0.3, -0.2, 0.45}, 100, 0.2, 0.02, 49);
    GibbsSettings settings = fast_settings(51);
    settings.burn_in = 1000;
    settings.samples = 3000;
    const auto fast = sample_projection(x, prior, settings);
    auto ref_settings = settings;
    ref_settings.reference_impl = true;
    const auto ref = sample_projection(x, prior, ref_settings);
    EXPECT_EQ(fast.lambda, ref.lambda) << "wl=" << wl;
    EXPECT_EQ(fast.visits, ref.visits) << "wl=" << wl;
  }
}

TEST(Gibbs, FastAndReferencePosteriorMarginalsAgreeAcrossSeeds) {
  // Statistical equivalence on independent chains: fast and reference
  // sampling processes with different seeds must estimate the same
  // posterior marginals (they are the same Markov kernel).
  const Matrix x = rank1_data({0.7, -0.4, 0.55}, 300, 0.25, 0.02, 53);
  const auto prior = make_flat_prior(acfg(6), 310.0);
  auto settings = fast_settings(55);
  settings.burn_in = 300;
  settings.samples = 1500;
  const auto fast = sample_projection(x, prior, settings);
  auto ref_settings = settings;
  ref_settings.seed = 56;  // independent chain
  ref_settings.reference_impl = true;
  const auto ref = sample_projection(x, prior, ref_settings);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(fast.lambda_mean[r], ref.lambda_mean[r], 0.05);
    EXPECT_NEAR(fast.psi[r], ref.psi[r], std::abs(ref.psi[r]) * 0.5);
  }
}

}  // namespace
}  // namespace oclp
