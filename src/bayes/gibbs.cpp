#include "bayes/gibbs.hpp"

#include <algorithm>
#include <cmath>

#include "bayes/grid_kernel.hpp"
#include "common/rng.hpp"
#include "linalg/decompositions.hpp"

namespace oclp {

namespace {
/// Dominant eigenvalue of the (uncentered) second-moment matrix of x —
/// the natural scale of the strongest remaining mode of variation.
double dominant_eigenvalue(const Matrix& x) {
  const std::size_t n = x.cols();
  Matrix s = x * x.transposed();
  s *= 1.0 / static_cast<double>(n);
  const EigenSym eig = jacobi_eigen_sym(s);
  return eig.values.front();
}

/// Safety margin (in log units) added when converting kLogPrune into a
/// scoring-band radius, absorbing the rounding slop of the radius
/// computation; entries wrongly kept are scored exactly, so the margin
/// only errs towards correctness.
constexpr double kBandMargin = 2.0;

/// First grid index with value >= x (grid ascending).
std::size_t grid_lower(const std::vector<double>& grid, double x) {
  return static_cast<std::size_t>(
      std::lower_bound(grid.begin(), grid.end(), x) - grid.begin());
}
}  // namespace

GibbsResult sample_projection(const Matrix& x, const CoeffPrior& prior,
                              const GibbsSettings& settings) {
  if (settings.reference_impl) return sample_projection_reference(x, prior, settings);

  const std::size_t p = x.rows();
  const std::size_t n = x.cols();
  OCLP_CHECK(p >= 1 && n >= 2);
  OCLP_CHECK(prior.size() >= 2);
  OCLP_CHECK(settings.burn_in >= 0 && settings.samples >= 1);

  Rng rng(settings.seed);
  double fvar_prior = settings.factor_variance;
  if (fvar_prior <= 0.0) fvar_prior = std::max(dominant_eigenvalue(x), 1e-9);
  const auto& grid = prior.values();
  std::vector<double> log_prior(grid.size());
  double log_pmax = -1e300;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    log_prior[i] = std::log(std::max(prior.probability(i), 1e-300));
    log_pmax = std::max(log_pmax, log_prior[i]);
  }

  // --- iteration-invariant sufficient statistic -----------------------------
  // sum_xx[r] = Σ_i x(r,i)²: with sum_xf and sum_ff it makes the residual
  // sum of squares Σ_i (x(r,i) − λ_r f_i)² an O(1) evaluation per row.
  std::vector<double> sum_xx(p, 0.0);
  for (std::size_t r = 0; r < p; ++r) {
    const double* xr = x.data() + r * n;
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += xr[i] * xr[i];
    sum_xx[r] = s;
  }

  // --- state ---------------------------------------------------------------
  std::vector<double> lambda(p);
  // Start from the data's dominant direction snapped to the grid, so short
  // chains (tests) land in the right mode quickly; the chain remains free
  // to leave it.
  {
    std::vector<double> v(p, 0.0);
    for (std::size_t r = 0; r < p; ++r)
      v[r] = std::sqrt(sum_xx[r] / static_cast<double>(n));
    const double nv = norm(v);
    for (std::size_t r = 0; r < p; ++r) {
      const double init = nv > 0.0 ? v[r] / nv : 0.0;
      lambda[r] = prior.value(prior.nearest_index(init));
    }
  }
  std::vector<double> psi(p, 0.01);
  std::vector<double> f(n, 0.0);
  std::vector<double> sum_xf(p, 0.0);

  // --- accumulators ----------------------------------------------------------
  std::vector<double> lambda_acc(p, 0.0);
  std::vector<double> psi_acc(p, 0.0);
  // Per-entry visit counts over the grid (marginal posterior histograms).
  std::vector<std::vector<std::uint32_t>> visits(p,
      std::vector<std::uint32_t>(grid.size(), 0));
  std::vector<std::size_t> last_index(p, 0);
  double loglik_acc = 0.0;

  std::vector<double> weights(grid.size());
  const band::BandKernel& kernel = band::band_kernel();
  const int total_iters = settings.burn_in + settings.samples;
  for (int iter = 0; iter < total_iters; ++iter) {
    // -- f_i | λ, Ψ ---------------------------------------------------------
    double prec = 1.0 / fvar_prior;  // factor prior f ~ N(0, v)
    for (std::size_t r = 0; r < p; ++r) prec += lambda[r] * lambda[r] / psi[r];
    const double fvar = 1.0 / prec;
    const double fsd = std::sqrt(fvar);
    for (std::size_t i = 0; i < n; ++i) {
      double num = 0.0;
      for (std::size_t r = 0; r < p; ++r) num += lambda[r] * x(r, i) / psi[r];
      f[i] = rng.normal(num * fvar, fsd);
    }

    double sum_ff = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum_ff += f[i] * f[i];

    // One fused pass over the data per iteration: sum_xf[r] = Σ_i x(r,i)·f_i
    // feeds both the Ψ scale below and the λ conditional mean afterwards
    // (the pre-restructure code recomputed it row by row in the λ step).
    for (std::size_t r = 0; r < p; ++r) {
      const double* xr = x.data() + r * n;
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += xr[i] * f[i];
      sum_xf[r] = s;
    }

    // -- Ψ_p | λ, F ----------------------------------------------------------
    // Σ_i (x − λf)² = sum_xx − 2λ·sum_xf + λ²·sum_ff: O(1) per row. Clamp at
    // zero — cancellation can leave a tiny negative where the residual
    // vanishes, and the InvGamma scale must stay positive.
    for (std::size_t r = 0; r < p; ++r) {
      const double ss = std::max(
          sum_xx[r] - 2.0 * lambda[r] * sum_xf[r] + lambda[r] * lambda[r] * sum_ff,
          0.0);
      psi[r] = rng.inverse_gamma(settings.psi_shape + 0.5 * static_cast<double>(n),
                                 settings.psi_scale + 0.5 * ss);
      psi[r] = std::max(psi[r], 1e-12);
    }

    // -- λ_p | F, Ψ_p over the grid -------------------------------------------
    for (std::size_t r = 0; r < p; ++r) {
      double mu = 0.0, inv_two_var = 0.0;
      if (sum_ff > 1e-12) {
        mu = sum_xf[r] / sum_ff;
        inv_two_var = sum_ff / (2.0 * psi[r]);
      }
      // Scoring band. The exact log-weight at the grid point nearest μ is a
      // lower bound L0 on wmax, so any entry with
      //   log_pmax − d²·inv_two_var < L0 + kLogPrune − kBandMargin
      // can neither attain the maximum nor survive the prune — its score is
      // never needed. Those entries form the complement of a contiguous
      // window |grid − μ| ≤ radius (the quadratic is monotone on each side
      // of μ), found by binary search; everything outside is treated as
      // zero weight without being scored. wmax over the band equals wmax
      // over the full grid, because the excluded entries are all < L0 ≤ wmax.
      std::size_t g_lo = 0, g_hi = grid.size() - 1;
      if (inv_two_var > 0.0) {
        std::size_t g0 = grid_lower(grid, mu);
        if (g0 == grid.size()) g0 = grid.size() - 1;
        else if (g0 > 0 && mu - grid[g0 - 1] < grid[g0] - mu) --g0;
        const double d0 = grid[g0] - mu;
        const double l0 = log_prior[g0] - d0 * d0 * inv_two_var;
        const double radius = std::sqrt(
            (log_pmax - l0 - band::kLogPrune + kBandMargin) / inv_two_var);
        g_lo = grid_lower(grid, mu - radius);
        g_hi = static_cast<std::size_t>(
                   std::upper_bound(grid.begin(), grid.end(), mu + radius) -
                   grid.begin());
        g_hi = g_hi > 0 ? g_hi - 1 : 0;
        // The nearest-to-μ point is provably inside the band (radius ≥ |d0|);
        // clamp anyway so rounding slop can never produce an empty window.
        g_lo = std::min(g_lo, g0);
        g_hi = std::max(g_hi, g0);
      }
      // Score, exponentiate (pruning in-band stragglers below the same
      // threshold) and total the band in one kernel call.
      const band::BandResult b = kernel.fn(grid.data(), log_prior.data(), g_lo,
                                           g_hi, mu, inv_two_var, weights.data());
      // The walk of Rng::categorical over the full grid with the pruned
      // entries at zero weight: subtracting 0.0 from a strictly positive
      // remainder never crosses zero, so walking only the unpruned span is
      // exact, and the fall-through bin is the same last index. Consumes
      // one uniform.
      OCLP_CHECK_MSG(std::isfinite(b.total),
                     "categorical: non-finite weight total");
      OCLP_CHECK_MSG(b.total > 0.0, "categorical: all weights are zero");
      double rem = rng.uniform() * b.total;
      std::size_t g = grid.size() - 1;
      for (std::size_t j = b.first; j <= b.last; ++j) {
        rem -= weights[j];
        if (rem <= 0.0) {
          g = j;
          break;
        }
      }
      last_index[r] = g;
      lambda[r] = grid[g];
    }

    if (iter >= settings.burn_in) {
      for (std::size_t r = 0; r < p; ++r) {
        lambda_acc[r] += lambda[r];
        psi_acc[r] += psi[r];
        ++visits[r][last_index[r]];
      }
      // Log joint (up to constants) as a mixing diagnostic; the residual
      // sum of squares reuses the sufficient statistics (λ here is the
      // fresh draw, so this is not the Ψ-step value), and the λ prior term
      // reads the drawn grid index directly instead of re-searching it.
      double ll = 0.0;
      for (std::size_t r = 0; r < p; ++r) {
        const double ss = std::max(
            sum_xx[r] - 2.0 * lambda[r] * sum_xf[r] + lambda[r] * lambda[r] * sum_ff,
            0.0);
        ll += -0.5 * ss / psi[r] -
              0.5 * static_cast<double>(n) * std::log(psi[r]);
        ll += log_prior[last_index[r]];
      }
      loglik_acc += ll;
    }
  }

  GibbsResult result;
  result.lambda_mean.resize(p);
  result.lambda.resize(p);
  result.psi.resize(p);
  const double inv_s = 1.0 / static_cast<double>(settings.samples);
  for (std::size_t r = 0; r < p; ++r) {
    result.lambda_mean[r] = lambda_acc[r] * inv_s;
    std::size_t mode = 0;
    for (std::size_t g = 1; g < grid.size(); ++g)
      if (visits[r][g] > visits[r][mode]) mode = g;
    result.lambda[r] = grid[mode];
    result.psi[r] = psi_acc[r] * inv_s;
  }
  result.visits = std::move(visits);
  result.avg_log_likelihood = loglik_acc * inv_s;
  return result;
}

GibbsResult sample_projection_reference(const Matrix& x, const CoeffPrior& prior,
                                        const GibbsSettings& settings) {
  const std::size_t p = x.rows();
  const std::size_t n = x.cols();
  OCLP_CHECK(p >= 1 && n >= 2);
  OCLP_CHECK(prior.size() >= 2);
  OCLP_CHECK(settings.burn_in >= 0 && settings.samples >= 1);

  Rng rng(settings.seed);
  double fvar_prior = settings.factor_variance;
  if (fvar_prior <= 0.0) fvar_prior = std::max(dominant_eigenvalue(x), 1e-9);
  const auto& grid = prior.values();
  std::vector<double> log_prior(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    log_prior[i] = std::log(std::max(prior.probability(i), 1e-300));

  // --- state ---------------------------------------------------------------
  std::vector<double> lambda(p);
  // Start from the data's dominant direction snapped to the grid, so short
  // chains (tests) land in the right mode quickly; the chain remains free
  // to leave it.
  {
    std::vector<double> v(p, 0.0);
    for (std::size_t r = 0; r < p; ++r) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += x(r, i) * x(r, i);
      v[r] = std::sqrt(s / static_cast<double>(n));
    }
    const double nv = norm(v);
    for (std::size_t r = 0; r < p; ++r) {
      const double init = nv > 0.0 ? v[r] / nv : 0.0;
      lambda[r] = prior.value(prior.nearest_index(init));
    }
  }
  std::vector<double> psi(p, 0.01);
  std::vector<double> f(n, 0.0);

  // --- accumulators ----------------------------------------------------------
  std::vector<double> lambda_acc(p, 0.0);
  std::vector<double> psi_acc(p, 0.0);
  // Per-entry visit counts over the grid (marginal posterior histograms).
  std::vector<std::vector<std::uint32_t>> visits(p,
      std::vector<std::uint32_t>(grid.size(), 0));
  std::vector<std::size_t> last_index(p, 0);
  double loglik_acc = 0.0;

  std::vector<double> weights(grid.size());
  const int total = settings.burn_in + settings.samples;
  for (int iter = 0; iter < total; ++iter) {
    // -- f_i | λ, Ψ ---------------------------------------------------------
    double prec = 1.0 / fvar_prior;  // factor prior f ~ N(0, v)
    for (std::size_t r = 0; r < p; ++r) prec += lambda[r] * lambda[r] / psi[r];
    const double fvar = 1.0 / prec;
    const double fsd = std::sqrt(fvar);
    for (std::size_t i = 0; i < n; ++i) {
      double num = 0.0;
      for (std::size_t r = 0; r < p; ++r) num += lambda[r] * x(r, i) / psi[r];
      f[i] = rng.normal(num * fvar, fsd);
    }

    double sum_ff = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum_ff += f[i] * f[i];

    // -- Ψ_p | λ, F ----------------------------------------------------------
    for (std::size_t r = 0; r < p; ++r) {
      double ss = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double res = x(r, i) - lambda[r] * f[i];
        ss += res * res;
      }
      psi[r] = rng.inverse_gamma(settings.psi_shape + 0.5 * static_cast<double>(n),
                                 settings.psi_scale + 0.5 * ss);
      psi[r] = std::max(psi[r], 1e-12);
    }

    // -- λ_p | F, Ψ_p over the grid -------------------------------------------
    for (std::size_t r = 0; r < p; ++r) {
      double sum_xf = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum_xf += x(r, i) * f[i];
      double mu = 0.0, inv_two_var = 0.0;
      if (sum_ff > 1e-12) {
        mu = sum_xf / sum_ff;
        inv_two_var = sum_ff / (2.0 * psi[r]);
      }
      double wmax = -1e300;
      for (std::size_t g = 0; g < grid.size(); ++g) {
        const double d = grid[g] - mu;
        const double lw = log_prior[g] - d * d * inv_two_var;
        weights[g] = lw;
        wmax = std::max(wmax, lw);
      }
      for (auto& w : weights) w = std::exp(w - wmax);
      const std::size_t g = rng.categorical(weights);
      last_index[r] = g;
      lambda[r] = grid[g];
    }

    if (iter >= settings.burn_in) {
      for (std::size_t r = 0; r < p; ++r) {
        lambda_acc[r] += lambda[r];
        psi_acc[r] += psi[r];
        ++visits[r][last_index[r]];
      }
      // Log joint (up to constants) as a mixing diagnostic.
      double ll = 0.0;
      for (std::size_t r = 0; r < p; ++r) {
        double ss = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double res = x(r, i) - lambda[r] * f[i];
          ss += res * res;
        }
        ll += -0.5 * ss / psi[r] -
              0.5 * static_cast<double>(n) * std::log(psi[r]);
        ll += log_prior[prior.nearest_index(lambda[r])];
      }
      loglik_acc += ll;
    }
  }

  GibbsResult result;
  result.lambda_mean.resize(p);
  result.lambda.resize(p);
  result.psi.resize(p);
  const double inv_s = 1.0 / static_cast<double>(settings.samples);
  for (std::size_t r = 0; r < p; ++r) {
    result.lambda_mean[r] = lambda_acc[r] * inv_s;
    std::size_t mode = 0;
    for (std::size_t g = 1; g < grid.size(); ++g)
      if (visits[r][g] > visits[r][mode]) mode = g;
    result.lambda[r] = grid[mode];
    result.psi[r] = psi_acc[r] * inv_s;
  }
  result.visits = std::move(visits);
  result.avg_log_likelihood = loglik_acc * inv_s;
  return result;
}

}  // namespace oclp
