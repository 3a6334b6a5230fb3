// Gibbs sampling of one projection vector (paper Section V, borrowing the
// Bayesian formulation of Bouganis et al., TVLSI'10 [9], via Geman & Geman
// [11]).
//
// Model for the current dimension, on the residual data X (P×N):
//
//   x_i = λ f_i + e_i,   f_i ~ N(0, 1),   e_i ~ N(0, diag(Ψ)),
//
// with every entry of λ constrained to the quantised coefficient grid and
// carrying the hardware-aware prior p(λ) = g(E(λ, f_clk)). Full
// conditionals:
//   f_i | λ,Ψ   ~ N( (λᵀΨ⁻¹x_i) / (λᵀΨ⁻¹λ + 1), 1/(λᵀΨ⁻¹λ + 1) )
//   Ψ_p | λ,F   ~ InvGamma( a₀ + N/2, b₀ + ½ Σ_i (x_pi − λ_p f_i)² )
//   λ_p | F,Ψ_p ∝ N(λ_p; μ_p, σ_p²) · prior(λ_p) over the grid, with
//                 μ_p = Σ_i x_pi f_i / Σ_i f_i²,  σ_p² = Ψ_p / Σ_i f_i².
//
// The discrete λ conditional is sampled exactly (categorical over the
// grid), so the posterior honours the prior's hardware penalties without
// any Metropolis tuning.
#pragma once

#include <cstdint>
#include <vector>

#include "bayes/prior.hpp"
#include "linalg/matrix.hpp"

namespace oclp {

struct GibbsSettings {
  int burn_in = 1000;   ///< discarded samples (paper Table I)
  int samples = 3000;   ///< retained samples (paper Table I)
  std::uint64_t seed = 1;
  double psi_shape = 2.0;    ///< a₀ of the InvGamma prior on Ψ
  double psi_scale = 1e-3;   ///< b₀ of the InvGamma prior on Ψ
  /// Variance of the factor prior f_i ~ N(0, v). The paper keeps ‖λ‖ = 1
  /// (Sec. IV-A); anchoring v to the residual's dominant eigenvalue makes
  /// the posterior λ concentrate near unit norm, so the grid prior is
  /// evaluated at the coefficients the design will actually use. 0 = auto
  /// (dominant eigenvalue of the sample covariance of x).
  double factor_variance = 0.0;
  /// Route through the retained pre-restructure sampler instead of the
  /// sufficient-statistics fast path. The reference consumes the RNG
  /// stream identically and draws the same chain; it exists as the golden
  /// baseline for the fast path's correctness tests and speedup benches.
  bool reference_impl = false;
};

struct GibbsResult {
  /// Marginal posterior mode per coefficient — the λ_{d,wl} of Algorithm 1.
  /// The mode (not the snapped mean) is returned because every mode value
  /// was actually sampled under the hardware prior; the mean of two
  /// error-free codes can land on an error-prone one.
  std::vector<double> lambda;
  /// Raw (un-snapped) posterior mean.
  std::vector<double> lambda_mean;
  /// Posterior mean of the noise variances Ψ.
  std::vector<double> psi;
  /// Per-row visit counts over the grid for the retained samples — the
  /// marginal posterior histograms the mode is read from. visits[r][g] is
  /// how often row r drew grid index g; each row sums to `samples`.
  std::vector<std::vector<std::uint32_t>> visits;
  /// Average log joint density over retained samples (diagnostic).
  double avg_log_likelihood = 0.0;
};

/// Sample one projection vector for the residual data `x` (P×N, centered)
/// under `prior`. Deterministic in settings.seed.
GibbsResult sample_projection(const Matrix& x, const CoeffPrior& prior,
                              const GibbsSettings& settings);

/// The pre-restructure sampler, retained verbatim as the golden reference
/// for the sufficient-statistics fast path: per-iteration O(n) residual
/// loops and full-grid exp scoring. Same seed → same RNG stream and the
/// same chain of discrete λ draws as `sample_projection` (continuous
/// outputs agree to rounding because the fast path evaluates the Ψ scale
/// through the algebraically identical sufficient-statistics form).
GibbsResult sample_projection_reference(const Matrix& x, const CoeffPrior& prior,
                                        const GibbsSettings& settings);

}  // namespace oclp
