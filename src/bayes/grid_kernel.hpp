// Explicit-SIMD band kernel of the Gibbs sampler's λ grid step.
//
// For one data row, sample_projection scores the coefficient-grid entries
// inside its scoring band, exponentiates them relative to the band maximum
// and sums the weights for the categorical draw. At wl 7–9 that band still
// holds tens to hundreds of entries per row and the step dominates a chain,
// so it runs here as one kernel per row:
//
//   s_g       = log_prior[g] − (grid[g] − μ)²·k          (no FMA contraction)
//   wmax      = max_g s_g
//   weights_g = s_g − wmax < kLogPrune ? 0 : exp_poly(s_g − wmax)
//   total     = Σ_g weights_g, summed in index order
//
// Under a hardware prior most of a band is pruned (at wl 9 on Table-I data
// ~25 of ~350 entries survive), so the kernel also reports the span of
// unpruned entries and spends the exp and the sequential total only on
// groups holding one: adding +0.0 is exact, so skipping zeros leaves the
// total bitwise unchanged.
//
// exp_poly is a Cody–Waite reduction plus a degree-13 polynomial in FMA
// form; it is within 1 ULP of std::exp on [kLogPrune, 0] and exactly 1 at
// 0. Every variant evaluates the same operations in the same order (the
// scalar one through std::fma, the file is compiled with
// -ffp-contract=off), so scores, wmax, weights and total are bitwise
// identical on every ISA and the sampled chain does not depend on the host.
//
// Dispatch follows timing/lane_kernels: a portable scalar variant plus an
// AVX2+FMA clone compiled with a per-function target attribute, selected
// once at runtime via __builtin_cpu_supports and cached.
#pragma once

#include <cstddef>

namespace oclp::band {

/// Grid entries whose log-weight sits below wmax + kLogPrune are treated
/// as zero-probability. exp() only underflows to an exact 0.0 below
/// wmax − 746, but pruning there barely pays: on Table-I data the
/// single-factor model's Ψ absorbs the unexplained modes, the λ
/// conditional is merely sharp — not razor-thin — and most of the 2^wl
/// grid still exponentiates. Pruning at −45 is what makes the grid step
/// cheap, and its effect on the draw is provably negligible: every pruned
/// entry has weight < e^−45 of the maximum (which is exactly 1), so the
/// pruned probability mass is < |grid|·e^−45 ≈ 10⁻¹⁶ of the total and a
/// draw can only differ when the uniform lands inside that sliver —
/// < 10⁻⁸ over a full Table-I run. The golden tests against
/// sample_projection_reference pin chain identity empirically.
inline constexpr double kLogPrune = -45.0;

struct BandResult {
  double wmax;        ///< maximum log-weight over the band
  double total;       ///< Σ weights[lo..hi], summed in index order
  std::size_t first;  ///< first unpruned entry (weights before it are 0)
  std::size_t last;   ///< last unpruned entry (weights after it are 0)
};

/// Scores, exponentiates and sums grid entries [lo, hi] (inclusive) of one
/// row, writing weights[lo..hi]; entries outside the band are not touched.
/// `k` is 1/(2σ²) of the λ conditional; lo <= hi.
using BandFn = BandResult (*)(const double* grid, const double* log_prior,
                              std::size_t lo, std::size_t hi, double mu,
                              double k, double* weights);

struct BandKernel {
  BandFn fn;
  const char* isa;  ///< "avx2" or "scalar" (for logging/tests)
};

/// The per-device kernel selection, probed once and cached (thread-safe).
const BandKernel& band_kernel();

/// Every kernel variant the host can run, scalar first — the property
/// tests drive each one explicitly regardless of what dispatch picked.
/// Returns the number of variants written to `out` (at most 2).
int all_band_kernels(BandKernel out[2]);

/// The exponential every variant evaluates, for x in [kLogPrune, 0].
double exp_poly(double x);

}  // namespace oclp::band
