#include "bayes/grid_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OCLP_BAND_X86_DISPATCH 1
#include <immintrin.h>
#else
#define OCLP_BAND_X86_DISPATCH 0
#endif

namespace oclp::band {

namespace {

// --- exp_poly constants ----------------------------------------------------
//
// x = n·ln2 + r with n = round(x·log2 e): ln2 is split into a head (the
// double nearest ln2) and the tail of its error, and both are subtracted
// through an FMA, so r is exact to ~2⁻⁵⁵ on |r| <= ln2/2. exp(r) is then
// the degree-13 Taylor polynomial (truncation error < 6·10⁻¹⁸ relative,
// far below half an ULP), and 2ⁿ is built directly in the exponent field.

constexpr double kLog2e = 0x1.71547652b82fep0;
constexpr double kLn2Hi = 0x1.62e42fefa39efp-1;
constexpr double kLn2Lo = 0x1.abc9e3b39803fp-56;
// 1.5·2⁵² + 1023: adding it to x·log2 e rounds to the nearest integer n and
// leaves n + 1023, the biased exponent of 2ⁿ, in the low mantissa bits.
constexpr double kShifter = 0x1.8p52 + 1023.0;
// 1/j! for j = 13 … 0, in Horner order.
constexpr double kPoly[14] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         1.0 / 2.0,
    1.0,                1.0};
// Vector lanes below the prune are clamped here before exponentiating, so
// 2ⁿ stays a normal number; their weight is masked to zero afterwards.
constexpr double kExpFloor = kLogPrune - 1.0;

/// 2ⁿ from t = x·log2 e + kShifter: shifting the low bits n + 1023 into
/// the exponent field (the shifter's own bits leave the word).
double pow2_from_shifted(double t) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(t) << 52);
}

// --- Scalar variant --------------------------------------------------------

BandResult band_scalar(const double* grid, const double* log_prior,
                       std::size_t lo, std::size_t hi, double mu, double k,
                       double* weights) {
  double wmax = -1e300;
  for (std::size_t g = lo; g <= hi; ++g) {
    const double d = grid[g] - mu;
    const double lw = log_prior[g] - d * d * k;
    weights[g] = lw;
    wmax = std::max(wmax, lw);
  }
  double total = 0.0;
  std::size_t first = hi + 1, last = lo;
  for (std::size_t g = lo; g <= hi; ++g) {
    const double e = weights[g] - wmax;
    if (e < kLogPrune) {
      weights[g] = 0.0;
      continue;
    }
    weights[g] = exp_poly(e);
    total += weights[g];
    first = std::min(first, g);
    last = g;
  }
  return {wmax, total, first, last};
}

#if OCLP_BAND_X86_DISPATCH

// --- AVX2+FMA variant (4 entries per op) -----------------------------------
//
// The band tail (length mod 4) goes through zero-padded 4-wide buffers, so
// it runs the same vector operations instead of a scalar fallback.

__attribute__((target("avx2,fma"))) inline __m256d exp4(__m256d x) {
  const __m256d shifter = _mm256_set1_pd(kShifter);
  const __m256d t =
      _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kLog2e)), shifter);
  const __m256d n = _mm256_sub_pd(t, shifter);
  __m256d r = _mm256_fmadd_pd(n, _mm256_set1_pd(-kLn2Hi), x);
  r = _mm256_fmadd_pd(n, _mm256_set1_pd(-kLn2Lo), r);
  __m256d p = _mm256_set1_pd(kPoly[0]);
  for (int j = 1; j < 14; ++j)
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(kPoly[j]));
  const __m256d scale =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_castpd_si256(t), 52));
  return _mm256_mul_pd(p, scale);
}

__attribute__((target("avx2,fma"))) inline __m256d score4(
    const double* grid, const double* log_prior, __m256d mu, __m256d k) {
  const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(grid), mu);
  return _mm256_sub_pd(_mm256_loadu_pd(log_prior),
                       _mm256_mul_pd(_mm256_mul_pd(d, d), k));
}

/// Weights of the four scores at s, written to out; returns the bitmask of
/// unpruned lanes. A fully pruned group (the common case under a hardware
/// prior, whose forbidden codes fill most of a band) skips the exp.
__attribute__((target("avx2,fma"))) inline unsigned weight4(const double* s,
                                                            __m256d wmax,
                                                            double* out) {
  const __m256d e = _mm256_sub_pd(_mm256_loadu_pd(s), wmax);
  const __m256d pruned =
      _mm256_cmp_pd(e, _mm256_set1_pd(kLogPrune), _CMP_LT_OQ);
  const auto alive = static_cast<unsigned>(~_mm256_movemask_pd(pruned)) & 0xfu;
  if (alive == 0) {
    _mm256_storeu_pd(out, _mm256_setzero_pd());
    return 0;
  }
  // max(floor, e) returns e when e is NaN, which then propagates as in
  // the scalar variant.
  const __m256d w = exp4(_mm256_max_pd(_mm256_set1_pd(kExpFloor), e));
  _mm256_storeu_pd(out, _mm256_andnot_pd(pruned, w));
  return alive;
}

__attribute__((target("avx2,fma")))
BandResult band_avx2(const double* grid, const double* log_prior,
                     std::size_t lo, std::size_t hi, double mu, double k,
                     double* weights) {
  const std::size_t len = hi - lo + 1;
  const std::size_t body = len & ~std::size_t{3};
  const std::size_t tail = len - body;
  const double* gr = grid + lo;
  const double* lp = log_prior + lo;
  double* w = weights + lo;
  const __m256d vmu = _mm256_set1_pd(mu);
  const __m256d vk = _mm256_set1_pd(k);

  __m256d vmax = _mm256_set1_pd(-1e300);
  for (std::size_t i = 0; i < body; i += 4) {
    const __m256d s = score4(gr + i, lp + i, vmu, vk);
    _mm256_storeu_pd(w + i, s);
    vmax = _mm256_max_pd(s, vmax);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  double wmax = std::max(std::max(lanes[0], lanes[1]),
                         std::max(lanes[2], lanes[3]));
  if (tail > 0) {
    alignas(32) double gbuf[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(32) double lbuf[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(gr + body, gr + len, gbuf);
    std::copy(lp + body, lp + len, lbuf);
    _mm256_store_pd(lanes, score4(gbuf, lbuf, vmu, vk));
    for (std::size_t j = 0; j < tail; ++j) {
      w[body + j] = lanes[j];
      wmax = std::max(wmax, lanes[j]);
    }
  }

  // Exponentiate and total. A group's weights join the running total in
  // index order; pruned ones are +0.0, whose addition is exact, so the sum
  // rounds exactly as the scalar loop does while skipping dead groups.
  const __m256d vwmax = _mm256_set1_pd(wmax);
  double total = 0.0;
  std::size_t first = len, last = 0;
  const auto span = [&](std::size_t i, unsigned alive) {
    if (first == len) first = i + static_cast<std::size_t>(std::countr_zero(alive));
    last = i + 31 - static_cast<std::size_t>(std::countl_zero(alive));
  };
  for (std::size_t i = 0; i < body; i += 4) {
    const unsigned alive = weight4(w + i, vwmax, w + i);
    if (alive == 0) continue;
    span(i, alive);
    total += w[i];
    total += w[i + 1];
    total += w[i + 2];
    total += w[i + 3];
  }
  if (tail > 0) {
    alignas(32) double sbuf[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(w + body, w + len, sbuf);
    const unsigned alive =
        weight4(sbuf, vwmax, lanes) & ((1u << tail) - 1u);
    std::copy(lanes, lanes + tail, w + body);
    if (alive != 0) {
      span(body, alive);
      for (std::size_t j = body; j < len; ++j) total += w[j];
    }
  }
  return {wmax, total, lo + first, lo + last};
}

#endif  // OCLP_BAND_X86_DISPATCH

constexpr BandKernel kScalarKernel{band_scalar, "scalar"};
#if OCLP_BAND_X86_DISPATCH
constexpr BandKernel kAvx2Kernel{band_avx2, "avx2"};

bool has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

}  // namespace

double exp_poly(double x) {
  const double t = x * kLog2e + kShifter;
  const double n = t - kShifter;
  double r = std::fma(n, -kLn2Hi, x);
  r = std::fma(n, -kLn2Lo, r);
  double p = kPoly[0];
  for (int j = 1; j < 14; ++j) p = std::fma(p, r, kPoly[j]);
  return p * pow2_from_shifted(t);
}

const BandKernel& band_kernel() {
  static const BandKernel kernel = [] {
#if OCLP_BAND_X86_DISPATCH
    if (has_avx2_fma()) return kAvx2Kernel;
#endif
    return kScalarKernel;
  }();
  return kernel;
}

int all_band_kernels(BandKernel out[2]) {
  int n = 0;
  out[n++] = kScalarKernel;
#if OCLP_BAND_X86_DISPATCH
  if (has_avx2_fma()) out[n++] = kAvx2Kernel;
#endif
  return n;
}

}  // namespace oclp::band
