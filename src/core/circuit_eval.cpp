#include "core/circuit_eval.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/synthetic.hpp"
#include "fabric/timing_annotation.hpp"
#include "linalg/decompositions.hpp"
#include "mult/bitcodec.hpp"
#include "mult/ccm.hpp"
#include "mult/multiplier.hpp"

namespace oclp {

namespace {
constexpr double kRidge = 1e-10;
}

CircuitPlan simulated_plan(const LinearProjectionDesign& design,
                           const Placement& characterised_at) {
  CircuitPlan plan;
  plan.mult_placements.assign(design.dims_k() * design.dims_p(), characterised_at);
  return plan;
}

CircuitPlan actual_plan(const LinearProjectionDesign& design, const Device& device,
                        std::uint64_t par_seed) {
  Rng rng(hash_mix(par_seed, design.dims_k(), design.dims_p()));
  CircuitPlan plan;
  const std::size_t k = design.dims_k();
  const std::size_t p = design.dims_p();
  plan.mult_placements.reserve(k * p);
  // A real placement run packs the datapath into one contiguous region:
  // the K×P multiplier array becomes a block of clusters at a random
  // anchor, so the whole design sometimes straddles the slow corners of
  // the die — which is exactly the placement variation the paper observes
  // between compile-and-download cycles.
  const int col_pitch = 10;  // an 8-wide multiplier cluster plus routing gap
  const int row_pitch = 4;
  const int span_x = static_cast<int>(k - 1) * col_pitch + 9;
  const int span_y = static_cast<int>(p - 1) * row_pitch + 9;
  const int ax = static_cast<int>(
      rng.uniform_int(0, std::max(0, device.width() - span_x)));
  const int ay = static_cast<int>(
      rng.uniform_int(0, std::max(0, device.height() - span_y)));
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t pp = 0; pp < p; ++pp) {
      Placement pl;
      pl.x = std::min(ax + static_cast<int>(kk) * col_pitch, device.width() - 1);
      pl.y = std::min(ay + static_cast<int>(pp) * row_pitch, device.height() - 1);
      pl.route_seed = rng.next();
      plan.mult_placements.push_back(pl);
    }
  }
  return plan;
}

ProjectionCircuit::ProjectionCircuit(const LinearProjectionDesign& design,
                                     const Device& device, const CircuitPlan& plan,
                                     int wl_x,
                                     const ErrorModelMap* models,
                                     std::uint64_t clock_seed)
    : design_(design),
      wl_x_(wl_x),
      models_(models),
      freq_mhz_(design.target_freq_mhz),
      jitter_sigma_ns_(plan.with_jitter ? device.config().jitter_sigma_ns : 0.0),
      clock_seed_(clock_seed),
      clock_(design.target_freq_mhz, jitter_sigma_ns_, clock_seed) {
  const std::size_t p = design.dims_p();
  const std::size_t k = design.dims_k();
  OCLP_CHECK(p >= 1 && k >= 1 && design.target_freq_mhz > 0.0);
  OCLP_CHECK_MSG(plan.mult_placements.size() == k * p,
                 "plan has " << plan.mult_placements.size() << " placements for "
                             << k * p << " multipliers");

  sims_.reserve(k * p);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design.columns[kk];
    for (std::size_t pp = 0; pp < p; ++pp) {
      const auto& place = plan.mult_placements[kk * p + pp];
      // A CCM column bakes the coefficient into the netlist (only the x
      // port remains an input), so the lowering is per-constant: any
      // coefficient change — a design hot-swap in particular — must come
      // back through here and pay a full re-lower of the cell.
      Netlist nl = column_is_ccm(col)
                       ? make_ccm_multiplier(col.config,
                                             col.coeffs[pp].magnitude, wl_x)
                       : make_multiplier(col.config, wl_x);
      auto delays = annotate_timing(nl, device, place);
      // annotate_timing snaps onto the PsGrid, so lowering cannot reject
      // these delays — a failure here means a mis-calibrated delay.
      sims_.push_back(
          std::make_unique<OverclockSim>(std::move(nl), std::move(delays)));
    }
  }
  recompute_mean_correction();
}

void ProjectionCircuit::recompute_mean_correction() {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  mean_correction_.assign(k, 0.0);
  if (models_ == nullptr) return;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design_.columns[kk];
    const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
    const auto it = models_->find(col.config);
    OCLP_CHECK_MSG(it != models_->end(),
                   "no error model for " << col.config);
    // The map key promises the config, but the model carries its own tag —
    // a mis-filed entry (characterised on one config, filed under another)
    // must not correct this column's datapath.
    it->second.require_config(col.config, "projection circuit");
    // A CCM column's deployed coefficients must actually sit on the
    // characterised (m, f) grid — a swapped-in design with an out-of-grid
    // magnitude would otherwise read a row that was never measured.
    // Reject at (re)lower time, naming the output dimension.
    if (column_is_ccm(col)) {
      for (std::size_t pp = 0; pp < p; ++pp)
        OCLP_CHECK_MSG(
            col.coeffs[pp].magnitude < it->second.num_multiplicands(),
            "CCM output dimension " << kk << ", input " << pp
                                    << ": coefficient magnitude "
                                    << col.coeffs[pp].magnitude
                                    << " outside the characterised wl="
                                    << col.wordlength() << " grid ("
                                    << it->second.num_multiplicands()
                                    << " codes)");
    }
    for (std::size_t pp = 0; pp < p; ++pp)
      mean_correction_[kk] += col.coeffs[pp].sign *
                              it->second.mean_error(col.coeffs[pp].magnitude,
                                                    freq_mhz_) /
                              scale;
  }
}

void ProjectionCircuit::set_error_models(const ErrorModelMap* models) {
  models_ = models;
  recompute_mean_correction();
}

void ProjectionCircuit::set_clock(double freq_mhz, double timing_derate) {
  OCLP_CHECK_MSG(freq_mhz > 0.0 && timing_derate > 0.0,
                 "set_clock(" << freq_mhz << ", " << timing_derate << ")");
  freq_mhz_ = freq_mhz;
  // delay·d ≡ period/d: the derate folds into the effective clock. Each
  // retarget gets a fresh deterministic jitter stream.
  clock_ = ClockGen(freq_mhz * timing_derate, jitter_sigma_ns_,
                    hash_mix(clock_seed_, 0xC10C5E7ULL,
                             static_cast<std::uint64_t>(++retargets_)));
  recompute_mean_correction();
}

void ProjectionCircuit::project(const std::vector<std::uint32_t>& x_codes,
                                std::vector<double>& y) {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  OCLP_CHECK(x_codes.size() == p);

  // All multipliers share the mult_clk domain: one jittered period per edge.
  const double period = clock_.next_period_ns();

  y.assign(k, 0.0);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design_.columns[kk];
    const bool ccm = column_is_ccm(col);
    const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
    for (std::size_t pp = 0; pp < p; ++pp) {
      OverclockSim& sim = *sims_[kk * p + pp];
      in_.clear();
      if (!ccm) append_bits(in_, col.coeffs[pp].magnitude, col.wordlength());
      append_bits(in_, x_codes[pp], wl_x_);
      if (first_sample_) {
        std::vector<std::uint8_t> init;
        if (!ccm) append_bits(init, col.coeffs[pp].magnitude, col.wordlength());
        append_bits(init, 0, wl_x_);
        sim.reset(init);
      }
      const auto out = sim.step(in_, period);
      const double product = static_cast<double>(from_bits(out));
      y[kk] += col.coeffs[pp].sign * product / scale;
    }
    y[kk] -= mean_correction_[kk];
  }
  first_sample_ = false;
}

std::vector<double> ProjectionCircuit::project(const std::vector<std::uint32_t>& x_codes) {
  std::vector<double> y;
  project(x_codes, y);
  return y;
}

void ProjectionCircuit::project_batch(
    const std::vector<const std::vector<std::uint32_t>*>& batch,
    std::vector<std::vector<double>>& ys) {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  const std::size_t n = batch.size();
  for (std::size_t s = 0; s < n; ++s)
    OCLP_CHECK(batch[s] != nullptr && batch[s]->size() == p);
  ys.resize(n);
  if (n == 0) return;
  if (n == 1) {
    // A single sample can't amortise the stream machinery (64-lane row
    // fills, toggle snapshot, chunk fan-out) and the batch path loses to
    // the scalar one. project() consumes the same single jittered period
    // this path would draw, so delegating is bitwise identical.
    project(*batch[0], ys[0]);
    return;
  }

  // All multipliers share the mult_clk domain; one jittered period per
  // edge, drawn in sample order — the exact draw sequence a project()
  // loop would consume, so the two paths see identical clocks. The
  // integer capture threshold ⌊period·2^10⌋ is converted once per sample
  // here instead of once per (multiplier, sample) in the capture loop;
  // the conversion is exact for arbitrary jittered periods (see PsGrid),
  // so tick capture matches the double rule bitwise.
  periods_ticks_.resize(n);
  for (std::size_t s = 0; s < n; ++s)
    periods_ticks_[s] = PsGrid::period_ticks(clock_.next_period_ns());

  const std::size_t kp = k * p;
  const bool need_reset = first_sample_;
  contrib_.resize(kp * n);

  // Distribute the K·P independent multiplier streams per the policy.
  // Each chunk owns a reusable workspace; each multiplier's register
  // state lives in its sim, so the chunk → multiplier mapping never
  // affects results and the reduction below is a fixed-order serial sum.
  batch_ws_.ensure(exec_.num_chunks(kp));
  exec_.for_chunks(0, kp, [&](std::size_t m0, std::size_t m1,
                              std::size_t chunk) {
    BatchWorkspace& ws = batch_ws_.at(chunk);
    for (std::size_t m = m0; m < m1; ++m) {
      const std::size_t kk = m / p, pp = m % p;
      const DesignColumn& col = design_.columns[kk];
      const bool ccm = column_is_ccm(col);
      const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
      OverclockSim& sim = *sims_[m];
      // CCM netlists expose only the x port (the constant is baked in).
      const std::size_t cb =
          ccm ? 0 : static_cast<std::size_t>(col.wordlength());
      const std::size_t nin = cb + static_cast<std::size_t>(wl_x_);

      if (need_reset) {
        std::vector<std::uint8_t> init;
        if (!ccm) append_bits(init, col.coeffs[pp].magnitude, col.wordlength());
        append_bits(init, 0, wl_x_);
        sim.reset(init);
      }

      // Row-major input-bit matrix: the fixed multiplicand bits (generic
      // path only) plus one streamed operand per sample.
      ws.inputs.resize(n * nin);
      const std::uint32_t mag = col.coeffs[pp].magnitude;
      for (std::size_t s = 0; s < n; ++s) {
        std::uint8_t* row = ws.inputs.data() + s * nin;
        for (std::size_t b = 0; b < cb; ++b)
          row[b] = static_cast<std::uint8_t>((mag >> b) & 1u);
        const std::uint32_t x = (*batch[s])[pp];
        for (std::size_t b = cb; b < nin; ++b)
          row[b] = static_cast<std::uint8_t>((x >> (b - cb)) & 1u);
      }
      sim.run_stream(ws.inputs.data(), n, ws.stream);

      // Per-sample signed, scaled product — the exact expression project()
      // accumulates, evaluated per multiplier into an SoA slab: unsigned
      // tick compares against the pre-converted thresholds.
      double* c = contrib_.data() + m * n;
      for (std::size_t s = 0; s < n; ++s) {
        const double product = static_cast<double>(
            ws.stream.capture_word_ticks(s, periods_ticks_[s]));
        c[s] = col.coeffs[pp].sign * product / scale;
      }
    }
  });
  first_sample_ = false;

  // Serial reduction in project()'s accumulation order (pp ascending per
  // output dimension, correction last): floating-point addition order is
  // what makes the batch bitwise-identical to the sequential loop.
  for (std::size_t s = 0; s < n; ++s) {
    ys[s].assign(k, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      double acc = 0.0;
      for (std::size_t pp = 0; pp < p; ++pp)
        acc += contrib_[(kk * p + pp) * n + s];
      ys[s][kk] = acc - mean_correction_[kk];
    }
  }
}

void ProjectionCircuit::project_settled(
    const std::vector<const std::vector<std::uint32_t>*>& batch,
    std::vector<std::vector<double>>& ys) {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  ys.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    OCLP_CHECK(batch[i] != nullptr && batch[i]->size() == p);
    ys[i].assign(k, 0.0);
  }

  for (std::size_t base = 0; base < batch.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, batch.size() - base);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const DesignColumn& col = design_.columns[kk];
      const bool ccm = column_is_ccm(col);
      const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
      for (std::size_t pp = 0; pp < p; ++pp) {
        const CompiledNetlist& cnl = sims_[kk * p + pp]->compiled();
        lane_words_.assign(cnl.num_nets(), 0);
        // Multiplicand bits (generic path only — a CCM has no such port)
        // are shared by every lane; streamed-operand bits carry one
        // request per lane.
        const std::size_t cb =
            ccm ? 0 : static_cast<std::size_t>(col.wordlength());
        if (!ccm)
          for (int b = 0; b < col.wordlength(); ++b)
            if ((col.coeffs[pp].magnitude >> b) & 1u)
              lane_words_[static_cast<std::size_t>(cnl.input_net(
                  static_cast<std::size_t>(b)))] = ~std::uint64_t{0};
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::uint32_t x = (*batch[base + l])[pp];
          for (int b = 0; b < wl_x_; ++b)
            lane_words_[static_cast<std::size_t>(cnl.input_net(
                cb + static_cast<std::size_t>(b)))] |=
                static_cast<std::uint64_t>((x >> b) & 1u) << l;
        }
        cnl.eval64(lane_words_);
        for (std::size_t l = 0; l < lanes; ++l) {
          std::uint64_t product = 0;
          for (std::size_t o = 0; o < cnl.num_outputs(); ++o)
            product |=
                ((lane_words_[static_cast<std::size_t>(cnl.out_net(o))] >> l) & 1u)
                << o;
          ys[base + l][kk] += col.coeffs[pp].sign *
                              static_cast<double>(product) / scale;
        }
      }
    }
  }
}

std::vector<double> ProjectionCircuit::project_exact(
    const std::vector<std::uint32_t>& x_codes) const {
  const std::size_t p = dims_p();
  std::vector<double> y(dims_k(), 0.0);
  for (std::size_t kk = 0; kk < dims_k(); ++kk) {
    const DesignColumn& col = design_.columns[kk];
    const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
    for (std::size_t pp = 0; pp < p; ++pp) {
      const double product = static_cast<double>(col.coeffs[pp].magnitude) *
                             static_cast<double>(x_codes[pp]);
      y[kk] += col.coeffs[pp].sign * product / scale;
    }
  }
  return y;
}

double evaluate_hardware_mse(const LinearProjectionDesign& design,
                             const Matrix& x, const std::vector<double>& mu,
                             const Device& device, const CircuitPlan& plan,
                             int wl_x, const ErrorModelMap* models,
                             std::uint64_t clock_seed) {
  OCLP_CHECK(x.rows() == design.dims_p() && mu.size() == design.dims_p());
  const Matrix basis = design.basis();
  const Matrix normaliser = projection_normaliser(basis, kRidge);
  // Design-time constant Λᵀμ, applied after the datapath (error-free).
  std::vector<double> offset(design.dims_k(), 0.0);
  for (std::size_t k = 0; k < design.dims_k(); ++k)
    offset[k] = dot(basis.col(k), mu);

  ProjectionCircuit circuit(design, device, plan, wl_x, models, clock_seed);

  // Stream the whole evaluation set through the batched run_stream kernel
  // in one call — same y vectors as a per-sample project() loop, without
  // the per-sample timed-interpreter tax.
  const std::size_t n = x.cols();
  std::vector<std::vector<std::uint32_t>> codes(n);
  std::vector<const std::vector<std::uint32_t>*> batch(n);
  std::vector<double> sample(design.dims_p());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < design.dims_p(); ++r) sample[r] = x(r, i);
    codes[i] = encode_input(sample, wl_x);
    batch[i] = &codes[i];
  }
  std::vector<std::vector<double>> ys;
  circuit.project_batch(batch, ys);

  double total_sq = 0.0;
  std::vector<double> f(design.dims_k());
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double>& y = ys[i];
    for (std::size_t k = 0; k < y.size(); ++k) y[k] -= offset[k];
    // f = (ΛᵀΛ)⁻¹ y;  x̂ = μ + Λ f
    std::fill(f.begin(), f.end(), 0.0);
    for (std::size_t r = 0; r < design.dims_k(); ++r)
      for (std::size_t c = 0; c < design.dims_k(); ++c)
        f[r] += normaliser(r, c) * y[c];
    for (std::size_t r = 0; r < design.dims_p(); ++r) {
      double xhat = mu[r];
      for (std::size_t c = 0; c < design.dims_k(); ++c)
        xhat += basis(r, c) * f[c];
      const double err = x(r, i) - xhat;
      total_sq += err * err;
    }
  }
  return total_sq /
         (static_cast<double>(x.rows()) * static_cast<double>(x.cols()));
}

}  // namespace oclp
