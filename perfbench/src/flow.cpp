#include "flow.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "core/circuit_eval.hpp"
#include "core/settings.hpp"
#include "core/synthetic.hpp"
#include "fabric/calibration.hpp"

namespace perfbench {

using namespace oclp;

namespace {

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv_mix_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fnv_mix(h, bits);
}

std::uint64_t design_set_checksum(
    const std::vector<LinearProjectionDesign>& designs) {
  std::uint64_t h = fnv_mix(14695981039346656037ull, designs.size());
  for (const auto& d : designs) {
    for (const auto& col : d.columns) {
      h = fnv_mix(h, static_cast<std::uint64_t>(col.config.arch));
      h = fnv_mix(h, static_cast<std::uint64_t>(col.config.wordlength));
      h = fnv_mix(h, static_cast<std::uint64_t>(col.config.pipeline_depth));
      for (const double v : col.values()) h = fnv_mix_double(h, v);
    }
    h = fnv_mix_double(h, d.area_estimate);
  }
  return h;
}

/// The widened Table-I grid: array and Wallace, depths 1-2, wl 3-9.
std::vector<MultConfig> widened_grid(const CaseStudySettings& t1) {
  auto configs = mult_config_range(MultArch::Array, t1.wl_min, t1.wl_max, {1, 2});
  const auto wallace =
      mult_config_range(MultArch::Wallace, t1.wl_min, t1.wl_max, {1, 2});
  configs.insert(configs.end(), wallace.begin(), wallace.end());
  return configs;
}

}  // namespace

FlowData make_flow_data() {
  const auto t1 = paper_table1_settings();
  SyntheticDataConfig dc;
  dc.dims_p = t1.dims_p;
  dc.latent_k = t1.dims_k;
  dc.cases = t1.training_cases;
  dc.seed = kTrainSeed;
  FlowData data;
  data.x_train = make_synthetic_dataset(dc);
  dc.cases = t1.test_cases;
  dc.seed = kTestSeed;
  data.x_test = make_synthetic_dataset(dc);
  data.test_codes.reserve(data.x_test.cols());
  for (std::size_t c = 0; c < data.x_test.cols(); ++c)
    data.test_codes.push_back(encode_input(data.x_test.col(c), kDataWordLength));
  return data;
}

Device make_die(std::uint64_t die_seed, Tracer& tracer) {
  Tracer::Scope span(tracer, "fabric.device_build");
  Device die(reference_device_config(), die_seed);
  die.set_temperature(kCharacterisationTempC);
  return die;
}

GibbsSettings table1_gibbs() {
  const auto t1 = paper_table1_settings();
  GibbsSettings g;
  g.burn_in = t1.burn_in;
  g.samples = t1.projection_samples;
  g.seed = kGibbsSeed;
  return g;
}

Matrix centered(const Matrix& x, const std::vector<double>& mean) {
  Matrix out = x;
  for (std::size_t r = 0; r < out.rows(); ++r)
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) -= mean[r];
  return out;
}

FlowResult run_flow(const Device& die, const FlowData& data,
                    std::uint64_t stimulus_seed, const ExecPolicy& exec,
                    Tracer& tracer) {
  const auto t1 = paper_table1_settings();
  FlowResult r;
  Tracer::Scope flow_span(tracer, "flow");
  const std::int64_t t_flow = now_ns();

  ConfigSearchSettings cs;
  cs.configs = widened_grid(t1);
  cs.wl_x = kDataWordLength;
  cs.sweep.freqs_mhz = {290.0, 300.0, 310.0, 320.0, 330.0};
  cs.sweep.locations = {reference_location_1(), reference_location_2()};
  cs.sweep.samples_per_point = 500;
  cs.sweep.stream_seed = hash_mix(stimulus_seed, 3);
  cs.target_freq_mhz = kTargetMhz;
  cs.probe_stride = 8;
  cs.shortlist_per_wordlength = 1;
  std::int64_t t0 = now_ns();
  {
    Tracer::Scope span(tracer, "charlib.config_search");
    r.search = characterise_config_space(die, cs, exec);
  }
  r.search_s = seconds_since(t0);
  // Every multiplicand row streams samples_per_point samples per location.
  r.search_samples = (r.search.surrogate_rows + r.search.full_rows) *
                     cs.sweep.samples_per_point * cs.sweep.locations.size();
  r.models = std::move(r.search.models);
  r.search.models.clear();

  t0 = now_ns();
  {
    Tracer::Scope span(tracer, "area.fit");
    r.area = AreaModel::fit(collect_area_samples(
        r.search.shortlisted, kDataWordLength, 20, kAreaSeed));
  }
  r.area_s = seconds_since(t0);

  OptimisationSettings os;
  os.dims_k = static_cast<int>(t1.dims_k);
  os.configs = r.search.shortlisted;
  os.beta = t1.betas.front();
  os.target_freq_mhz = kTargetMhz;
  os.q = t1.q;
  os.input_wordlength = kDataWordLength;
  os.gibbs = table1_gibbs();
  t0 = now_ns();
  {
    Tracer::Scope span(tracer, "core.algorithm1");
    OptimisationFramework framework(os, data.x_train, r.models, *r.area);
    r.designs = framework.run(exec);
    r.data_mean = framework.data_mean();
  }
  r.algorithm1_s = seconds_since(t0);
  std::stable_sort(r.designs.begin(), r.designs.end(),
                   [](const auto& a, const auto& b) {
                     return a.area_estimate < b.area_estimate;
                   });

  // Lower every committed design onto the characterised placement, then
  // evaluate it on the held-out set in the simulated domain.
  for (std::size_t i = 0; i < r.designs.size(); ++i) {
    const auto& design = r.designs[i];
    const CircuitPlan plan = simulated_plan(design, reference_location_1());
    t0 = now_ns();
    {
      Tracer::Scope span(tracer, "core.lower");
      ProjectionCircuit circuit(design, die, plan, kDataWordLength, &r.models,
                                hash_mix(stimulus_seed, 6, i));
    }
    r.lower_s += seconds_since(t0);
    t0 = now_ns();
    {
      Tracer::Scope span(tracer, "core.evaluate");
      r.mse.push_back(evaluate_hardware_mse(design, data.x_test, r.data_mean,
                                            die, plan, kDataWordLength,
                                            &r.models, hash_mix(stimulus_seed, 7, i)));
    }
    r.evaluate_s += seconds_since(t0);
    r.evaluated_samples += data.x_test.cols();
  }
  r.best = static_cast<std::size_t>(
      std::min_element(r.mse.begin(), r.mse.end()) - r.mse.begin());
  r.checksum = design_set_checksum(r.designs);
  r.total_s = seconds_since(t_flow);
  return r;
}

}  // namespace perfbench
