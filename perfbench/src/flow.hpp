// The offline half of the paper's loop, driven through the library's
// public API: die → characterise_config_space over the widened Table-I
// grid → area fit → Algorithm 1 at Table-I Gibbs settings → lower the
// committed designs → evaluate_hardware_mse on the held-out test set.
// Every workload runs it: design_flow times it die after die, the
// serving workloads run it in set-up to get the design they deploy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "area/area_model.hpp"
#include "charlib/error_model.hpp"
#include "common/exec_policy.hpp"
#include "core/algorithm1.hpp"
#include "core/config_search.hpp"
#include "fabric/device.hpp"
#include "linalg/matrix.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr int kDataWordLength = 9;  ///< Table-I data word-length
inline constexpr double kTargetMhz = 310.0;

// The Table-I data sets, area samples and Gibbs chains are fixed; the
// workload seed varies the dies, the stimulus, the request streams and
// the arrival schedule.
inline constexpr std::uint64_t kTrainSeed = 42;
inline constexpr std::uint64_t kTestSeed = 4242;
inline constexpr std::uint64_t kAreaSeed = 6;
inline constexpr std::uint64_t kGibbsSeed = 7;

/// Training data, held-out test data and the test vectors quantised to
/// the data word-length (the serving workloads' request payloads).
struct FlowData {
  oclp::Matrix x_train, x_test;
  std::vector<std::vector<std::uint32_t>> test_codes;
};
FlowData make_flow_data();

/// A die of the reference family at the characterisation temperature.
oclp::Device make_die(std::uint64_t die_seed, Tracer& tracer);

struct FlowResult {
  std::vector<oclp::LinearProjectionDesign> designs;  ///< area-sorted
  std::vector<double> data_mean;
  oclp::ErrorModelMap models;  ///< shortlisted configs' full models
  std::optional<oclp::AreaModel> area;  ///< fitted on the shortlist
  oclp::ConfigSearchResult search;  ///< row accounting (models moved out)
  std::vector<double> mse;     ///< simulated hardware MSE per design
  std::size_t best = 0;        ///< least-MSE design
  std::uint64_t search_samples = 0;     ///< stimulus samples the search streamed
  std::uint64_t evaluated_samples = 0;  ///< held-out cases over all designs
  // Stage wall times (seconds) measured from outside the library.
  double total_s = 0, search_s = 0, area_s = 0, algorithm1_s = 0,
         lower_s = 0, evaluate_s = 0;
  std::uint64_t checksum = 0;  ///< committed design set (configs + coeffs)
};

/// Run the flow on one die. `stimulus_seed` seeds the characterisation
/// stimulus and the evaluation clocks.
FlowResult run_flow(const oclp::Device& die, const FlowData& data,
                    std::uint64_t stimulus_seed, const oclp::ExecPolicy& exec,
                    Tracer& tracer);

/// Centered training data: the first dimension's Gibbs input.
oclp::Matrix centered(const oclp::Matrix& x, const std::vector<double>& mean);

/// The Table-I Gibbs settings the flow's Algorithm 1 runs with.
oclp::GibbsSettings table1_gibbs();

}  // namespace perfbench
