// The benchmark's three workloads and the measurements they share.
//
//  design_flow  — die after die through the offline flow (flow.hpp);
//                 charlib/timing and bayes do the work, serve does none.
//  serve_stream — one ProjectionServer over-clocked at 310 MHz under
//                 open-loop Poisson traffic: latency at a fixed nominal
//                 rate, then a rate ladder to the knee with cold deploys
//                 and saturation bursts between its rungs.
//  fleet_drift  — a ProjectionFleet with live re-characterisation:
//                 saturation on the fresh fleet, then open-loop traffic
//                 with a derate step on one die and staged design swaps
//                 from a control thread.
//
// Every workload reports the same end-to-end metrics (each measured on
// that workload's own operations) and, when traced, the same per-layer
// metrics; a layer a workload does not exercise reads 0 there.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "charlib/error_model.hpp"
#include "core/design.hpp"
#include "fabric/device.hpp"
#include "flow.hpp"
#include "harness.hpp"
#include "loadgen.hpp"
#include "trace.hpp"

namespace oclp {
class ProjectionFleet;
}

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

struct WorkloadResult {
  std::vector<std::string> failures;  ///< empty when every check passed
  std::uint64_t attempted = 0, failed = 0;
  Metrics e2e, layer;
  /// The metric the traced/untraced comparison uses (trace.overhead_frac).
  double overhead_basis = 0.0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

WorkloadResult run_design_flow(const RunOptions& opts, Tracer& tracer);
WorkloadResult run_serve_stream(const RunOptions& opts, Tracer& tracer);
WorkloadResult run_fleet_drift(const RunOptions& opts, Tracer& tracer);

/// Names and units of the end-to-end and per-layer metrics.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// --- shared measurement pieces ------------------------------------------

inline constexpr double kNominalServeRps = 5000.0;
/// About half the fresh fleet's measured capacity (perfbench/README.md).
inline constexpr double kNominalFleetRps = 20000.0;
inline constexpr double kP99LimitMs = 20.0;   ///< one frame at 50 fps
inline constexpr double kWarmupS = 1.0;
inline constexpr double kLadderStep = 1.10;   ///< ≤ 10 % per rung
inline constexpr double kNominalWindowS = 1.0;  ///< p99 windows, nominal rate
inline constexpr double kDrainLimitMs = 100.0;  ///< "the backlog drains"
inline constexpr double kWatchdogS = 15.0;

/// When a wait that starts now gives up.
inline std::int64_t watchdog_deadline() {
  return now_ns() + static_cast<std::int64_t>(kWatchdogS * 1e9);
}

/// Per-layer metrics of the offline flow, from the flows' stage times and
/// the traced spans (flow.unattributed_s is the flow span's self time).
void add_flow_layers(Metrics& m, const std::vector<FlowResult>& flows,
                     const Tracer& tracer);

/// Gibbs cost per iteration on the flow's first-dimension prior, one
/// chain per shortlisted configuration.
void add_gibbs_layer(Metrics& m, const FlowResult& flow, const FlowData& data,
                     Tracer& tracer);

/// Kernel-level per-layer metrics on `design` with the workload's own
/// payloads: timed run_stream of one multiplier, toggle density, and
/// project_batch / project_settled per-sample costs.
void add_kernel_layers(Metrics& m, const oclp::LinearProjectionDesign& design,
                       const oclp::Device& die,
                       const oclp::ErrorModelMap& models,
                       const std::vector<std::vector<std::uint32_t>>& payloads,
                       std::uint64_t seed, Tracer& tracer);

/// Settled reference outputs of every payload through `design`'s placed
/// datapath (the benchmark's own ProjectionCircuit::project_settled).
std::vector<std::vector<double>> settled_references(
    const oclp::LinearProjectionDesign& design, const oclp::Device& die,
    const oclp::ErrorModelMap& models,
    const std::vector<std::vector<std::uint32_t>>& payloads, Tracer& tracer);

/// Climb the rate ladder (harness.hpp) over an open-loop system, one
/// drained phase per rung, again and again until `budget_s` is spent; the
/// knee is the median over the ladders that finished (or the knee of the
/// one cut short when none did). `after_rung` runs after every rung with
/// the rung's wall time; the ladder stops when it returns false.
struct LadderReport {
  double knee_rps = 0.0;
  std::size_t ladders = 0;  ///< ladders that finished
  bool lost_requests = false;  ///< a rung never drained under the watchdog
};
LadderReport run_ladder(Ledger& ledger, double start_rps, double budget_s,
                        std::size_t pool_size, std::uint64_t seed,
                        const Generator& gen,
                        const std::function<std::uint64_t()>& shed,
                        const std::function<bool(double rung_s)>& after_rung);

/// Saturation throughput: closed-loop bursts of kSaturationRequests,
/// kSaturationWindow outstanding. A burst lasts a fraction of a second and
/// its rate moves with how the host schedules the serving threads from
/// second to second, so the throughput is the median of many bursts,
/// spread over as much of the run as the workload allows.
inline constexpr std::size_t kSaturationBursts = 7;  ///< at least this many
inline constexpr std::size_t kSaturationRequests = 32768;
inline constexpr std::size_t kSaturationWindow = 2048;
class Saturation {
 public:
  Saturation(Ledger& ledger, std::size_t pool_size, std::uint64_t seed,
             const Generator& gen, std::function<std::uint64_t()> shed)
      : ledger_(ledger), pool_size_(pool_size), seed_(seed), gen_(gen),
        shed_(std::move(shed)) {}

  /// Run bursts until `budget_s` is spent, at least one. Returns false
  /// once a burst failed (a rejection or an unanswered request); after
  /// that no burst runs.
  bool run_for(double budget_s);
  /// Requests/s: the median burst, or 0 when a burst failed or none ran.
  double throughput() const;
  std::size_t bursts() const { return rps_.size(); }

 private:
  Ledger& ledger_;
  std::size_t pool_size_;
  std::uint64_t seed_;
  const Generator& gen_;
  std::function<std::uint64_t()> shed_;
  std::vector<double> rps_;
  bool failed_ = false;
};

/// Serving gauges sampled from the generator thread every kGaugeNs.
struct Gauges {
  static constexpr std::int64_t kGaugeNs = 5'000'000;
  std::int64_t next_ns = 0;
  double backlog_peak = 0.0, inflight_sum = 0.0;
  std::size_t samples = 0;
  bool due(std::int64_t now) const { return now >= next_ns; }
  void sample(std::int64_t now, std::size_t pool_backlog,
              std::size_t pinned_inflight) {
    next_ns = now + kGaugeNs;
    backlog_peak = std::max(backlog_peak, static_cast<double>(pool_backlog));
    inflight_sum += static_cast<double>(pinned_inflight);
    ++samples;
  }
  double inflight_mean() const {
    return samples == 0 ? 0.0 : inflight_sum / static_cast<double>(samples);
  }
};

/// Serving worker threads the load-generating process may use: the
/// generator (and control) threads keep one CPU.
std::size_t serving_workers(std::size_t wanted);

// --- what the two serving workloads share ---------------------------------

inline constexpr std::size_t kServingSetups = 5;  ///< set-ups timed per run

/// Everything a serving workload builds before its first timed request,
/// short of the server or fleet: the reference die, the data, the flow
/// that commits the designs, the designs served (designs[0] is deployed),
/// their settled references and the ledger. A workload's deployment
/// derives from it and adds the system as its own member, so the system,
/// whose callbacks write the ledger, is destroyed first. Not movable: the
/// ledger points at `refs`.
struct ServingBase {
  ServingBase(const RunOptions& opts, Tracer& tracer);
  ServingBase(const ServingBase&) = delete;
  ServingBase& operator=(const ServingBase&) = delete;

  /// Serve `designs`: settle their references and open the ledger.
  void serve(std::vector<oclp::LinearProjectionDesign> served, Tracer& tracer);

  oclp::Device die;
  FlowData data;
  FlowResult flow;
  std::vector<oclp::LinearProjectionDesign> designs;
  ReferenceSet refs;
  std::unique_ptr<Ledger> ledger;
};

/// Set-up times of the kServingSetups set-ups of one run.
struct SetupLog {
  std::vector<double> setup_s, flow_s;
  std::vector<FlowResult> flows;
};

/// Run `deploy` (which returns a unique_ptr to a ServingBase-derived
/// deployment) kServingSetups times, timing each; returns the last.
template <class Deploy>
auto timed_setups(SetupLog& log, Deploy&& deploy) {
  decltype(deploy()) d;
  for (std::size_t i = 0; i < kServingSetups; ++i) {
    d.reset();
    const std::int64_t t0 = now_ns();
    d = deploy();
    log.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    log.flow_s.push_back(d->flow.total_s);
    log.flows.push_back(d->flow);
  }
  return d;
}

/// The servers behind a serving system: the one, or each die's.
using Servers = std::vector<const oclp::ProjectionServer*>;
Servers servers_of(const oclp::ProjectionServer& server);
Servers servers_of(const oclp::ProjectionFleet& fleet);

/// The servers' own counters, summed (queue_peak: the deepest queue).
struct ServerTotals {
  std::uint64_t served = 0, shed = 0, batches = 0;
  std::size_t queue_peak = 0, pool_backlog = 0;
};
ServerTotals totals(const Servers& servers);

/// The generator over a server or fleet: submits pooled test vectors,
/// counts them in `counts` and, when `traced`, samples `gauges`.
Generator open_loop_generator(oclp::ProjectionServer& server,
                              const FlowData& data, SubmitCounts& counts,
                              Gauges& gauges, bool traced);
Generator open_loop_generator(oclp::ProjectionFleet& fleet,
                              const FlowData& data, SubmitCounts& counts,
                              Gauges& gauges, bool traced);

/// The checks of a serving workload once its traffic drained: generator,
/// server and ledger counts balance with nothing lost or answered twice,
/// nothing failed at the nominal rate, and served results match the
/// settled references within the governor's SLO. Sets res.attempted and
/// res.failed.
void check_serving(WorkloadResult& res, const Ledger& ledger,
                   const SubmitCounts& counts, const ServerTotals& server,
                   std::uint64_t nominal_failed, double slo);

/// The end-to-end metrics both serving workloads report the same way
/// (setup_s, flow_s, flow_mse, served_mhz at the nominal rate), the
/// nominal latencies, and the submit cost trace.overhead_frac compares.
void report_serving(WorkloadResult& res, const SetupLog& setups,
                    const FlowResult& flow, const PhaseView& nominal,
                    const PhaseStats& nominal_phase);

/// Per-layer metrics of a serving workload's traced run: the nominal
/// phase's serving layers, the set-up flows, Gibbs, and the kernels of
/// the deployed design on the request payloads.
void add_serving_layers(WorkloadResult& res, const ServingBase& d,
                        const SetupLog& setups, const PhaseView& nominal,
                        const PhaseStats& nominal_phase, const Gauges& gauges,
                        const ServerTotals& server, std::uint64_t seed,
                        Tracer& tracer);

/// Set a per-layer metric (its unit comes from per_layer_metrics()).
void put_layer(Metrics& m, const std::string& name, double value);

/// Fill every per-layer metric a workload did not report with 0.
void complete_layers(Metrics& m);

inline double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

}  // namespace perfbench
