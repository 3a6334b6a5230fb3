#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bayes/gibbs.hpp"
#include "bayes/prior.hpp"
#include "charlib/sweep.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/circuit_eval.hpp"
#include "core/settings.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "serve/fleet.hpp"
#include "timing/overclock_sim.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace oclp;

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"setup_s", "s"},        {"flow_s", "s/die"},    {"flow_mse", "MSE"},
      {"throughput_per_s", "1/s"},
      {"served_mhz", "MHz"},   {"rollout_s", "s"},     {"peak_rss_mb", "MB"}};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"charlib.config_search_s", "s"},
      {"charlib.rows", "count"},
      {"charlib.samples_per_s", "1/s"},
      {"charlib.savings_ratio", "ratio"},
      {"bayes.gibbs_us_per_iter", "us"},
      {"area.fit_s", "s"},
      {"core.algorithm1_s", "s"},
      {"core.evaluate_s", "s"},
      {"core.evaluate_samples_per_s", "1/s"},
      {"flow.unattributed_s", "s"},
      {"fabric.device_build_s", "s"},
      {"core.lower_s", "s"},
      {"timing.run_stream_ns_per_sample", "ns"},
      {"timing.toggle_density", "ratio"},
      {"core.project_batch_ns_per_sample.b1", "ns"},
      {"core.project_batch_ns_per_sample.b16", "ns"},
      {"core.project_batch_ns_per_sample.b64", "ns"},
      {"core.project_batch_serial_ns_per_sample.b64", "ns"},
      {"core.project_settled_ns_per_sample.b64", "ns"},
      {"serve.submit_p99_us", "us"},
      {"serve.service_p50_ms", "ms"},
      {"serve.service_p99_ms", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.queue_peak", "count"},
      {"serve.pool_backlog_peak", "count"},
      {"common.pinned_pool_inflight_mean", "count"},
      {"serve.kernel_share", "ratio"},
      {"serve.check_frac", "ratio"},
      {"serve.check_error_rate", "ratio"},
      {"serve.mismatch_frac", "ratio"},
      {"serve.route_imbalance", "ratio"},
      {"charlib.recheck_ms", "ms"},
      {"charlib.recheck_cycles", "count"},
      {"serve.drift_detect_cycles", "count"},
      {"serve.floor_after_drift_mhz", "MHz"},
      {"serve.swap_lower_ms", "ms"},
      {"serve.swap_shadow_ms", "ms"},
      {"serve.swap_flip_ms", "ms"},
      {"serve.swap_shadow_mismatch_rate", "ratio"},
      {"loadgen.p50_ms", "ms"},
      {"loadgen.p99_ms", "ms"},
      {"loadgen.max_rate_rps", "1/s"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.failed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"}};
  return names;
}

void complete_layers(Metrics& m) {
  for (const auto& [name, unit] : per_layer_metrics())
    if (!m.count(name)) m[name] = Metric{0.0, unit};
}

void put_layer(Metrics& m, const std::string& name, double value) {
  for (const auto& [n, unit] : per_layer_metrics())
    if (n == name) {
      m[name] = Metric{value, unit};
      return;
    }
  throw std::logic_error("unknown per-layer metric " + name);
}

void add_flow_layers(Metrics& m, const std::vector<FlowResult>& flows,
                     const Tracer& tracer) {
  std::vector<double> search, rows, rate, savings, area, alg1, eval, eval_rate,
      lower;
  for (const auto& f : flows) {
    const double spent =
        static_cast<double>(f.search.surrogate_rows + f.search.full_rows);
    search.push_back(f.search_s);
    rows.push_back(spent);
    rate.push_back(static_cast<double>(f.search_samples) / f.search_s);
    savings.push_back(static_cast<double>(f.search.exhaustive_rows) / spent);
    area.push_back(f.area_s);
    alg1.push_back(f.algorithm1_s);
    eval.push_back(f.evaluate_s);
    eval_rate.push_back(static_cast<double>(f.evaluated_samples) / f.evaluate_s);
    lower.push_back(f.lower_s);
  }
  put_layer(m, "charlib.config_search_s", median(search));
  put_layer(m, "charlib.rows", median(rows));
  put_layer(m, "charlib.samples_per_s", median(rate));
  put_layer(m, "charlib.savings_ratio", median(savings));
  put_layer(m, "area.fit_s", median(area));
  put_layer(m, "core.algorithm1_s", median(alg1));
  put_layer(m, "core.evaluate_s", median(eval));
  put_layer(m, "core.evaluate_samples_per_s", median(eval_rate));
  put_layer(m, "fabric.device_build_s", median(tracer.durations_s("fabric.device_build")));
  // Lowering: every ProjectionCircuit the benchmark builds, flow or not.
  put_layer(m, "core.lower_s", median(tracer.durations_s("core.lower")));

  const auto spans = tracer.spans();
  const auto self = self_times_s(spans);
  std::vector<double> unattributed;
  for (const auto& s : spans)
    if (std::string(s.name) == "flow") unattributed.push_back(self.at(s.id));
  put_layer(m, "flow.unattributed_s", median(unattributed));
}

void add_gibbs_layer(Metrics& m, const FlowResult& flow, const FlowData& data,
                     Tracer& tracer) {
  const Matrix x = centered(data.x_train, flow.data_mean);
  const GibbsSettings gs = table1_gibbs();
  std::vector<double> us_per_iter;
  for (const auto& cfg : flow.search.shortlisted) {
    const CoeffPrior prior = make_prior(flow.models.at(cfg), cfg, kTargetMhz,
                                        paper_table1_settings().betas.front());
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "bayes.sample_projection");
      sample_projection(x, prior, gs);
    }
    us_per_iter.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                          (gs.burn_in + gs.samples));
  }
  put_layer(m, "bayes.gibbs_us_per_iter", median(us_per_iter));
}

std::vector<std::vector<double>> settled_references(
    const LinearProjectionDesign& design, const Device& die,
    const ErrorModelMap& models,
    const std::vector<std::vector<std::uint32_t>>& payloads, Tracer& tracer) {
  const CircuitPlan plan = simulated_plan(design, reference_location_1());
  std::vector<std::vector<double>> refs;
  std::unique_ptr<ProjectionCircuit> circuit;
  {
    Tracer::Scope span(tracer, "core.lower");
    circuit = std::make_unique<ProjectionCircuit>(design, die, plan,
                                                  kDataWordLength, &models, 1);
  }
  std::vector<const std::vector<std::uint32_t>*> batch;
  for (const auto& p : payloads) batch.push_back(&p);
  Tracer::Scope span(tracer, "core.project_settled");
  circuit->project_settled(batch, refs);
  return refs;
}

namespace {

/// Median ns/sample of `reps` passes of `fn` over `n` samples.
template <class Fn>
double ns_per_sample(std::size_t n, int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return median(t);
}

}  // namespace

void add_kernel_layers(Metrics& m, const LinearProjectionDesign& design,
                       const Device& die, const ErrorModelMap& models,
                       const std::vector<std::vector<std::uint32_t>>& payloads,
                       std::uint64_t seed, Tracer& tracer) {
  constexpr std::size_t kSamples = 4096;
  constexpr int kReps = 3;
  const std::size_t n = std::min(kSamples, payloads.size());

  // One multiplier of the design's first column, clocked through the
  // integer run_stream kernel on the workload's own operand stream.
  const DesignColumn& col = design.columns.front();
  Netlist nl = make_multiplier(col.config, kDataWordLength);
  auto delays = annotate_timing(nl, die, reference_location_1());
  const std::size_t num_inputs = nl.num_inputs();
  OverclockSim sim(std::move(nl), std::move(delays), TimingMode::IntegerExact);
  std::vector<std::uint8_t> inputs;
  inputs.reserve(n * num_inputs);
  const std::uint32_t coeff = col.coeffs.front().magnitude;
  for (std::size_t s = 0; s < n; ++s) {
    append_bits(inputs, coeff, col.wordlength());
    append_bits(inputs, payloads[s][s % payloads[s].size()], kDataWordLength);
  }
  OverclockSim::SweepStream stream;
  const std::vector<std::uint8_t> first(inputs.begin(),
                                        inputs.begin() + num_inputs);
  const double run_stream_ns = ns_per_sample(n, kReps, [&] {
    Tracer::Scope span(tracer, "timing.run_stream");
    sim.reset(first);
    sim.run_stream(inputs.data(), n, stream);
  });
  put_layer(m, "timing.run_stream_ns_per_sample", run_stream_ns);
  put_layer(m, "timing.toggle_density",
            static_cast<double>(stream.toggle_begin[n]) /
          static_cast<double>(n * sim.compiled().num_outputs()));

  // The deployed datapath: project_batch at three batch sizes under the
  // default policy, batch 64 serially, and the settled reference pass.
  const CircuitPlan plan = simulated_plan(design, reference_location_1());
  std::unique_ptr<ProjectionCircuit> circuit;
  {
    Tracer::Scope span(tracer, "core.lower");
    circuit = std::make_unique<ProjectionCircuit>(
        design, die, plan, kDataWordLength, &models, hash_mix(seed, 9));
  }
  std::vector<std::vector<double>> ys;
  auto batched = [&](std::size_t b, const char* span_name,
                     bool settled) {
    return ns_per_sample(n, kReps, [&] {
      Tracer::Scope span(tracer, span_name);
      std::vector<const std::vector<std::uint32_t>*> batch;
      for (std::size_t s = 0; s < n; s += b) {
        batch.clear();
        for (std::size_t i = s; i < std::min(n, s + b); ++i)
          batch.push_back(&payloads[i]);
        if (settled)
          circuit->project_settled(batch, ys);
        else
          circuit->project_batch(batch, ys);
      }
    });
  };
  put_layer(m, "core.project_batch_ns_per_sample.b1",
            batched(1, "core.project_batch.b1", false));
  put_layer(m, "core.project_batch_ns_per_sample.b16",
            batched(16, "core.project_batch.b16", false));
  put_layer(m, "core.project_batch_ns_per_sample.b64",
            batched(64, "core.project_batch.b64", false));
  put_layer(m, "core.project_settled_ns_per_sample.b64",
            batched(64, "core.project_settled.b64", true));
  circuit->set_exec_policy(ExecPolicy::serial());
  put_layer(m, "core.project_batch_serial_ns_per_sample.b64",
            batched(64, "core.project_batch_serial.b64", false));
}

std::size_t serving_workers(std::size_t wanted) {
  const std::size_t cpus = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(cpus - 1, 1, wanted);
}

ServingBase::ServingBase(const RunOptions& opts, Tracer& tracer)
    : die(make_die(kReferenceDieSeed, tracer)), data(make_flow_data()) {
  flow = run_flow(die, data, hash_mix(opts.seed, 0xF10), ExecPolicy(), tracer);
}

void ServingBase::serve(std::vector<LinearProjectionDesign> served,
                        Tracer& tracer) {
  designs = std::move(served);
  for (const auto& design : designs)
    refs.per_design.push_back(
        settled_references(design, die, flow.models, data.test_codes, tracer));
  ledger = std::make_unique<Ledger>(refs);
}

Servers servers_of(const ProjectionServer& server) { return {&server}; }

Servers servers_of(const ProjectionFleet& fleet) {
  Servers out;
  for (std::size_t i = 0; i < fleet.num_dies(); ++i)
    out.push_back(&fleet.server(i));
  return out;
}

ServerTotals totals(const Servers& servers) {
  ServerTotals t;
  for (const ProjectionServer* s : servers) {
    const auto snap = s->metrics_snapshot();
    t.served += snap.served;
    t.shed += snap.shed_oldest + snap.shed_deadline;
    t.batches += snap.batches;
    t.queue_peak = std::max(t.queue_peak, snap.queue_peak);
    t.pool_backlog += snap.pool_queue_depth;
  }
  return t;
}

namespace {

template <class System>
Generator make_generator(System& system, const FlowData& data,
                         SubmitCounts& counts, Gauges& gauges, bool traced) {
  Generator gen;
  gen.submit = [&system, &data, &counts](std::uint64_t id, std::uint32_t vector) {
    ++counts.attempted;
    const bool accepted =
        system.submit(ServeRequest{id, data.test_codes[vector], 0.0});
    if (!accepted) ++counts.refused;
    return accepted;
  };
  if (traced)
    gen.tick = [servers = servers_of(system), &gauges](std::int64_t now) {
      if (gauges.due(now))
        gauges.sample(now, totals(servers).pool_backlog,
                      ThreadPool::pinned_global().inflight());
    };
  return gen;
}

}  // namespace

Generator open_loop_generator(ProjectionServer& server, const FlowData& data,
                              SubmitCounts& counts, Gauges& gauges,
                              bool traced) {
  return make_generator(server, data, counts, gauges, traced);
}

Generator open_loop_generator(ProjectionFleet& fleet, const FlowData& data,
                              SubmitCounts& counts, Gauges& gauges,
                              bool traced) {
  return make_generator(fleet, data, counts, gauges, traced);
}

void check_serving(WorkloadResult& res, const Ledger& ledger,
                   const SubmitCounts& counts, const ServerTotals& server,
                   std::uint64_t nominal_failed, double slo) {
  const Tally t = tally(counts.attempted, server.served, counts.refused,
                        server.shed, ledger.pending(), ledger.duplicates());
  res.attempted = t.attempted;
  res.failed = nominal_failed + t.unanswered;
  res.check(t.balanced, "request accounting does not balance (generator " +
                            std::to_string(t.attempted) + ", server served " +
                            std::to_string(t.served) + ", ledger served " +
                            std::to_string(ledger.served()) + ")");
  res.check(nominal_failed == 0, "requests failed at the nominal rate");
  res.check(t.unanswered == 0, "requests unanswered under the watchdog");
  const double mismatch_frac =
      static_cast<double>(ledger.mismatches()) /
      static_cast<double>(std::max<std::uint64_t>(1, ledger.served()));
  res.check(mismatch_frac <= slo,
            "served results disagree with the settled reference beyond the SLO");
}

void report_serving(WorkloadResult& res, const SetupLog& setups,
                    const FlowResult& flow, const PhaseView& nominal,
                    const PhaseStats& nominal_phase) {
  const auto p99 = windowed_percentile(nominal.windows, 0.99);
  std::fprintf(stderr,
               "perfbench: nominal p50 %.3f ms (service %.3f, generator late "
               "%.3f), p99 %.3f ms, submit %.2f us\n",
               median(nominal.latency_ms), median(nominal.service_ms),
               median(nominal_phase.late_ms), p99.value_or(0.0),
               median(nominal_phase.submit_us));
  res.check(p99.has_value(), "too few nominal samples for a p99");
  put_layer(res.layer, "loadgen.p99_ms", p99.value_or(0.0));
  put_layer(res.layer, "loadgen.p50_ms", median(nominal.latency_ms));
  res.overhead_basis = median(nominal_phase.submit_us);

  res.e2e["setup_s"] = {median(setups.setup_s), "s"};
  res.e2e["flow_s"] = {median(setups.flow_s), "s/die"};
  res.e2e["flow_mse"] = {flow.mse[flow.best], "MSE"};
  res.e2e["served_mhz"] = {
      nominal.freq_weighted_sum /
          static_cast<double>(std::max<std::uint64_t>(1, nominal.served)),
      "MHz"};
}

void add_serving_layers(WorkloadResult& res, const ServingBase& d,
                        const SetupLog& setups, const PhaseView& nominal,
                        const PhaseStats& nominal_phase, const Gauges& gauges,
                        const ServerTotals& server, std::uint64_t seed,
                        Tracer& tracer) {
  Metrics& m = res.layer;
  put_layer(m, "serve.submit_p99_us", tail_percentile(nominal_phase.submit_us, 0.99));
  put_layer(m, "serve.service_p50_ms", median(nominal.service_ms));
  put_layer(m, "serve.service_p99_ms", tail_percentile(nominal.service_ms, 0.99));
  put_layer(m, "serve.batch_mean",
            static_cast<double>(server.served) /
                static_cast<double>(std::max<std::uint64_t>(1, server.batches)));
  put_layer(m, "serve.queue_peak", static_cast<double>(server.queue_peak));
  put_layer(m, "serve.pool_backlog_peak", gauges.backlog_peak);
  put_layer(m, "common.pinned_pool_inflight_mean", gauges.inflight_mean());
  const double served = static_cast<double>(std::max<std::uint64_t>(1, nominal.served));
  put_layer(m, "serve.check_frac", static_cast<double>(nominal.checks) / served);
  put_layer(m, "serve.check_error_rate",
            static_cast<double>(nominal.check_errors) /
          static_cast<double>(std::max<std::uint64_t>(1, nominal.checks)));
  put_layer(m, "serve.mismatch_frac", static_cast<double>(nominal.mismatches) / served);
  put_layer(m, "loadgen.late_p99_ms", tail_percentile(nominal_phase.late_ms, 0.99));
  put_layer(m, "loadgen.failed_frac",
            static_cast<double>(res.failed) / static_cast<double>(res.attempted));
  add_flow_layers(m, setups.flows, tracer);
  add_gibbs_layer(m, d.flow, d.data, tracer);
  add_kernel_layers(m, d.designs.front(), d.die, d.flow.models,
                    d.data.test_codes, seed, tracer);
}

bool Saturation::run_for(double budget_s) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  do {
    if (failed_) return false;
    const double rps = drive_saturated(
        ledger_, kSaturationRequests, kSaturationWindow, pool_size_,
        hash_mix(seed_, rps_.size()), gen_, shed_, watchdog_deadline());
    failed_ = rps == 0.0;
    rps_.push_back(rps);
  } while (now_ns() < end);
  return !failed_;
}

double Saturation::throughput() const {
  return failed_ || rps_.empty() ? 0.0 : median(rps_);
}

LadderReport run_ladder(Ledger& ledger, double start_rps, double budget_s,
                        std::size_t pool_size, std::uint64_t seed,
                        const Generator& gen,
                        const std::function<std::uint64_t()>& shed,
                        const std::function<bool(double rung_s)>& after_rung) {
  LadderReport report;
  // Per-request spans stay with the nominal phase: a ladder near the knee
  // submits millions of requests.
  Tracer untraced(false);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  std::vector<double> knees;
  double partial_knee = 0.0;
  std::uint64_t rung_id = 0;
  bool stopped = false;
  while (!report.lost_requests && !stopped) {
    RateLadder ladder(start_rps, kLadderStep);
    while (!ladder.done() && !stopped) {
      // Rung windows hold ~1500 arrivals, so each supports a p99; a rung
      // is at least four windows and at least a second long.
      const double rate = ladder.current();
      const double window_s = std::max(0.2, 1500.0 / rate);
      const double rung_s = std::max(1.0, 4.0 * window_s);
      const std::int64_t rung_start = now_ns();
      if (rung_start + static_cast<std::int64_t>(rung_s * 1e9) >= end) break;
      ++rung_id;
      const auto schedule =
          poisson_schedule(rate, rung_s, hash_mix(seed, rung_id, 1));
      const PhaseStats ph = drive_phase(ledger, schedule, pool_size,
                                        hash_mix(seed, rung_id, 2), gen,
                                        untraced);
      const bool drained_in_time = ledger.drain(
          shed, ph.last_due_ns + static_cast<std::int64_t>(kDrainLimitMs * 1e6));
      if (!drained_in_time && !ledger.drain(shed, watchdog_deadline())) {
        report.lost_requests = true;
        break;
      }
      const PhaseView v = view_phase(ledger, ph, window_s);
      const auto p99 = windowed_percentile(v.windows, 0.99);
      ladder.record(drained_in_time && v.rejected == 0 && v.pending == 0 &&
                    p99.has_value() && *p99 <= kP99LimitMs);
      stopped = !after_rung(static_cast<double>(now_ns() - rung_start) * 1e-9);
    }
    if (!ladder.done()) {
      partial_knee = ladder.knee();
      break;
    }
    knees.push_back(ladder.knee());
  }
  report.ladders = knees.size();
  report.knee_rps = knees.empty() ? partial_knee : median(knees);
  std::fprintf(stderr, "perfbench: %zu ladders from %.0f req/s, knee %.0f req/s\n",
               report.ladders, start_rps, report.knee_rps);
  return report;
}

}  // namespace perfbench
