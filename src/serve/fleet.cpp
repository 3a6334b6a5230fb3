#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/rng.hpp"

namespace oclp {

namespace {

std::size_t effective_num_dies(const FleetConfig& cfg) {
  return cfg.die_seeds.empty() ? cfg.num_dies : cfg.die_seeds.size();
}

std::vector<double> default_char_grid() {
  std::vector<double> grid;
  for (double f = 40.0; f <= 540.0 + 1e-9; f += 10.0) grid.push_back(f);
  return grid;
}

}  // namespace

ProjectionFleet::ProjectionFleet(const LinearProjectionDesign& design,
                                 const FleetConfig& cfg,
                                 ResultCallback on_result)
    : cfg_(cfg),
      design_(design),
      char_grid_(cfg.char_freqs_mhz.empty() ? default_char_grid()
                                            : cfg.char_freqs_mhz),
      router_(effective_num_dies(cfg)),
      on_result_(std::move(on_result)) {
  OCLP_CHECK_MSG(effective_num_dies(cfg) >= 1, "a fleet needs at least one die");
  OCLP_CHECK(cfg.target_fraction > 0.0 && cfg.target_fraction <= 1.0);
  OCLP_CHECK(cfg.floor_fraction > 0.0 &&
             cfg.floor_fraction <= cfg.target_fraction);
  OCLP_CHECK(!design.columns.empty());
  OCLP_CHECK(cfg.recheck_period_ms >= 0.0);

  // The probe's focus list: the coefficient magnitudes actually deployed,
  // grouped by column multiplier configuration (one characterisation
  // circuit per distinct configuration — a mixed-architecture design
  // probes each architecture's own error surface).
  for (const auto& col : design_.columns) {
    auto& codes = design_codes_[col.config];
    for (const auto& c : col.coeffs) codes.push_back(c.magnitude);
  }
  for (auto& [config, codes] : design_codes_) {
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  }

  const auto dies = cfg.die_seeds.empty()
                        ? make_die_family(cfg.device, cfg.family_seed,
                                          cfg.num_dies, cfg.temperature_c)
                        : make_die_family(cfg.device, cfg.die_seeds,
                                          cfg.temperature_c);

  CircuitPlan plan = simulated_plan(design_, cfg.char_placement);
  plan.with_jitter = cfg.with_jitter;

  for (std::size_t i = 0; i < dies.size(); ++i) {
    auto die = std::make_unique<Die>(dies[i]);
    die->seed = die->device.die_seed();

    // Characterise this die at its own silicon: compile one circuit per
    // multiplier configuration, probe the deployed codes (plus a stride
    // slice) over the grid, and take the die's error-free fmax as the
    // worst configuration's.
    double fb = 0.0;
    bool first = true;
    SharedErrorModels::Map models;
    for (const auto& [config, codes] : design_codes_) {
      CharCircuitConfig ccfg;
      ccfg.mult = config;
      ccfg.wl_x = cfg.wl_x;
      ccfg.with_jitter = cfg.with_jitter;
      die->char_circuits.emplace(
          config, std::make_unique<CharacterisationCircuit>(
                      ccfg, die->device, cfg.char_placement));

      ErrorModel model(config, cfg.wl_x, char_grid_);
      SubsweepSettings probe;
      probe.multiplicands = codes;
      probe.m_stride = cfg.char_m_stride;
      probe.samples_per_point = cfg.char_samples;
      probe.stream_seed = hash_mix(cfg.seed, i, 0xC0DE5ULL);
      const auto report = recharacterise_multiplier(
          *die->char_circuits.at(config), model, probe, cfg.char_exec);
      fb = first ? report.error_free_fmax_mhz
                 : std::min(fb, report.error_free_fmax_mhz);
      first = false;
      models.emplace(config, std::move(model));
    }
    OCLP_CHECK_MSG(fb > 0.0, "die seed "
                                 << die->seed
                                 << " errs at the lowest grid frequency "
                                 << char_grid_.front()
                                 << " MHz — grid does not cover this die");

    die->error_free_fmax_mhz = fb;
    die->recheck_fmax_mhz.store(fb, std::memory_order_relaxed);
    die->f_target_mhz = cfg.target_fraction * fb;
    die->floor_mhz.store(cfg.floor_fraction * fb, std::memory_order_relaxed);
    die->models.store(std::move(models));

    ServeConfig scfg = cfg.serve;
    scfg.governor.f_target_mhz = die->f_target_mhz;
    scfg.governor.f_floor_mhz = cfg.floor_fraction * fb;
    scfg.check_freq_mhz = 0.0;  // safe duplicate at the die's own floor
    scfg.seed = hash_mix(cfg.seed, i, 0xF1EE7ULL);

    // The server's replicas keep the model snapshot alive through the
    // swap-at-checkout path; the construction-time pointer is pinned by
    // the immediate swap_error_models below.
    auto snapshot = die->models.load();
    ResultCallback cb = on_result_;
    const std::size_t die_index = i;
    die->server = std::make_unique<ProjectionServer>(
        design_, die->device, plan, cfg.wl_x, snapshot.get(), scfg,
        cb ? ProjectionServer::ResultCallback(
                 [cb, die_index](const ServeResult& r) { cb(die_index, r); })
           : ProjectionServer::ResultCallback());
    die->server->swap_error_models(std::move(snapshot));

    dies_.push_back(std::move(die));
  }

  if (cfg.recheck_period_ms > 0.0)
    recheck_thread_ = std::thread([this] { recheck_loop(); });
}

ProjectionFleet::~ProjectionFleet() { stop(); }

bool ProjectionFleet::submit(ServeRequest req, SloClass slo) {
  thread_local std::vector<DieLoad> loads;
  thread_local std::vector<std::size_t> order;
  loads.resize(dies_.size());
  for (std::size_t i = 0; i < dies_.size(); ++i) {
    const auto& gov = dies_[i]->server->governor();
    loads[i].freq_mhz = gov.frequency_mhz();
    loads[i].target_mhz = gov.target_mhz();
    loads[i].queue_depth = dies_[i]->server->queue_depth();
  }
  router_.plan(loads, slo, order);
  // Walk the fallback order; the last attempt may move the request.
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t die = order[k];
    const bool accepted = k + 1 == order.size()
                              ? dies_[die]->server->submit(std::move(req))
                              : dies_[die]->server->submit(req);
    if (accepted) {
      dies_[die]->routed.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ProjectionFleet::resume() {
  for (auto& die : dies_) die->server->resume();
}

void ProjectionFleet::wait_idle() {
  for (auto& die : dies_) die->server->wait_idle();
}

void ProjectionFleet::stop() {
  {
    std::lock_guard lock(stop_mutex_);
    if (stopping_) {
      // Idempotent: the thread is already gone; still make sure servers
      // are down (stop() on a stopped server is a no-op).
      for (auto& die : dies_) die->server->stop();
      return;
    }
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (recheck_thread_.joinable()) recheck_thread_.join();
  for (auto& die : dies_) die->server->stop();
}

void ProjectionFleet::set_die_drift(std::size_t die, double derate) {
  OCLP_CHECK(die < dies_.size() && derate > 0.0);
  dies_[die]->derate.store(derate, std::memory_order_relaxed);
  dies_[die]->server->set_timing_derate(derate);
}

FleetSwapReport ProjectionFleet::swap_design(const LinearProjectionDesign& next,
                                             const SwapConfig& scfg,
                                             std::size_t canary) {
  OCLP_CHECK(canary < dies_.size());
  OCLP_CHECK_MSG(
      next.dims_p() == design_.dims_p() && next.dims_k() == design_.dims_k(),
      "fleet swap_design: incoming design is "
          << next.dims_k() << "×" << next.dims_p() << ", the fleet serves "
          << design_.dims_k() << "×" << design_.dims_p());

  // The model control plane freezes for the rollout: no re-probe runs
  // while coefficients move under it.
  std::lock_guard cycle_lock(recheck_mutex_);

  // The incoming coefficients, grouped by column multiplier configuration
  // — every configuration must already have a characterisation circuit
  // (and so an error surface) on every die, or some die would serve an
  // unmodelled datapath. The per-coefficient grid membership is enforced
  // again at lowering time by each die's server (CCM guard in particular).
  std::map<MultConfig, std::vector<std::uint32_t>> next_codes;
  for (const auto& col : next.columns) {
    auto& codes = next_codes[col.config];
    for (const auto& c : col.coeffs) codes.push_back(c.magnitude);
  }
  for (auto& [config, codes] : next_codes) {
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    for (std::size_t i = 0; i < dies_.size(); ++i)
      OCLP_CHECK_MSG(dies_[i]->char_circuits.count(config) != 0,
                     "fleet swap_design: die " << i << " (seed "
                                               << dies_[i]->seed
                                               << ") has no characterised "
                                                  "error surface for "
                                               << config);
  }

  FleetSwapReport report;
  report.canary = canary;
  report.dies.resize(dies_.size());

  // Canary first — its Shadow phase is the bake. Siblings follow in die
  // order only once the canary committed; any abort stops the rollout
  // with every untouched die still on the old design (a per-die swap
  // only mutates its server after its own shadow verdict).
  std::vector<std::size_t> order;
  order.push_back(canary);
  for (std::size_t i = 0; i < dies_.size(); ++i)
    if (i != canary) order.push_back(i);

  for (std::size_t die : order) {
    report.dies[die] =
        dies_[die]->server->swap_design(next, dies_[die]->models.load(), scfg);
    if (!report.dies[die].committed) return report;
  }

  // Full commit: future re-characterisation probes focus the new
  // coefficients.
  design_ = next;
  design_codes_ = std::move(next_codes);
  report.committed = true;
  return report;
}

SubsweepReport ProjectionFleet::recharacterise(std::size_t die_index) {
  OCLP_CHECK(die_index < dies_.size());
  std::lock_guard cycle_lock(recheck_mutex_);
  Die& die = *dies_[die_index];

  // Copy-on-write: re-measure the probed rows on a private copy, then
  // publish the whole set in one swap. Serving replicas keep correcting
  // with the old snapshot until their next batch checkout.
  SharedErrorModels::Map next = *die.models.load();

  SubsweepReport aggregate;
  double fb = 0.0;
  bool first = true;
  for (const auto& [config, codes] : design_codes_) {
    SubsweepSettings probe;
    probe.multiplicands = codes;
    probe.m_stride = cfg_.recheck_m_stride;
    probe.m_phase = die.recheck_phase;
    probe.samples_per_point = cfg_.recheck_samples;
    probe.stream_seed = hash_mix(cfg_.seed, die_index, die.recheck_phase);
    probe.timing_derate = die.derate.load(std::memory_order_relaxed);
    const auto report = recharacterise_multiplier(
        *die.char_circuits.at(config), next.at(config), probe);
    aggregate.probed += report.probed;
    aggregate.skipped_freqs += report.skipped_freqs;
    fb = first ? report.error_free_fmax_mhz
               : std::min(fb, report.error_free_fmax_mhz);
    first = false;
  }
  aggregate.error_free_fmax_mhz = fb;
  ++die.recheck_phase;

  die.models.store(std::move(next));
  die.server->swap_error_models(die.models.load());

  // Governor floor adjustment: the floor is only safe while it sits below
  // the *current* error-free fmax. When even the lowest grid point errs
  // (fb == 0) the honest floor is "as low as the model can vouch for".
  const double fb_for_floor = fb > 0.0 ? fb : char_grid_.front();
  const double new_floor =
      std::min(die.f_target_mhz, cfg_.floor_fraction * fb_for_floor);
  const double old_floor = die.server->governor().floor_mhz();
  if (new_floor != old_floor)
    die.server->governor().set_limits(new_floor, die.f_target_mhz);
  die.floor_mhz.store(new_floor, std::memory_order_relaxed);
  die.recheck_fmax_mhz.store(fb, std::memory_order_relaxed);

  die.recharacterisations.fetch_add(1, std::memory_order_relaxed);
  recheck_cycles_.fetch_add(1, std::memory_order_relaxed);
  return aggregate;
}

std::uint64_t ProjectionFleet::recharacterisation_cycles() const {
  return recheck_cycles_.load(std::memory_order_relaxed);
}

void ProjectionFleet::recheck_loop() {
  const auto period = std::chrono::duration<double, std::milli>(
      cfg_.recheck_period_ms);
  std::size_t next_die = 0;
  std::unique_lock lock(stop_mutex_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock, period, [&] { return stopping_; })) break;
    lock.unlock();
    try {
      recharacterise(next_die);
    } catch (const std::exception&) {
      // The probe throws before the model store, so the die keeps its last
      // published models and floor; count it and keep cycling.
      dies_[next_die]->recheck_failures.fetch_add(1, std::memory_order_relaxed);
    }
    next_die = (next_die + 1) % dies_.size();
    lock.lock();
  }
}

DieStatus ProjectionFleet::die_status(std::size_t die_index) const {
  OCLP_CHECK(die_index < dies_.size());
  const Die& die = *dies_[die_index];
  DieStatus s;
  s.die_seed = die.seed;
  s.inter_die_factor = die.device.inter_die_factor();
  s.error_free_fmax_mhz = die.error_free_fmax_mhz;
  s.recheck_fmax_mhz = die.recheck_fmax_mhz.load(std::memory_order_relaxed);
  s.f_target_mhz = die.f_target_mhz;
  s.f_floor_mhz = die.floor_mhz.load(std::memory_order_relaxed);
  s.freq_mhz = die.server->governor().frequency_mhz();
  s.derate = die.derate.load(std::memory_order_relaxed);
  s.queue_depth = die.server->queue_depth();
  s.routed = die.routed.load(std::memory_order_relaxed);
  s.recharacterisations =
      die.recharacterisations.load(std::memory_order_relaxed);
  s.recheck_failures = die.recheck_failures.load(std::memory_order_relaxed);
  return s;
}

ProjectionServer& ProjectionFleet::server(std::size_t die) {
  OCLP_CHECK(die < dies_.size());
  return *dies_[die]->server;
}

const ProjectionServer& ProjectionFleet::server(std::size_t die) const {
  OCLP_CHECK(die < dies_.size());
  return *dies_[die]->server;
}

std::shared_ptr<const ErrorModelMap> ProjectionFleet::die_models(
    std::size_t die) const {
  OCLP_CHECK(die < dies_.size());
  return dies_[die]->models.load();
}

}  // namespace oclp
