// Razor-style time-redundant error recovery (Ernst et al., MICRO'03) —
// the generic alternative the paper's Section II discusses: every output
// register gets a shadow latch on a delayed clock; a main/shadow mismatch
// flags a timing error, and the pipeline recovers from the shadow value at
// the cost of extra cycles. Razor "hides" timing violations from the
// application but not from the schedule — which is exactly the paper's
// criticism: the designer still pays the recovery latency, while the
// context-aware optimisation framework avoids the errors altogether.
#pragma once

#include <cstdint>
#include <vector>

#include "timing/overclock_sim.hpp"

namespace oclp {

struct RazorConfig {
  /// Extra settling time the shadow latch gets beyond the main register.
  double shadow_margin_ns = 1.0;
  /// Pipeline cycles lost per detected error (flush + replay).
  int recovery_penalty_cycles = 1;
};

/// One combinational cone protected by Razor registers.
class RazorSim {
 public:
  /// Delays lower as in OverclockSim: an off-grid delay throws, naming
  /// the cell.
  RazorSim(Netlist nl, std::vector<double> cell_delay_ns, RazorConfig cfg);

  void reset(const std::vector<std::uint8_t>& inputs);

  struct StepResult {
    std::vector<std::uint8_t> outputs;  ///< after recovery, if any
    bool error_detected = false;        ///< main/shadow mismatch
    bool undetected_error = false;      ///< shadow itself was stale
  };
  /// One clock edge at `period_ns`; on a detected error the recovered
  /// (shadow) value is returned and the recovery penalty is accounted.
  StepResult step(const std::vector<std::uint8_t>& inputs, double period_ns);

  // --- schedule accounting ---------------------------------------------------
  std::size_t samples_processed() const { return samples_; }
  std::size_t cycles_consumed() const { return cycles_; }
  std::size_t errors_detected() const { return detected_; }
  std::size_t errors_undetected() const { return undetected_; }
  /// Samples per cycle (1.0 when no recovery ever triggered).
  double effective_throughput() const;

 private:
  OverclockSim sim_;
  RazorConfig cfg_;
  std::vector<std::uint8_t> shadow_, settled_;  ///< step() scratch, reused
  std::size_t samples_ = 0, cycles_ = 0, detected_ = 0, undetected_ = 0;
};

}  // namespace oclp
