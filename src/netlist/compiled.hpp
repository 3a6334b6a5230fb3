// Compiled levelized datapath: the Netlist lowered once into a dense,
// branch-free evaluation substrate shared by every hot evaluator
// (OverclockSim, STA, characterisation sweeps, the serving replicas).
//
// Lowering performs, in one pass over the already-topological cell list:
//  * constant folding — a cell whose output is provably constant once its
//    constant fanins are baked into the truth table collapses onto a
//    constant sentinel net;
//  * Buf/Const elision — free cells add no delay and no logic, so their
//    consumers are rewired straight to the driver (Buf) or a sentinel
//    (Const);
//  * dead-cell sweep — cells unreachable from the outputs are dropped;
//  * levelization — surviving cells are renumbered into contiguous
//    per-level ranges (every fanin of a level-L cell lives strictly below
//    L), so one linear walk evaluates the whole cone and per-level ranges
//    are ready for future intra-level parallel backends.
//
// Every surviving cell becomes an 8-bit truth table indexed by its (≤ 3)
// input bits plus three flattened fanin net ids, so evaluation is a table
// lookup per cell with no per-type dispatch. Unused or baked fanin slots
// point at the constant-zero sentinel whose value never changes, which
// keeps both evaluation and transition scans unconditional over all three
// slots.
//
// Lowering invariants (what elision may and may not change):
//  * output VALUES are preserved exactly for every input vector;
//  * output SETTLE TIMES under the over-clocking timing model are
//    preserved exactly: only zero-delay cells are elided (a Buf's output
//    transitions iff its input does, with the same settle time) and only
//    never-transitioning cells are folded (a constant output has settle 0
//    forever). Identity simplifications through *delayed* cells (e.g.
//    And2(x, 1) → x) are deliberately NOT performed — they would erase the
//    cell's delay from the settle profile.
//
// eval64 evaluates 64 input samples per pass — one std::uint64_t word per
// net, one lane per sample. It computes fully-settled (functional) values
// only, so it is legal exclusively on timing-free paths: ground-truth /
// settled outputs, error-model reference values, and safe-clock duplicate
// checks. Anything that needs per-net settle times must use the scalar
// two-frame simulation (OverclockSim).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace oclp {

/// The integer-picosecond delay grid of the compiled timing kernel.
///
/// The quantum is 2^-10 ns (a "binary picosecond", ~0.977 ps): delays and
/// settle times become uint32 tick counts and settle propagation becomes
/// small-integer max-plus arithmetic. The power-of-two quantum is what
/// keeps the scalar double path (OverclockSim::advance) bitwise-comparable
/// with the integer stream kernel:
///
///  * to_ns is exact — ldexp(ticks, -10) scales by a power of two, and
///    every tick count below 2^32 has an exact double;
///  * sums and maxes of grid delays are exact in doubles as long as the
///    running sum stays below 2^53 ticks (the uint32 overflow check below
///    enforces < 2^32, with room to spare), so the scalar double path
///    computes *exactly* tick·2^-10 at every net — integer-vs-double
///    equality is a theorem, not a tolerance;
///  * capture periods need no quantisation: settle > period on the grid
///    iff settle_ticks > floor(period·2^10), and ldexp/floor evaluate
///    that threshold exactly for arbitrary (e.g. jittered) periods.
///
/// A decimal grid (say 0.001 ns) has none of these properties — 0.001 has
/// no exact double, so the double fold rounds and exact ties (common once
/// delays snap to a grid) flip between the paths.
struct PsGrid {
  /// log2 of ticks per nanosecond.
  static constexpr int kFracBits = 10;
  static constexpr double kTicksPerNs = 1024.0;  // 2^kFracBits

  /// Nearest grid multiple of `ns` (multiply/divide by a power of two:
  /// the snapped value is the exact double of its tick count). The fabric
  /// calibration snaps every produced delay through this, which is what
  /// makes strict lowering-time quantisation below total.
  static double snap_ns(double ns);

  /// Exact nanoseconds of a tick count. Inline (one multiply by an exact
  /// power of two — bitwise equal to ldexp(ticks, -kFracBits)): the
  /// integer stream kernel dequantises once per toggled output bit.
  static double to_ns(std::uint32_t ticks) {
    return static_cast<double>(ticks) * (1.0 / kTicksPerNs);
  }

  /// Tick count of `ns` if `ns` lies exactly on the grid and fits a
  /// uint32; returns false otherwise (off-grid, negative, or overflow).
  static bool try_ticks(double ns, std::uint32_t& ticks);

  /// Largest settle tick count captured *fresh* at `period_ns`: a net is
  /// stale iff settle_ticks > period_ticks(period_ns). Exact for any
  /// positive period (see above); saturates at uint64 max.
  static std::uint64_t period_ticks(double period_ns);
};

struct CompileOptions {
  /// Fold cells whose outputs are provably constant. Disable for purely
  /// structural consumers (STA), where a constant-valued cell still owns
  /// its delay.
  bool fold_constants = true;
  /// Drop cells unreachable from the outputs. Disable when every original
  /// net must stay addressable (STA reports per-net arrivals).
  bool sweep_dead = true;
};

struct CompileStats {
  std::size_t source_cells = 0;      ///< cells in the original netlist
  std::size_t folded_constant = 0;   ///< folded onto a constant sentinel
  std::size_t elided_free = 0;       ///< Buf/Const cells aliased away
  std::size_t swept_dead = 0;        ///< unreachable from any output
  std::size_t compiled_cells = 0;    ///< cells in the compiled form
  std::size_t levels = 0;            ///< depth of the levelized schedule
};

/// The lowered netlist. Compiled net numbering: net 0 is the constant-zero
/// sentinel, net 1 the constant-one sentinel, nets 2..2+NI-1 the primary
/// inputs, and the remaining nets the surviving cells in level order.
class CompiledNetlist {
 public:
  static constexpr std::int32_t kConst0Net = 0;
  static constexpr std::int32_t kConst1Net = 1;

  static CompiledNetlist compile(const Netlist& nl,
                                 const CompileOptions& opts = {});

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_cells() const { return tt_.size(); }
  std::size_t num_nets() const { return 2 + num_inputs_ + tt_.size(); }
  std::size_t num_outputs() const { return out_net_.size(); }
  std::size_t num_levels() const {
    return level_begin_.empty() ? 0 : level_begin_.size() - 1;
  }
  const CompileStats& stats() const { return stats_; }

  /// Compiled net id of primary input i.
  std::int32_t input_net(std::size_t i) const {
    return static_cast<std::int32_t>(2 + i);
  }
  /// Compiled net id of compiled cell ci's output.
  std::int32_t cell_net(std::size_t ci) const {
    return static_cast<std::int32_t>(2 + num_inputs_ + ci);
  }
  /// Compiled net id carrying output o (may be a sentinel or an input).
  std::int32_t out_net(std::size_t o) const { return out_net_[o]; }

  /// Truth table of compiled cell ci: bit (a | b<<1 | c<<2) is the output
  /// for fanin values (a, b, c).
  std::uint8_t truth_table(std::size_t ci) const { return tt_[ci]; }
  /// Compiled net id of fanin slot k (0..2) of compiled cell ci.
  std::int32_t fanin(std::size_t ci, int k) const {
    return fanin_[3 * ci + static_cast<std::size_t>(k)];
  }
  const std::vector<std::int32_t>& fanins() const { return fanin_; }
  const std::vector<std::uint8_t>& truth_tables() const { return tt_; }
  /// Original cell index compiled cell ci came from.
  std::size_t orig_cell(std::size_t ci) const { return orig_cell_[ci]; }
  /// True if compiled cell ci is a pipeline register (PipeReg).
  bool cell_is_reg(std::size_t ci) const { return is_reg_[ci] != 0; }
  const std::vector<std::uint8_t>& reg_flags() const { return is_reg_; }
  /// True if any compiled cell is a pipeline register. Reg-free netlists
  /// keep the exact single-track settle kernel; reg-bearing ones get the
  /// two-track (stage-local + carried) semantics.
  bool has_registers() const { return has_regs_; }
  /// Compiled cells of level l occupy [level_begin(l), level_begin(l+1)).
  std::size_t level_begin(std::size_t l) const { return level_begin_[l]; }

  /// Compiled net carrying the value of original net `orig`, or -1 if the
  /// net was swept (only possible with sweep_dead).
  std::int32_t alias_of(std::int32_t orig) const { return alias_[orig]; }

  /// Per-compiled-cell delays gathered from per-original-cell delays.
  std::vector<double> gather_delays(
      const std::vector<double>& orig_cell_delay_ns) const;

  /// Strict lowering-time quantisation of per-compiled-cell delays onto
  /// the PsGrid: throws (naming the offending original cell) if any delay
  /// is off-grid or does not fit a uint32 tick count, or if the worst-case
  /// levelized path sum of tick counts overflows uint32 — the bound every
  /// settle time the integer kernel can produce stays under. On success
  /// the returned ticks dequantise bitwise to the inputs, and
  /// `critical_path_ticks` (if given) receives the worst-case path sum.
  std::vector<std::uint32_t> quantise_delays(
      const std::vector<double>& cell_delay_ns,
      std::uint64_t* critical_path_ticks = nullptr) const;

  // --- Evaluation -----------------------------------------------------------

  /// Scalar functional evaluation over a caller buffer of num_nets()
  /// values (0/1). The caller writes the primary inputs at input_net(i);
  /// sentinels and all cell nets are filled in here.
  void eval(std::vector<std::uint8_t>& vals) const;

  /// Convenience: functional output values for one input vector (matches
  /// Netlist::evaluate_outputs bit for bit). `vals` is scratch, reused
  /// across calls once warm.
  void eval_outputs(const std::vector<std::uint8_t>& inputs,
                    std::vector<std::uint8_t>& vals,
                    std::vector<std::uint8_t>& out) const;

  /// 64-lane bit-parallel functional evaluation: words[net] carries one
  /// bit per sample (lane). The caller writes the input words at
  /// input_net(i); sentinels and cell words are filled in here. Timing-free
  /// paths only — lanes are fully settled values by construction.
  void eval64(std::vector<std::uint64_t>& words) const;

 private:
  std::size_t num_inputs_ = 0;
  std::vector<std::uint8_t> tt_;        ///< per-cell truth table
  std::vector<std::int32_t> fanin_;     ///< 3 per cell, flattened
  std::vector<std::size_t> orig_cell_;  ///< per-cell original index
  std::vector<std::uint8_t> is_reg_;    ///< per-cell PipeReg flag
  bool has_regs_ = false;
  std::vector<std::size_t> level_begin_;
  std::vector<std::int32_t> out_net_;
  std::vector<std::int32_t> alias_;     ///< original net → compiled net
  CompileStats stats_;
};

}  // namespace oclp
