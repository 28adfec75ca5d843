// PODEM test generation on the full-scan combinational view.
//
// Inputs of the view: primary inputs + flip-flop outputs (PPIs, loadable
// by scan-in). Observation points: primary outputs + flip-flop D fanins
// (PPOs, readable by scan-out). PODEM searches assignments of the view's
// inputs only, with a dual-machine (good value, faulty value) three-valued
// simulation; the decision search is complete, so an exhausted search
// proves the fault untestable in this view.
//
// Implication is event-driven: one full simulation per generate() call,
// then each decision, flip or undo re-evaluates only the gates whose
// fanins changed, level by level. The D-frontier (as a bitset over
// topological positions), the set of signals carrying a binary difference
// and the count of observed differences are refreshed from the changed
// signals only, so a step costs the size of the cone it touches.
//
// Scan-view semantics of sequential fault sites:
//   * a DFF Q output fault is a PPI stuck line — but such faults are also
//     directly detectable by shifting the chain (see detectability.hpp);
//   * a DFF D input-pin fault is excitation-only: the D line is itself a
//     PPO, so the fault is detected as soon as the line carries the
//     opposite value.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault.hpp"
#include "scan/test.hpp"
#include "sim/compiled.hpp"

namespace rls::atpg {

class Podem {
 public:
  struct Options {
    int backtrack_limit = 4000;
  };

  enum class Status : std::uint8_t {
    kDetected,    ///< a test (pi, ppi) was found
    kUntestable,  ///< search space exhausted: provably no test exists
    kAborted,     ///< backtrack limit reached
  };

  struct Result {
    Status status = Status::kAborted;
    /// Input assignment when kDetected; value 2 means don't-care.
    scan::BitVector pi;
    scan::BitVector ppi;
    int backtracks = 0;
    /// Inputs assigned by backtrace (flips are counted in backtracks).
    std::uint64_t decisions = 0;
    /// Gate evaluations done by event-driven implication (the one full
    /// simulation at the start is not counted).
    std::uint64_t implications = 0;
  };

  explicit Podem(const sim::CompiledCircuit& cc) : Podem(cc, Options{}) {}
  Podem(const sim::CompiledCircuit& cc, Options opt);

  /// Runs PODEM for one fault.
  Result generate(const fault::Fault& f);

 private:
  static constexpr std::uint8_t kX = 2;

  struct Objective {
    netlist::SignalId signal = netlist::kNoSignal;
    std::uint8_t value = 0;
    bool valid = false;
  };

  static constexpr std::uint32_t kNoPos = ~std::uint32_t{0};

  /// Full simulation of the current assignment; rebuilds the difference
  /// set, the observed-difference count and the D-frontier from scratch.
  void simulate();
  /// Assigns view input `idx` (0/1/X) and queues its fanouts; the values
  /// downstream are stale until the next propagate().
  void set_input(std::uint32_t idx, std::uint8_t v);
  /// Evaluates the queued gates level by level, then refreshes the derived
  /// state of every changed signal. Returns the number of gate evaluations.
  std::uint64_t propagate();
  void clear_queue();
  /// Recomputes both machines of one combinational gate, with the fault
  /// injected; true when either value changed.
  bool eval_dual(netlist::SignalId id);
  void enqueue_fanout(netlist::SignalId id);
  void refresh(netlist::SignalId id);
  [[nodiscard]] bool has_diff(netlist::SignalId id) const {
    return gv_[id] != kX && fv_[id] != kX && gv_[id] != fv_[id];
  }
  [[nodiscard]] bool frontier_status(netlist::SignalId id) const;

  [[nodiscard]] bool detected() const;
  Objective get_objective();
  /// Maps an objective on any signal to an assignable input objective.
  Objective backtrace(Objective obj) const;
  [[nodiscard]] bool x_path_exists();

  const sim::CompiledCircuit* cc_;
  Options opt_;

  // Current fault.
  fault::Fault fault_{};
  netlist::SignalId fault_src_ = netlist::kNoSignal;  // pin fault: source line
  bool dff_d_fault_ = false;

  // Assignable inputs of the view.
  std::vector<netlist::SignalId> view_inputs_;
  std::vector<std::uint32_t> input_index_;  // signal -> view input idx (or ~0)
  std::vector<std::uint8_t> assign_;        // per view input: 0/1/2

  // Dual-machine values, 0/1/2 per signal.
  std::vector<std::uint8_t> gv_;
  std::vector<std::uint8_t> fv_;
  std::vector<std::uint8_t> observed_;

  std::vector<std::uint32_t> pos_;  // signal -> index in cc.order() or kNoPos

  // Pending implication: per-level buckets of queued gates, the queued
  // level range, and the signals changed since the last refresh.
  std::vector<std::vector<netlist::SignalId>> queue_;
  std::vector<std::uint8_t> queued_;
  int queue_lo_ = std::numeric_limits<int>::max();
  int queue_hi_ = -1;
  std::vector<netlist::SignalId> changed_;

  // Derived state: binary differences per signal, D-frontier per order
  // position, and how many observed signals carry a difference.
  std::vector<std::uint64_t> diff_;
  std::vector<std::uint64_t> frontier_;
  std::size_t observed_diffs_ = 0;

  // x_path_exists() scratch: generation-stamped visit marks and a stack.
  std::vector<std::uint32_t> seen_;
  std::uint32_t seen_stamp_ = 0;
  std::vector<netlist::SignalId> stack_;
};

}  // namespace rls::atpg
