// Flattened, cache-friendly circuit representation shared by all
// simulators. A CompiledCircuit freezes a finalized netlist into flat
// arrays: combinational gates in levelized order, fanin and fanout lists
// in contiguous CSR buffers, per-signal transitive fanout cones for the
// difference-propagation fault engines, and the I/O / flip-flop index
// lists.
//
// All engines operate on a per-signal array of 64-bit words. The lane
// semantics are up to the caller: 64 independent patterns (PPSFP),
// 64 independent faults (parallel-fault sequential simulation), or one
// broadcast value.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace rls::sim {

using Word = std::uint64_t;
inline constexpr Word kAllOnes = ~Word{0};
inline constexpr int kLanes = 64;

/// Broadcasts a scalar bit to all 64 lanes.
constexpr Word broadcast(bool bit) noexcept { return bit ? kAllOnes : Word{0}; }

/// Extracts the bit of `lane` from a word.
constexpr bool lane_bit(Word w, int lane) noexcept {
  return (w >> lane) & 1u;
}

/// Sets/clears the bit of `lane`.
constexpr Word with_lane(Word w, int lane, bool bit) noexcept {
  const Word m = Word{1} << lane;
  return bit ? (w | m) : (w & ~m);
}

class CompiledCircuit {
 public:
  explicit CompiledCircuit(const netlist::Netlist& nl);

  [[nodiscard]] const netlist::Netlist& nl() const noexcept { return *nl_; }
  [[nodiscard]] std::size_t num_signals() const noexcept { return types_.size(); }

  /// Combinational gates in evaluation (levelized) order.
  [[nodiscard]] std::span<const netlist::SignalId> order() const noexcept {
    return order_;
  }
  [[nodiscard]] netlist::GateType type(netlist::SignalId id) const noexcept {
    return types_[id];
  }
  [[nodiscard]] std::span<const netlist::SignalId> fanin(
      netlist::SignalId id) const noexcept {
    return {fanin_flat_.data() + fanin_off_[id],
            fanin_off_[id + 1] - fanin_off_[id]};
  }
  [[nodiscard]] int level(netlist::SignalId id) const noexcept {
    return levels_[id];
  }
  [[nodiscard]] int max_level() const noexcept { return max_level_; }

  /// Consumers of `id`: every gate (combinational or DFF) that lists `id`
  /// among its fanins. CSR layout, mirror image of fanin().
  [[nodiscard]] std::span<const netlist::SignalId> fanout(
      netlist::SignalId id) const noexcept {
    return {fanout_flat_.data() + fanout_off_[id],
            fanout_off_[id + 1] - fanout_off_[id]};
  }

  /// True when the per-signal transitive fanout cones were materialized
  /// (skipped above kConeSignalLimit signals to bound memory).
  [[nodiscard]] bool has_cones() const noexcept { return has_cones_; }

  /// Transitive fanout cone of `id` through the combinational core:
  /// `id` itself plus every signal reachable via fanout edges, stopping at
  /// (but including) DFFs — divergence crosses a DFF only on a clock edge,
  /// which the difference engines track dynamically. Ascending id order.
  /// Empty when has_cones() is false.
  [[nodiscard]] std::span<const netlist::SignalId> cone(
      netlist::SignalId id) const noexcept {
    if (!has_cones_) return {};
    return {cone_flat_.data() + cone_off_[id],
            cone_off_[id + 1] - cone_off_[id]};
  }

  /// Cone cardinality without touching the membership array (valid even
  /// when the flat cones were not materialized).
  [[nodiscard]] std::uint32_t cone_size(netlist::SignalId id) const noexcept {
    return cone_size_[id];
  }

  /// Signal-count ceiling for running the cone closure and the flat-entry
  /// ceiling for materializing membership (both quadratic worst case).
  static constexpr std::size_t kConeSignalLimit = 1u << 14;
  static constexpr std::uint64_t kConeEntryLimit = std::uint64_t{1} << 26;

  [[nodiscard]] std::span<const netlist::SignalId> inputs() const noexcept {
    return nl_->primary_inputs();
  }
  [[nodiscard]] std::span<const netlist::SignalId> outputs() const noexcept {
    return nl_->primary_outputs();
  }
  [[nodiscard]] std::span<const netlist::SignalId> flip_flops() const noexcept {
    return nl_->flip_flops();
  }

  /// Scan-chain position of a flip-flop: the k with flip_flops()[k] == id
  /// (0 = scan-in side). kNoChainPos for any other signal.
  static constexpr std::uint32_t kNoChainPos = ~std::uint32_t{0};
  [[nodiscard]] std::uint32_t chain_pos(netlist::SignalId id) const noexcept {
    return chain_pos_[id];
  }

  /// Evaluates one combinational gate from already-computed fanin words.
  /// Exposed so fault overlays can recompute single gates.
  [[nodiscard]] Word eval_gate(netlist::SignalId id,
                               std::span<const Word> values) const;

  /// Evaluates a single lane of a gate with one fanin pin optionally forced
  /// (pin < 0 means no forcing). Used for input-pin stuck-at injection.
  [[nodiscard]] bool eval_gate_lane(netlist::SignalId id,
                                    std::span<const Word> values, int lane,
                                    int forced_pin, bool forced_value) const;

  /// Full combinational sweep: assumes source words (inputs, constants,
  /// flip-flop outputs) are already set in `values`; fills every
  /// combinational gate's word in levelized order.
  void eval(std::span<Word> values) const;

  /// Sets constant-gate words (call once after resizing a value array).
  void init_constants(std::span<Word> values) const;

 private:
  const netlist::Netlist* nl_;
  std::vector<netlist::GateType> types_;
  std::vector<netlist::SignalId> order_;
  std::vector<std::uint32_t> fanin_off_;
  std::vector<netlist::SignalId> fanin_flat_;
  std::vector<std::uint32_t> fanout_off_;
  std::vector<netlist::SignalId> fanout_flat_;
  std::vector<std::uint32_t> cone_off_;
  std::vector<netlist::SignalId> cone_flat_;
  std::vector<std::uint32_t> cone_size_;
  bool has_cones_ = false;
  std::vector<int> levels_;
  int max_level_ = 0;
  std::vector<std::uint32_t> chain_pos_;  // [num_signals]

  void build_fanout();
  void build_cones();
};

}  // namespace rls::sim
