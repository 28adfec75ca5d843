// Detectable-fault classification.
//
// The paper's Procedure 2 targets "all the detectable circuit faults".
// Detectability under scan-based at-speed testing reduces to the full-scan
// combinational view (see podem.hpp), with one scan-specific addition: a
// flip-flop Q-output stuck-at is always detectable by the scan chain
// itself (any scanned bit unequal to the stuck value exposes it during a
// shift), even when the fault is combinationally redundant through the
// logic.
//
// The classifier first drops random-easy faults with a PPSFP random
// campaign, then settles every survivor with complete PODEM search (or
// reports it aborted when the backtrack limit is reached).
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "sim/compiled.hpp"

namespace rls::atpg {

enum class FaultClass : std::uint8_t {
  kDetectable,
  kUntestable,
  kAborted,  ///< PODEM hit its backtrack limit; treated as "possibly detectable"
};

struct DetectabilityOptions {
  /// Number of 64-pattern random PPSFP rounds before ATPG.
  std::size_t random_rounds = 64;
  std::uint64_t seed = 0x5EEDBA5Eull;
  int backtrack_limit = 4000;
  /// Optional presolved-untestable mask, index-aligned with the fault
  /// vector (1 = already proven untestable, e.g. by analysis::sta).
  /// Masked faults skip both the random campaign and PODEM and are
  /// reported kUntestable directly. The caller owns the vector; it must
  /// outlive the classify() call. Soundness is the caller's obligation —
  /// an unsound mask silently shrinks the target set.
  const std::vector<std::uint8_t>* presolved_untestable = nullptr;
};

struct DetectabilityReport {
  std::vector<FaultClass> cls;  ///< parallel to the input fault vector
  std::size_t num_detectable = 0;
  std::size_t num_untestable = 0;
  std::size_t num_aborted = 0;
  std::size_t detected_by_random = 0;
  std::size_t detected_by_atpg = 0;
  /// Faults settled kUntestable by the presolved mask (0 when none given).
  std::size_t presolved_untestable = 0;
  /// PODEM effort summed over the faults it settled: inputs assigned by
  /// backtrace, decision flips, and gate evaluations done by implication.
  std::uint64_t podem_decisions = 0;
  std::uint64_t podem_backtracks = 0;
  std::uint64_t podem_implications = 0;

  [[nodiscard]] std::size_t num_faults() const noexcept { return cls.size(); }
};

DetectabilityReport classify(const sim::CompiledCircuit& cc,
                             const std::vector<fault::Fault>& faults,
                             const DetectabilityOptions& opt = {});

}  // namespace rls::atpg
