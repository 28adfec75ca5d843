#include "atpg/detectability.hpp"

#include "fault/comb_fsim.hpp"
#include "rand/rng.hpp"

namespace rls::atpg {

using fault::Fault;
using netlist::GateType;

DetectabilityReport classify(const sim::CompiledCircuit& cc,
                             const std::vector<Fault>& faults,
                             const DetectabilityOptions& opt) {
  DetectabilityReport rep;
  rep.cls.assign(faults.size(), FaultClass::kAborted);
  std::vector<std::uint8_t> settled(faults.size(), 0);

  // Scan-chain rule: Q-output faults are detectable by shifting.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].pin < 0 && cc.type(faults[i].gate) == GateType::kDff) {
      rep.cls[i] = FaultClass::kDetectable;
      settled[i] = 1;
      ++rep.num_detectable;
    }
  }

  // Presolved untestability (analysis::sta): settle without simulating.
  // The scan-chain rule above wins on overlap (it never overlaps with a
  // sound mask — Q-output faults are always detectable).
  if (opt.presolved_untestable) {
    if (opt.presolved_untestable->size() != faults.size()) {
      throw std::invalid_argument(
          "classify: presolved_untestable mask size does not match fault "
          "count");
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if ((*opt.presolved_untestable)[i] && !settled[i]) {
        rep.cls[i] = FaultClass::kUntestable;
        settled[i] = 1;
        ++rep.num_untestable;
        ++rep.presolved_untestable;
      }
    }
  }

  // Random PPSFP campaign.
  fault::CombFaultSim fsim(cc);
  rls::rand::Rng rng(opt.seed);
  std::vector<sim::Word> pi_words(cc.inputs().size());
  std::vector<sim::Word> ppi_words(cc.flip_flops().size());
  for (std::size_t round = 0; round < opt.random_rounds; ++round) {
    for (sim::Word& w : pi_words) w = rng.next_u64();
    for (sim::Word& w : ppi_words) w = rng.next_u64();
    fsim.set_patterns(pi_words, ppi_words);
    bool any_left = false;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (settled[i]) continue;
      if (fsim.detect_mask(faults[i]) != 0) {
        rep.cls[i] = FaultClass::kDetectable;
        settled[i] = 1;
        ++rep.num_detectable;
        ++rep.detected_by_random;
      } else {
        any_left = true;
      }
    }
    if (!any_left) break;
  }

  // PODEM settles the survivors.
  Podem podem(cc, Podem::Options{opt.backtrack_limit});
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (settled[i]) continue;
    const Podem::Result r = podem.generate(faults[i]);
    rep.podem_decisions += r.decisions;
    rep.podem_backtracks += static_cast<std::uint64_t>(r.backtracks);
    rep.podem_implications += r.implications;
    switch (r.status) {
      case Podem::Status::kDetected:
        rep.cls[i] = FaultClass::kDetectable;
        ++rep.num_detectable;
        ++rep.detected_by_atpg;
        break;
      case Podem::Status::kUntestable:
        rep.cls[i] = FaultClass::kUntestable;
        ++rep.num_untestable;
        break;
      case Podem::Status::kAborted:
        rep.cls[i] = FaultClass::kAborted;
        ++rep.num_aborted;
        break;
    }
  }
  return rep;
}

}  // namespace rls::atpg
