#include "fault/seq_fsim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <thread>

namespace rls::fault {

using netlist::GateType;
using netlist::SignalId;
using sim::broadcast;
using sim::kAllOnes;
using sim::Word;

const char* engine_name(Engine engine) noexcept {
  switch (engine) {
    case Engine::kFullSweep:
      return "fullsweep";
    case Engine::kPacked:
      return "packed";
  }
  return "unknown";
}

const char* engine_choices() noexcept { return "fullsweep, packed"; }

std::optional<Engine> parse_engine(std::string_view name) noexcept {
  if (name == "fullsweep") return Engine::kFullSweep;
  if (name == "packed") return Engine::kPacked;
  return std::nullopt;
}

SeqFaultSim::SeqFaultSim(const sim::CompiledCircuit& cc)
    : cc_(&cc), ref_(cc) {
  values_.assign(cc.num_signals(), 0);
  next_state_.assign(cc.flip_flops().size(), 0);
  kind_.assign(cc.num_signals(), 0);
  force_slot_.assign(cc.num_signals(), 0);
  queued_epoch_.assign(cc.num_signals(), 0);
  level_queue_.resize(static_cast<std::size_t>(cc.max_level()) + 1);
  chain_diff_.assign(cc.flip_flops().size(), 0);
  cc.init_constants(values_);
}

void SeqFaultSim::set_observation_mode(ObservationMode mode, int misr_degree) {
  mode_ = mode;
  misr_degree_ = misr_degree;
  lane_misr_ = mode == ObservationMode::kSignature
                   ? std::make_unique<bist::LaneMisr>(misr_degree)
                   : nullptr;
}

SeqFaultSim::Overlay SeqFaultSim::build_overlay(
    std::span<const Fault> group) const {
  assert(group.size() <= sim::kLanes);
  Overlay o;
  std::unordered_map<SignalId, ForceMask> forces;
  for (std::size_t lane = 0; lane < group.size(); ++lane) {
    const Fault& f = group[lane];
    if (f.pin < 0) {
      ForceMask& m = forces[f.gate];
      const Word bit = Word{1} << lane;
      if (f.stuck) {
        m.or_mask |= bit;
      } else {
        m.and_mask &= ~bit;
      }
      if (cc_->type(f.gate) == GateType::kDff) o.has_ff_force = true;
    } else if (cc_->type(f.gate) == GateType::kDff) {
      // D-pin fault: functional capture only.
      o.dff_d_fix.emplace_back(
          cc_->chain_pos(f.gate),
          PinFix{static_cast<std::uint8_t>(lane), f.pin, f.stuck});
    } else {
      o.pin_fix[f.gate].push_back(
          PinFix{static_cast<std::uint8_t>(lane), f.pin, f.stuck});
    }
  }
  o.out_force.assign(forces.begin(), forces.end());
  return o;
}

void SeqFaultSim::apply_out_forces(const Overlay& o) {
  for (const auto& [id, m] : o.out_force) {
    values_[id] = (values_[id] & m.and_mask) | m.or_mask;
  }
}

void SeqFaultSim::eval_with_overlay(const Overlay& o) {
  for (SignalId id : cc_->order()) {
    Word w = cc_->eval_gate(id, values_);
    const std::uint8_t k = kind_[id];
    if (k) {
      if (k & 2) {
        // Input-pin faults: recompute the affected lanes with the pin
        // forced. values_[id] must not yet be overwritten for lanes being
        // recomputed — eval_gate_lane only reads fanins, so order is safe.
        auto it = o.pin_fix.find(id);
        for (const PinFix& fix : it->second) {
          const bool bit = cc_->eval_gate_lane(id, values_, fix.lane, fix.pin,
                                               fix.value != 0);
          w = sim::with_lane(w, fix.lane, bit);
        }
      }
      if (k & 1) {
        const ForceMask& m = o.out_force[force_slot_[id]].second;
        w = (w & m.and_mask) | m.or_mask;
      }
    }
    values_[id] = w;
  }
  gate_evals_ += cc_->order().size();
  sweep_evals_ += cc_->order().size();
}

Word SeqFaultSim::shift_with_forces(Word scan_in, const Overlay& o) {
  const auto ffs = cc_->flip_flops();
  if (ffs.empty()) return 0;
  const Word out = values_[ffs[ffs.size() - 1]];
  for (std::size_t k = ffs.size(); k-- > 1;) {
    values_[ffs[k]] = values_[ffs[k - 1]];
  }
  values_[ffs[0]] = scan_in;
  if (o.has_ff_force) apply_out_forces(o);
  return out;
}

void SeqFaultSim::clock_with_fixes(const Overlay& o) {
  const auto ffs = cc_->flip_flops();
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    next_state_[k] = values_[cc_->fanin(ffs[k])[0]];
  }
  for (const auto& [pos, fix] : o.dff_d_fix) {
    next_state_[pos] = sim::with_lane(next_state_[pos], fix.lane, fix.value != 0);
  }
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    values_[ffs[k]] = next_state_[k];
  }
  if (o.has_ff_force) apply_out_forces(o);
}

SeqFaultSim::Trace SeqFaultSim::compute_trace(const scan::ScanTest& test) {
  Trace tr;
  const std::size_t n_sv = cc_->flip_flops().size();
  ref_.load_state_broadcast(test.scan_in);
  tr.po_bits.resize(test.length());
  tr.limited_out_bits.resize(test.length());
  for (std::size_t u = 0; u < test.vectors.size(); ++u) {
    const std::uint32_t s = u < test.shift.size() ? test.shift[u] : 0;
    for (std::uint32_t j = 0; j < s; ++j) {
      const std::uint8_t in_bit =
          (u < test.scan_bits.size() && j < test.scan_bits[u].size())
              ? test.scan_bits[u][j]
              : 0;
      const Word out = ref_.shift(broadcast(in_bit != 0));
      tr.limited_out_bits[u].push_back(sim::lane_bit(out, 0) ? 1 : 0);
    }
    ref_.set_inputs_broadcast(test.vectors[u]);
    ref_.eval();
    tr.po_bits[u] = ref_.output_bits(0);
    if (!extra_observed_.empty()) {
      scan::BitVector extra(extra_observed_.size());
      for (std::size_t k = 0; k < extra_observed_.size(); ++k) {
        extra[k] = sim::lane_bit(ref_.values()[extra_observed_[k]], 0) ? 1 : 0;
      }
      tr.extra_bits.push_back(std::move(extra));
    }
    ref_.clock();
  }
  tr.final_state.resize(n_sv);
  for (std::size_t k = 0; k < n_sv; ++k) {
    tr.final_state[k] = sim::lane_bit(ref_.state_word(k), 0) ? 1 : 0;
  }
  if (mode_ == ObservationMode::kSignature) {
    // Fold the fault-free response stream into the reference signature in
    // the same canonical order the faulty machines use.
    bist::Misr misr(misr_degree_);
    scan::BitVector one(1);
    for (std::size_t u = 0; u < test.vectors.size(); ++u) {
      for (std::uint8_t bit : tr.limited_out_bits[u]) {
        one[0] = bit;
        misr.absorb(one);
      }
      scan::BitVector obs = tr.po_bits[u];
      if (!tr.extra_bits.empty()) {
        obs.insert(obs.end(), tr.extra_bits[u].begin(), tr.extra_bits[u].end());
      }
      misr.absorb(obs);
    }
    for (std::size_t k = 0; k < n_sv; ++k) {
      one[0] = tr.final_state[n_sv - 1 - k];
      misr.absorb(one);
    }
    tr.signature = misr.signature();
  }
  return tr;
}

void SeqFaultSim::mark_overlay(const Overlay& o) {
  for (std::size_t i = 0; i < o.out_force.size(); ++i) {
    const SignalId id = o.out_force[i].first;
    kind_[id] |= 1;
    force_slot_[id] = static_cast<std::uint32_t>(i);
  }
  for (const auto& [id, fixes] : o.pin_fix) {
    (void)fixes;
    kind_[id] |= 2;
  }
}

void SeqFaultSim::unmark_overlay(const Overlay& o) {
  for (const auto& [id, m] : o.out_force) {
    (void)m;
    kind_[id] = 0;
  }
  for (const auto& [id, fixes] : o.pin_fix) {
    (void)fixes;
    kind_[id] = 0;
  }
}

Word SeqFaultSim::run_test_with_trace(const scan::ScanTest& test,
                                      const Overlay& o, const Trace& trace) {
  mark_overlay(o);
  const std::size_t n_sv = cc_->flip_flops().size();
  Word detected = 0;
  const bool signature = mode_ == ObservationMode::kSignature;
  if (signature) lane_misr_->reset();

  // ---- scan-in (explicit shifts so Q-stuck faults corrupt the load) ----
  if (o.has_ff_force) {
    for (std::size_t k = test.scan_in.size(); k-- > 0;) {
      (void)shift_with_forces(broadcast(test.scan_in[k] != 0), o);
    }
  } else {
    const auto ffs = cc_->flip_flops();
    for (std::size_t k = 0; k < ffs.size(); ++k) {
      values_[ffs[k]] = broadcast(test.scan_in[k] != 0);
    }
  }

  // ---- at-speed sequence with limited scan operations ----
  for (std::size_t u = 0; u < test.vectors.size(); ++u) {
    const std::uint32_t s = u < test.shift.size() ? test.shift[u] : 0;
    for (std::uint32_t j = 0; j < s; ++j) {
      const std::uint8_t in_bit =
          (u < test.scan_bits.size() && j < test.scan_bits[u].size())
              ? test.scan_bits[u][j]
              : 0;
      const Word out = shift_with_forces(broadcast(in_bit != 0), o);
      if (signature) {
        lane_misr_->absorb_one(out);
      } else {
        detected |= out ^ broadcast(trace.limited_out_bits[u][j] != 0);
      }
    }
    const auto pis = cc_->inputs();
    for (std::size_t k = 0; k < pis.size(); ++k) {
      values_[pis[k]] = broadcast(test.vectors[u][k] != 0);
    }
    apply_out_forces(o);  // PI stuck-at and re-asserted source forces
    eval_with_overlay(o);
    const auto pos = cc_->outputs();
    if (signature) {
      misr_inputs_.clear();
      for (std::size_t k = 0; k < pos.size(); ++k) {
        misr_inputs_.push_back(values_[pos[k]]);
      }
      for (netlist::SignalId extra : extra_observed_) {
        misr_inputs_.push_back(values_[extra]);
      }
      lane_misr_->absorb(misr_inputs_);
    } else {
      for (std::size_t k = 0; k < pos.size(); ++k) {
        detected |= values_[pos[k]] ^ broadcast(trace.po_bits[u][k] != 0);
      }
      if (!extra_observed_.empty()) {
        for (std::size_t k = 0; k < extra_observed_.size(); ++k) {
          detected |= values_[extra_observed_[k]] ^
                      broadcast(trace.extra_bits[u][k] != 0);
        }
      }
    }
    clock_with_fixes(o);
  }

  // ---- complete scan-out ----
  if (!o.has_ff_force && !signature) {
    // Without Q-output forces the chain is undistorted: the observed bit
    // stream is exactly the final state, so compare it in place instead of
    // shifting N_SV times (the dominant cost on large circuits).
    const auto ffs = cc_->flip_flops();
    for (std::size_t k = 0; k < n_sv; ++k) {
      detected |= values_[ffs[k]] ^ broadcast(trace.final_state[k] != 0);
    }
  } else {
    for (std::size_t k = 0; k < n_sv; ++k) {
      const Word out = shift_with_forces(0, o);
      if (signature) {
        lane_misr_->absorb_one(out);
      } else {
        detected |= out ^ broadcast(trace.final_state[n_sv - 1 - k] != 0);
      }
    }
  }
  if (signature) {
    detected = lane_misr_->differs_from(trace.signature);
  }
  unmark_overlay(o);
  return detected;
}

void SeqFaultSim::enqueue_gate(SignalId id) {
  if (queued_epoch_[id] == epoch_) return;
  queued_epoch_[id] = epoch_;
  if (cc_->type(id) == GateType::kDff) {
    // Divergence crosses a flip-flop at the clock edge: remember which
    // chain positions captured a diverged D word.
    reached_.push_back(cc_->chain_pos(id));
    return;
  }
  level_queue_[static_cast<std::size_t>(cc_->level(id))].push_back(id);
}

void SeqFaultSim::enqueue_fanout(SignalId id) {
  for (SignalId out : cc_->fanout(id)) enqueue_gate(out);
}

SeqFaultSim::PackedOverlay SeqFaultSim::build_packed_overlay(
    const Fault& f, Word live) const {
  PackedOverlay o;
  o.site = f.gate;
  const GateType t = cc_->type(f.gate);
  // Forces are pre-masked with the batch's live lanes so dead (tail)
  // lanes can never diverge from the reference.
  const ForceMask force{f.stuck ? kAllOnes : ~live, f.stuck ? live : Word{0}};
  if (f.pin < 0) {
    o.is_out = true;
    o.out = force;
    o.is_source = t == GateType::kInput || t == GateType::kDff;
    if (t == GateType::kDff) {
      o.has_ff_force = true;
      o.ff_pos = cc_->chain_pos(f.gate);
    }
  } else if (t == GateType::kDff) {
    o.is_dff_d = true;
    o.pin_force = force;
    o.dff_pos = cc_->chain_pos(f.gate);
  } else {
    o.pin = f.pin;
    o.pin_force = force;
  }
  return o;
}

SeqFaultSim::PackedTrace SeqFaultSim::compute_packed_trace(
    const sim::PackedBatch& batch,
    std::span<const std::uint32_t> q_positions) {
  PackedTrace tr;
  const std::size_t n_signals = cc_->num_signals();
  const std::size_t n_sv = cc_->flip_flops().size();
  const std::size_t n_steps = batch.total_steps();
  const bool signature = mode_ == ObservationMode::kSignature;
  tr.snap.resize(batch.length() * n_signals);
  tr.shift_out.resize(n_steps);
  tr.q_slot.assign(n_sv, sim::CompiledCircuit::kNoChainPos);
  for (std::size_t i = 0; i < q_positions.size(); ++i) {
    tr.q_slot[q_positions[i]] = static_cast<std::uint32_t>(i);
  }
  tr.q_ref.resize(q_positions.size() * n_steps);
  std::unique_ptr<bist::LaneMisr> ref_misr;
  if (signature) ref_misr = std::make_unique<bist::LaneMisr>(misr_degree_);

  ref_.load_state_words({batch.scan_in(), n_sv});
  for (std::size_t u = 0; u < batch.length(); ++u) {
    for (std::uint32_t j = 0; j < batch.shifts(u); ++j) {
      const std::size_t step = batch.step_index(u, j);
      const Word mask = batch.step_mask(step);
      const Word out = ref_.shift_masked(batch.step_in(step), mask);
      tr.shift_out[step] = out;
      for (std::size_t i = 0; i < q_positions.size(); ++i) {
        tr.q_ref[i * n_steps + step] = ref_.state_word(q_positions[i]);
      }
      if (signature) ref_misr->absorb_one_masked(out, mask);
    }
    const Word* pi = batch.pi_unit(u);
    for (std::size_t k = 0; k < batch.num_inputs(); ++k) {
      ref_.set_input(k, pi[k]);
    }
    ref_.eval();
    const std::span<const Word> vals = ref_.values();
    std::copy(vals.begin(), vals.end(), tr.snap.begin() + u * n_signals);
    if (signature) {
      misr_inputs_.clear();
      for (SignalId po : cc_->outputs()) misr_inputs_.push_back(vals[po]);
      for (SignalId extra : extra_observed_) misr_inputs_.push_back(vals[extra]);
      ref_misr->absorb_masked(misr_inputs_, batch.live());
    }
    ref_.clock();
  }
  tr.final_state.resize(n_sv);
  for (std::size_t k = 0; k < n_sv; ++k) tr.final_state[k] = ref_.state_word(k);
  if (signature) {
    for (std::size_t k = 0; k < n_sv; ++k) {
      ref_misr->absorb_one_masked(tr.final_state[n_sv - 1 - k], batch.live());
    }
    tr.misr_stages.assign(ref_misr->stages().begin(),
                          ref_misr->stages().end());
  }
  return tr;
}

void SeqFaultSim::chain_clear() {
  std::fill(chain_diff_.begin() + static_cast<std::ptrdiff_t>(win_lo_),
            chain_diff_.begin() + static_cast<std::ptrdiff_t>(win_hi_), 0);
  win_lo_ = win_hi_ = 0;
}

void SeqFaultSim::chain_set(std::size_t pos, Word d) {
  chain_diff_[pos] = d;
  if (d == 0) return;
  if (win_lo_ == win_hi_) {
    win_lo_ = pos;
    win_hi_ = pos + 1;
  } else {
    win_lo_ = std::min(win_lo_, pos);
    win_hi_ = std::max(win_hi_, pos + 1);
  }
}

void SeqFaultSim::chain_shift(Word mask) {
  if (win_lo_ == win_hi_) return;
  // The reference shifts the same scan-in bits, so the difference enters
  // as zero at position 0 and moves one position up in the masked lanes;
  // the window grows by one (the top word leaves at N_SV).
  const std::size_t top = std::min(win_hi_, chain_diff_.size() - 1);
  for (std::size_t k = top; k > win_lo_; --k) {
    chain_diff_[k] = (chain_diff_[k] & ~mask) | (chain_diff_[k - 1] & mask);
  }
  chain_diff_[win_lo_] &= ~mask;
  win_hi_ = top + 1;
  while (win_lo_ < win_hi_ && chain_diff_[win_lo_] == 0) ++win_lo_;
  while (win_hi_ > win_lo_ && chain_diff_[win_hi_ - 1] == 0) --win_hi_;
}

void SeqFaultSim::packed_unit_eval(const PackedTrace& trace,
                                   const PackedOverlay& o, std::size_t unit) {
  ++epoch_;
  reached_.clear();
  const std::size_t n_signals = cc_->num_signals();
  const Word* snap = trace.snap_unit(unit, n_signals);
  const auto ffs = cc_->flip_flops();

  const auto set_diff = [&](SignalId id, Word w) {
    diff_val_[id] = w;
    diff_epoch_[id] = epoch_;
  };
  const auto fv = [&](SignalId id) -> Word {
    return diff_epoch_[id] == epoch_ ? diff_val_[id] : snap[id];
  };

  // Seed the frontier from flip-flops whose state diverged (via capture,
  // scan shifting of corrupted data, or a Q force)...
  for (std::size_t k = win_lo_; k < win_hi_; ++k) {
    if (chain_diff_[k] != 0) {
      set_diff(ffs[k], snap[ffs[k]] ^ chain_diff_[k]);
      enqueue_fanout(ffs[k]);
    }
  }
  // ...and from the fault site. Forced sources diverge in place; a forced
  // or pin-fixed combinational site must be evaluated even with clean
  // fanins. A DFF D-pin fault acts at the clock edge only.
  if (o.is_out && o.is_source) {
    const Word w = (fv(o.site) & o.out.and_mask) | o.out.or_mask;
    if (w != snap[o.site]) {
      set_diff(o.site, w);
      enqueue_fanout(o.site);
    }
  } else if (!o.is_dff_d) {
    enqueue_gate(o.site);
  }

  // Level-ordered frontier over difference *words*: an entry stays live
  // while any pattern lane differs from the reference; gates that
  // recompute to the reference word are pruned from propagation.
  std::uint64_t evals = 0;
  for (std::vector<SignalId>& bucket : level_queue_) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const SignalId id = bucket[i];
      const auto fi = cc_->fanin(id);
      Word w;
      if (o.pin >= 0 && id == o.site) {
        w = sim::eval_gate_with(*cc_, id, [&](std::size_t k) {
          Word v = fv(fi[k]);
          if (static_cast<int>(k) == o.pin) {
            v = (v & o.pin_force.and_mask) | o.pin_force.or_mask;
          }
          return v;
        });
      } else {
        w = sim::eval_gate_with(*cc_, id,
                                [&](std::size_t k) { return fv(fi[k]); });
      }
      if (o.is_out && id == o.site) {
        w = (w & o.out.and_mask) | o.out.or_mask;
      }
      ++evals;
      if (w != snap[id]) {
        set_diff(id, w);
        enqueue_fanout(id);
      }
    }
    bucket.clear();
  }
  gate_evals_ += evals;
  frontier_evals_ += evals;
  packed_words_ += evals;
}

bool SeqFaultSim::run_packed_fault(const sim::PackedBatch& batch,
                                   const PackedTrace& trace,
                                   const PackedOverlay& o) {
  const std::size_t n_signals = cc_->num_signals();
  if (diff_epoch_.size() < n_signals) {
    diff_val_.assign(n_signals, 0);
    diff_epoch_.assign(n_signals, 0);
  }
  const auto ffs = cc_->flip_flops();
  const std::size_t n_sv = ffs.size();
  const Word live = batch.live();
  const bool signature = mode_ == ObservationMode::kSignature;
  if (signature) lane_misr_->reset();
  Word detected = 0;
  chain_clear();

  // A stuck Q re-forces its chain position after every shift and clock:
  // the new difference there is force(ref ^ d) ^ ref.
  const auto q_diff = [&](Word ref, Word d) {
    return (((ref ^ d) & o.out.and_mask) | o.out.or_mask) ^ ref;
  };
  const Word* q_ref =
      o.has_ff_force && !trace.q_ref.empty()
          ? trace.q_ref.data() + trace.q_slot[o.ff_pos] * batch.total_steps()
          : nullptr;

  // ---- scan-in ----
  // The reference loads the same bits, so only a stuck Q diverges: every
  // bit that transits its position is forced, which leaves positions
  // >= ff_pos holding the forced value.
  if (o.has_ff_force) {
    for (std::size_t k = o.ff_pos; k < n_sv; ++k) {
      chain_set(k, q_diff(batch.scan_in()[k], 0));
    }
  }

  // ---- at-speed sequence with limited scan operations ----
  for (std::size_t u = 0; u < batch.length(); ++u) {
    // A clean chain stays clean under shifting, so per-cycle mode skips
    // the steps (a signature still clocks its MISR at every step).
    const bool skip_shifts =
        win_lo_ == win_hi_ && !o.has_ff_force && !signature;
    for (std::uint32_t j = 0; !skip_shifts && j < batch.shifts(u); ++j) {
      const std::size_t step = batch.step_index(u, j);
      const Word mask = batch.step_mask(step);
      const Word out_diff = win_hi_ == n_sv && win_lo_ < win_hi_
                                ? chain_diff_[n_sv - 1]
                                : Word{0};
      chain_shift(mask);
      if (o.has_ff_force) {
        chain_set(o.ff_pos, q_diff(q_ref[step], chain_diff_[o.ff_pos]));
      }
      if (signature) {
        lane_misr_->absorb_one_masked(trace.shift_out[step] ^ out_diff, mask);
      } else {
        detected |= out_diff & mask;
      }
    }
    packed_unit_eval(trace, o, u);
    const Word* snap = trace.snap_unit(u, n_signals);
    const auto fv = [&](SignalId id) -> Word {
      return diff_epoch_[id] == epoch_ ? diff_val_[id] : snap[id];
    };
    if (signature) {
      misr_inputs_.clear();
      for (SignalId po : cc_->outputs()) misr_inputs_.push_back(fv(po));
      for (SignalId extra : extra_observed_) misr_inputs_.push_back(fv(extra));
      lane_misr_->absorb_masked(misr_inputs_, live);
    } else {
      for (SignalId po : cc_->outputs()) {
        detected |= (fv(po) ^ snap[po]) & live;
      }
      for (SignalId extra : extra_observed_) {
        detected |= (fv(extra) ^ snap[extra]) & live;
      }
      // Lane retirement: any live lane differing at any observation point
      // detects the fault — no need to finish the batch (per-cycle mode
      // only; a signature needs the full response stream).
      if (detected != 0) return true;
    }
    // ---- clock edge ----
    // The reference captures snap[D] at every position, so only positions
    // whose D word diverged (reached_) or whose capture is faulty differ.
    chain_clear();
    for (const std::uint32_t pos : reached_) {
      const SignalId d = cc_->fanin(ffs[pos])[0];
      chain_set(pos, fv(d) ^ snap[d]);
    }
    if (o.is_dff_d) {
      const SignalId d = cc_->fanin(ffs[o.dff_pos])[0];
      const Word captured =
          (fv(d) & o.pin_force.and_mask) | o.pin_force.or_mask;
      chain_set(o.dff_pos, captured ^ snap[d]);
    }
    if (o.has_ff_force) {
      const Word ref = snap[cc_->fanin(ffs[o.ff_pos])[0]];
      chain_set(o.ff_pos, q_diff(ref, chain_diff_[o.ff_pos]));
    }
  }

  // ---- complete scan-out ----
  if (!o.has_ff_force && !signature) {
    // Undistorted chain: the observed stream is exactly the final state,
    // so any diverged live lane in the window is detected.
    for (std::size_t k = win_lo_; k < win_hi_; ++k) {
      detected |= chain_diff_[k] & live;
    }
  } else {
    // Observed stream = state right-to-left; a bit leaving position
    // pos <= ff_pos transits the stuck Q on its way out and is forced.
    for (std::size_t k = 0; k < n_sv; ++k) {
      const std::size_t pos = n_sv - 1 - k;
      Word d = chain_diff_[pos];
      if (o.has_ff_force && pos <= o.ff_pos) {
        d = q_diff(trace.final_state[pos], d);
      }
      if (signature) {
        lane_misr_->absorb_one_masked(trace.final_state[pos] ^ d, live);
      } else {
        detected |= d & live;
      }
    }
  }
  if (signature) {
    detected = lane_misr_->differs_from(trace.misr_stages) & live;
  }
  return detected != 0;
}

std::size_t SeqFaultSim::run_packed_test_set(const scan::TestSet& ts,
                                             FaultList& fl) {
  const std::uint64_t ge0 = gate_evals_;
  const std::uint64_t fe0 = frontier_evals_;
  const std::uint64_t se0 = sweep_evals_;
  const std::uint64_t pw0 = packed_words_;
  const std::uint64_t pb0 = packed_batches_;
  const std::uint64_t la0 = lanes_active_;
  const auto export_counters = [&](std::size_t faults, std::size_t newly) {
    if (!counters_) return;
    counters_->add("fsim.sweeps", 1);
    counters_->add("fsim.tests", ts.tests.size());
    counters_->add("fsim.groups", faults);
    counters_->add("fsim.detected", newly);
    counters_->add("fsim.gate_evals", gate_evals_ - ge0);
    counters_->add("fsim.frontier_evals", frontier_evals_ - fe0);
    counters_->add("fsim.sweep_evals", sweep_evals_ - se0);
    counters_->add("fsim.packed_words", packed_words_ - pw0);
    counters_->add("fsim.packed_batches", packed_batches_ - pb0);
    counters_->add("fsim.lanes_active", lanes_active_ - la0);
  };

  std::vector<std::size_t> remaining = fl.remaining_indices();
  const std::size_t n_faults = remaining.size();
  if (remaining.empty() || ts.tests.empty()) {
    export_counters(n_faults, 0);
    return 0;
  }

  const std::vector<sim::PackedBatch> batches =
      sim::PackedBatch::make_batches(ts);
  const unsigned hw = threads_ == 0
                          ? std::max(1u, std::thread::hardware_concurrency())
                          : threads_;

  std::size_t newly = 0;
  std::vector<std::uint8_t> hit;
  std::vector<std::uint32_t> q_positions;
  for (const sim::PackedBatch& batch : batches) {
    if (remaining.empty()) break;
    ++packed_batches_;
    lanes_active_ += static_cast<std::uint64_t>(std::popcount(batch.live()));
    // Reference columns are recorded only at the chain positions of the
    // still-undetected Q faults (ascending position).
    q_positions.clear();
    for (const std::size_t i : remaining) {
      const Fault& f = fl.fault(i);
      if (f.pin < 0 && cc_->type(f.gate) == GateType::kDff) {
        q_positions.push_back(cc_->chain_pos(f.gate));
      }
    }
    std::sort(q_positions.begin(), q_positions.end());
    q_positions.erase(std::unique(q_positions.begin(), q_positions.end()),
                      q_positions.end());
    const PackedTrace trace = compute_packed_trace(batch, q_positions);
    hit.assign(remaining.size(), 0);

    const unsigned n_workers =
        static_cast<unsigned>(std::min<std::size_t>(hw, remaining.size()));
    if (n_workers <= 1) {
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        const PackedOverlay o =
            build_packed_overlay(fl.fault(remaining[i]), batch.live());
        hit[i] = run_packed_fault(batch, trace, o) ? 1 : 0;
      }
    } else {
      // Workers stride over the remaining faults and write disjoint hit[]
      // bytes; detections are applied after the join in index order, so
      // results and counters are bit-identical to the serial path.
      ensure_workers(n_workers);
      std::vector<std::uint64_t> ge_b(n_workers);
      std::vector<std::uint64_t> fe_b(n_workers);
      std::vector<std::uint64_t> pw_b(n_workers);
      for (unsigned w = 0; w < n_workers; ++w) {
        ge_b[w] = worker_sims_[w]->gate_evals_;
        fe_b[w] = worker_sims_[w]->frontier_evals_;
        pw_b[w] = worker_sims_[w]->packed_words_;
      }
      pool_->run(n_workers, [&](unsigned w) {
        SeqFaultSim& sim = *worker_sims_[w];
        for (std::size_t i = w; i < remaining.size(); i += n_workers) {
          const PackedOverlay o =
              sim.build_packed_overlay(fl.fault(remaining[i]), batch.live());
          hit[i] = sim.run_packed_fault(batch, trace, o) ? 1 : 0;
        }
      });
      for (unsigned w = 0; w < n_workers; ++w) {
        gate_evals_ += worker_sims_[w]->gate_evals_ - ge_b[w];
        frontier_evals_ += worker_sims_[w]->frontier_evals_ - fe_b[w];
        packed_words_ += worker_sims_[w]->packed_words_ - pw_b[w];
      }
    }

    // Fault dropping at batch granularity: detected faults never see
    // another batch.
    std::vector<std::size_t> next;
    next.reserve(remaining.size());
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (hit[i]) {
        fl.mark_detected(remaining[i]);
        ++newly;
      } else {
        next.push_back(remaining[i]);
      }
    }
    remaining.swap(next);
  }
  export_counters(n_faults, newly);
  return newly;
}

Word SeqFaultSim::run_test(const scan::ScanTest& test,
                           std::span<const Fault> group) {
  const Overlay o = build_overlay(group);
  const Trace tr = compute_trace(test);
  // This entry point's lanes are faults, so it always runs the full
  // sweep; kPacked (lanes = patterns) is equally exact.
  Word mask = run_test_with_trace(test, o, tr);
  if (group.size() < sim::kLanes) {
    mask &= (Word{1} << group.size()) - 1;
  }
  return mask;
}

void SeqFaultSim::ensure_workers(unsigned n) {
  if (!pool_) pool_ = std::make_unique<sim::WorkerPool>();
  while (worker_sims_.size() < n) {
    worker_sims_.push_back(std::make_unique<SeqFaultSim>(*cc_));
  }
  for (unsigned w = 0; w < n; ++w) {
    SeqFaultSim& sim = *worker_sims_[w];
    sim.extra_observed_ = extra_observed_;
    sim.engine_ = engine_;
    if (sim.mode_ != mode_ || sim.misr_degree_ != misr_degree_ ||
        (mode_ == ObservationMode::kSignature && !sim.lane_misr_)) {
      sim.set_observation_mode(mode_, misr_degree_);
    }
  }
}

std::size_t SeqFaultSim::run_test_set(const scan::TestSet& ts, FaultList& fl) {
  if (engine_ == Engine::kPacked) return run_packed_test_set(ts, fl);
  // Per-call deltas exported to the attached counter registry on every
  // exit path. One branch + a few map updates per run_test_set call; the
  // per-gate hot paths are untouched (see BM_ObsOverhead).
  const std::uint64_t ge0 = gate_evals_;
  const std::uint64_t fe0 = frontier_evals_;
  const std::uint64_t se0 = sweep_evals_;
  const auto export_counters = [&](std::size_t groups, std::size_t newly) {
    if (!counters_) return;
    counters_->add("fsim.sweeps", 1);
    counters_->add("fsim.tests", ts.tests.size());
    counters_->add("fsim.groups", groups);
    counters_->add("fsim.detected", newly);
    counters_->add("fsim.gate_evals", gate_evals_ - ge0);
    counters_->add("fsim.frontier_evals", frontier_evals_ - fe0);
    counters_->add("fsim.sweep_evals", sweep_evals_ - se0);
  };

  std::vector<std::size_t> remaining = fl.remaining_indices();
  if (remaining.empty() || ts.tests.empty()) {
    export_counters(0, 0);
    return 0;
  }

  // Group faults by cone locality: chunking sites in levelized order keeps
  // related faults in one 64-lane word, so groups tend to be detected (and
  // skipped) together. Detection is lane-independent, so regrouping never
  // changes per-fault results — only the work counters, which this fixed
  // order keeps stable.
  std::stable_sort(remaining.begin(), remaining.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Fault& fa = fl.fault(a);
                     const Fault& fb = fl.fault(b);
                     const int la = cc_->level(fa.gate);
                     const int lb = cc_->level(fb.gate);
                     if (la != lb) return la < lb;
                     if (fa.gate != fb.gate) return fa.gate < fb.gate;
                     if (fa.pin != fb.pin) return fa.pin < fb.pin;
                     return fa.stuck < fb.stuck;
                   });

  struct Group {
    std::vector<std::size_t> indices;  // into fl
    std::vector<Fault> faults;
    Overlay overlay;
    Word undetected = 0;  // lane mask of not-yet-detected faults
  };
  std::vector<Group> groups;
  for (std::size_t base = 0; base < remaining.size(); base += sim::kLanes) {
    Group g;
    const std::size_t count =
        std::min<std::size_t>(sim::kLanes, remaining.size() - base);
    g.indices.reserve(count);
    g.faults.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      g.indices.push_back(remaining[base + k]);
      g.faults.push_back(fl.fault(remaining[base + k]));
    }
    g.undetected = count == sim::kLanes ? kAllOnes : ((Word{1} << count) - 1);
    g.overlay = build_overlay(g.faults);
    groups.push_back(std::move(g));
  }

  const unsigned hw = threads_ == 0
                          ? std::max(1u, std::thread::hardware_concurrency())
                          : threads_;
  const unsigned n_workers = static_cast<unsigned>(
      std::min<std::size_t>(hw, groups.size()));

  std::size_t newly = 0;
  if (n_workers <= 1) {
    for (const scan::ScanTest& test : ts.tests) {
      const Trace tr = compute_trace(test);
      for (Group& g : groups) {
        if (g.undetected == 0) continue;
        const Word mask =
            run_test_with_trace(test, g.overlay, tr) & g.undetected;
        if (mask == 0) continue;
        for (std::size_t lane = 0; lane < g.indices.size(); ++lane) {
          if (sim::lane_bit(mask, static_cast<int>(lane))) {
            fl.mark_detected(g.indices[lane]);
            ++newly;
          }
        }
        g.undetected &= ~mask;
      }
      if (fl.all_detected()) break;
    }
    export_counters(groups.size(), newly);
    return newly;
  }

  // Parallel path: traces are precomputed once, then fault groups are
  // partitioned across the persistent pool with deterministic striding.
  // Each worker owns an independent faulty machine (reused across calls),
  // so results are bit-identical to the serial path.
  std::vector<Trace> traces;
  traces.reserve(ts.tests.size());
  for (const scan::ScanTest& test : ts.tests) {
    traces.push_back(compute_trace(test));
  }

  ensure_workers(n_workers);
  std::vector<std::uint64_t> evals_before(n_workers);
  std::vector<std::uint64_t> sweep_before(n_workers);
  for (unsigned w = 0; w < n_workers; ++w) {
    evals_before[w] = worker_sims_[w]->gate_evals();
    sweep_before[w] = worker_sims_[w]->sweep_evals();
  }
  pool_->run(n_workers, [&](unsigned w) {
    SeqFaultSim& sim = *worker_sims_[w];
    for (std::size_t gi = w; gi < groups.size(); gi += n_workers) {
      Group& g = groups[gi];
      for (std::size_t t = 0; t < ts.tests.size() && g.undetected; ++t) {
        const Word mask =
            sim.run_test_with_trace(ts.tests[t], g.overlay, traces[t]) &
            g.undetected;
        g.undetected &= ~mask;
      }
    }
  });
  for (unsigned w = 0; w < n_workers; ++w) {
    gate_evals_ += worker_sims_[w]->gate_evals() - evals_before[w];
    sweep_evals_ += worker_sims_[w]->sweep_evals() - sweep_before[w];
  }

  for (Group& g : groups) {
    const Word initial =
        g.indices.size() == sim::kLanes
            ? kAllOnes
            : ((Word{1} << g.indices.size()) - 1);
    const Word detected = initial & ~g.undetected;
    for (std::size_t lane = 0; lane < g.indices.size(); ++lane) {
      if (sim::lane_bit(detected, static_cast<int>(lane))) {
        fl.mark_detected(g.indices[lane]);
        ++newly;
      }
    }
  }
  export_counters(groups.size(), newly);
  return newly;
}

}  // namespace rls::fault
