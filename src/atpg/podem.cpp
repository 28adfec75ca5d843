#include "atpg/podem.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace rls::atpg {

using fault::Fault;
using netlist::GateType;
using netlist::SignalId;

namespace {

constexpr std::uint8_t kX = 2;

std::uint8_t v_not(std::uint8_t a) { return a == kX ? kX : (a ^ 1); }

std::uint8_t v_xor(std::uint8_t a, std::uint8_t b) {
  if (a == kX || b == kX) return kX;
  return a ^ b;
}

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1u;
}

void set_bit(std::vector<std::uint64_t>& bits, std::size_t i, bool on) {
  const std::uint64_t m = std::uint64_t{1} << (i % 64);
  bits[i / 64] = on ? (bits[i / 64] | m) : (bits[i / 64] & ~m);
}

}  // namespace

Podem::Podem(const sim::CompiledCircuit& cc, Options opt)
    : cc_(&cc), opt_(opt) {
  const std::size_t n = cc.num_signals();
  input_index_.assign(n, ~std::uint32_t{0});
  for (SignalId id : cc.inputs()) {
    input_index_[id] = static_cast<std::uint32_t>(view_inputs_.size());
    view_inputs_.push_back(id);
  }
  for (SignalId ff : cc.flip_flops()) {
    input_index_[ff] = static_cast<std::uint32_t>(view_inputs_.size());
    view_inputs_.push_back(ff);
  }
  assign_.assign(view_inputs_.size(), kX);
  gv_.assign(n, kX);
  fv_.assign(n, kX);
  observed_.assign(n, 0);
  for (SignalId id : cc.outputs()) observed_[id] = 1;
  for (SignalId ff : cc.flip_flops()) observed_[cc.fanin(ff)[0]] = 1;

  pos_.assign(n, kNoPos);
  const auto order = cc.order();
  for (std::size_t p = 0; p < order.size(); ++p) {
    pos_[order[p]] = static_cast<std::uint32_t>(p);
  }
  queue_.resize(static_cast<std::size_t>(cc.max_level()) + 1);
  queued_.assign(n, 0);
  diff_.assign((n + 63) / 64, 0);
  frontier_.assign((order.size() + 63) / 64, 0);
  seen_.assign(n, 0);
}

bool Podem::eval_dual(SignalId id) {
  const auto fi = cc_->fanin(id);
  const GateType t = cc_->type(id);
  // Input-pin fault: the faulty machine reads the stuck value on that pin.
  const std::int16_t fpin = id == fault_.gate ? fault_.pin : -1;
  auto f_in = [&](std::size_t k) -> std::uint8_t {
    return static_cast<std::int16_t>(k) == fpin ? fault_.stuck : fv_[fi[k]];
  };
  std::uint8_t g, f;
  switch (t) {
    case GateType::kBuf:
    case GateType::kNot:
      g = gv_[fi[0]];
      f = f_in(0);
      break;
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor: {
      // Controlling value on any input wins; else X on any input is X.
      const auto cv = static_cast<std::uint8_t>(netlist::controlling_value(t));
      bool g_cv = false, g_x = false, f_cv = false, f_x = false;
      for (std::size_t k = 0; k < fi.size(); ++k) {
        const std::uint8_t a = gv_[fi[k]];
        const std::uint8_t b = f_in(k);
        g_cv |= a == cv;
        g_x |= a == kX;
        f_cv |= b == cv;
        f_x |= b == kX;
      }
      g = g_cv ? cv : g_x ? kX : static_cast<std::uint8_t>(cv ^ 1);
      f = f_cv ? cv : f_x ? kX : static_cast<std::uint8_t>(cv ^ 1);
      break;
    }
    case GateType::kXor:
    case GateType::kXnor:
      g = 0;
      f = 0;
      for (std::size_t k = 0; k < fi.size(); ++k) {
        g = v_xor(g, gv_[fi[k]]);
        f = v_xor(f, f_in(k));
      }
      break;
    default:
      return false;
  }
  if (netlist::is_inverting(t)) {
    g = v_not(g);
    f = v_not(f);
  }
  // Output fault on a combinational gate: the faulty line is stuck.
  if (fault_.pin < 0 && id == fault_.gate) f = fault_.stuck;
  const bool changed = g != gv_[id] || f != fv_[id];
  gv_[id] = g;
  fv_[id] = f;
  return changed;
}

void Podem::simulate() {
  // Sources.
  for (std::size_t k = 0; k < view_inputs_.size(); ++k) {
    const SignalId id = view_inputs_[k];
    gv_[id] = assign_[k];
    fv_[id] = assign_[k];
  }
  for (SignalId id = 0; id < cc_->num_signals(); ++id) {
    if (cc_->type(id) == GateType::kConst0) gv_[id] = fv_[id] = 0;
    if (cc_->type(id) == GateType::kConst1) gv_[id] = fv_[id] = 1;
  }
  // Output fault on a source line: faulty machine reads the stuck value.
  if (fault_.pin < 0 && !netlist::is_combinational(cc_->type(fault_.gate))) {
    fv_[fault_.gate] = fault_.stuck;
  }
  for (SignalId id : cc_->order()) eval_dual(id);

  std::fill(diff_.begin(), diff_.end(), 0);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  observed_diffs_ = 0;
  for (SignalId id = 0; id < cc_->num_signals(); ++id) {
    if (!has_diff(id)) continue;
    set_bit(diff_, id, true);
    if (observed_[id]) ++observed_diffs_;
  }
  const auto order = cc_->order();
  for (std::size_t p = 0; p < order.size(); ++p) {
    set_bit(frontier_, p, frontier_status(order[p]));
  }
}

void Podem::enqueue_fanout(SignalId id) {
  for (SignalId c : cc_->fanout(id)) {
    if (pos_[c] == kNoPos || queued_[c]) continue;
    queued_[c] = 1;
    const int l = cc_->level(c);
    queue_[static_cast<std::size_t>(l)].push_back(c);
    queue_lo_ = std::min(queue_lo_, l);
    queue_hi_ = std::max(queue_hi_, l);
  }
}

void Podem::set_input(std::uint32_t idx, std::uint8_t v) {
  assign_[idx] = v;
  const SignalId id = view_inputs_[idx];
  // An output fault on this input keeps the faulty machine stuck.
  const std::uint8_t f = fault_.pin < 0 && id == fault_.gate ? fault_.stuck : v;
  if (gv_[id] == v && fv_[id] == f) return;
  gv_[id] = v;
  fv_[id] = f;
  changed_.push_back(id);
  enqueue_fanout(id);
}

std::uint64_t Podem::propagate() {
  std::uint64_t evals = 0;
  // A gate's fanouts sit on strictly higher levels, so each bucket is
  // complete when its turn comes and every gate is evaluated once.
  for (int l = queue_lo_; l <= queue_hi_; ++l) {
    std::vector<SignalId>& bucket = queue_[static_cast<std::size_t>(l)];
    for (const SignalId id : bucket) {
      queued_[id] = 0;
      ++evals;
      if (eval_dual(id)) {
        changed_.push_back(id);
        enqueue_fanout(id);
      }
    }
    bucket.clear();
  }
  queue_lo_ = std::numeric_limits<int>::max();
  queue_hi_ = -1;
  for (const SignalId id : changed_) refresh(id);
  changed_.clear();
  return evals;
}

void Podem::clear_queue() {
  for (int l = queue_lo_; l <= queue_hi_; ++l) {
    std::vector<SignalId>& bucket = queue_[static_cast<std::size_t>(l)];
    for (const SignalId id : bucket) queued_[id] = 0;
    bucket.clear();
  }
  queue_lo_ = std::numeric_limits<int>::max();
  queue_hi_ = -1;
  changed_.clear();
}

bool Podem::frontier_status(SignalId id) const {
  // An X-output gate (in either machine) with a binary difference on some
  // input; the faulted pin reads its stuck value.
  if (gv_[id] != kX && fv_[id] != kX) return false;
  const auto fi = cc_->fanin(id);
  const std::int16_t fpin = id == fault_.gate ? fault_.pin : -1;
  for (std::size_t k = 0; k < fi.size(); ++k) {
    const std::uint8_t gval = gv_[fi[k]];
    const std::uint8_t fval =
        static_cast<std::int16_t>(k) == fpin ? fault_.stuck : fv_[fi[k]];
    if (gval != kX && fval != kX && gval != fval) return true;
  }
  return false;
}

void Podem::refresh(SignalId id) {
  const bool d = has_diff(id);
  if (d != test_bit(diff_, id)) {
    set_bit(diff_, id, d);
    if (observed_[id]) d ? ++observed_diffs_ : --observed_diffs_;
  }
  if (pos_[id] != kNoPos) set_bit(frontier_, pos_[id], frontier_status(id));
  for (SignalId c : cc_->fanout(id)) {
    if (pos_[c] != kNoPos) set_bit(frontier_, pos_[c], frontier_status(c));
  }
}

bool Podem::detected() const {
  if (dff_d_fault_) {
    // The faulted D pin is itself the observation point.
    const std::uint8_t v = gv_[fault_src_];
    return v != kX && v == (fault_.stuck ^ 1);
  }
  return observed_diffs_ > 0;
}

Podem::Objective Podem::get_objective() {
  // 1. Excitation: the faulted line must carry the complement of the stuck
  //    value in the good machine.
  const SignalId line = fault_.pin < 0 ? fault_.gate : fault_src_;
  const std::uint8_t want = fault_.stuck ^ 1;
  if (gv_[line] == kX) {
    return {line, want, true};
  }
  if (gv_[line] != want) {
    return {};  // fault cannot be excited under current assignments
  }
  if (dff_d_fault_) {
    return {};  // excited == detected; if we got here detection failed
  }

  // 2. Propagation: take the first D-frontier gate in topological order
  //    that has an X input, and set that input to the non-controlling
  //    value.
  const auto order = cc_->order();
  for (std::size_t w = 0; w < frontier_.size(); ++w) {
    for (std::uint64_t bits = frontier_[w]; bits != 0; bits &= bits - 1) {
      const SignalId id =
          order[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      for (SignalId in : cc_->fanin(id)) {
        if (gv_[in] != kX) continue;
        const int cv = netlist::controlling_value(cc_->type(id));
        const std::uint8_t non_controlling =
            cv < 0 ? 0 : static_cast<std::uint8_t>(cv ^ 1);
        return {in, non_controlling, true};
      }
    }
  }
  return {};
}

Podem::Objective Podem::backtrace(Objective obj) const {
  SignalId s = obj.signal;
  std::uint8_t v = obj.value;
  for (;;) {
    const GateType t = cc_->type(s);
    if (t == GateType::kInput || t == GateType::kDff) {
      return {s, v, true};
    }
    if (!netlist::is_combinational(t)) {
      return {};  // constants cannot be justified
    }
    const auto fi = cc_->fanin(s);
    // Pick the first X-valued input; adjust the objective value through
    // the gate's inversion.
    const bool inv = netlist::is_inverting(t);
    std::uint8_t next_v;
    switch (t) {
      case GateType::kBuf:
      case GateType::kNot:
        next_v = inv ? v_not(v) : v;
        s = fi[0];
        v = next_v;
        continue;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const std::uint8_t core = inv ? v_not(v) : v;  // pre-inversion value
        // core == non-controlling output requires ALL inputs non-controlling;
        // core == controlled output requires ONE input at the controlling
        // value. Either way one X input with the right value is the next hop.
        const int cv = netlist::controlling_value(t);
        const std::uint8_t want =
            core == static_cast<std::uint8_t>((cv ^ 1))
                ? static_cast<std::uint8_t>(cv ^ 1)  // all non-controlling
                : static_cast<std::uint8_t>(cv);     // one controlling
        SignalId pick = netlist::kNoSignal;
        for (SignalId in : fi) {
          if (gv_[in] == kX) {
            pick = in;
            break;
          }
        }
        if (pick == netlist::kNoSignal) return {};
        s = pick;
        v = want;
        continue;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Heuristic: target value assuming remaining X inputs become 0.
        std::uint8_t acc = (t == GateType::kXnor) ? 1 : 0;
        SignalId pick = netlist::kNoSignal;
        for (SignalId in : fi) {
          if (gv_[in] == kX && pick == netlist::kNoSignal) {
            pick = in;
          } else if (gv_[in] != kX) {
            acc ^= gv_[in];
          }
        }
        if (pick == netlist::kNoSignal) return {};
        s = pick;
        v = static_cast<std::uint8_t>(v ^ acc);
        continue;
      }
      default:
        return {};
    }
  }
}

bool Podem::x_path_exists() {
  // A difference can still reach an observation point if some signal with a
  // binary difference, or the fault site itself, has a forward path of
  // X-valued signals to an observed signal. Conservative (returns true in
  // doubt): DFS over combinational gates that are X in either machine.
  if (observed_diffs_ > 0) return true;
  if (++seen_stamp_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    seen_stamp_ = 1;
  }
  stack_.clear();
  auto push = [&](SignalId c) {
    if (seen_[c] == seen_stamp_) return;
    seen_[c] = seen_stamp_;
    stack_.push_back(c);
  };
  auto push_fanout = [&](SignalId id) {
    for (SignalId c : cc_->fanout(id)) {
      if (pos_[c] != kNoPos && (gv_[c] == kX || fv_[c] == kX)) push(c);
    }
  };
  // Seed: signals carrying a binary difference, plus the fault site.
  for (std::size_t w = 0; w < diff_.size(); ++w) {
    for (std::uint64_t bits = diff_[w]; bits != 0; bits &= bits - 1) {
      push_fanout(static_cast<SignalId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
  const SignalId site = fault_.gate;
  if (gv_[site] == kX || fv_[site] == kX) push(site);
  while (!stack_.empty()) {
    const SignalId id = stack_.back();
    stack_.pop_back();
    if (observed_[id]) return true;
    push_fanout(id);
  }
  return false;
}

Podem::Result Podem::generate(const Fault& f) {
  fault_ = f;
  dff_d_fault_ = false;
  fault_src_ = netlist::kNoSignal;
  if (f.pin >= 0) {
    fault_src_ = cc_->nl().gate(f.gate).fanin[static_cast<std::size_t>(f.pin)];
    if (cc_->type(f.gate) == GateType::kDff) dff_d_fault_ = true;
  }

  // The untestable and aborted exits can leave set_input() events that
  // were never propagated.
  clear_queue();
  std::fill(assign_.begin(), assign_.end(), kX);

  struct Decision {
    std::uint32_t input;
    std::uint8_t value;
    bool flipped;
  };
  std::vector<Decision> stack;
  Result res;

  simulate();
  for (;;) {
    if (detected()) {
      res.status = Status::kDetected;
      res.pi.resize(cc_->inputs().size());
      res.ppi.resize(cc_->flip_flops().size());
      for (std::size_t k = 0; k < cc_->inputs().size(); ++k) {
        res.pi[k] = assign_[k];
      }
      for (std::size_t k = 0; k < cc_->flip_flops().size(); ++k) {
        res.ppi[k] = assign_[cc_->inputs().size() + k];
      }
      return res;
    }

    Objective obj = get_objective();
    bool need_backtrack = !obj.valid;
    if (obj.valid && !dff_d_fault_) {
      // Prune: if the difference can no longer reach an observation point,
      // this subtree is dead.
      const SignalId line = fault_.pin < 0 ? fault_.gate : fault_src_;
      if (gv_[line] != kX && !x_path_exists()) {
        need_backtrack = true;
      }
    }
    if (!need_backtrack) {
      const Objective pi_obj = backtrace(obj);
      if (!pi_obj.valid) {
        need_backtrack = true;
      } else {
        const std::uint32_t idx = input_index_[pi_obj.signal];
        assert(idx != ~std::uint32_t{0});
        assert(assign_[idx] == kX);
        set_input(idx, pi_obj.value);
        stack.push_back({idx, pi_obj.value, false});
        ++res.decisions;
        res.implications += propagate();
        continue;
      }
    }

    // Backtrack.
    for (;;) {
      if (stack.empty()) {
        res.status = Status::kUntestable;
        return res;
      }
      Decision& d = stack.back();
      if (!d.flipped) {
        d.flipped = true;
        d.value ^= 1;
        set_input(d.input, d.value);
        ++res.backtracks;
        if (res.backtracks > opt_.backtrack_limit) {
          res.status = Status::kAborted;
          return res;
        }
        res.implications += propagate();
        break;
      }
      set_input(d.input, kX);
      stack.pop_back();
    }
  }
}

}  // namespace rls::atpg
