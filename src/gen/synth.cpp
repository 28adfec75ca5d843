#include "gen/synth.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "rand/rng.hpp"

namespace rls::gen {

using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;

namespace {

// The generator builds three layers:
//   1. an optional synchronous counter core with decode monitors (the
//      random-resistance knob, see synth.hpp);
//   2. one shallow logic cone per observation point (primary output or
//      non-counter flip-flop D input). Each cone is a mostly fanout-free
//      tree over primary inputs / state variables / decode gates with a
//      small cross-link probability. Fanout-free trees are fully
//      single-stuck-at testable; keeping cones shallow and reconvergence
//      rare keeps the synthetic circuits close to the ~97% testability of
//      the real ISCAS benchmarks (a single deep tree with shared leaves
//      accumulates provably-redundant reconvergence instead);
//   3. fix-ups guaranteeing netlist::validate() cleanliness (every source
//      used, nothing dangling).
class Builder {
 public:
  explicit Builder(const Profile& p) : p_(p), rng_(p.seed), nl_(p.name) {}

  Netlist build() {
    make_interface();
    if (pis_.empty() && ffs_.empty() &&
        (p_.num_gates > 0 || p_.num_outputs > 0)) {
      throw netlist::NetlistError(
          "profile '" + p_.name +
          "' requests gates or outputs but has no primary inputs or "
          "flip-flops to drive them");
    }
    tie_inputs();
    make_counter_core();
    make_cones();
    wire_unused_sources();
    nl_.finalize();
    return std::move(nl_);
  }

 private:
  void mark_used(SignalId id) {
    if (used_.size() <= id) used_.resize(id + 1, false);
    used_[id] = true;
  }
  bool is_used(SignalId id) const { return id < used_.size() && used_[id]; }

  SignalId add_gate(GateType type, const std::vector<SignalId>& fanin) {
    std::string name(1, 'n');
    name += std::to_string(next_name_++);
    const SignalId id = nl_.add_gate(type, std::move(name), fanin);
    for (SignalId in : fanin) mark_used(in);
    comb_gates_.push_back(id);
    return id;
  }

  SignalId random_source() {
    const std::size_t n_src = pis_.size() + ffs_.size();
    const std::size_t k = rng_.mod_draw(static_cast<std::uint32_t>(n_src));
    return k < pis_.size() ? pis_[k] : ffs_[k - pis_.size()];
  }

  GateType random_gate_type() {
    const std::uint32_t t = rng_.mod_draw(100);
    if (t < 24) return GateType::kAnd;
    if (t < 44) return GateType::kNand;
    if (t < 62) return GateType::kOr;
    if (t < 78) return GateType::kNor;
    if (t < 90) return GateType::kNot;
    if (t < 94) return GateType::kXor;
    if (t < 97) return GateType::kXnor;
    return GateType::kBuf;
  }

  std::size_t random_arity(GateType type) {
    if (type == GateType::kNot || type == GateType::kBuf) return 1;
    // Draw before clamping so the RNG sequence (and thus every netlist
    // generated with the default max_arity of 4) is unchanged.
    const std::uint32_t a = rng_.mod_draw(100);
    const std::size_t arity = a < 55 ? 2 : (a < 85 ? 3 : 4);
    return std::min(arity, std::clamp<std::size_t>(p_.max_arity, 1, 4));
  }

  void make_interface() {
    for (std::size_t k = 0; k < p_.num_inputs; ++k) {
      pis_.push_back(nl_.add_input("pi" + std::to_string(k)));
    }
    for (std::size_t k = 0; k < p_.num_flip_flops; ++k) {
      ffs_.push_back(nl_.add_dff("ff" + std::to_string(k)));
    }
  }

  /// Straps the first `tied_inputs` primary inputs inactive: pi_k stays a
  /// real (used, observable-pin) input, but every downstream consumer
  /// draws the gated net AND(pi_k, 0) / OR(pi_k, 1) instead — the classic
  /// tied-test-mode-pin structure that makes a slice of the fault universe
  /// statically untestable. No RNG draws (polarity alternates), so
  /// profiles with tied_inputs == 0 synthesize bit-identically.
  void tie_inputs() {
    const std::size_t k_tied = std::min(p_.tied_inputs, pis_.size());
    for (std::size_t k = 0; k < k_tied; ++k) {
      const bool low = (k % 2) == 0;
      const SignalId c = nl_.add_gate(
          low ? GateType::kConst0 : GateType::kConst1,
          "tie" + std::to_string(k), {});
      mark_used(c);
      pis_[k] = add_gate(low ? GateType::kAnd : GateType::kOr, {pis_[k], c});
    }
  }

  void make_counter_core() {
    // Every counter segment needs a primary-input enable; a circuit with
    // no PIs gets no counter core (its flip-flops become cone roots).
    if (pis_.empty()) return;
    const std::size_t nc = std::min<std::size_t>(
        p_.num_flip_flops,
        static_cast<std::size_t>(std::lround(
            p_.counter_fraction * static_cast<double>(p_.num_flip_flops))));
    counter_ffs_ = nc;
    if (nc == 0) return;

    // The counter bits are split into independent segments of 6..10 bits,
    // each with its own primary-input enable. A monolithic nc-bit carry
    // chain would make the deep carry faults need ~2^-nc excitation
    // probability — unreachable by *any* random method (and unlike the
    // real benchmarks, whose divider chains are 8/16 bits); short segments
    // keep every fault random-resistant but reachable.
    std::size_t seg_start = 0;
    while (seg_start < nc) {
      const std::size_t seg_len =
          std::min<std::size_t>(nc - seg_start, 5 + rng_.mod_draw(4));
      SignalId en;
      if (pis_.size() >= 2) {
        const SignalId a =
            pis_[rng_.mod_draw(static_cast<std::uint32_t>(pis_.size()))];
        SignalId b = a;
        while (b == a) {
          b = pis_[rng_.mod_draw(static_cast<std::uint32_t>(pis_.size()))];
        }
        en = add_gate(GateType::kAnd, {a, b});
      } else {
        en = add_gate(GateType::kBuf, {pis_[0]});
      }
      SignalId carry = en;
      for (std::size_t k = seg_start; k < seg_start + seg_len; ++k) {
        if (k > seg_start) {
          carry = add_gate(GateType::kAnd, {carry, ffs_[k - 1]});
        }
        const SignalId d = add_gate(GateType::kXor, {ffs_[k], carry});
        nl_.connect(ffs_[k], {d});
        mark_used(ffs_[k]);  // self-feedback counts as a use of Q
        mark_used(d);        // consumed by the flip-flop
      }
      seg_start += seg_len;
    }

    // Decode monitors: wide AND/NOR over the *high* counter bits create
    // rare events. High bits toggle once per 2^k enabled cycles, so a
    // decode over them is effectively one fresh Bernoulli draw per test
    // (at the random scan-in), not one per cycle — the random-resistance
    // the paper's fractional-divider benchmarks exhibit. The gates are
    // left for the logic cones to consume as extra sources.
    const std::size_t nd = std::max<std::size_t>(1, nc / 3);
    for (std::size_t m = 0; m < nd; ++m) {
      decode_gates_.push_back(make_decode());
    }
  }

  /// A fresh wide AND/NOR over high counter bits (requires counter_ffs_>0).
  SignalId make_decode() {
    const std::size_t nc = counter_ffs_;
    const std::size_t lo = nc / 2;  // prefer the slow half
    const std::size_t span = nc - lo;
    const std::size_t width =
        std::min<std::size_t>(span, 3 + rng_.mod_draw(3));
    std::vector<SignalId> fanin;
    while (fanin.size() < std::max<std::size_t>(width, 1)) {
      const SignalId c =
          ffs_[lo + rng_.mod_draw(static_cast<std::uint32_t>(span))];
      if (std::find(fanin.begin(), fanin.end(), c) == fanin.end()) {
        fanin.push_back(c);
      }
      if (fanin.size() >= span) break;
    }
    return add_gate(rng_.next_bit() ? GateType::kAnd : GateType::kNor, fanin);
  }

  /// A fresh leaf input for a cone gate: usually a source, sometimes a
  /// pending decode gate, rarely a cross-link to existing logic.
  SignalId cone_leaf() {
    const std::uint32_t roll = rng_.mod_draw(100);
    if (roll < 6 && !decode_pending_.empty()) {
      const SignalId id = decode_pending_.back();
      decode_pending_.pop_back();
      return id;
    }
    if (roll >= 96 && !comb_gates_.empty()) {
      // Cross-link: reconvergent reuse of any existing gate.
      return comb_gates_[rng_.mod_draw(
          static_cast<std::uint32_t>(comb_gates_.size()))];
    }
    return random_source();
  }

  /// Grows one *balanced* cone of ~`gates` gates and returns its root.
  /// The first half of the gates read only leaves; the rest combine
  /// earlier cone gates FIFO (so depth grows logarithmically, not
  /// linearly). Long chains are avoided deliberately: every chain stage
  /// adds sensitization side-conditions over the same few variables, and
  /// deep chains accumulate jointly-unsatisfiable conditions (provably
  /// redundant faults), which real designed logic does not exhibit.
  SignalId grow_cone(std::size_t gates) {
    if (gates == 0) return random_source();
    std::vector<SignalId> local;  // FIFO queue of cone roots-so-far
    std::size_t head = 0;
    const std::size_t n_leaf_gates = (gates + 1) / 2;
    for (std::size_t i = 0; i < gates; ++i) {
      GateType type = random_gate_type();
      // Combiner stages lean on XOR/XNOR more than leaf stages: XOR
      // propagates any single input change unconditionally, which keeps
      // the multi-stage sensitization conditions satisfiable (testable).
      if (i >= n_leaf_gates && rng_.mod_draw(100) < 30) {
        type = rng_.next_bit() ? GateType::kXor : GateType::kXnor;
      }
      const std::size_t arity = random_arity(type);
      std::vector<SignalId> fanin;
      if (i >= n_leaf_gates) {
        // Combine up to two earlier cone gates (FIFO keeps the tree
        // balanced), then fill with fresh leaves.
        const std::size_t avail = local.size() - head;
        const std::size_t absorb = std::min<std::size_t>(
            {arity, avail, static_cast<std::size_t>(2)});
        for (std::size_t k = 0; k < absorb; ++k) {
          fanin.push_back(local[head++]);
        }
      }
      int tries = 0;
      while (fanin.size() < arity && tries < 32) {
        ++tries;
        const SignalId c = cone_leaf();
        if (std::find(fanin.begin(), fanin.end(), c) == fanin.end()) {
          fanin.push_back(c);
        }
      }
      if (fanin.empty()) fanin.push_back(random_source());
      local.push_back(add_gate(type, fanin));
    }
    // Reduce the remaining roots (FIFO) to a single root. AND/OR/NOR/NAND
    // mixing avoids the parity cancellation of a pure XOR funnel.
    while (local.size() - head > 1) {
      const std::size_t take =
          std::min<std::size_t>(local.size() - head, 3);
      std::vector<SignalId> fanin;
      for (std::size_t k = 0; k < take; ++k) fanin.push_back(local[head++]);
      static constexpr GateType kReducers[4] = {GateType::kOr, GateType::kAnd,
                                                GateType::kNor, GateType::kNand};
      local.push_back(add_gate(kReducers[rng_.mod_draw(4)], fanin));
    }
    return local[head];
  }

  void make_cones() {
    const std::size_t non_counter_ffs = ffs_.size() - counter_ffs_;
    const std::size_t roots = p_.num_outputs + non_counter_ffs;
    const std::size_t used_so_far = comb_gates_.size();
    const std::size_t budget =
        p_.num_gates > used_so_far ? p_.num_gates - used_so_far : 0;
    decode_pending_ = decode_gates_;

    // Cones stay shallow: at most kMaxCone gates each. A root with several
    // cones combines them through XOR, which propagates any single cone's
    // fault effect unconditionally (no masking, and no parity cancellation
    // because distinct cones share only leaf variables).
    constexpr std::size_t kMaxCone = 16;
    const std::size_t n_cones = std::max<std::size_t>(
        roots, (budget + kMaxCone - 1) / kMaxCone);

    if (roots == 0) {
      // No observation points to hang cones on (no POs, every flip-flop
      // in the counter core). The gate budget is a target, not a
      // contract: drop it, and observe any unconsumed decode gates
      // directly so nothing dangles.
      for (SignalId id : decode_pending_) {
        if (!is_used(id)) {
          nl_.mark_output(id);
          mark_used(id);
        }
      }
      decode_pending_.clear();
      return;
    }

    std::vector<std::vector<SignalId>> per_root(roots);
    for (std::size_t c = 0; c < n_cones; ++c) {
      const std::size_t share = budget / n_cones + (c < budget % n_cones ? 1 : 0);
      per_root[c % roots].push_back(grow_cone(share));
    }
    std::vector<SignalId> root_ids;
    root_ids.reserve(roots);
    for (std::size_t r = 0; r < roots; ++r) {
      std::vector<SignalId>& cones = per_root[r];
      while (cones.size() > 1) {
        const std::size_t take = std::min<std::size_t>(cones.size(), 3);
        std::vector<SignalId> fanin(
            cones.end() - static_cast<std::ptrdiff_t>(take), cones.end());
        cones.resize(cones.size() - take);
        cones.push_back(add_gate(GateType::kXor, fanin));
      }
      root_ids.push_back(cones[0]);
    }

    // Any decode gate no cone consumed joins the last root through an OR.
    if (!decode_pending_.empty() && !root_ids.empty()) {
      std::vector<SignalId> fanin = {root_ids.back()};
      for (SignalId id : decode_pending_) {
        if (!is_used(id)) fanin.push_back(id);
      }
      decode_pending_.clear();
      if (fanin.size() > 1) {
        root_ids.back() = add_gate(GateType::kOr, fanin);
      }
    }

    // Gate a counter_fraction-sized share of the primary outputs behind a
    // decode of the slow counter bits: the cone is then observable at the
    // PO only in rare counter states. PODEM justifies those states freely
    // through the scan view (testable), but a functional run sees them
    // with probability ~2^-width per scan-in — the random-pattern-
    // resistant population that limited scan operations recover.
    for (std::size_t k = 0; k < p_.num_outputs; ++k) {
      SignalId root = root_ids[k];
      if (counter_ffs_ >= 4 &&
          rng_.mod_draw(100) <
              static_cast<std::uint32_t>(p_.counter_fraction * 100)) {
        const SignalId decode = make_decode();
        root = rng_.next_bit()
                   ? add_gate(GateType::kAnd, {root, decode})
                   : add_gate(GateType::kOr,
                              {root, add_gate(GateType::kNot, {decode})});
      }
      nl_.mark_output(root);
      mark_used(root);
    }
    for (std::size_t k = 0; k < non_counter_ffs; ++k) {
      const SignalId ff = ffs_[counter_ffs_ + k];
      const SignalId d = root_ids[p_.num_outputs + k];
      nl_.connect(ff, {d});
      mark_used(d);
    }
  }

  void wire_unused_sources() {
    // Every primary input and state variable must influence the logic;
    // append unused ones as extra fanin to n-ary gates (acyclic: sources
    // may feed any gate).
    std::vector<SignalId> unused;
    for (SignalId id : pis_) {
      if (!is_used(id)) unused.push_back(id);
    }
    for (SignalId id : ffs_) {
      if (!is_used(id)) unused.push_back(id);
    }
    if (unused.empty()) return;
    std::vector<SignalId> nary;
    for (SignalId g : comb_gates_) {
      switch (nl_.gate(g).type) {
        case GateType::kAnd:
        case GateType::kNand:
        case GateType::kOr:
        case GateType::kNor:
        case GateType::kXor:
        case GateType::kXnor:
          nary.push_back(g);
          break;
        default:
          break;
      }
    }
    for (SignalId src : unused) {
      if (!nary.empty() && netlist::is_source(nl_.gate(src).type)) {
        const SignalId g =
            nary[rng_.mod_draw(static_cast<std::uint32_t>(nary.size()))];
        std::vector<SignalId> fanin = nl_.gate(g).fanin;
        fanin.push_back(src);
        nl_.connect(g, fanin);
        mark_used(src);
      } else {
        // No n-ary gates to absorb the source, or the "source" is a
        // tied-input blend gate (combinational — appending it to another
        // gate's fanin could close a cycle with a sibling blend): observe
        // it directly.
        nl_.mark_output(src);
        mark_used(src);
      }
    }
  }

  const Profile& p_;
  rls::rand::Rng rng_;
  Netlist nl_;
  std::vector<SignalId> pis_;
  std::vector<SignalId> ffs_;
  std::vector<SignalId> comb_gates_;
  std::vector<SignalId> decode_gates_;
  std::vector<SignalId> decode_pending_;
  std::vector<bool> used_;
  std::size_t counter_ffs_ = 0;
  std::size_t next_name_ = 0;
};

}  // namespace

Netlist synthesize(const Profile& profile) { return Builder(profile).build(); }

}  // namespace rls::gen
