#include "sim/compiled.hpp"

#include <bit>
#include <cassert>

namespace rls::sim {

using netlist::GateType;
using netlist::SignalId;

CompiledCircuit::CompiledCircuit(const netlist::Netlist& nl) : nl_(&nl) {
  assert(nl.finalized());
  const std::size_t n = nl.num_gates();
  types_.resize(n);
  fanin_off_.resize(n + 1, 0);
  for (SignalId id = 0; id < n; ++id) {
    types_[id] = nl.gate(id).type;
    fanin_off_[id + 1] =
        fanin_off_[id] + static_cast<std::uint32_t>(nl.gate(id).fanin.size());
  }
  fanin_flat_.reserve(fanin_off_[n]);
  for (SignalId id = 0; id < n; ++id) {
    for (SignalId in : nl.gate(id).fanin) {
      fanin_flat_.push_back(in);
    }
  }
  netlist::Levelization lv = netlist::levelize(nl);
  order_ = std::move(lv.order);
  levels_ = std::move(lv.level);
  max_level_ = lv.max_level;
  chain_pos_.assign(n, kNoChainPos);
  const auto ffs = nl.flip_flops();
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    chain_pos_[ffs[k]] = static_cast<std::uint32_t>(k);
  }
  build_fanout();
  build_cones();
}

void CompiledCircuit::build_fanout() {
  const std::size_t n = types_.size();
  fanout_off_.assign(n + 1, 0);
  for (SignalId in : fanin_flat_) {
    ++fanout_off_[in + 1];
  }
  for (std::size_t id = 0; id < n; ++id) {
    fanout_off_[id + 1] += fanout_off_[id];
  }
  fanout_flat_.resize(fanin_flat_.size());
  std::vector<std::uint32_t> cursor(fanout_off_.begin(), fanout_off_.end() - 1);
  for (SignalId id = 0; id < n; ++id) {
    for (SignalId in : fanin(id)) {
      fanout_flat_[cursor[in]++] = id;
    }
  }
}

void CompiledCircuit::build_cones() {
  const std::size_t n = types_.size();
  cone_size_.assign(n, 1);  // every signal is in its own cone
  if (n == 0 || n > kConeSignalLimit) return;

  // Bitset transitive closure. Combinational consumers contribute their
  // whole cone; a DFF consumer contributes only itself (divergence stops
  // at the D pin until the next clock edge).
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> closure(n * words, 0);
  auto row = [&](SignalId id) { return closure.data() + id * words; };
  auto set_bit = [&](std::uint64_t* r, SignalId id) {
    r[id / 64] |= std::uint64_t{1} << (id % 64);
  };
  auto absorb = [&](SignalId id) {
    std::uint64_t* r = row(id);
    set_bit(r, id);
    for (SignalId out : fanout(id)) {
      if (types_[out] == GateType::kDff) {
        set_bit(r, out);
      } else {
        const std::uint64_t* src = row(out);
        for (std::size_t w = 0; w < words; ++w) r[w] |= src[w];
      }
    }
  };
  // Consumers always have a strictly higher level, so a reverse levelized
  // pass finalizes every combinational cone; sources close afterwards.
  for (std::size_t k = order_.size(); k-- > 0;) absorb(order_[k]);
  std::uint64_t total = 0;
  for (SignalId id = 0; id < n; ++id) {
    if (!netlist::is_combinational(types_[id])) absorb(id);
    std::uint32_t count = 0;
    const std::uint64_t* r = row(id);
    for (std::size_t w = 0; w < words; ++w) {
      count += static_cast<std::uint32_t>(std::popcount(r[w]));
    }
    cone_size_[id] = count;
    total += count;
  }

  if (total > kConeEntryLimit) return;  // sizes only; membership too big
  cone_off_.assign(n + 1, 0);
  for (SignalId id = 0; id < n; ++id) {
    cone_off_[id + 1] = cone_off_[id] + cone_size_[id];
  }
  cone_flat_.resize(total);
  std::size_t pos = 0;
  for (SignalId id = 0; id < n; ++id) {
    const std::uint64_t* r = row(id);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = r[w];
      while (bits) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        cone_flat_[pos++] = static_cast<SignalId>(w * 64 + b);
      }
    }
  }
  has_cones_ = true;
}

Word CompiledCircuit::eval_gate(SignalId id, std::span<const Word> values) const {
  const auto fi = fanin(id);
  switch (types_[id]) {
    case GateType::kBuf:
      return values[fi[0]];
    case GateType::kNot:
      return ~values[fi[0]];
    case GateType::kAnd: {
      Word v = kAllOnes;
      for (SignalId in : fi) v &= values[in];
      return v;
    }
    case GateType::kNand: {
      Word v = kAllOnes;
      for (SignalId in : fi) v &= values[in];
      return ~v;
    }
    case GateType::kOr: {
      Word v = 0;
      for (SignalId in : fi) v |= values[in];
      return v;
    }
    case GateType::kNor: {
      Word v = 0;
      for (SignalId in : fi) v |= values[in];
      return ~v;
    }
    case GateType::kXor: {
      Word v = 0;
      for (SignalId in : fi) v ^= values[in];
      return v;
    }
    case GateType::kXnor: {
      Word v = 0;
      for (SignalId in : fi) v ^= values[in];
      return ~v;
    }
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return kAllOnes;
    case GateType::kInput:
    case GateType::kDff:
      return values[id];  // sources: value already present
  }
  return 0;
}

bool CompiledCircuit::eval_gate_lane(SignalId id, std::span<const Word> values,
                                     int lane, int forced_pin,
                                     bool forced_value) const {
  const auto fi = fanin(id);
  auto in_bit = [&](std::size_t k) -> bool {
    if (static_cast<int>(k) == forced_pin) return forced_value;
    return lane_bit(values[fi[k]], lane);
  };
  switch (types_[id]) {
    case GateType::kBuf:
      return in_bit(0);
    case GateType::kNot:
      return !in_bit(0);
    case GateType::kAnd: {
      for (std::size_t k = 0; k < fi.size(); ++k) {
        if (!in_bit(k)) return false;
      }
      return true;
    }
    case GateType::kNand: {
      for (std::size_t k = 0; k < fi.size(); ++k) {
        if (!in_bit(k)) return true;
      }
      return false;
    }
    case GateType::kOr: {
      for (std::size_t k = 0; k < fi.size(); ++k) {
        if (in_bit(k)) return true;
      }
      return false;
    }
    case GateType::kNor: {
      for (std::size_t k = 0; k < fi.size(); ++k) {
        if (in_bit(k)) return false;
      }
      return true;
    }
    case GateType::kXor: {
      bool v = false;
      for (std::size_t k = 0; k < fi.size(); ++k) v ^= in_bit(k);
      return v;
    }
    case GateType::kXnor: {
      bool v = true;
      for (std::size_t k = 0; k < fi.size(); ++k) v ^= in_bit(k);
      return v;
    }
    case GateType::kConst0:
      return false;
    case GateType::kConst1:
      return true;
    case GateType::kInput:
    case GateType::kDff:
      return lane_bit(values[id], lane);
  }
  return false;
}

void CompiledCircuit::eval(std::span<Word> values) const {
  for (SignalId id : order_) {
    values[id] = eval_gate(id, values);
  }
}

void CompiledCircuit::init_constants(std::span<Word> values) const {
  for (SignalId id = 0; id < types_.size(); ++id) {
    if (types_[id] == GateType::kConst0) values[id] = 0;
    if (types_[id] == GateType::kConst1) values[id] = kAllOnes;
  }
}

}  // namespace rls::sim
