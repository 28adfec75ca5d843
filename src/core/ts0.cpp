#include "core/ts0.hpp"

#include "rand/rng.hpp"
#include "store/checkpoint.hpp"

namespace rls::core {

scan::TestSet make_ts0(const netlist::Netlist& nl, const Ts0Config& cfg) {
  rls::rand::Rng rng(cfg.seed);
  const std::size_t n_sv = nl.num_state_vars();
  const std::size_t n_pi = nl.num_inputs();

  scan::TestSet ts;
  ts.tests.reserve(2 * cfg.n);
  auto make_test = [&](std::size_t length) {
    scan::ScanTest t;
    t.scan_in.resize(n_sv);
    for (std::uint8_t& b : t.scan_in) b = rng.next_bit() ? 1 : 0;
    t.vectors.resize(length);
    for (auto& v : t.vectors) {
      v.resize(n_pi);
      for (std::uint8_t& b : v) b = rng.next_bit() ? 1 : 0;
    }
    return t;
  };
  for (std::size_t i = 0; i < cfg.n; ++i) ts.tests.push_back(make_test(cfg.l_a));
  for (std::size_t i = 0; i < cfg.n; ++i) ts.tests.push_back(make_test(cfg.l_b));
  return ts;
}

std::uint64_t Ts0Cache::circuit_digest_locked(const netlist::Netlist& nl) {
  auto& slot = digests_[&nl];
  if (slot == 0) slot = store::digest_circuit(nl);
  return slot;
}

std::shared_ptr<const scan::TestSet> Ts0Cache::get(const netlist::Netlist& nl,
                                                   const Ts0Config& cfg,
                                                   fault::Engine engine,
                                                   RunContext* ctx) {
  std::lock_guard lk(mu_);
  // Key the engine's frozen artifact identity byte (DESIGN.md §10).
  const Key key{circuit_digest_locked(nl),
                cfg.l_a,
                cfg.l_b,
                cfg.n,
                cfg.seed,
                fault::artifact_identity(engine)};
  auto& slot = cache_[key];
  if (slot) {
    ++hits_;
    return slot;
  }
  if (store_ != nullptr) {
    const store::ArtifactKey akey = store_->ts0_key(cfg, engine);
    if (std::optional<scan::TestSet> ts = store_->load_ts0(akey, ctx)) {
      ++hits_;
      slot = std::make_shared<const scan::TestSet>(std::move(*ts));
      return slot;
    }
    slot = std::make_shared<const scan::TestSet>(make_ts0(nl, cfg));
    store_->save_ts0(akey, *slot, ctx);
    return slot;
  }
  slot = std::make_shared<const scan::TestSet>(make_ts0(nl, cfg));
  return slot;
}

std::size_t Ts0Cache::hits() const {
  std::lock_guard lk(mu_);
  return hits_;
}

std::size_t Ts0Cache::size() const {
  std::lock_guard lk(mu_);
  return cache_.size();
}

}  // namespace rls::core
