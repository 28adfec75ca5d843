// Using the library on YOUR circuit: build a netlist through the API (or
// parse a .bench file), validate it, and run the full RLS flow.
//
// The circuit here is a small 4-bit counter with a decoder — a miniature
// of the fractional-divider structure that makes s208/s420 random-pattern
// resistant — built gate by gate.
#include <cstdio>
#include <string>

#include "core/campaign.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/validate.hpp"
#include "report/format.hpp"

int main() {
  using namespace rls;
  using netlist::GateType;
  using netlist::SignalId;
  // Signal names "q0", "c1", ...
  const auto name = [](char prefix, int k) {
    std::string s(1, prefix);
    s += std::to_string(k);
    return s;
  };

  // ---- build: 4-bit synchronous counter with enable + decode output ----
  netlist::Netlist nl("counter4");
  const SignalId en = nl.add_input("en");
  const SignalId load = nl.add_input("load");
  std::vector<SignalId> q;
  for (int k = 0; k < 4; ++k) {
    q.push_back(nl.add_dff(name('q', k)));
  }
  // carry chain: c0 = en, ck = c(k-1) & q(k-1)
  SignalId carry = nl.add_gate(GateType::kBuf, "c0", {en});
  std::vector<SignalId> carries{carry};
  for (int k = 1; k < 4; ++k) {
    carry = nl.add_gate(GateType::kAnd, name('c', k),
                        {carry, q[static_cast<std::size_t>(k - 1)]});
    carries.push_back(carry);
  }
  // next state: dk = (qk XOR ck) OR load-gated pattern
  for (int k = 0; k < 4; ++k) {
    const SignalId t = nl.add_gate(GateType::kXor, name('t', k),
                                   {q[static_cast<std::size_t>(k)],
                                    carries[static_cast<std::size_t>(k)]});
    const SignalId d = nl.add_gate(GateType::kAnd, name('d', k),
                                   {t, load});
    nl.connect(q[static_cast<std::size_t>(k)], {d});
  }
  // decode: terminal count q == 1111
  const SignalId tc = nl.add_gate(GateType::kAnd, "tc", {q[0], q[1], q[2], q[3]});
  nl.mark_output(tc);
  nl.finalize();

  // ---- validate ----
  const auto violations = netlist::validate(nl);
  std::printf("netlist '%s': %zu gates, %zu violation(s)\n", nl.name().c_str(),
              nl.num_gates(), violations.size());
  for (const auto& v : violations) {
    std::printf("  warning: %s\n", v.message.c_str());
  }

  // ---- serialize to .bench and parse back (interchange check) ----
  const std::string bench = netlist::write_bench(nl);
  std::printf("\n.bench serialization:\n%s\n", bench.c_str());
  const netlist::Netlist reparsed = netlist::parse_bench(bench, "counter4");
  std::printf("round-trip: %zu gates (ok)\n\n", reparsed.num_gates());

  // ---- run the full flow ----
  core::Workbench wb(std::move(nl));
  std::printf("detectable faults: %zu / %zu collapsed\n",
              wb.target_faults().size(), wb.universe().size());

  core::RunContext ctx;
  const core::ExperimentRow row = core::run_first_complete(wb, ctx);
  std::printf("first complete combination: LA=%zu LB=%zu N=%zu\n",
              row.combo.l_a, row.combo.l_b, row.combo.n);
  std::printf("TS_0 detected %zu; with %zu limited-scan set(s): %zu / %zu\n",
              row.result.ts0_detected, row.result.num_applications(),
              row.result.total_detected, row.target_faults);
  std::printf("total cycles: %s, complete: %s\n",
              report::format_cycles(row.result.total_cycles()).c_str(),
              row.found_complete ? "yes" : "no");
  return 0;
}
