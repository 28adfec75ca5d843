// FlagParser: the declarative argv parser shared by every rls subcommand.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli/flags.hpp"
#include "fault/seq_fsim.hpp"

namespace rls::cli {
namespace {

std::vector<std::string> parse(const FlagParser& fp,
                               std::vector<const char*> argv,
                               int begin = 0) {
  return fp.parse(static_cast<int>(argv.size()), argv.data(), begin);
}

TEST(CliFlags, EqualsAndSpaceFormsBothWork) {
  FlagParser fp;
  std::uint64_t threads = 0;
  std::string trace;
  fp.add_uint("threads", &threads);
  fp.add_string("trace", &trace);

  auto pos = parse(fp, {"--threads=4", "--trace", "out.jsonl", "s298"});
  EXPECT_EQ(threads, 4u);
  EXPECT_EQ(trace, "out.jsonl");
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "s298");
}

TEST(CliFlags, BooleanFormsAndExplicitValues) {
  FlagParser fp;
  bool progress = false;
  bool desc = true;
  fp.add_bool("progress", &progress);
  fp.add_bool("d1-desc", &desc);

  auto pos = parse(fp, {"--progress", "--d1-desc=0"});
  EXPECT_TRUE(progress);
  EXPECT_FALSE(desc);
  EXPECT_TRUE(pos.empty());

  progress = false;
  parse(fp, {"--progress=true"});
  EXPECT_TRUE(progress);
}

TEST(CliFlags, PositionalsKeepOrderAndInterleave) {
  FlagParser fp;
  std::uint64_t seed = 0;
  fp.add_uint("seed", &seed);
  auto pos = parse(fp, {"run", "--seed", "7", "s5378", "extra"});
  EXPECT_EQ(seed, 7u);
  ASSERT_EQ(pos.size(), 3u);
  EXPECT_EQ(pos[0], "run");
  EXPECT_EQ(pos[1], "s5378");
  EXPECT_EQ(pos[2], "extra");
}

TEST(CliFlags, DoubleDashEndsFlagParsing) {
  FlagParser fp;
  bool flag = false;
  fp.add_bool("flag", &flag);
  auto pos = parse(fp, {"--flag", "--", "--flag", "--"});
  EXPECT_TRUE(flag);
  // Everything after the first "--" is positional, including a second "--".
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], "--flag");
  EXPECT_EQ(pos[1], "--");
}

TEST(CliFlags, BeginSkipsProgramAndSubcommand) {
  FlagParser fp;
  bool v = false;
  fp.add_bool("v", &v);
  auto pos = parse(fp, {"rls", "run", "--v", "s27"}, 2);
  EXPECT_TRUE(v);
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "s27");
}

TEST(CliFlags, ErrorsNameTheOffendingArgument) {
  FlagParser fp;
  std::uint64_t n = 0;
  std::string s;
  fp.add_uint("n", &n);
  fp.add_string("s", &s);

  EXPECT_THROW(parse(fp, {"--bogus"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n"}), FlagError);        // missing value
  EXPECT_THROW(parse(fp, {"--n=abc"}), FlagError);    // malformed number
  EXPECT_THROW(parse(fp, {"--n", "12x"}), FlagError); // trailing junk
  EXPECT_THROW(parse(fp, {"--s"}), FlagError);        // missing value
  try {
    parse(fp, {"--bogus"});
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(CliFlags, UintRejectsSignsWhitespaceAndOverflow) {
  // strtoull would happily wrap "-5" to 2^64-5 and skip leading
  // whitespace; parse_uint (and therefore every kUint flag) must not.
  FlagParser fp;
  std::uint64_t n = 7;
  fp.add_uint("n", &n);
  EXPECT_THROW(parse(fp, {"--n=-5"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n=+5"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n= 5"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n=5 "}), FlagError);
  EXPECT_THROW(parse(fp, {"--n=0x10"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n="}), FlagError);
  // One past UINT64_MAX (18446744073709551615).
  EXPECT_THROW(parse(fp, {"--n=18446744073709551616"}), FlagError);
  EXPECT_EQ(n, 7u);  // untouched by every rejected parse
  auto pos = parse(fp, {"--n=18446744073709551615"});
  EXPECT_EQ(n, UINT64_MAX);
}

TEST(CliFlags, ParseUintNamesTheOffenderAndRoundTrips) {
  EXPECT_EQ(parse_uint("--seed", "0"), 0u);
  EXPECT_EQ(parse_uint("--seed", "42"), 42u);
  EXPECT_EQ(parse_uint("--seed", "18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1e3", "abc",
                          "18446744073709551616", "99999999999999999999"}) {
    try {
      (void)parse_uint("cop <n>", bad);
      FAIL() << "expected FlagError for '" << bad << "'";
    } catch (const FlagError& e) {
      EXPECT_NE(std::string(e.what()).find("cop <n>"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CliFlags, DoubleFlagRejectsLeadingWhitespace) {
  FlagParser fp;
  double t = 0.5;
  fp.add_double("threshold", &t);
  EXPECT_THROW(parse(fp, {"--threshold= 0.25"}), FlagError);
  EXPECT_DOUBLE_EQ(t, 0.5);
}

TEST(CliFlags, DoubleFlagsParseBothForms) {
  FlagParser fp;
  double threshold = 0.5;
  fp.add_double("threshold", &threshold, "escape probability cutoff");
  const char* argv1[] = {"prog", "--threshold=0.25"};
  (void)fp.parse(2, argv1);
  EXPECT_DOUBLE_EQ(threshold, 0.25);
  const char* argv2[] = {"prog", "--threshold", "1e-3"};
  (void)fp.parse(3, argv2);
  EXPECT_DOUBLE_EQ(threshold, 1e-3);
}

TEST(CliFlags, DoubleFlagRejectsNonNumbers) {
  FlagParser fp;
  double threshold = 0.5;
  fp.add_double("threshold", &threshold);
  const char* argv[] = {"prog", "--threshold=half"};
  try {
    (void)fp.parse(2, argv);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("half"), std::string::npos);
  }
  EXPECT_DOUBLE_EQ(threshold, 0.5);  // untouched on error
}

TEST(CliFlags, HelpListsEveryRegisteredFlag) {
  FlagParser fp;
  bool b = false;
  std::uint64_t u = 0;
  fp.add_bool("progress", &b, "live status lines");
  fp.add_uint("threads", &u, "worker threads");
  const std::string help = fp.help();
  EXPECT_NE(help.find("--progress"), std::string::npos);
  EXPECT_NE(help.find("--threads"), std::string::npos);
  EXPECT_NE(help.find("live status lines"), std::string::npos);
}

TEST(CliFlags, EngineFlagParsesBothEnginesAndNamesValidSet) {
  // The CLI maps --engine through fault::parse_engine and reports the
  // full valid set on mismatch (the same construction rls_cli uses).
  FlagParser fp;
  std::string engine = "packed";
  fp.add_string("engine", &engine,
                "fault-simulation engine: packed (default) or fullsweep");
  const std::string help = fp.help();
  EXPECT_NE(help.find("fullsweep"), std::string::npos);
  EXPECT_NE(help.find("packed"), std::string::npos);
  EXPECT_STREQ(fault::engine_choices(), "fullsweep, packed");

  for (const auto& [name, want] :
       {std::pair<const char*, fault::Engine>{"fullsweep",
                                              fault::Engine::kFullSweep},
        {"packed", fault::Engine::kPacked}}) {
    parse(fp, {(std::string("--engine=") + name).c_str()});
    const std::optional<fault::Engine> parsed = fault::parse_engine(engine);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, want) << name;
    EXPECT_STREQ(fault::engine_name(*parsed), name);
  }

  parse(fp, {"--engine=bogus"});
  ASSERT_FALSE(fault::parse_engine(engine).has_value());
  const FlagError err("--engine expects one of " +
                      std::string(fault::engine_choices()) + ", got '" +
                      engine + "'");
  const std::string what = err.what();
  EXPECT_EQ(what.find('\n'), std::string::npos);  // one-line error
  EXPECT_NE(what.find("fullsweep, packed"), std::string::npos);
  EXPECT_NE(what.find("bogus"), std::string::npos);

  // The retired cone-difference engine is no longer a valid name.
  EXPECT_FALSE(fault::parse_engine("conediff").has_value());
}

TEST(CliFlags, UintFlagsRangeCheckAgainstTheirDestinationType) {
  FlagParser fp;
  std::uint32_t iters = 0;
  std::uint8_t small = 0;
  std::uint64_t wide = 0;
  fp.add_uint("iters", &iters);
  fp.add_uint("small", &small);
  fp.add_uint("wide", &wide);

  parse(fp, {"--iters=4294967295", "--small=255",
             "--wide=18446744073709551615"});
  EXPECT_EQ(iters, 4294967295u);
  EXPECT_EQ(small, 255u);
  EXPECT_EQ(wide, UINT64_MAX);

  try {
    parse(fp, {"--iters=4294967296"});
    FAIL() << "4294967296 does not fit a uint32_t";
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(),
                 "--iters value out of range: '4294967296' "
                 "(expects 0..4294967295)");
  }
  EXPECT_THROW(parse(fp, {"--small=256"}), FlagError);
  EXPECT_EQ(iters, 4294967295u);  // a rejected value writes nothing
  EXPECT_EQ(small, 255u);
}

#ifdef RLS_CLI_PATH

/// Runs the real `rls` binary with `args` (stderr folded into stdout);
/// returns {exit status, output}.
std::pair<int, std::string> run_rls(const std::string& args) {
  const std::string cmd = std::string(RLS_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(CliEngine, RunWithoutEngineFlagUsesPacked) {
  const auto [status, out] = run_rls("run s27 --dump-request");
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("\"engine\":\"packed\""), std::string::npos) << out;
}

TEST(CliEngine, RetiredConediffEngineIsATypedUsageError) {
  const auto [status, out] = run_rls("run s27 --engine=conediff");
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find("--engine expects one of fullsweep, packed"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("conediff"), std::string::npos) << out;
}

/// Every circuit-taking subcommand resolves its argument through the one
/// shared loader: an unknown name is an error naming it, with exit 1.
TEST(CliEngine, UnknownCircuitIsNamedWithExitOne) {
  for (const char* cmd : {"stats", "bench", "faults", "cop", "run"}) {
    const auto [status, out] =
        run_rls(std::string(cmd) + " no_such_circuit.bench");
    EXPECT_EQ(status, 1) << cmd << "\n" << out;
    EXPECT_EQ(out,
              "error: 'no_such_circuit.bench' is neither a known circuit "
              "(see `rls list`) nor a readable .bench file\n")
        << cmd;
  }
}

/// `rls` arguments that overflowed a narrower destination used to wrap
/// silently (4294967296 -> 0, 4294967297 -> 1); each must now be a usage
/// error naming the flag and its range, while the field's own maximum
/// still gets through.
TEST(CliRange, NarrowedFlagsAreCheckedAgainstTheirField) {
  for (const char* args :
       {"run s27 --threads=4294967296 --dump-request",
        "run s27 --combo-jobs=4294967297 --dump-request",
        "run s27 --max-iters=4294967296 --dump-request",
        "serve --workers=4294967296 </dev/null",
        "fuzz --jobs=4294967296 --seeds=0"}) {
    const auto [status, out] = run_rls(args);
    EXPECT_EQ(status, 64) << args << "\n" << out;
    EXPECT_NE(out.find("value out of range"), std::string::npos)
        << args << "\n" << out;
    EXPECT_NE(out.find("(expects 0..4294967295)"), std::string::npos)
        << args << "\n" << out;
  }

  const auto [status, out] = run_rls(
      "run s27 --threads=4294967295 --combo-jobs=4294967295 "
      "--max-iters=4294967295 --dump-request");
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("\"threads\":4294967295,\"combo_jobs\":4294967295"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"max_iterations\":4294967295"), std::string::npos)
      << out;
}

#endif  // RLS_CLI_PATH

}  // namespace
}  // namespace rls::cli
