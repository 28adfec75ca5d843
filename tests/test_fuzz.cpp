// rls::fuzz — the differential fuzzing harness fuzzing itself:
// a clean sweep over pinned seeds, byte-level determinism of the findings
// stream at any job count, detection + triage + shrink convergence on a
// planted engine bug, timeout triage under a tiny work budget, and corpus
// write/replay round-trips (including the committed regression corpus).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/seq_fsim.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/synth.hpp"
#include "netlist/bench_io.hpp"

namespace {

namespace fs = std::filesystem;
using namespace rls;

/// Unique scratch dir per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("rls-test-fuzz-" + tag + "-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

fuzz::FuzzOptions base_options(const TempDir& tmp) {
  fuzz::FuzzOptions opt;
  opt.scratch_dir = (tmp.path / "scratch").string();
  return opt;
}

TEST(FuzzSmoke, CleanSweepProducesNoFindings) {
  const TempDir tmp("smoke");
  fuzz::FuzzOptions opt = base_options(tmp);
  opt.seed_begin = 0;
  opt.num_seeds = 40;
  const fuzz::FuzzReport rep = fuzz::run_fuzz(opt);
  EXPECT_EQ(rep.cases_run, 40u);
  EXPECT_GT(rep.oracles_run, 40u);  // several oracles per case
  EXPECT_GT(rep.work_spent, 0u);
  EXPECT_TRUE(rep.findings.empty())
      << fuzz::findings_to_jsonl(rep.findings);
}

TEST(FuzzSmoke, DeriveCaseIsPureAndSweepsEdges) {
  bool saw_zero_gates = false, saw_cf0 = false, saw_cf1 = false;
  bool saw_zero_pi = false, saw_one_ff = false, saw_store = false;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const fuzz::FuzzCase a = fuzz::derive_case(seed);
    const fuzz::FuzzCase b = fuzz::derive_case(seed);
    ASSERT_EQ(a.profile.num_gates, b.profile.num_gates);
    ASSERT_EQ(a.options.l_a, b.options.l_a);
    ASSERT_GT(a.options.l_b, a.options.l_a);
    ASSERT_GE(a.profile.num_outputs, 1u);
    ASSERT_TRUE(a.profile.num_inputs > 0 || a.profile.num_flip_flops > 0);
    saw_zero_gates |= a.profile.num_gates == 0;
    saw_cf0 |= a.profile.counter_fraction == 0.0;
    saw_cf1 |= a.profile.counter_fraction == 1.0;
    saw_zero_pi |= a.profile.num_inputs == 0;
    saw_one_ff |= a.profile.num_flip_flops == 1;
    saw_store |= a.options.use_store;
  }
  EXPECT_TRUE(saw_zero_gates);
  EXPECT_TRUE(saw_cf0);
  EXPECT_TRUE(saw_cf1);
  EXPECT_TRUE(saw_zero_pi);
  EXPECT_TRUE(saw_one_ff);
  EXPECT_TRUE(saw_store);
}

TEST(FuzzDeterminism, SameSeedsSameFindingsBytesAtAnyJobs) {
  // A planted bug guarantees a non-empty findings stream to compare.
  const TempDir tmp("det");
  fuzz::FuzzOptions opt = base_options(tmp);
  opt.seed_begin = 0;
  opt.num_seeds = 24;
  opt.corrupt_engine = static_cast<int>(fault::Engine::kPacked);
  opt.corrupt_min_gates = 1;
  opt.shrink = false;  // determinism of detection + triage, not shrinking

  opt.jobs = 1;
  const fuzz::FuzzReport serial = fuzz::run_fuzz(opt);
  opt.jobs = 2;
  const fuzz::FuzzReport wide = fuzz::run_fuzz(opt);

  ASSERT_FALSE(serial.findings.empty());
  EXPECT_EQ(fuzz::findings_to_jsonl(serial.findings),
            fuzz::findings_to_jsonl(wide.findings));
  EXPECT_EQ(serial.cases_run, wide.cases_run);
  EXPECT_EQ(serial.oracles_run, wide.oracles_run);
  EXPECT_EQ(serial.work_spent, wide.work_spent);
}

TEST(FuzzPlanted, MismatchDetectedTriagedAndShrunkToMinGates) {
  const TempDir tmp("planted");
  fuzz::FuzzOptions opt = base_options(tmp);
  // Find a seed whose profile clears the gate threshold.
  std::uint64_t seed = 0;
  for (;; ++seed) {
    if (fuzz::derive_case(seed).profile.num_gates >= 40) break;
  }
  opt.seed_begin = seed;
  opt.num_seeds = 1;
  opt.corrupt_engine = static_cast<int>(fault::Engine::kPacked);
  opt.corrupt_min_gates = 9;
  const fuzz::FuzzReport rep = fuzz::run_fuzz(opt);

  ASSERT_EQ(rep.findings.size(), 1u);
  const fuzz::Finding& f = rep.findings[0];
  EXPECT_EQ(f.oracle, "engine-crosscheck");
  EXPECT_EQ(f.bucket, fuzz::Bucket::kMismatch);
  EXPECT_NE(f.detail.find("packed"), std::string::npos) << f.detail;
  EXPECT_TRUE(f.shrunk);
  // The planted bug fires iff gates >= 9, so bisection must converge on
  // exactly 9 — comfortably under the <= 12 acceptance bound.
  EXPECT_EQ(f.profile.num_gates, 9u);
  EXPECT_LE(f.profile.num_gates, 12u);
}

TEST(FuzzPlanted, CorruptReferenceEngineIsCaughtByPacked) {
  // The kFullSweep reference is itself under test: a bug planted in it
  // must surface as a mismatch against kPacked, not pass as the baseline.
  const TempDir tmp("planted-ref");
  fuzz::FuzzOptions opt = base_options(tmp);
  std::uint64_t seed = 0;
  for (;; ++seed) {
    if (fuzz::derive_case(seed).profile.num_gates >= 40) break;
  }
  opt.seed_begin = seed;
  opt.num_seeds = 1;
  opt.shrink = false;
  opt.corrupt_engine = static_cast<int>(fault::Engine::kFullSweep);
  opt.corrupt_min_gates = 9;
  const fuzz::FuzzReport rep = fuzz::run_fuzz(opt);

  ASSERT_EQ(rep.findings.size(), 1u);
  const fuzz::Finding& f = rep.findings[0];
  EXPECT_EQ(f.oracle, "engine-crosscheck");
  EXPECT_EQ(f.bucket, fuzz::Bucket::kMismatch);
  EXPECT_NE(f.detail.find("packed@1 differs from fullsweep@1"),
            std::string::npos)
      << f.detail;
  EXPECT_FALSE(f.shrunk);
}

TEST(FuzzTimeout, TinyWorkBudgetTriagesTimeout) {
  const TempDir tmp("timeout");
  fuzz::FuzzOptions opt = base_options(tmp);
  opt.seed_begin = 0;
  opt.num_seeds = 1;
  opt.work_budget = 1;  // everything blows the budget
  opt.shrink = false;
  const fuzz::FuzzReport rep = fuzz::run_fuzz(opt);
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].bucket, fuzz::Bucket::kTimeout);
  EXPECT_NE(rep.findings[0].detail.find("work budget exceeded"),
            std::string::npos);
  // Triage stops the case: exactly one finding, not one per oracle.
  EXPECT_EQ(rep.findings.size(), 1u);
}

TEST(FuzzCorpus, WriteAndReplayRoundTrip) {
  const TempDir tmp("corpus");
  const std::string corpus = (tmp.path / "corpus").string();
  fuzz::FuzzOptions opt = base_options(tmp);
  opt.seed_begin = 0;
  opt.num_seeds = 8;
  opt.corrupt_engine = static_cast<int>(fault::Engine::kFullSweep);
  opt.corrupt_min_gates = 1;
  opt.corpus_dir = corpus;
  const fuzz::FuzzReport rep = fuzz::run_fuzz(opt);
  ASSERT_FALSE(rep.findings.empty());

  // With the planted bug still active, every reproducer re-fires.
  const fuzz::FuzzReport bad = fuzz::replay_corpus(corpus, opt);
  EXPECT_EQ(bad.cases_run, rep.findings.size());
  EXPECT_FALSE(bad.findings.empty());

  // With the bug "fixed" (injection off), the corpus replays clean.
  fuzz::FuzzOptions fixed = base_options(tmp);
  const fuzz::FuzzReport good = fuzz::replay_corpus(corpus, fixed);
  EXPECT_EQ(good.cases_run, rep.findings.size());
  EXPECT_TRUE(good.findings.empty())
      << fuzz::findings_to_jsonl(good.findings);
}

TEST(FuzzCorpus, ReproducerPinsNetlistViaBenchFile) {
  const TempDir tmp("pin");
  fuzz::Finding f;
  f.seed = 7;
  f.oracle = "engine-crosscheck";
  f.bucket = fuzz::Bucket::kMismatch;
  f.profile = fuzz::derive_case(7).profile;
  f.options = fuzz::derive_case(7).options;
  const std::string stem = fuzz::write_reproducer(f, tmp.path.string());
  EXPECT_EQ(stem, "s7-engine-crosscheck");
  EXPECT_TRUE(fs::exists(tmp.path / (stem + ".case")));
  ASSERT_TRUE(fs::exists(tmp.path / (stem + ".bench")));
  // The pinned netlist is the profile's synthesis, byte for byte.
  std::ifstream in(tmp.path / (stem + ".bench"));
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), netlist::write_bench(gen::synthesize(f.profile)));
}

TEST(FuzzCorpus, CorruptCaseFileFailsLoudly) {
  const TempDir tmp("corrupt");
  {
    std::ofstream out(tmp.path / "s0-broken.case");
    out << "{\"seed\":0}\n";  // missing every other required field
  }
  const fuzz::FuzzOptions opt;
  EXPECT_THROW(fuzz::replay_corpus(tmp.path.string(), opt),
               std::runtime_error);
}

#ifdef RLS_FUZZ_CORPUS_DIR
TEST(FuzzCorpus, CommittedCorpusReplaysClean) {
  // Every shrunken reproducer under tests/fuzz_corpus documents a bug that
  // is fixed; any finding here is a regression.
  const TempDir tmp("committed");
  const fuzz::FuzzReport rep =
      fuzz::replay_corpus(RLS_FUZZ_CORPUS_DIR, base_options(tmp));
  EXPECT_GT(rep.cases_run, 0u) << "committed corpus is missing or empty";
  EXPECT_TRUE(rep.findings.empty()) << fuzz::findings_to_jsonl(rep.findings);
}
#endif

TEST(FuzzFindings, JsonlIsStableAndSelfContained) {
  fuzz::Finding f;
  f.seed = 42;
  f.oracle = "sweep-width";
  f.bucket = fuzz::Bucket::kMismatch;
  f.detail = "W=1 vs W=3: trace bytes differ";
  f.profile = fuzz::derive_case(42).profile;
  f.options = fuzz::derive_case(42).options;
  const std::string a = fuzz::findings_to_jsonl({f});
  const std::string b = fuzz::findings_to_jsonl({f});
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"seed\":42"), std::string::npos) << a;
  EXPECT_NE(a.find("\"oracle\":\"sweep-width\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"bucket\":\"mismatch\""), std::string::npos) << a;
  EXPECT_EQ(a.back(), '\n');
}

}  // namespace
