//===- test_fuzz.cpp - Unit tests for the fuzz library --------------------===//
//
// The stq-fuzz campaign (src/fuzz) is itself load-bearing test
// infrastructure, so its pieces get their own unit tests: the program and
// qualifier-set generators must uphold the promises the oracles rely on
// (Sound mode is checker-accepted, Mixed mode plants diagnostics, generated
// qualifier sets always load), the shrinker must actually minimize, and a
// whole campaign must be deterministic in its seed.
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"
#include "fuzz/Campaign.h"
#include "fuzz/Mutator.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/ProverSessionGen.h"
#include "fuzz/QualGen.h"
#include "fuzz/Shrinker.h"
#include "qual/QualParser.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace stq;

namespace {

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(FuzzRng, DeterministicAndSeedSensitive) {
  fuzz::Rng A(7), B(7), C(8);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  fuzz::Rng A2(7);
  for (int I = 0; I < 100; ++I)
    Differs |= A2.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(FuzzRng, RangeStaysInBounds) {
  fuzz::Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    long V = R.range(-4, 17);
    EXPECT_GE(V, -4);
    EXPECT_LE(V, 17);
    EXPECT_LT(R.pick(9), 9u);
  }
}

//===----------------------------------------------------------------------===//
// Program generator: the promises the oracles rest on
//===----------------------------------------------------------------------===//

TEST(FuzzProgramGen, EqualSeedsYieldIdenticalPrograms) {
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    fuzz::Rng A(Seed), B(Seed);
    EXPECT_EQ(fuzz::generateProgram(A), fuzz::generateProgram(B));
  }
}

TEST(FuzzProgramGen, SoundModeIsFrontEndCleanAndAccepted) {
  // Sound mode arms the Theorem 5.1 oracle, which is only meaningful if
  // the checker actually accepts the programs.
  SessionOptions SO;
  SO.Builtins = fuzz::programQualifiers();
  Session S(SO);
  for (uint64_t Seed = 100; Seed < 160; ++Seed) {
    fuzz::Rng R(Seed);
    std::string Src = fuzz::generateProgram(R);
    Session::CheckOutcome Out = S.check(Src);
    EXPECT_TRUE(Out.FrontEndOk) << "seed " << Seed << "\n" << Src;
    EXPECT_EQ(Out.Result.QualErrors, 0u) << "seed " << Seed << "\n" << Src;
  }
}

TEST(FuzzProgramGen, MixedModeIsFrontEndCleanAndPlantsErrors) {
  SessionOptions SO;
  SO.Builtins = fuzz::programQualifiers();
  Session S(SO);
  unsigned WithErrors = 0;
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    fuzz::Rng R(Seed);
    fuzz::ProgramGenOptions Opts;
    Opts.GenMode = fuzz::ProgramGenOptions::Mode::Mixed;
    std::string Src = fuzz::generateProgram(R, Opts);
    Session::CheckOutcome Out = S.check(Src);
    EXPECT_TRUE(Out.FrontEndOk) << "seed " << Seed << "\n" << Src;
    WithErrors += Out.Result.QualErrors > 0;
  }
  // The differential oracle needs diagnostics to compare; most Mixed
  // programs must carry at least one.
  EXPECT_GT(WithErrors, 20u);
}

TEST(FuzzProgramGen, AcceptedSoundProgramsAuditCleanly) {
  // A direct (small-scale) statement of the campaign's soundness oracle.
  SessionOptions SO;
  SO.Builtins = fuzz::programQualifiers();
  SO.Interp.AuditQualifiedStores = true;
  SO.Interp.Fuel = 200000;
  Session S(SO);
  unsigned Audited = 0;
  for (uint64_t Seed = 500; Seed < 520; ++Seed) {
    fuzz::Rng R(Seed);
    std::string Src = fuzz::generateProgram(R);
    Session::RunOutcome Out = S.run(Src);
    ASSERT_EQ(Out.Check.Result.QualErrors, 0u) << Src;
    EXPECT_NE(Out.Run.Status, interp::RunStatus::Trap)
        << "seed " << Seed << ": " << Out.Run.TrapMessage << "\n" << Src;
    EXPECT_TRUE(Out.Run.AuditFailures.empty()) << "seed " << Seed << "\n"
                                               << Src;
    Audited += Out.Run.AuditChecks > 0;
  }
  // The oracle is vacuous unless audits actually execute.
  EXPECT_GT(Audited, 10u);
}

//===----------------------------------------------------------------------===//
// Qualifier-set generator
//===----------------------------------------------------------------------===//

TEST(FuzzQualGen, GeneratedSetsAlwaysLoad) {
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    fuzz::Rng R(Seed);
    fuzz::GeneratedQualSet Set = fuzz::generateQualSet(R);
    ASSERT_FALSE(Set.Quals.empty());
    qual::QualifierSet Parsed;
    DiagnosticEngine Diags;
    EXPECT_TRUE(qual::parseQualifiers(Set.Source, Parsed, Diags))
        << "seed " << Seed << "\n" << Set.Source;
    EXPECT_TRUE(qual::checkWellFormed(Parsed, Diags))
        << "seed " << Seed << "\n" << Set.Source;
  }
}

TEST(FuzzQualGen, DerivableConstSatisfiesConstCase) {
  auto Holds = [](long C, const std::string &Op, long Bound) {
    if (Op == ">")
      return C > Bound;
    if (Op == ">=")
      return C >= Bound;
    if (Op == "<")
      return C < Bound;
    if (Op == "<=")
      return C <= Bound;
    if (Op == "==")
      return C == Bound;
    return C != Bound;
  };
  unsigned ValueQuals = 0;
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    fuzz::Rng R(Seed);
    fuzz::GeneratedQualSet Set = fuzz::generateQualSet(R);
    for (const fuzz::GeneratedQualifier &Q : Set.Quals) {
      long C = 0;
      if (Q.IsRef) {
        EXPECT_FALSE(fuzz::derivableConst(Q, C));
        continue;
      }
      ++ValueQuals;
      ASSERT_TRUE(fuzz::derivableConst(Q, C)) << Q.Name;
      EXPECT_TRUE(Holds(C, Q.ConstOp, Q.Bound))
          << Q.Name << ": " << C << " !" << Q.ConstOp << " " << Q.Bound;
    }
  }
  EXPECT_GT(ValueQuals, 30u);
}

//===----------------------------------------------------------------------===//
// Mutator
//===----------------------------------------------------------------------===//

TEST(FuzzMutator, SoupAndMutationsAreDeterministic) {
  fuzz::Rng A(5), B(5);
  EXPECT_EQ(fuzz::tokenSoup(A, fuzz::Vocab::CMinus, 30),
            fuzz::tokenSoup(B, fuzz::Vocab::CMinus, 30));
  EXPECT_EQ(fuzz::tokenSoup(A, fuzz::Vocab::QualDsl, 30),
            fuzz::tokenSoup(B, fuzz::Vocab::QualDsl, 30));
  std::string In = "int main() { return 0; }\n";
  EXPECT_EQ(fuzz::mutateBytes(In, A), fuzz::mutateBytes(In, B));
}

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

TEST(FuzzShrinker, MinimizesToTheFailingFragment) {
  std::string Input;
  for (int I = 0; I < 50; ++I)
    Input += "filler line " + std::to_string(I) + "\n";
  Input += "the NEEDLE line\n";
  for (int I = 50; I < 100; ++I)
    Input += "more filler " + std::to_string(I) + "\n";

  unsigned Evals = 0;
  auto Fails = [&Evals](const std::string &S) {
    ++Evals;
    return S.find("NEEDLE") != std::string::npos;
  };
  std::string Min = fuzz::shrink(Input, Fails);
  EXPECT_NE(Min.find("NEEDLE"), std::string::npos);
  // Line phase alone gets it to one line; the char phase trims further.
  EXPECT_LE(Min.size(), 10u) << "got: '" << Min << "'";
  EXPECT_LE(Evals, 2000u);
}

TEST(FuzzShrinker, NonFailingInputIsReturnedUnchanged) {
  auto Never = [](const std::string &) { return false; };
  EXPECT_EQ(fuzz::shrink("hello\nworld\n", Never), "hello\nworld\n");
}

//===----------------------------------------------------------------------===//
// Prover sessions
//===----------------------------------------------------------------------===//

TEST(FuzzProverSession, DeterministicPerSeedAndEngine) {
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    prover::ProofResult A =
        fuzz::runProverSession(Seed, prover::EngineKind::Incremental);
    prover::ProofResult B =
        fuzz::runProverSession(Seed, prover::EngineKind::Incremental);
    EXPECT_EQ(A, B) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Whole campaigns
//===----------------------------------------------------------------------===//

TEST(FuzzCampaign, SmallCampaignHoldsAllOracles) {
  fuzz::CampaignOptions Opts;
  Opts.Seed = 3;
  Opts.Runs = 25;
  Opts.Jobs = 2;
  stats::Registry Stats;
  fuzz::CampaignResult R = fuzz::runCampaign(Opts, Stats, nullptr);
  EXPECT_TRUE(R.ok()) << (R.Failures.empty()
                              ? ""
                              : R.Failures.front().Detail + "\n" +
                                    R.Failures.front().Input);
  EXPECT_EQ(R.RunsExecuted, 25u);
  stats::Registry::Snapshot Snap = Stats.snapshot();
  EXPECT_EQ(Snap.Counters.at("fuzz.runs"), 25u);
}

/// One campaign to replay: the weighted mix or one pinned scenario. Its run
/// count is the replay's own, a fraction of the `fuzz.*` ctest campaign's,
/// and its seed is one no ctest campaign uses, so each case also adds
/// oracle coverage.
struct ReplayCase {
  const char *Name;
  const char *Scenario; ///< Empty for the weighted mix.
  unsigned Runs;
};

/// Names each case in ctest (`.../SameSeedReplaysByteIdentically/vm`).
void PrintTo(const ReplayCase &C, std::ostream *OS) { *OS << C.Name; }

class FuzzCampaignReplay : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(FuzzCampaignReplay, SameSeedReplaysByteIdentically) {
  const ReplayCase &C = GetParam();
  auto Run = [&C](std::string &LogOut) {
    fuzz::CampaignOptions Opts;
    Opts.OnlyScenario = C.Scenario;
    Opts.Seed = 3;
    Opts.Runs = C.Runs;
    Opts.Jobs = 4;
    stats::Registry Stats;
    std::ostringstream Log;
    fuzz::CampaignResult R = fuzz::runCampaign(Opts, Stats, &Log);
    EXPECT_TRUE(R.ok()) << Log.str();
    EXPECT_EQ(R.RunsExecuted, C.Runs);
    LogOut = Log.str();
    return Stats.snapshot().Counters;
  };
  std::string LogA, LogB;
  auto CountersA = Run(LogA);
  auto CountersB = Run(LogB);
  EXPECT_EQ(LogA, LogB);
  EXPECT_EQ(CountersA, CountersB);
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, FuzzCampaignReplay,
    ::testing::Values(ReplayCase{"mixed", "", 60},
                      ReplayCase{"edit_replay", "edit-replay", 10},
                      ReplayCase{"inference", "inference", 15},
                      ReplayCase{"vm", "vm", 40},
                      ReplayCase{"frontend", "frontend", 20},
                      ReplayCase{"header_edit", "header-edit", 4}));

TEST(FuzzCampaign, DifferentSeedsDiverge) {
  auto Counters = [](uint64_t Seed) {
    fuzz::CampaignOptions Opts;
    Opts.Seed = Seed;
    Opts.Runs = 40;
    stats::Registry Stats;
    fuzz::runCampaign(Opts, Stats, nullptr);
    return Stats.snapshot().Counters;
  };
  // Scenario mixes differ across seeds (40 runs is plenty to separate).
  EXPECT_NE(Counters(21), Counters(22));
}

} // namespace
