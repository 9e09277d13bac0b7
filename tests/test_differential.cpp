//===- test_differential.cpp - Sequential vs parallel differential tests --===//
//
// The parallel pipeline's contract is behavioral equivalence: for any job
// count, `stqc check --jobs N` must produce the same diagnostics as the
// sequential checker, and a prover answer replayed from the memoized cache
// must match a fresh re-proof of the same obligation. This harness checks
// both over randomized workloads with fixed seeds, using the fuzz library's
// generators (src/fuzz) — the same ones the stq-fuzz campaign drives.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Parallel.h"
#include "cminus/Parser.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/ProverSessionGen.h"
#include "prover/ProverCache.h"
#include "qual/Builtins.h"
#include "soundness/Soundness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace stq;

namespace {

/// One Mixed-mode program from the fuzz generator: front-end-clean, with
/// a deliberate blend of derivable and underivable qualified terms so the
/// checker produces both accepted declarations and diagnostics.
std::string mixedProgram(uint64_t Seed) {
  fuzz::Rng R(Seed);
  fuzz::ProgramGenOptions Opts;
  Opts.GenMode = fuzz::ProgramGenOptions::Mode::Mixed;
  return fuzz::generateProgram(R, Opts);
}

/// Renders a diagnostic as "line:col:severity:message" for comparison.
std::string render(const Diagnostic &D) {
  return std::to_string(D.Loc.Line) + ":" + std::to_string(D.Loc.Col) + ":" +
         std::to_string(static_cast<int>(D.Severity)) + ":" + D.Phase + ":" +
         D.Message;
}

std::vector<std::string> renderAll(const DiagnosticEngine &Diags) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : Diags.diagnostics())
    Out.push_back(render(D));
  return Out;
}

struct CheckOutcome {
  std::vector<std::string> Diags;
  unsigned QualErrors = 0;
  size_t RuntimeChecks = 0;
  size_t Failures = 0;
};

/// Checks \p Source with the sequential reference (checker::checkSource:
/// one QualChecker::run()) when \p Jobs is 0, else with the work-item loop
/// (checkProgramParallel) over \p Jobs workers.
CheckOutcome runCheck(const std::string &Source, unsigned Jobs) {
  CheckOutcome Out;
  DiagnosticEngine Diags;
  qual::QualifierSet Quals;
  EXPECT_TRUE(
      qual::loadBuiltinQualifiers(fuzz::programQualifiers(), Quals, Diags));
  std::unique_ptr<cminus::Program> Prog;
  checker::CheckResult Result;
  if (Jobs == 0)
    Result = checker::checkSource(Source, Quals, Diags, Prog);
  else if (cminus::runFrontEnd(Source, Quals.names(), Quals.refNames(), Diags,
                               Prog))
    Result = checker::checkProgramParallel(*Prog, Quals, Diags, {}, Jobs);
  EXPECT_FALSE(Diags.hasErrors()) << "generator produced invalid source:\n"
                                  << Source;
  Out.Diags = renderAll(Diags);
  Out.QualErrors = Result.QualErrors;
  Out.RuntimeChecks = Result.RuntimeChecks.size();
  Out.Failures = Result.Failures.size();
  return Out;
}

//===----------------------------------------------------------------------===//
// Checker differential: the work-item loop vs the sequential reference
//===----------------------------------------------------------------------===//

TEST(DifferentialChecker, RandomProgramsParallelMatchesSequential) {
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    std::string Source = mixedProgram(Seed);
    CheckOutcome Seq = runCheck(Source, 0);
    for (unsigned Jobs : {1u, 4u}) {
      CheckOutcome Par = runCheck(Source, Jobs);

      // The contract is byte-identical output in the same order, which is
      // strictly stronger than the sorted comparison; check the exact
      // sequence first so ordering bugs are not masked.
      EXPECT_EQ(Seq.Diags, Par.Diags)
          << "seed " << Seed << " jobs " << Jobs << "\n" << Source;

      // And the location-sorted comparison the harness specifies, so a
      // future relaxation of the ordering contract still gets content
      // equality checked.
      std::vector<std::string> SeqSorted = Seq.Diags, ParSorted = Par.Diags;
      std::sort(SeqSorted.begin(), SeqSorted.end());
      std::sort(ParSorted.begin(), ParSorted.end());
      EXPECT_EQ(SeqSorted, ParSorted) << "seed " << Seed << " jobs " << Jobs;

      EXPECT_EQ(Seq.QualErrors, Par.QualErrors) << "seed " << Seed;
      EXPECT_EQ(Seq.RuntimeChecks, Par.RuntimeChecks) << "seed " << Seed;
      EXPECT_EQ(Seq.Failures, Par.Failures) << "seed " << Seed;
    }
  }
}

TEST(DifferentialChecker, JobSweepIsInvariant) {
  // One program, every job count: all outputs identical to the
  // sequential reference.
  std::string Source = mixedProgram(12345);
  CheckOutcome Base = runCheck(Source, 0);
  EXPECT_GT(Base.QualErrors, 0u)
      << "generator should plant qualifier errors; got none:\n" << Source;
  for (unsigned Jobs : {1u, 2u, 3u, 4u, 8u, 16u}) {
    CheckOutcome Out = runCheck(Source, Jobs);
    EXPECT_EQ(Base.Diags, Out.Diags) << "jobs " << Jobs;
    EXPECT_EQ(Base.QualErrors, Out.QualErrors) << "jobs " << Jobs;
  }
}

TEST(DifferentialChecker, ParallelEntryMatchesCheckSource) {
  // The parallel front end (parse/sema/lower) must match checkSource's.
  std::string Source = mixedProgram(777);

  DiagnosticEngine DiagsA;
  qual::QualifierSet QualsA;
  ASSERT_TRUE(
      qual::loadBuiltinQualifiers(fuzz::programQualifiers(), QualsA, DiagsA));
  std::unique_ptr<cminus::Program> ProgA;
  checker::CheckResult A =
      checker::checkSource(Source, QualsA, DiagsA, ProgA);

  CheckOutcome B = runCheck(Source, 4);
  EXPECT_EQ(renderAll(DiagsA), B.Diags);
  EXPECT_EQ(A.QualErrors, B.QualErrors);
}

//===----------------------------------------------------------------------===//
// Prover cache differential: replayed answers vs fresh re-proofs
//===----------------------------------------------------------------------===//

/// Every builtin qualifier with a soundness invariant, checked with and
/// without the cache; verdicts must agree obligation-by-obligation.
void expectReportsMatch(const soundness::SoundnessReport &Fresh,
                        const soundness::SoundnessReport &Cached) {
  ASSERT_EQ(Fresh.Obligations.size(), Cached.Obligations.size())
      << Fresh.Qual;
  for (size_t I = 0; I < Fresh.Obligations.size(); ++I) {
    const soundness::Obligation &F = Fresh.Obligations[I];
    const soundness::Obligation &C = Cached.Obligations[I];
    EXPECT_EQ(F.Qual, C.Qual);
    EXPECT_EQ(F.Kind, C.Kind) << F.Qual << " #" << I;
    EXPECT_EQ(F.Description, C.Description) << F.Qual << " #" << I;
    EXPECT_EQ(F.Result, C.Result) << F.Qual << ": " << F.Description;
  }
}

TEST(DifferentialProver, CachedAnswersMatchFreshReproofs) {
  DiagnosticEngine Diags;
  qual::QualifierSet Quals;
  ASSERT_TRUE(qual::loadBuiltinQualifiers(
      {"pos", "neg", "nonzero", "nonnull", "tainted", "untainted"}, Quals,
      Diags));

  // Fresh run, no cache: the ground truth.
  soundness::SoundnessChecker Fresh(Quals);
  std::vector<soundness::SoundnessReport> FreshReports = Fresh.checkAll();

  // Cold run populates the cache, warm run replays every answer.
  prover::ProverCache Cache;
  soundness::SoundnessChecker Cold(Quals, {}, nullptr, &Cache);
  std::vector<soundness::SoundnessReport> ColdReports = Cold.checkAll();
  soundness::SoundnessChecker Warm(Quals, {}, nullptr, &Cache);
  std::vector<soundness::SoundnessReport> WarmReports = Warm.checkAll(4);

  ASSERT_EQ(FreshReports.size(), ColdReports.size());
  ASSERT_EQ(FreshReports.size(), WarmReports.size());
  unsigned Replayed = 0;
  for (size_t I = 0; I < FreshReports.size(); ++I) {
    expectReportsMatch(FreshReports[I], ColdReports[I]);
    expectReportsMatch(FreshReports[I], WarmReports[I]);
    for (const soundness::Obligation &O : WarmReports[I].Obligations) {
      EXPECT_TRUE(O.FromCache) << O.Qual << ": " << O.Description;
      Replayed += O.FromCache;
    }
  }
  EXPECT_GT(Replayed, 0u);

  prover::CacheStats CS = Cache.stats();
  EXPECT_EQ(CS.Hits, Replayed);
  EXPECT_EQ(CS.Misses, CS.Insertions);
  EXPECT_GT(CS.hitRate(), 0.0);
}

TEST(DifferentialProver, CacheIsJobCountInvariant) {
  DiagnosticEngine Diags;
  qual::QualifierSet Quals;
  ASSERT_TRUE(
      qual::loadBuiltinQualifiers({"pos", "neg", "nonzero"}, Quals, Diags));

  // Populate sequentially; replay in parallel — and vice versa.
  for (unsigned PrimeJobs : {1u, 4u}) {
    prover::ProverCache Cache;
    soundness::SoundnessChecker Prime(Quals, {}, nullptr, &Cache);
    std::vector<soundness::SoundnessReport> A = Prime.checkAll(PrimeJobs);
    soundness::SoundnessChecker Replay(Quals, {}, nullptr, &Cache);
    std::vector<soundness::SoundnessReport> B =
        Replay.checkAll(PrimeJobs == 1 ? 4 : 1);
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I < A.size(); ++I)
      expectReportsMatch(A[I], B[I]);
    EXPECT_EQ(Cache.stats().Hits, Cache.stats().Misses);
  }
}

//===----------------------------------------------------------------------===//
// Engine differential: incremental trail-based core vs reference recursion
//===----------------------------------------------------------------------===//

TEST(DifferentialProver, EnginesAgreeOnRandomizedSessions) {
  // fuzz::runProverSession builds the session deterministically from the
  // seed, so both engines see byte-identical axioms, hypotheses, and goal.
  unsigned Proved = 0, Unknown = 0;
  for (unsigned Seed = 0; Seed < 100; ++Seed) {
    prover::ProofResult Inc =
        fuzz::runProverSession(Seed, prover::EngineKind::Incremental);
    prover::ProofResult Ref =
        fuzz::runProverSession(Seed, prover::EngineKind::Reference);
    EXPECT_EQ(Inc, Ref) << "engines diverged on seed " << Seed;
    Proved += Inc == prover::ProofResult::Proved;
    Unknown += Inc == prover::ProofResult::Unknown;
  }
  // The generator must exercise both verdicts or the comparison is vacuous.
  EXPECT_GT(Proved, 0u);
  EXPECT_GT(Unknown, 0u);
}

TEST(DifferentialProver, EnginesAgreeOnBuiltinObligations) {
  DiagnosticEngine Diags;
  qual::QualifierSet Quals;
  ASSERT_TRUE(qual::loadAllBuiltinQualifiers(Quals, Diags));

  prover::ProverOptions Inc;
  Inc.Engine = prover::EngineKind::Incremental;
  prover::ProverOptions Ref;
  Ref.Engine = prover::EngineKind::Reference;

  soundness::SoundnessChecker IncSC(Quals, Inc);
  std::vector<soundness::SoundnessReport> IncReports = IncSC.checkAll();
  soundness::SoundnessChecker RefSC(Quals, Ref);
  std::vector<soundness::SoundnessReport> RefReports = RefSC.checkAll();

  ASSERT_EQ(IncReports.size(), RefReports.size());
  for (size_t I = 0; I < IncReports.size(); ++I)
    expectReportsMatch(RefReports[I], IncReports[I]);
}

} // namespace
