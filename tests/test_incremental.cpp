//===- test_incremental.cpp - The incremental re-check layer --------------===//
//
// The function-granular incremental engine (checker/Incremental.h) through
// the Session facade: hit/miss accounting per edit kind, transitive-caller
// invalidation on signature changes, environment-hash invalidation on
// qualifier-set changes, LRU eviction under a tiny capacity, byte-identity
// of warm verdicts with a cold full check, and the prover-cache-file
// interaction across a simulated process restart.
//
//===----------------------------------------------------------------------===//

#include "checker/Incremental.h"
#include "driver/Session.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

using namespace stq;
using checker::incremental::Engine;

namespace {

// A three-deep call chain plus main: f0 <- f1 <- f2 <- main. Globals are
// work item 0, so the unit has five work items. The f1 constant edit below
// keeps every other function's source positions unchanged.
const char *ChainV0 = "int g = 1;\n"
                      "int f0(int a) { return a + 1; }\n"
                      "int f1(int a) { return f0(a) + 2; }\n"
                      "int f2(int a) { return f1(a) + 3; }\n"
                      "int main() { return f2(g); }\n";

// Body-only edit: f1's constant changes in place (same column widths).
const char *ChainBodyEdit = "int g = 1;\n"
                            "int f0(int a) { return a + 1; }\n"
                            "int f1(int a) { return f0(a) + 9; }\n"
                            "int f2(int a) { return f1(a) + 3; }\n"
                            "int main() { return f2(g); }\n";

// Signature edit: f0 gains a qualifier on its parameter. Only f0's line
// changes textually, but the signature hash feeds every transitive caller.
const char *ChainSigEdit = "int g = 1;\n"
                           "int f0(int pos a) { return a + 1; }\n"
                           "int f1(int a) { return f0(a) + 2; }\n"
                           "int f2(int a) { return f1(a) + 3; }\n"
                           "int main() { return f2(g); }\n";

SessionOptions withEngine(Engine *E, std::vector<std::string> Builtins = {}) {
  SessionOptions Opts;
  Opts.Builtins = std::move(Builtins);
  Opts.SharedIncremental = E;
  Opts.IncrementalUnit = "test-unit";
  return Opts;
}

/// Runs one warm recheck in a fresh Session (the server's per-request
/// shape) and returns the outcome plus the rendered diagnostics.
Session::CheckOutcome recheckOnce(Engine &E, const std::string &Source,
                                  std::string *DiagText = nullptr,
                                  std::vector<std::string> Builtins = {},
                                  unsigned Jobs = 1) {
  SessionOptions Opts = withEngine(&E, std::move(Builtins));
  Opts.Jobs = Jobs;
  Session S(Opts);
  Session::CheckOutcome Out = S.recheck(Source);
  if (DiagText) {
    std::ostringstream OS;
    S.diags().print(OS);
    *DiagText = OS.str();
  }
  return Out;
}

/// The cold reference: a one-shot full check in a fresh Session.
Session::CheckOutcome checkOnce(const std::string &Source,
                                std::string *DiagText = nullptr,
                                std::vector<std::string> Builtins = {}) {
  SessionOptions Opts;
  Opts.Builtins = std::move(Builtins);
  Session S(Opts);
  Session::CheckOutcome Out = S.check(Source);
  if (DiagText) {
    std::ostringstream OS;
    S.diags().print(OS);
    *DiagText = OS.str();
  }
  return Out;
}

// --------------------------------------------------------------------------
// Hit/miss accounting per edit kind
// --------------------------------------------------------------------------

TEST(Incremental, ColdRunMissesThenIdenticalRunFullyHits) {
  Engine E;
  Session::CheckOutcome Cold = recheckOnce(E, ChainV0);
  ASSERT_TRUE(Cold.FrontEndOk);
  EXPECT_EQ(Cold.Incremental.Units, 5u);
  EXPECT_EQ(Cold.Incremental.Hits, 0u);
  EXPECT_EQ(Cold.Incremental.Rechecked, 5u);

  Session::CheckOutcome Warm = recheckOnce(E, ChainV0);
  EXPECT_EQ(Warm.Incremental.Hits, 5u);
  EXPECT_EQ(Warm.Incremental.Rechecked, 0u);
  EXPECT_EQ(Warm.Incremental.SignatureDirtied, 0u);
  EXPECT_EQ(Warm.Result.QualErrors, Cold.Result.QualErrors);
}

TEST(Incremental, BodyOnlyEditRechecksExactlyThatFunction) {
  Engine E;
  recheckOnce(E, ChainV0);
  Session::CheckOutcome Out = recheckOnce(E, ChainBodyEdit);
  ASSERT_TRUE(Out.FrontEndOk);
  // Only f1's content hash moved; globals, f0, f2, and main replay.
  EXPECT_EQ(Out.Incremental.Hits, 4u);
  EXPECT_EQ(Out.Incremental.Rechecked, 1u);
  EXPECT_EQ(Out.Incremental.SignatureDirtied, 0u);
}

TEST(Incremental, SignatureChangeDirtiesTransitiveCallers) {
  Engine E;
  recheckOnce(E, ChainV0);
  Session::CheckOutcome Out = recheckOnce(E, ChainSigEdit);
  ASSERT_TRUE(Out.FrontEndOk);
  // f0 misses on content; f1, f2, and main are its transitive callers and
  // are force-dirtied even where their own hashes still match (f2, main).
  EXPECT_EQ(Out.Incremental.SignatureDirtied, 3u);
  EXPECT_EQ(Out.Incremental.Rechecked, 4u);
  EXPECT_EQ(Out.Incremental.Hits, 1u); // The globals item alone replays.
}

TEST(Incremental, QualifierSetChangeDirtiesEveryWorkItem) {
  Engine E;
  // "pos" and "neg" reference each other, so both stay in each set.
  std::vector<std::string> Wide = {"pos", "neg", "nonzero"};
  std::vector<std::string> Narrow = {"pos", "neg"};
  Session::CheckOutcome Cold = recheckOnce(E, ChainV0, nullptr, Wide);
  EXPECT_EQ(Cold.Incremental.Rechecked, 5u);

  // Same source, smaller qualifier environment: the env hash feeds every
  // key, so nothing replays — but no signature changed.
  Session::CheckOutcome Switched = recheckOnce(E, ChainV0, nullptr, Narrow);
  EXPECT_EQ(Switched.Incremental.Hits, 0u);
  EXPECT_EQ(Switched.Incremental.Rechecked, 5u);
  EXPECT_EQ(Switched.Incremental.SignatureDirtied, 0u);

  // Both environments' verdicts now coexist in the store: switching back
  // is a full hit, not a re-check.
  Session::CheckOutcome Back = recheckOnce(E, ChainV0, nullptr, Wide);
  EXPECT_EQ(Back.Incremental.Hits, 5u);
  EXPECT_EQ(Back.Incremental.Rechecked, 0u);
}

// --------------------------------------------------------------------------
// Byte-identity with the cold checker
// --------------------------------------------------------------------------

TEST(Incremental, WarmVerdictsAndDiagnosticsMatchColdCheckByteForByte) {
  // A program with a real qualifier warning, so the diagnostic path (not
  // just the counters) is compared.
  const std::string Source = "int pos bad = 0 - 5;\n"
                             "int f0(int a) { int pos p = 1; return a; }\n"
                             "int main() { return f0(3); }\n";
  std::string ColdDiags;
  Session::CheckOutcome Cold = checkOnce(Source, &ColdDiags);
  ASSERT_TRUE(Cold.FrontEndOk);
  EXPECT_GT(Cold.Result.QualErrors, 0u);

  Engine E;
  for (int Round = 0; Round < 3; ++Round) {
    std::string WarmDiags;
    Session::CheckOutcome Warm =
        recheckOnce(E, Source, &WarmDiags, {}, Round == 2 ? 4u : 1u);
    ASSERT_TRUE(Warm.FrontEndOk);
    EXPECT_EQ(Warm.Result.QualErrors, Cold.Result.QualErrors);
    EXPECT_EQ(Warm.Result.Stats.AssignChecks, Cold.Result.Stats.AssignChecks);
    EXPECT_EQ(Warm.Result.RuntimeCheckCount, Cold.RuntimeChecks.size());
    EXPECT_EQ(WarmDiags, ColdDiags) << "round " << Round;
  }
}

// --------------------------------------------------------------------------
// LRU eviction
// --------------------------------------------------------------------------

TEST(Incremental, EvictionAtCapacityBumpsCountersAndNeverChangesVerdicts) {
  std::string ColdDiags;
  Session::CheckOutcome Cold = checkOnce(ChainV0, &ColdDiags);

  // Capacity 3 < 5 work items: every pass over the unit evicts its own
  // oldest entries, so later passes keep missing — verdicts must not care.
  Engine Small(3);
  uint64_t LastEvictions = 0;
  for (int Round = 0; Round < 3; ++Round) {
    std::string WarmDiags;
    Session::CheckOutcome Out = recheckOnce(Small, ChainV0, &WarmDiags);
    ASSERT_TRUE(Out.FrontEndOk);
    EXPECT_EQ(Out.Result.QualErrors, Cold.Result.QualErrors);
    EXPECT_EQ(WarmDiags, ColdDiags) << "round " << Round;
    EXPECT_GT(Out.Incremental.Rechecked, 0u) << "round " << Round;
    EXPECT_LE(Small.entries(), 3u);
    EXPECT_GT(Small.evictions(), LastEvictions) << "round " << Round;
    LastEvictions = Small.evictions();
  }
}

TEST(Incremental, ZeroCapacityEngineCachesNothingButStaysCorrect) {
  std::string ColdDiags;
  checkOnce(ChainV0, &ColdDiags);

  Engine None(0);
  for (int Round = 0; Round < 2; ++Round) {
    std::string WarmDiags;
    Session::CheckOutcome Out = recheckOnce(None, ChainV0, &WarmDiags);
    EXPECT_EQ(Out.Incremental.Hits, 0u);
    EXPECT_EQ(Out.Incremental.Rechecked, 5u);
    EXPECT_EQ(WarmDiags, ColdDiags);
  }
  EXPECT_EQ(None.entries(), 0u);
}

// --------------------------------------------------------------------------
// Edits through one engine never resurrect stale verdicts
// --------------------------------------------------------------------------

TEST(Incremental, EditedFunctionGetsFreshVerdictNotTheCachedOne) {
  // V1's f0 carries a warning; V2 fixes it in place. The store holds V1's
  // verdict when V2 arrives — the content hash must keep them apart.
  const std::string V1 = "int f0(int a) { int pos p = 0 - 1; return a; }\n"
                         "int main() { return f0(2); }\n";
  const std::string V2 = "int f0(int a) { int pos p = 1; return a; }\n"
                         "int main() { return f0(2); }\n";
  Engine E;
  Session::CheckOutcome First = recheckOnce(E, V1);
  EXPECT_EQ(First.Result.QualErrors, 1u);
  // Only f0 changed: the globals item and main (same line, unchanged
  // callee signature) replay, and f0 gets a fresh clean verdict.
  Session::CheckOutcome Fixed = recheckOnce(E, V2);
  EXPECT_EQ(Fixed.Result.QualErrors, 0u);
  EXPECT_EQ(Fixed.Incremental.Hits, 2u);
  EXPECT_EQ(Fixed.Incremental.Rechecked, 1u);
  // And the stale direction too: back to V1 replays the *old* warning
  // (still stored) rather than the fixed verdict.
  Session::CheckOutcome Again = recheckOnce(E, V1);
  EXPECT_EQ(Again.Result.QualErrors, 1u);
  EXPECT_EQ(Again.Incremental.Hits, 3u);
  EXPECT_EQ(Again.Incremental.Rechecked, 0u);
}

// --------------------------------------------------------------------------
// Prover cache file + incremental store across a simulated restart
// --------------------------------------------------------------------------

TEST(Incremental, CacheFileSurvivesRestartButVerdictStoreDoesNot) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  const std::string CacheFile = Tmp.path("prover.cache");

  const std::string V1 = "int f0(int a) { int pos p = 0 - 1; return a; }\n"
                         "int main() { return f0(2); }\n";
  const std::string V2 = "int f0(int a) { int pos p = 1; return a; }\n"
                         "int main() { return f0(2); }\n";

  // "Process one": prove (populating the cache file) and warm the store.
  {
    Engine E1;
    SessionOptions Opts = withEngine(&E1, {"pos", "neg"});
    Opts.CacheFile = CacheFile;
    Session S(Opts);
    EXPECT_FALSE(S.prove().empty());
    Session::CheckOutcome Out = S.recheck(V1);
    ASSERT_TRUE(Out.FrontEndOk);
    EXPECT_EQ(Out.Result.QualErrors, 1u);
  }
  ASSERT_TRUE(std::filesystem::exists(CacheFile));

  // "Process two": the prover cache file is back, the verdict store is
  // not — an edited function must get a fresh verdict, and even the
  // unedited source must re-check rather than resurrect anything.
  Engine E2;
  {
    SessionOptions Opts = withEngine(&E2, {"pos", "neg"});
    Opts.CacheFile = CacheFile;
    Session S(Opts);
    EXPECT_FALSE(S.prove().empty());
    Session::CheckOutcome Stale = S.recheck(V1);
    EXPECT_EQ(Stale.Incremental.Hits, 0u);
    EXPECT_EQ(Stale.Result.QualErrors, 1u);
  }
  {
    SessionOptions Opts = withEngine(&E2, {"pos", "neg"});
    Opts.CacheFile = CacheFile;
    Session S(Opts);
    Session::CheckOutcome Fixed = S.recheck(V2);
    EXPECT_EQ(Fixed.Result.QualErrors, 0u);
    std::string WarmDiags;
    std::ostringstream OS;
    S.diags().print(OS);
    std::string ColdDiags;
    checkOnce(V2, &ColdDiags, {"pos", "neg"});
    EXPECT_EQ(OS.str(), ColdDiags);
  }
}

} // namespace
