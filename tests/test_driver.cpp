//===- test_driver.cpp - Tests for the Session facade and option table ----===//
//
// The stq::Session driver API (qualifier loading, check/prove/run/infer,
// metric publication, JSON emission, the jobs-determinism contract) and the
// declarative cli::OptionTable parser.
//
//===----------------------------------------------------------------------===//

#include "driver/OptionTable.h"
#include "driver/Session.h"
#include "qual/Builtins.h"
#include "support/ThreadPool.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace stq;

namespace {

// --------------------------------------------------------------------------
// OptionTable
// --------------------------------------------------------------------------

TEST(OptionTable, SplitCommas) {
  EXPECT_EQ(cli::splitCommas("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(cli::splitCommas("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(cli::splitCommas("").empty());
}

TEST(OptionTable, ParseUnsigned) {
  unsigned N = 99;
  EXPECT_TRUE(cli::parseUnsigned("0", N));
  EXPECT_EQ(N, 0u);
  EXPECT_TRUE(cli::parseUnsigned("42", N));
  EXPECT_EQ(N, 42u);
  EXPECT_FALSE(cli::parseUnsigned("", N));
  EXPECT_FALSE(cli::parseUnsigned("4a", N));
  EXPECT_FALSE(cli::parseUnsigned("abc", N));
  EXPECT_FALSE(cli::parseUnsigned("-1", N));
  EXPECT_FALSE(cli::parseUnsigned("99999999999999999999", N));
}

TEST(OptionTable, FlagAndValueSpellings) {
  bool Verbose = false;
  unsigned Jobs = 0;
  cli::OptionTable T;
  T.flag("--verbose", "-v", "", [&] { Verbose = true; });
  T.value("--jobs", "-j", "N", "", [&](const std::string &V, std::string &E) {
    if (!cli::parseUnsigned(V, Jobs)) {
      E = "bad --jobs value '" + V + "'";
      return false;
    }
    return true;
  });

  std::string Error;
  EXPECT_TRUE(T.parse({"--verbose", "--jobs", "4"}, Error)) << Error;
  EXPECT_TRUE(Verbose);
  EXPECT_EQ(Jobs, 4u);

  Jobs = 0;
  EXPECT_TRUE(T.parse({"--jobs=8"}, Error)) << Error;
  EXPECT_EQ(Jobs, 8u);

  Jobs = 0;
  EXPECT_TRUE(T.parse({"-j", "2"}, Error)) << Error;
  EXPECT_EQ(Jobs, 2u);
}

TEST(OptionTable, UnknownOptionIsHardError) {
  cli::OptionTable T;
  T.flag("--verbose", "", "", [] {});
  std::string Error;
  EXPECT_FALSE(T.parse({"--bogus"}, Error));
  EXPECT_EQ(Error, "unknown option '--bogus'");
  EXPECT_FALSE(T.parse({"--bogus=3"}, Error));
  EXPECT_EQ(Error, "unknown option '--bogus'");
}

TEST(OptionTable, MissingAndRejectedValues) {
  unsigned Jobs = 0;
  cli::OptionTable T;
  T.value("--jobs", "", "N", "", [&](const std::string &V, std::string &E) {
    if (!cli::parseUnsigned(V, Jobs)) {
      E = "bad --jobs value '" + V + "'";
      return false;
    }
    return true;
  });
  std::string Error;
  EXPECT_FALSE(T.parse({"--jobs"}, Error));
  EXPECT_EQ(Error, "missing value for '--jobs'");
  EXPECT_FALSE(T.parse({"--jobs", "abc"}, Error));
  EXPECT_EQ(Error, "bad --jobs value 'abc'");
}

TEST(OptionTable, FlagRejectsInlineValue) {
  cli::OptionTable T;
  T.flag("--verbose", "", "", [] {});
  std::string Error;
  EXPECT_FALSE(T.parse({"--verbose=1"}, Error));
  EXPECT_EQ(Error, "option '--verbose' takes no value");
}

TEST(OptionTable, OptionalValueOnlyBindsInline) {
  std::vector<std::string> Formats;
  std::vector<std::string> Positionals;
  cli::OptionTable T;
  T.optionalValue("--metrics", "FORMAT", "",
                  [&](const std::string &V, std::string &) {
                    Formats.push_back(V);
                    return true;
                  });
  T.positional([&](const std::string &V, std::string &) {
    Positionals.push_back(V);
    return true;
  });
  std::string Error;
  EXPECT_TRUE(T.parse({"--metrics", "json", "--metrics=json"}, Error))
      << Error;
  // The separate word stays positional; only "=" binds a value.
  EXPECT_EQ(Formats, (std::vector<std::string>{"", "json"}));
  EXPECT_EQ(Positionals, (std::vector<std::string>{"json"}));
}

TEST(OptionTable, RepeatedScalarOptionIsLastWins) {
  // Handlers re-apply in order: a scalar option keeps the last value, and
  // a list option accumulates (both are how stqc's options behave).
  std::string Entry;
  std::vector<std::string> Files;
  cli::OptionTable T;
  T.value("--entry", "", "NAME", "", [&](const std::string &V, std::string &) {
    Entry = V;
    return true;
  });
  T.value("--qualfile", "", "F", "", [&](const std::string &V, std::string &) {
    Files.push_back(V);
    return true;
  });
  std::string Error;
  EXPECT_TRUE(T.parse({"--entry", "a", "--qualfile", "f1", "--entry=b",
                       "--qualfile=f2"},
                      Error))
      << Error;
  EXPECT_EQ(Entry, "b");
  EXPECT_EQ(Files, (std::vector<std::string>{"f1", "f2"}));
}

TEST(OptionTable, DoubleDashEndsOptionProcessing) {
  bool Verbose = false;
  std::vector<std::string> Positionals;
  cli::OptionTable T;
  T.flag("--verbose", "", "", [&] { Verbose = true; });
  T.positional([&](const std::string &V, std::string &) {
    Positionals.push_back(V);
    return true;
  });
  std::string Error;
  // Everything after "--" is positional, even flag-shaped arguments; the
  // separator itself is not routed anywhere.
  EXPECT_TRUE(T.parse({"--verbose", "--", "--verbose", "-x", "--"}, Error))
      << Error;
  EXPECT_TRUE(Verbose);
  EXPECT_EQ(Positionals, (std::vector<std::string>{"--verbose", "-x", "--"}));

  // Without the separator the same arguments are hard errors.
  EXPECT_FALSE(T.parse({"-x"}, Error));
  EXPECT_EQ(Error, "unknown option '-x'");
}

TEST(OptionTable, DoubleDashWithoutPositionalHandlerIsError) {
  cli::OptionTable T;
  T.flag("--verbose", "", "", [] {});
  std::string Error;
  EXPECT_FALSE(T.parse({"--", "file.c"}, Error));
  EXPECT_EQ(Error, "unexpected argument 'file.c'");
}

TEST(OptionTable, EmptyStringValues) {
  // "--name=" binds an explicit empty value; a bare "" argument routes to
  // the positional handler (argv can legally contain empty strings).
  std::string Entry = "unset";
  std::vector<std::string> Positionals;
  cli::OptionTable T;
  T.value("--entry", "", "NAME", "", [&](const std::string &V, std::string &) {
    Entry = V;
    return true;
  });
  T.positional([&](const std::string &V, std::string &) {
    Positionals.push_back(V);
    return true;
  });
  std::string Error;
  EXPECT_TRUE(T.parse({"--entry=", ""}, Error)) << Error;
  EXPECT_EQ(Entry, "");
  EXPECT_EQ(Positionals, (std::vector<std::string>{""}));

  // The separate-word spelling also accepts an empty value.
  Entry = "unset";
  EXPECT_TRUE(T.parse({"--entry", ""}, Error)) << Error;
  EXPECT_EQ(Entry, "");
}

TEST(OptionTable, PositionalWithoutHandlerIsError) {
  cli::OptionTable T;
  std::string Error;
  EXPECT_FALSE(T.parse({"stray"}, Error));
  EXPECT_EQ(Error, "unexpected argument 'stray'");
}

// --------------------------------------------------------------------------
// Session
// --------------------------------------------------------------------------

const char *Fig2Program =
    "int pos gcd(int pos n, int pos m) {\n"
    "  if (m == n) return n;\n"
    "  if (m > n) return gcd(n, (int pos)(m - n));\n"
    "  return gcd(m, (int pos)(n - m));\n"
    "}\n"
    "int pos lcm(int pos a, int pos b) {\n"
    "  int pos d = gcd(a, b);\n"
    "  int pos prod = a * b;\n"
    "  return (int pos) (prod / d);\n"
    "}\n"
    "int main() { return lcm(21, 6); }\n";

TEST(Session, LoadsRequestedBuiltins) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_EQ(S.qualifiers().all().size(), 2u);
  EXPECT_EQ(S.metrics().counter("qual.loaded").get(), 2u);
}

TEST(Session, ImplicitAllBuiltinsByDefault) {
  Session S;
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_EQ(S.qualifiers().all().size(),
            qual::builtinQualifierNames().size());
}

TEST(Session, UnknownBuiltinFailsWithDiagnostic) {
  SessionOptions Options;
  Options.Builtins = {"nope"};
  Session S(Options);
  EXPECT_FALSE(S.loadQualifiers());
  ASSERT_FALSE(S.diags().diagnostics().empty());
  EXPECT_NE(S.diags().diagnostics()[0].Message.find(
                "unknown builtin qualifier 'nope'"),
            std::string::npos);
  // check() on a failed load reports no front end success.
  EXPECT_FALSE(S.check("int main() { return 0; }").FrontEndOk);
}

TEST(Session, MissingQualFileFails) {
  SessionOptions Options;
  Options.QualFiles = {"/nonexistent/stq-no-such-file.q"};
  Session S(Options);
  EXPECT_FALSE(S.loadQualifiers());
  ASSERT_FALSE(S.diags().diagnostics().empty());
  EXPECT_NE(S.diags().diagnostics()[0].Message.find("cannot open"),
            std::string::npos);
}

TEST(Session, QualFileLoads) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  std::string Path = Tmp.path("session_test_qualfile.q");
  {
    std::ofstream OS(Path);
    OS << "value qualifier nonneg(int Expr E)\n"
          "  case E of\n"
          "    decl int Const C:\n"
          "      C, where C >= 0\n"
          "  invariant value(E) >= 0\n";
  }
  SessionOptions Options;
  Options.QualFiles = {Path};
  Session S(Options);
  EXPECT_TRUE(S.loadQualifiers()) << [&] {
    std::ostringstream OS;
    S.diags().print(OS);
    return OS.str();
  }();
  EXPECT_EQ(S.qualifiers().all().size(), 1u);
}

TEST(Session, LoadIsIdempotent) {
  SessionOptions Options;
  Options.Builtins = {"nonnull"};
  Session S(Options);
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_TRUE(S.loadQualifiers());
  EXPECT_EQ(S.qualifiers().all().size(), 1u);
}

TEST(Session, BuiltinsWithDanglingReferencesAreRejected) {
  // pos's subtyping check references neg, so loading it alone must fail
  // well-formedness (and the failure is remembered, not retried).
  SessionOptions Options;
  Options.Builtins = {"pos"};
  Session S(Options);
  EXPECT_FALSE(S.loadQualifiers());
  EXPECT_FALSE(S.loadQualifiers());
  EXPECT_TRUE(S.diags().hasErrors());
}

TEST(Session, CheckPublishesMetrics) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  Session::CheckOutcome Out = S.check(Fig2Program);
  ASSERT_TRUE(Out.FrontEndOk);
  EXPECT_EQ(Out.Result.QualErrors, 0u);
  EXPECT_EQ(Out.RuntimeChecks.size(), 3u);

  stats::Registry &M = S.metrics();
  EXPECT_GE(M.counter("check.units").get(), 3u);
  EXPECT_EQ(M.counter("check.qual_errors").get(), 0u);
  EXPECT_EQ(M.counter("check.runtime_checks").get(), 3u);
  EXPECT_EQ(M.counter("check.casts_to_value_qualified").get(), 3u);
  EXPECT_EQ(M.histogram("phase.parse_seconds").data().Count, 1u);
  EXPECT_EQ(M.histogram("phase.qualcheck_seconds").data().Count, 1u);
}

TEST(Session, CheckReportsQualifierErrors) {
  SessionOptions Options;
  Options.Builtins = {"nonnull"};
  Session S(Options);
  Session::CheckOutcome Out =
      S.check("int f(int* p) { return *p; }\n");
  ASSERT_TRUE(Out.FrontEndOk);
  EXPECT_EQ(Out.Result.QualErrors, 1u);
  EXPECT_EQ(S.metrics().counter("check.qual_errors").get(), 1u);
}

TEST(Session, RunExecutesWithChecks) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  Session::RunOutcome Out = S.run(Fig2Program);
  ASSERT_TRUE(Out.Check.FrontEndOk);
  ASSERT_TRUE(Out.Run.ok());
  EXPECT_EQ(*Out.Run.ExitValue, 42);
  EXPECT_GT(S.metrics().counter("interp.steps").get(), 0u);
  EXPECT_GT(S.metrics().counter("interp.checks_executed").get(), 0u);
  EXPECT_EQ(S.metrics().histogram("phase.execute_seconds").data().Count, 1u);
}

TEST(Session, RunWithFrontEndErrorsIsSetupError) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  Session::RunOutcome Out = S.run("int f( {\n");
  EXPECT_FALSE(Out.Check.FrontEndOk);
  EXPECT_EQ(Out.Run.Status, interp::RunStatus::SetupError);
  EXPECT_EQ(Out.Run.TrapMessage, "front-end errors");
}

TEST(Session, ProveQualifierFromInlineSource) {
  SessionOptions Options;
  Options.QualSources = {
      "value qualifier nonneg(int Expr E)\n"
      "  case E of\n"
      "    decl int Const C:\n"
      "      C, where C >= 0\n"
      "  | decl int Expr E1, E2:\n"
      "      E1 + E2, where nonneg(E1) && nonneg(E2)\n"
      "  invariant value(E) >= 0\n"};
  Session S(Options);
  soundness::SoundnessReport Report = S.proveQualifier("nonneg");
  EXPECT_TRUE(Report.sound());
  EXPECT_GT(S.metrics().counter("prove.obligations").get(), 0u);
  EXPECT_EQ(S.metrics().counter("prove.obligations").get(),
            S.metrics().counter("prove.obligations_proved").get());
  EXPECT_GT(S.metrics().histogram("prove.obligation_seconds").data().Count,
            0u);
}

TEST(Session, WarmProverCacheReplaysFromCache) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Options.WarmProverCache = true;
  Session S(Options);
  auto Reports = S.prove();
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_TRUE(Reports[0].sound());
  EXPECT_TRUE(Reports[1].sound());
  // Warm pass misses everything; the reported pass hits everything.
  EXPECT_DOUBLE_EQ(S.metrics().gauge("prover.cache.hit_rate").get(), 0.5);
  EXPECT_GT(S.metrics().counter("prove.obligations_from_cache").get(), 0u);
}

TEST(Session, CacheFileWarmRerunSkipsAllProving) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  const std::string Path = Tmp.path("test_session_cache.stqcache");
  SessionOptions Options;
  Options.Builtins = {"pos", "neg", "nonzero"};
  Options.CacheFile = Path;

  // Cold run: everything proved fresh, cache persisted on exit.
  {
    Session S(Options);
    auto Reports = S.prove();
    ASSERT_EQ(Reports.size(), 3u);
    for (const auto &R : Reports)
      EXPECT_TRUE(R.sound());
    EXPECT_EQ(S.metrics().counter("prover.cache.persist_hits").get(), 0u);
    EXPECT_EQ(S.metrics().counter("prove.obligations_from_cache").get(), 0u);
  }
  // Warm rerun in a fresh process-equivalent Session: every obligation
  // discharges from the loaded file with zero prover calls.
  {
    Session S(Options);
    auto Reports = S.prove();
    ASSERT_EQ(Reports.size(), 3u);
    for (const auto &R : Reports)
      EXPECT_TRUE(R.sound());
    uint64_t Obligations = S.metrics().counter("prove.obligations").get();
    EXPECT_GT(Obligations, 0u);
    EXPECT_EQ(S.metrics().counter("prove.obligations_from_cache").get(),
              Obligations);
    EXPECT_EQ(S.metrics().counter("prover.cache.persist_hits").get(),
              Obligations);
    EXPECT_GT(S.metrics().counter("prover.cache.persist_loaded").get(), 0u);
    EXPECT_EQ(S.metrics().counter("prover.cache.misses").get(), 0u);
    EXPECT_FALSE(S.diags().hasErrors());
    EXPECT_EQ(S.diags().warningCount(), 0u);
  }
}

TEST(Session, CorruptCacheFileIsIgnoredWithWarning) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  const std::string Path = Tmp.path("test_session_cache_corrupt.stqcache");
  {
    std::ofstream Out(Path);
    Out << "stq-prover-cache-v0\ngarbage\n";
  }
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Options.CacheFile = Path;
  Session S(Options);
  auto Reports = S.prove();
  ASSERT_EQ(Reports.size(), 2u);
  // The stale file contributed nothing; proving proceeded from scratch.
  EXPECT_TRUE(Reports[0].sound());
  EXPECT_EQ(S.metrics().counter("prover.cache.persist_loaded").get(), 0u);
  EXPECT_EQ(S.metrics().counter("prove.obligations_from_cache").get(), 0u);
  EXPECT_EQ(S.diags().warningCount(), 1u);
  // prove() then overwrote it with a valid snapshot for the next run.
  {
    Session Rerun(Options);
    auto Again = Rerun.prove();
    ASSERT_EQ(Again.size(), 2u);
    EXPECT_EQ(Rerun.metrics().counter("prove.obligations_from_cache").get(),
              Rerun.metrics().counter("prove.obligations").get());
    EXPECT_EQ(Rerun.diags().warningCount(), 0u);
  }
}

TEST(Session, InferPublishesMetrics) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg", "nonneg", "nonzero"};
  Session S(Options);
  Session::InferenceReport Out = S.infer("int f() {\n"
                                         "  int step = 3;\n"
                                         "  int twice = step * 2;\n"
                                         "  return twice;\n"
                                         "}\n");
  ASSERT_TRUE(Out.FrontEndOk);
  EXPECT_GT(Out.Report.totalInferred(), 0u);
  EXPECT_EQ(S.metrics().counter("infer.annotations").get(),
            Out.Report.totalInferred());
  EXPECT_EQ(S.metrics().counter("infer.suggestions").get(),
            Out.Report.Stats.Suggested);
}

TEST(Session, EmitMetricsJsonIsWellFormed) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  S.check(Fig2Program);
  std::ostringstream OS;
  S.emitMetrics(OS, metrics::Format::Json);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("\"schema\": \"stq-metrics-v1\""), std::string::npos);
  EXPECT_NE(Out.find("\"check.units\""), std::string::npos);
  EXPECT_NE(Out.find("\"diag.errors\": 0"), std::string::npos);
  EXPECT_NE(Out.find("\"phase.parse_seconds\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Multi-TU check and recheck
// --------------------------------------------------------------------------

/// Everything a multi-input check shows a user: the rendered diagnostics
/// and the verdict counters.
std::string renderFiles(const Session &S, const Session::FilesOutcome &O) {
  std::string Out;
  for (const Diagnostic &D : S.diags().diagnostics())
    Out += D.str() + "\n";
  Out += "loaded " + std::to_string(O.loaded()) + ", errors " +
         std::to_string(O.Result.QualErrors) + ", derefs " +
         std::to_string(O.Result.Stats.DerefSites) + ", assigns " +
         std::to_string(O.Result.Stats.AssignChecks) + ", runtime checks " +
         std::to_string(O.Result.RuntimeCheckCount) + "\n";
  return Out;
}

std::string coldCheckFiles(const std::vector<frontend::InputFile> &In) {
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Session S(Options);
  return renderFiles(S, S.checkFiles(In));
}

/// Unit \p I of a chain of TUs: f<I> multiplies the previous unit's root
/// into its own; unit 3 plants one underivable initialization. \p Scale
/// varies one constant, for edits.
frontend::InputFile chainUnit(unsigned I, unsigned Scale = 2) {
  std::string Fn = "f" + std::to_string(I);
  std::string Text;
  if (I > 0)
    Text += "int pos f" + std::to_string(I - 1) + "(int pos a);\n";
  Text += "int pos " + Fn + "(int pos a) {\n  int pos r = a * " +
          std::to_string(Scale) + ";\n";
  if (I == 3)
    Text += "  int pos bad = 0 - r;\n";
  if (I > 0)
    Text += "  r = r * f" + std::to_string(I - 1) + "(a);\n";
  Text += "  return r;\n}\n";
  return {"u" + std::to_string(I) + ".c", Text};
}

TEST(Session, RecheckFilesAcrossABrokenLinkMatchesColdCheck) {
  // A clean load, an edit that breaks the link, and the fix, rechecked
  // through one engine. While the broken load's clean TUs are checked
  // (and their verdicts stored), only a cold check's bytes may come out.
  std::vector<frontend::InputFile> Clean = {chainUnit(0), chainUnit(1),
                                            chainUnit(2), chainUnit(3)};
  std::vector<frontend::InputFile> Broken = Clean;
  Broken[2].Text.replace(Broken[2].Text.find("int pos f1(int pos a);"),
                         22, "int pos f1(int neg a);");

  checker::incremental::Engine Engine;
  unsigned Version = 0;
  for (const auto *In : {&Clean, &Broken, &Clean}) {
    SessionOptions Options;
    Options.Builtins = {"pos", "neg"};
    Options.SharedIncremental = &Engine;
    Session S(Options);
    Session::FilesOutcome Out = S.recheckFiles(*In);
    std::string Warm = renderFiles(S, Out);
    EXPECT_EQ(Warm, coldCheckFiles(*In)) << "version " << Version;
    const bool IsBroken = In == &Broken;
    EXPECT_EQ(Out.LinkOk, !IsBroken) << "version " << Version;
    EXPECT_EQ(Warm.find("[qualcheck]") == std::string::npos, IsBroken)
        << Warm;
    if (IsBroken) {
      EXPECT_EQ(S.diags().countInPhase("link"), 1u);
      EXPECT_EQ(Out.Result.QualErrors, 0u);
    } else {
      EXPECT_EQ(Out.Result.QualErrors, 1u);
    }
    ++Version;
  }
}

TEST(Session, RecheckFilesManyUnitsShareOneEngineAtJobs4) {
  // Ten TU tasks at jobs 4 probe and fill one engine concurrently, round
  // after round, on a per-call pool and on a shared one; every round is
  // byte-identical to a cold jobs-1 check of the same text.
  constexpr unsigned Units = 10;
  checker::incremental::Engine Engine;
  ThreadPool Shared(3);
  for (unsigned Round = 0; Round < 6; ++Round) {
    std::vector<frontend::InputFile> In;
    for (unsigned I = 0; I < Units; ++I)
      In.push_back(chainUnit(I, I == Round % Units ? 5 : 2));
    SessionOptions Options;
    Options.Builtins = {"pos", "neg"};
    Options.Jobs = 4;
    Options.SharedIncremental = &Engine;
    Options.SharedPool = Round % 2 ? &Shared : nullptr;
    Session S(Options);
    Session::FilesOutcome Out = S.recheckFiles(In);
    ASSERT_TRUE(Out.loaded()) << "round " << Round;
    EXPECT_EQ(renderFiles(S, Out), coldCheckFiles(In)) << "round " << Round;
    EXPECT_EQ(Out.Incremental.Units, Out.Pipeline.Units);
    if (Round > 0) {
      EXPECT_GT(Out.Incremental.Hits, 0u) << "round " << Round;
    }
  }
}

TEST(Session, CheckFilesFreesEveryUnitInItsTask) {
  std::vector<frontend::InputFile> In;
  for (unsigned I = 0; I < 6; ++I)
    In.push_back(chainUnit(I));
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Options.Jobs = 2;
  Session S(Options);
  Session::FilesOutcome Out = S.checkFiles(In);
  ASSERT_TRUE(Out.loaded());
  EXPECT_EQ(Out.Units, 6u);
  stats::Registry &M = S.metrics();
  // One sample per TU for every stage of its task, one per call for the
  // fan-out and the serial tail.
  for (const char *Stage :
       {"phase.pp_seconds", "phase.lex_seconds", "phase.parse_seconds",
        "phase.sema_seconds", "phase.lower_seconds",
        "phase.qualcheck_seconds", "phase.free_seconds"})
    EXPECT_EQ(M.histogram(Stage).data().Count, 6u) << Stage;
  for (const char *Tail :
       {"phase.fanout_seconds", "phase.link_seconds", "phase.merge_seconds"})
    EXPECT_EQ(M.histogram(Tail).data().Count, 1u) << Tail;
  EXPECT_EQ(M.counter("frontend.units").get(), 6u);
  EXPECT_EQ(M.counter("pool.executed").get(), 6u);
  EXPECT_EQ(M.counter("pool.jobs").get(), 2u);
  EXPECT_GE(M.counter("frontend.live_units_peak").get(), 1u);
  EXPECT_LE(M.counter("frontend.live_units_peak").get(), 2u);
}

TEST(Session, CheckFilesSpreadsALoneUnitOverTheJobs) {
  // A one-TU multi-input check runs its task inline, so the task itself
  // fans the unit's functions out: pool.* reports that fan-out, one task
  // per work item, not the single TU.
  std::vector<frontend::InputFile> In = {chainUnit(0)};
  for (unsigned I : {1u, 2u}) {
    std::string Unit = chainUnit(I).Text;
    In[0].Text += Unit.substr(Unit.find("int pos f" + std::to_string(I)));
  }
  SessionOptions Options;
  Options.Builtins = {"pos", "neg"};
  Options.Jobs = 4;
  Session S(Options);
  Session::FilesOutcome Out = S.checkFiles(In);
  ASSERT_TRUE(Out.loaded()) << renderFiles(S, Out);
  EXPECT_EQ(Out.Pipeline.Units, 4u); // globals + f0, f1, f2
  EXPECT_EQ(Out.Pipeline.Jobs, 4u);
  EXPECT_EQ(Out.Pipeline.Executed, Out.Pipeline.Units);
  EXPECT_EQ(renderFiles(S, Out), coldCheckFiles(In));
}

// The determinism contract: for a fixed input, every counter outside
// schedulingDependentCounterPrefixes() is identical for any --jobs value.
TEST(Session, CounterTotalsAreJobCountInvariant) {
  std::string Source = "int* nonnull keep(int* nonnull p) { return p; }\n";
  for (int I = 0; I < 6; ++I) {
    Source += "int f" + std::to_string(I) +
              "(int* p, int* nonnull q) {\n"
              "  int a = *q;\n"
              "  int b = *p;\n" // unproven dereference: one error each
              "  return a + b;\n"
              "}\n";
  }

  auto counters = [&](unsigned Jobs) {
    SessionOptions Options;
    Options.Builtins = {"nonnull"};
    Options.Jobs = Jobs;
    Session S(Options);
    Session::CheckOutcome Out = S.check(Source);
    EXPECT_TRUE(Out.FrontEndOk);
    auto Snap = S.metrics().snapshot();
    for (const std::string &P : metrics::schedulingDependentCounterPrefixes())
      for (auto It = Snap.Counters.begin(); It != Snap.Counters.end();)
        It = It->first.rfind(P, 0) == 0 ? Snap.Counters.erase(It)
                                        : std::next(It);
    return Snap.Counters;
  };

  auto Sequential = counters(1);
  auto Parallel = counters(4);
  EXPECT_EQ(Sequential, Parallel);
  EXPECT_EQ(Sequential.at("check.qual_errors"), 6u);
}

} // namespace
