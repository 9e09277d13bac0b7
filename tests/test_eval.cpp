//===- test_eval.cpp - Tests for the paper-table replication harness ------===//
//
// Holds the multi-file §6 corpora (src/workloads corpus generators checked
// through src/eval) equal to the legacy single-TU transcriptions on every
// Table 1/Table 2 column, verdict, and diagnostic — the transcriptions are
// oracles only from here on. Also covers the stq-eval-row-v1 wire format,
// the canonical table/JSON renderings, and the golden diff.
//
//===----------------------------------------------------------------------===//

#include "eval/PaperEval.h"
#include "workloads/AnnotationDriver.h"

#include <gtest/gtest.h>

using namespace stq;
using namespace stq::eval;
using namespace stq::workloads;

namespace {

EvalRow evalCorpus(const CorpusProgram &C, unsigned Jobs = 1) {
  SessionOptions Base;
  Base.Jobs = Jobs;
  ProgramSpec Spec = specFromCorpus(C);
  EvalRow Row = evalProgram(Spec, Base);
  EXPECT_TRUE(Row.CheckOk) << C.Name;
  return Row;
}

/// The diagnostic payload after its source location: split corpora
/// attribute lines to corpus files while the flat transcription uses its
/// own line numbers, so equivalence is over the message text.
std::vector<std::string> messageTails(const std::vector<std::string> &Diags) {
  std::vector<std::string> Tails;
  for (const std::string &D : Diags) {
    size_t At = D.find("]: ");
    Tails.push_back(At == std::string::npos ? D : D.substr(At + 3));
  }
  return Tails;
}

/// Checks the corpus's single-TU transcription (every header and unit
/// concatenated, includes stripped) through the same pipeline for verdict
/// comparison. C.Legacy is the *unannotated* source the fixpoint driver
/// anneals; the annotated flat form is the verdict oracle.
EvalRow evalFlattened(const CorpusProgram &C) {
  ProgramSpec Spec;
  Spec.Name = C.Name + "-flat";
  Spec.Kind = C.Kind;
  Spec.Units = {"flattened.c"};
  Spec.Files["flattened.c"] = C.Prog.Flattened;
  Spec.IncludeDirs = {"."};
  Spec.QualFileText = C.QualFile;
  SessionOptions Base;
  EvalRow Row = evalProgram(Spec, Base);
  EXPECT_TRUE(Row.CheckOk) << Spec.Name;
  return Row;
}

//===----------------------------------------------------------------------===//
// Table 1: the multi-file grep-dfa corpus vs the legacy fixpoint row
//===----------------------------------------------------------------------===//

TEST(EvalCorpus, GrepDfaMatchesLegacyNonnullRow) {
  CorpusProgram C = makeGrepDfaCorpus();
  EvalRow Row = evalCorpus(C);
  // The legacy transcription re-derives its annotations iteratively; the
  // corpus carries them as written. Both must land on the same row.
  Table1Row Legacy = runNonnullExperiment(C.Legacy);
  EXPECT_EQ(Row.Annotations, Legacy.Annotations);
  EXPECT_EQ(Row.Casts, Legacy.Casts);
  EXPECT_EQ(Row.Derefs, Legacy.Dereferences);
  EXPECT_EQ(Row.Errors, Legacy.Errors);
  EXPECT_EQ(Row.Errors, C.ExpectedErrors);
  EXPECT_EQ(Row.ExitCode, 0);
  EXPECT_TRUE(Row.Diagnostics.empty());
}

TEST(EvalCorpus, GrepDfaPublishedColumns) {
  EvalRow Row = evalCorpus(makeGrepDfaCorpus());
  EXPECT_EQ(Row.Files, 5u); // dfa.h + 4 units; no lib/ headers.
  EXPECT_EQ(Row.Annotations, 110u);
  EXPECT_EQ(Row.Casts, 62u);
  EXPECT_EQ(Row.Derefs, 884u);
  EXPECT_EQ(Row.AssignChecks, 110u);
  EXPECT_EQ(Row.RuntimeChecks, 62u);
}

//===----------------------------------------------------------------------===//
// Table 2: the taint corpora vs the legacy untainted experiment
//===----------------------------------------------------------------------===//

TEST(EvalCorpus, TaintCorporaMatchLegacyUntaintedRows) {
  for (const CorpusProgram &C :
       {makeBftpdCorpus(), makeMingettyCorpus(), makeIdentdCorpus()}) {
    EvalRow Row = evalCorpus(C);
    Table2Row Legacy = runUntaintedExperiment(C.Legacy);
    EXPECT_EQ(Row.PrintfCalls, Legacy.PrintfCalls) << C.Name;
    EXPECT_EQ(Row.Annotations, Legacy.Annotations) << C.Name;
    EXPECT_EQ(Row.Casts, Legacy.Casts) << C.Name;
    EXPECT_EQ(Row.Errors, Legacy.Errors) << C.Name;
    EXPECT_EQ(Row.Errors, C.ExpectedErrors) << C.Name;
  }
}

TEST(EvalCorpus, CheckerCountsTheCallsColumn) {
  // check.format_string_checks counts the calls Table 2's "calls" column
  // counts (TABLES.expected): 134 / 23 / 21.
  const std::pair<CorpusProgram, unsigned> Rows[] = {
      {makeBftpdCorpus(), 134}, {makeMingettyCorpus(), 23},
      {makeIdentdCorpus(), 21}};
  for (const auto &[C, Calls] : Rows) {
    ProgramSpec Spec = specFromCorpus(C);
    SessionOptions O;
    O.QualSources = {Spec.QualFileText};
    O.IncludeDirs = Spec.IncludeDirs;
    O.ShippedFiles = &Spec.Files;
    std::vector<frontend::InputFile> Inputs;
    for (const std::string &Unit : Spec.Units)
      Inputs.push_back({Unit, Spec.Files.at(Unit)});
    Session S(O);
    EXPECT_EQ(S.checkFiles(Inputs).Result.Stats.FormatStringChecks, Calls)
        << C.Name;
    EXPECT_EQ(evalCorpus(C).PrintfCalls, Calls) << C.Name;
  }
}

TEST(EvalCorpus, BftpdExploitSurvivesTheSplit) {
  EvalRow Row = evalCorpus(makeBftpdCorpus());
  EXPECT_EQ(Row.Errors, 1u);
  EXPECT_EQ(Row.ExitCode, 1);
  ASSERT_EQ(Row.Diagnostics.size(), 1u);
  // The directory-listing hole: a dirent name reaching a format sink.
  EXPECT_NE(Row.Diagnostics[0].find("list.c:"), std::string::npos);
  EXPECT_NE(Row.Diagnostics[0].find("'untainted'"), std::string::npos);
  EXPECT_NE(Row.Diagnostics[0].find("sendstrf"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Differential: every split corpus is verdict- and diagnostic-equivalent
// to its single-TU transcription
//===----------------------------------------------------------------------===//

TEST(EvalCorpus, SplitEquivalentToSingleTuTranscription) {
  for (CorpusProgram &C : makeAllCorpora()) {
    EvalRow Split = evalCorpus(C);
    EvalRow Flat = evalFlattened(C);
    EXPECT_EQ(Split.Errors, Flat.Errors) << C.Name;
    EXPECT_EQ(Split.Derefs, Flat.Derefs) << C.Name;
    EXPECT_EQ(Split.AssignChecks, Flat.AssignChecks) << C.Name;
    EXPECT_EQ(Split.RuntimeChecks, Flat.RuntimeChecks) << C.Name;
    EXPECT_EQ(Split.ExitCode, Flat.ExitCode) << C.Name;
    EXPECT_EQ(messageTails(Split.Diagnostics), messageTails(Flat.Diagnostics))
        << C.Name;
  }
}

TEST(EvalCorpus, JobsCountDoesNotChangeTheRow) {
  for (CorpusProgram &C : makeAllCorpora()) {
    EvalRow J1 = evalCorpus(C, 1);
    EvalRow J4 = evalCorpus(C, 4);
    EXPECT_EQ(renderRow(J1), renderRow(J4)) << C.Name;
  }
}

TEST(EvalCorpus, EachCorpusChecksInUnderOneSecond) {
  // Section 6: qualifier checking adds under one second of compile time
  // on every experiment. The row times the whole check, front end
  // included, so it bounds the checking share from above.
  for (CorpusProgram &C : makeAllCorpora())
    EXPECT_LT(evalCorpus(C).Seconds, 1.0) << C.Name;
}

//===----------------------------------------------------------------------===//
// Spec construction and lib/ exclusion
//===----------------------------------------------------------------------===//

TEST(EvalSpec, LibHeadersExcludedFromFileAndLineCounts) {
  CorpusProgram C = makeBftpdCorpus();
  ProgramSpec Spec = specFromCorpus(C);
  // The map ships everything (units, project headers, lib/ headers)...
  EXPECT_EQ(Spec.Files.size(), C.Prog.Units.size() + C.Prog.Headers.size());
  EXPECT_TRUE(Spec.Files.count("lib/stdio.h"));
  EXPECT_TRUE(Spec.Files.count("lib/dirent.h"));
  // ...but the table columns exclude the alternate library headers.
  EvalRow Row = evalCorpus(C);
  EXPECT_EQ(Row.Files, 5u); // 4 units + include/bftpd.h.
  unsigned AllLines = 0;
  for (const auto &[Path, Text] : Spec.Files)
    AllLines += countLines(Text);
  EXPECT_LT(Row.Lines, AllLines);
}

TEST(EvalSpec, AnnotationsInSharedHeadersCountOnce) {
  // sendstrf/bftpd_log annotated prototypes appear in include/bftpd.h and
  // as definitions in log.c; each is one annotation, not two.
  EvalRow Row = evalCorpus(makeBftpdCorpus());
  EXPECT_EQ(Row.Annotations, 2u);
}

//===----------------------------------------------------------------------===//
// Wire format and renderings
//===----------------------------------------------------------------------===//

TEST(EvalRowWire, RoundTripsThroughRenderAndParse) {
  EvalRow Row = evalCorpus(makeBftpdCorpus());
  std::string Wire = renderRow(Row);
  EvalRow Back;
  std::string Error;
  ASSERT_TRUE(parseRow(Wire, Back, Error)) << Error;
  EXPECT_EQ(renderRow(Back), Wire);
  EXPECT_EQ(Back.Name, Row.Name);
  EXPECT_EQ(Back.Diagnostics, Row.Diagnostics);
  EXPECT_EQ(Back.ExitCode, Row.ExitCode);
}

TEST(EvalRowWire, RejectsGarbageAndTruncation) {
  EvalRow Out;
  std::string Error;
  EXPECT_FALSE(parseRow("", Out, Error));
  EXPECT_FALSE(parseRow("not-a-row\nend\n", Out, Error));
  EXPECT_FALSE(parseRow("stq-eval-row-v1\nname x\n", Out, Error));
  EXPECT_NE(Error.find("truncated"), std::string::npos);
  EXPECT_FALSE(parseRow("stq-eval-row-v1\nbogus 1\nend\n", Out, Error));
  EXPECT_FALSE(parseRow("stq-eval-row-v1\nerrors many\nend\n", Out, Error));
}

TEST(EvalRender, TablesAreDeterministicAndTimingFree) {
  std::vector<EvalRow> Rows;
  for (CorpusProgram &C : makeAllCorpora())
    Rows.push_back(evalCorpus(C));
  std::string A = renderTables(Rows);
  for (EvalRow &R : Rows)
    R.Seconds += 1000.0; // Timing must never reach the canonical text.
  EXPECT_EQ(renderTables(Rows), A);
  EXPECT_NE(A.find("stq-eval-tables-v1"), std::string::npos);
  EXPECT_NE(A.find("Table 1 (nonnull)"), std::string::npos);
  EXPECT_NE(A.find("Table 2 (untainted)"), std::string::npos);
  EXPECT_NE(A.find("grep-dfa"), std::string::npos);

  std::string J = renderJson(Rows, /*Timings=*/false);
  EXPECT_EQ(J.find("seconds"), std::string::npos);
  EXPECT_NE(renderJson(Rows, /*Timings=*/true).find("seconds"),
            std::string::npos);
}

TEST(EvalRender, DiffGoldenPinpointsTheFirstDrift) {
  EXPECT_EQ(diffGolden("a\nb\n", "a\nb\n"), "");
  std::string D = diffGolden("a\nb\nc\n", "a\nX\nc\n");
  EXPECT_NE(D.find("line 2"), std::string::npos);
  EXPECT_NE(D.find("- b"), std::string::npos);
  EXPECT_NE(D.find("+ X"), std::string::npos);
  // Length mismatches show the trailing extra lines too.
  EXPECT_NE(diffGolden("a\n", "a\nb\n").find("+ b"), std::string::npos);
}

} // namespace
