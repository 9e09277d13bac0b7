//===- Workloads.h - Synthetic analogues of the paper's programs -*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generators for C-minus programs that stand in for the
/// paper's evaluation subjects (section 6):
///
///  * grep 2.5's dfa.c/dfa.h (2287 lines, 1072 dereferences) for the
///    nonnull experiment (Table 1) and the unique experiment (section 6.2,
///    49 validated references to the dfa global);
///  * bftpd 1.0.11 (750 lines, 134 printf calls, one real format-string
///    bug), mingetty 0.9.4 (293 lines, 23 calls), and identd 1.0
///    (228 lines, 21 calls) for the untainted experiment (Table 2).
///
/// The generators reproduce the structural statistics that determine the
/// checker's output counts; see DESIGN.md's substitution table.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_WORKLOADS_WORKLOADS_H
#define STQ_WORKLOADS_WORKLOADS_H

#include <string>
#include <vector>

namespace stq::workloads {

struct GeneratedWorkload {
  std::string Name;
  std::string Source;
  /// Non-blank source lines (the paper's "lines" rows).
  unsigned Lines = 0;
  /// Call sites in the printf family (taint workloads).
  unsigned PrintfCalls = 0;
  /// Format-string bugs deliberately present.
  unsigned PlantedBugs = 0;
  /// Reference sites to the unique global (unique workloads).
  unsigned UniqueRefSites = 0;
};

/// The dfa.c/dfa.h analogue for Table 1. \p Scale multiplies the function
/// counts (Scale=1 approximates the paper's statistics).
///
/// Since the §6 corpora landed under tests/corpus/c/, the single-TU
/// transcriptions returned here are *oracles only*: the annotation
/// fixpoint over them (AnnotationDriver) re-derives the Table 1/Table 2
/// counts that the checked-in multi-file corpora carry as written, and
/// tests/test_eval.cpp holds the two equal. The corpora are the product's
/// §6 artifact; these stay as the differential baseline.
GeneratedWorkload makeGrepDfa(unsigned Scale = 1);

/// Section 6.2: the unique dfa global, initialized through a cast, with 49
/// subsequent references that all preserve uniqueness.
GeneratedWorkload makeGrepDfaUnique();

/// The idiom the paper reports as a true uniqueness violation: globals
/// passed as procedure arguments.
GeneratedWorkload makeGrepDfaUniqueViolating();

/// Table 2's three programs.
GeneratedWorkload makeBftpd();
GeneratedWorkload makeMingetty();
GeneratedWorkload makeIdentd();

/// An unannotated many-function arithmetic program for whole-program
/// inference: \p Functions function bodies full of locals with
/// inferable value qualifiers (pos/neg/nonzero-class), chained by calls so
/// parameter constraints cross function (and solve-unit) boundaries.
GeneratedWorkload makeInferenceFarm(unsigned Functions = 120);

/// A generated multi-translation-unit program for the real-C front end:
/// shared headers (macros, struct, cross-TU prototypes) plus N `.c`
/// units, each defining a chain of qualifier-heavy functions whose root
/// calls the previous unit's root through the header prototype.
struct MultiTuProgram {
  struct File {
    std::string Name;
    std::string Text;
  };
  /// The shared headers (resolved by name through -I or a shipped map).
  std::vector<File> Headers;
  /// The translation units, in check order; the last one holds main().
  std::vector<File> Units;
  /// The semantically equivalent single translation unit: every header's
  /// text once, then every unit's text with its #include lines removed.
  /// Checking it must produce the same verdict counters as checking the
  /// split units and merging — the fuzz campaign's frontend oracle.
  std::string Flattened;
  /// Non-blank source lines across headers and units.
  unsigned Lines = 0;
  /// Qualifier warnings deliberately planted (via Seed).
  unsigned PlantedWarnings = 0;
};

/// Size/fan-out knobs for the synthetic farm. Unit and main texts can be
/// generated one at a time (makeFarmUnit/makeFarmMain), so a ~1M-LOC
/// program never needs to exist twice in memory: the benchmark emits each
/// TU straight into its checkFiles input vector instead of materializing
/// a MultiTuProgram (whose Flattened copy alone would double the
/// footprint).
struct FarmSpec {
  unsigned Units = 1;
  unsigned FnsPerUnit = 8;
  unsigned Seed = 1;
  /// How many earlier roots each unit's root multiplies together (1 =
  /// the legacy single-call chain). Higher fan-out densifies the cross-TU
  /// call graph the link step and prototypes must carry.
  unsigned CallFanOut = 1;
};

/// The shared farm header ("farm.h"): macros plus one root prototype per
/// unit.
std::string makeFarmHeader(const FarmSpec &Spec);

/// The \p U-th translation unit (U in [0, Spec.Units)), named "u<U>.c".
MultiTuProgram::File makeFarmUnit(const FarmSpec &Spec, unsigned U);

/// The driver unit ("main.c") calling the last root.
MultiTuProgram::File makeFarmMain(const FarmSpec &Spec);

/// True when unit \p U carries the seed-planted qualifier warning.
bool farmUnitPlanted(const FarmSpec &Spec, unsigned U);

/// Builds a farm of \p Units translation units with \p FnsPerUnit function
/// definitions each (plus a main TU). \p Seed varies the constants and,
/// when Seed % 3 == 0, plants one un-derivable qualifier initialization in
/// unit Seed % Units so differential runs see diagnostics too. Scales to
/// ~1M LOC (Units * FnsPerUnit * ~7 lines).
/// Assembled from makeFarmHeader/makeFarmUnit/makeFarmMain; callers that
/// only stream TUs through checkFiles should use those directly.
MultiTuProgram makeMultiTuFarm(unsigned Units, unsigned FnsPerUnit = 8,
                               unsigned Seed = 1);

/// One §6 corpus program: the faithful header+TU layout of a paper
/// evaluation subject in its *post-fixpoint annotated form* — the
/// annotations and sanctioned qualifier casts the paper's authors ended
/// §6.1 with are written in the source — plus the unannotated single-TU
/// transcription it is differentially checked against. The checked-in
/// tree under tests/corpus/c/<Name>/ is byte-identical to this value
/// (tests/test_eval.cpp and `stq-eval --verify-sync` enforce it).
struct CorpusProgram {
  std::string Name; ///< "grep-dfa", "bftpd", "mingetty", "identd".
  std::string Kind; ///< "table1" (nonnull) or "table2" (untainted).
  /// Headers (under include/ and lib/), units, and the flattened
  /// single-TU equivalent. Headers under lib/ stand in for the paper's
  /// alternate library headers: their annotations are not counted in the
  /// tables, exactly as the paper excludes them.
  MultiTuProgram Prog;
  /// The qualifier-DSL source for the corpus qualfile (quals.stq);
  /// equivalent to loading the builtins in Quals.
  std::string QualFile;
  std::vector<std::string> Quals;
  /// The legacy single-TU transcription (unannotated): the oracle whose
  /// annotation fixpoint must reproduce this corpus's as-written counts.
  GeneratedWorkload Legacy;
  /// Residual qualifier errors expected from a clean check (real bugs:
  /// bftpd ships one format-string hole).
  unsigned ExpectedErrors = 0;
};

CorpusProgram makeGrepDfaCorpus();
CorpusProgram makeBftpdCorpus();
CorpusProgram makeMingettyCorpus();
CorpusProgram makeIdentdCorpus();

/// All four §6 corpora, in the paper's table order.
std::vector<CorpusProgram> makeAllCorpora();

/// Counts non-blank lines (the measure used by the paper's tables).
unsigned countLines(const std::string &Source);

} // namespace stq::workloads

#endif // STQ_WORKLOADS_WORKLOADS_H
