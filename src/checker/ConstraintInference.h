//===- ConstraintInference.h - Whole-program inference ----------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constraint-based whole-program qualifier inference, the scaled-up
/// successor of the sequential greatest-fixpoint engine in Inference.h
/// (retained as the differential reference). CQUAL-style in structure
/// (Foster et al., PLDI 1999; reimplemented for two-point lattices in
/// src/cqual): per-unit constraint generation fans out on the ThreadPool,
/// a qualifier-variable graph is solved by round-based worklist
/// propagation, and the resulting annotation set is *minimized* by
/// prover-discharged implication: when suggested qualifier P provably
/// implies qualifier Q — Q's invariant follows from P's, and Q carries a
/// derivation clause `E1, where P(E1)`-style so the checker re-derives Q
/// at every use site — Q is demoted from the suggestion to its provenance
/// trail. Implication queries run on the incremental prover engine and
/// memoize through the shared ProverCache.
///
/// Suggestions are keyed and ordered by (unit, function, variable name,
/// source location), never by AST pointer, so reports are byte-stable
/// across runs and `--jobs` values.
///
/// Soundness of minimization: the full inferred set is the greatest
/// fixpoint, so every assignment into an annotated variable re-checks; a
/// demoted qualifier removes assignment obligations while each use site
/// still derives it through the implying qualifier's clause. Applying the
/// minimal suggested set therefore re-checks clean.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_CONSTRAINTINFERENCE_H
#define STQ_CHECKER_CONSTRAINTINFERENCE_H

#include "checker/Checker.h"
#include "checker/ConstraintGraph.h"
#include "prover/Prover.h"
#include "prover/ProverCache.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace stq::checker {

enum class InferenceEngine {
  Fixpoint,    ///< The sequential reference engine (Inference.h).
  Constraints, ///< The sharded constraint-graph engine (this file).
};

enum class InferenceScope {
  Program,    ///< Infer for globals, parameters, and locals.
  LocalsOnly, ///< Skip globals (API surface deserves explicit annotations).
};

/// Stable lowercase names, used by the CLI/RPC option surface and the
/// stq-inference-v1 schema.
const char *engineName(InferenceEngine E);
const char *scopeName(InferenceScope S);
bool parseEngineName(const std::string &Name, InferenceEngine &Out);
bool parseScopeName(const std::string &Name, InferenceScope &Out);

struct ConstraintInferenceOptions {
  InferenceScope Scope = InferenceScope::Program;
  /// Worker count for constraint generation and the graph solve.
  unsigned Jobs = 1;
  /// Shared long-lived pool (the stqd daemon's); null spawns per-solve.
  ThreadPool *Pool = nullptr;
  /// Prover-discharged suggestion minimization (on by default; the full
  /// inferred set is always retained in the report's provenance).
  bool ProverRefinement = true;
  prover::ProverOptions Prover;
  /// Shared prover cache for implication queries; may be null.
  prover::ProverCache *Cache = nullptr;
  /// Keep at most this many suggestion entries in the report (0 =
  /// unlimited). A truncated report is for human consumption only;
  /// apply-mode always applies the complete minimal set, because a
  /// partial application is not guaranteed to re-check clean.
  unsigned MaxSuggestions = 0;
  /// Base checker options for constraint evaluation.
  CheckerOptions Checker;
};

/// One qualifier attached to a suggestion, with its provenance.
struct SuggestedQual {
  std::string Qual;
  /// "solver" for minimal-set members, "implied:<P>" for qualifiers
  /// demoted by a prover-discharged implication from suggested P, and
  /// "fixpoint" for the reference engine's report.
  std::string Provenance;
  bool Implied = false;
};

/// All newly inferred qualifiers for one variable, keyed deterministically.
struct InferenceSuggestion {
  /// Generation unit: 0 for globals, 1+i for function i.
  unsigned Unit = 0;
  /// Enclosing function name; empty for globals.
  std::string Function;
  std::string Var;
  /// "global", "parameter", or "local".
  std::string Kind;
  SourceLoc Loc;
  /// Sorted by qualifier name; minimal-set members plus demoted ones.
  std::vector<SuggestedQual> Quals;
  /// The declaration, for applyReport; not part of the ordering key.
  const cminus::VarDecl *Decl = nullptr;
};

struct InferenceStats {
  /// Wall-clock seconds inside the parallel graph solve alone (excludes
  /// generation and suggestion minimization).
  double SolveSeconds = 0;
  unsigned Units = 0;       ///< Constraint-generation units.
  unsigned Atoms = 0;       ///< Seeded candidate atoms.
  unsigned Constraints = 0; ///< Flow constraints.
  unsigned SolveRounds = 0; ///< Worklist rounds (fixpoint: iterations).
  uint64_t Evaluations = 0; ///< (constraint, qualifier) evaluations.
  unsigned Dropped = 0;     ///< Atoms refuted by the solve.
  unsigned Variables = 0;   ///< Variables with at least one inferred qual.
  unsigned Suggested = 0;   ///< Minimal-set (variable, qualifier) pairs.
  unsigned Implied = 0;     ///< Pairs demoted by prover refinement.
  unsigned ProverQueries = 0;   ///< Implication goals discharged.
  unsigned ProverCacheHits = 0; ///< Of which answered by the shared cache.
  unsigned Truncated = 0;   ///< Suggestion entries dropped by the budget.
};

/// The first-class inference result: deterministic suggestions plus solver
/// statistics, shared by both engines.
struct InferenceReport {
  InferenceEngine Engine = InferenceEngine::Constraints;
  std::vector<InferenceSuggestion> Suggestions;
  InferenceStats Stats;

  /// Minimal-set (variable, qualifier) pairs in the report.
  unsigned totalSuggested() const;
  /// All inferred pairs (minimal plus demoted) — the full greatest
  /// fixpoint, which the fixpoint-containment oracle compares against.
  unsigned totalInferred() const;
};

/// Runs the sharded constraint engine over \p Prog (Sema-checked and
/// lowered). Does not mutate the program.
InferenceReport inferWithConstraints(cminus::Program &Prog,
                                     const qual::QualifierSet &Quals,
                                     const ConstraintInferenceOptions &Options);

/// Runs the sequential reference engine (Inference.h) and adapts its
/// outcome into the same deterministic report shape (no minimization;
/// every qualifier's provenance is "fixpoint").
InferenceReport fixpointReport(cminus::Program &Prog,
                               const qual::QualifierSet &Quals,
                               const ConstraintInferenceOptions &Options);

/// Applies every suggestion's minimal set to the declared types, with
/// types from \p Prog's context. Expression types are stale until the
/// caller re-runs Sema (or re-parses the printed source).
void applyReport(cminus::Program &Prog, const InferenceReport &Report);

/// Strips every inferable qualifier (value qualifiers with invariants)
/// from all declared variable types — the fuzz oracle's annotation-removal
/// step. Returns the number of (variable, qualifier) pairs removed. As
/// with applyReport, expression types are stale until Sema re-runs.
unsigned stripInferableQualifiers(cminus::Program &Prog,
                                  const qual::QualifierSet &Quals);

/// A Top-annotated value reaching a Bottom-annotated position.
struct TaintFinding {
  SourceLoc Loc;
  std::string Description;
};

/// Two-point-lattice taint propagation over the engine's own flow edges
/// (assignments, initializers, call arguments, returns): sources are
/// \p Top-annotated declarations, sinks are \p Bottom-annotated ones.
/// The differential tests hold its clean/not-clean verdict to
/// cqual::runInference on the taint examples.
std::vector<TaintFinding> checkTaintFlows(const cminus::Program &Prog,
                                          const std::string &Top = "tainted",
                                          const std::string &Bottom =
                                              "untainted");

} // namespace stq::checker

#endif // STQ_CHECKER_CONSTRAINTINFERENCE_H
