//===- Checker.h - The extensible qualifier typechecker ---------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extensible typechecker of section 3. Given a lowered C-minus program
/// and a set of qualifier definitions, it:
///
///  * validates every explicit and implicit assignment (declarations,
///    assignments, call arguments, returns) against the value-qualifier
///    subtype relation, using user-defined `case` clauses to derive
///    qualified types for expressions;
///  * enforces `restrict` clauses on every matching program fragment;
///  * enforces `assign` and `disallow` rules for reference qualifiers,
///    stripping reference qualifiers from r-types;
///  * records the run-time checks needed for casts to value-qualified types
///    (section 2.1.3); casts involving reference qualifiers stay unchecked.
///
/// Qualifier errors are reported as warnings (phase "qualcheck"), matching
/// the paper's CIL implementation where compilation continues.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_CHECKER_H
#define STQ_CHECKER_CHECKER_H

#include "cminus/AST.h"
#include "qual/QualAST.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace stq::checker {

struct CheckerOptions {
  /// Expressions (by Expr::Id) assumed to carry the given qualifiers, as
  /// if a cast had been inserted. Used by the annotation driver to model
  /// the paper's manually inserted casts without AST surgery.
  const std::map<unsigned, std::vector<std::string>> *AssumedCasts = nullptr;
  /// Tentative qualifier sets per variable, consulted for bare-variable
  /// reads. Used by the inference engine's greatest-fixpoint iteration
  /// (section 8 future work).
  const std::map<const cminus::VarDecl *, std::set<std::string>>
      *AssumedVarQuals = nullptr;
  /// The paper's section 8 future work, implemented as an opt-in
  /// extension: a branch condition that dynamically verifies a value
  /// qualifier's invariant (e.g. `p != NULL` for nonnull, `x > 0` for
  /// pos) narrows the qualifier onto the tested variable inside the
  /// guarded branch. Narrowing is suppressed for variables assigned
  /// anywhere in the branch (conservative kill).
  bool FlowSensitiveNarrowing = false;
};

/// One structured qualifier failure, for tools (the annotation driver)
/// that need more than a diagnostic string.
struct QualFailure {
  enum class Kind { Restrict, Assign, RefAssign, Disallow };

  Kind K = Kind::Assign;
  std::string Qual;
  SourceLoc Loc;
  /// The expression that could not be given the qualifier (the restrict
  /// clause's bound operand, or the assignment's RHS). May be null.
  const cminus::Expr *Offending = nullptr;
  /// The assignment target variable, when the target is a bare variable or
  /// a declaration. Null otherwise.
  const cminus::VarDecl *TargetVar = nullptr;
};

/// A run-time check required for one cast to a value-qualified type.
struct RuntimeCastCheck {
  const cminus::CastExpr *Cast = nullptr;
  /// Value qualifiers whose invariants must be tested dynamically.
  std::vector<std::string> Quals;
};

/// Counters describing one checking run; these feed the paper's experiment
/// tables directly.
struct CheckerStats {
  /// Dereference sites visited (every Mem l-value); Table 1's
  /// "dereferences" row when nonnull's restrict clause is loaded.
  unsigned DerefSites = 0;
  /// restrict-clause checks performed and failed.
  unsigned RestrictChecks = 0;
  unsigned RestrictFailures = 0;
  /// Explicit+implicit assignment checks against qualified targets.
  unsigned AssignChecks = 0;
  unsigned AssignFailures = 0;
  /// assign-block validations for reference-qualified targets.
  unsigned RefAssignChecks = 0;
  unsigned RefAssignFailures = 0;
  /// disallow-rule violations.
  unsigned DisallowFailures = 0;
  /// Casts whose target carries value qualifiers / reference qualifiers.
  unsigned CastsToValueQualified = 0;
  unsigned CastsToRefQualified = 0;
  /// Run-time checks that were elided because the qualifier was statically
  /// derivable from the cast operand.
  unsigned ElidedCastChecks = 0;
  /// hasQualifier queries answered (including memo hits).
  unsigned HasQualQueries = 0;
  unsigned MemoHits = 0;
  /// Calls to printf-family functions (isUntaintedFormatFn): Table 2's
  /// "calls" column.
  unsigned FormatStringChecks = 0;

  /// Adds every counter of \p O: the one merge behind sharded checking,
  /// cached-verdict replay, and multi-TU totals, so a split run sums the
  /// way a single sequential run counts.
  CheckerStats &operator+=(const CheckerStats &O) {
    DerefSites += O.DerefSites;
    RestrictChecks += O.RestrictChecks;
    RestrictFailures += O.RestrictFailures;
    AssignChecks += O.AssignChecks;
    AssignFailures += O.AssignFailures;
    RefAssignChecks += O.RefAssignChecks;
    RefAssignFailures += O.RefAssignFailures;
    DisallowFailures += O.DisallowFailures;
    CastsToValueQualified += O.CastsToValueQualified;
    CastsToRefQualified += O.CastsToRefQualified;
    ElidedCastChecks += O.ElidedCastChecks;
    HasQualQueries += O.HasQualQueries;
    MemoHits += O.MemoHits;
    FormatStringChecks += O.FormatStringChecks;
    return *this;
  }
};

/// A verdict reduced to counts: what outlives the program it was computed
/// on (the record lists of CheckResult hold AST pointers).
struct CheckCounts {
  unsigned QualErrors = 0;
  CheckerStats Stats;
  uint64_t RuntimeCheckCount = 0;
  uint64_t FailureCount = 0;

  bool ok() const { return QualErrors == 0; }
  CheckCounts &operator+=(const CheckCounts &O) {
    QualErrors += O.QualErrors;
    Stats += O.Stats;
    RuntimeCheckCount += O.RuntimeCheckCount;
    FailureCount += O.FailureCount;
    return *this;
  }
};

/// Result of running the extensible typechecker.
struct CheckResult {
  /// Number of qualifier errors (reported as warnings in Diags).
  unsigned QualErrors = 0;
  CheckerStats Stats;
  std::vector<RuntimeCastCheck> RuntimeChecks;
  std::vector<QualFailure> Failures;

  bool ok() const { return QualErrors == 0; }
  CheckCounts counts() const {
    return {QualErrors, Stats, RuntimeChecks.size(), Failures.size()};
  }
};

/// The extensible typechecker. One instance per (program, qualifier set)
/// pair; `run` may be called once.
class QualChecker {
public:
  QualChecker(cminus::Program &Prog, const qual::QualifierSet &Quals,
              DiagnosticEngine &Diags, CheckerOptions Options = {});

  /// Performs qualifier checking over the whole program.
  CheckResult run();

  /// Shard entry points for the parallel pipeline (Parallel.h). A unit is
  /// either the global initializers or one function definition; run() is
  /// runGlobals() followed by runFunction() on every definition. The
  /// checker never mutates the program, so distinct instances may check
  /// distinct units of one program concurrently.
  CheckResult runGlobals();
  CheckResult runFunction(cminus::FuncDecl *Fn);

  /// Can \p E be given qualifier \p Q? Uses the declared/static type and the
  /// qualifier's case clauses (recursively). Public so tests, the
  /// annotation driver, and the CQUAL baseline can query it. \p Q must be
  /// null or one of the checker's QualifierSet; a null \p Q or an unknown
  /// name answers false, counted as one query.
  bool hasQualifier(const cminus::Expr *E, const qual::QualifierDef *Q);
  bool hasQualifier(const cminus::Expr *E, const std::string &QualName);

private:
  /// One bound pattern variable: an expression or an l-value fragment.
  struct Binding {
    const cminus::Expr *E = nullptr;
    const cminus::LValue *LV = nullptr;
    bool bound() const { return E || LV; }
  };
  /// One clause attempt's bindings, indexed by the clause's compiled slots
  /// (qual::Clause::XSlot and the rest).
  using Bindings = Binding[qual::NumSlots];

  /// The (expression, qualifier) queries of one checker, keyed by
  /// (Expr::Id, qualifier index): each is in progress or answered. One
  /// open-addressing table serves as both the memo and the in-progress
  /// set. It starts in inline storage sized for a typical work item, so a
  /// clean item allocates nothing: it holds 24 entries before it grows,
  /// and no item of the 1M-line farm needs more than 15.
  class QueryTable {
  public:
    enum class State : uint8_t {
      Empty,      ///< A free entry.
      InProgress, ///< On the current derivation's stack.
      Unstored,   ///< Derived, but the answer consulted an in-progress
                  ///< query, so it holds only in that context.
      False,
      True,
    };
    /// The state of (\p Id, \p Qual), inserting Unstored when absent. The
    /// reference is valid until the next call.
    State &at(unsigned Id, uint32_t Qual);

  private:
    struct Entry {
      unsigned Id = 0;
      uint32_t Qual = 0;
      State S = State::Empty;
    };
    static constexpr size_t InlineEntries = 32;
    Entry *entries() { return Heap.empty() ? Inline : Heap.data(); }
    void grow();

    Entry Inline[InlineEntries] = {};
    std::vector<Entry> Heap;
    size_t Capacity = InlineEntries;
    size_t Used = 0;
  };

  /// Where a checked value flows. It is rendered ("initialization of 'p'",
  /// "argument 2 of call to 'f'", ...) only when a check fails.
  struct FlowSite {
    enum class Kind { Init, GlobalInit, Assign, Arg, Return };
    Kind K = Kind::Init;
    /// The variable (Init, GlobalInit), callee (Arg) or function (Return).
    std::string_view Name;
    /// Assign: the target l-value.
    const cminus::LValue *Target = nullptr;
    /// Arg: the zero-based argument position.
    size_t Arg = 0;

    std::string str() const;
  };

  /// hasQualifier on the qualifier with index \p QI in the set (NoQual for
  /// one the set does not hold).
  bool derive(const cminus::Expr *E, uint32_t QI);

  void warn(SourceLoc Loc, const std::string &Message);

  // Traversal.
  void checkFunction(cminus::FuncDecl *Fn);
  void checkStmt(cminus::Stmt *S);
  /// Scans a pure expression: restrict clauses, disallow rules, cast
  /// recording. \p InMemAddr is true when the expression (transitively via
  /// +/-) forms the address of a dereference, where reading a
  /// disallow-read l-value is permitted.
  void scanExpr(const cminus::Expr *E, bool InMemAddr);
  /// \p GrantDerefExemption controls whether reading a disallow-read
  /// l-value inside this l-value's address computation is permitted. True
  /// for reads and writes (dereferencing consumes the pointer); false
  /// under address-of, where the pointer's value escapes (e.g. `&*p`).
  void scanLValue(const cminus::LValue *LV, bool IsWrite,
                  bool GrantDerefExemption = true);
  void scanCall(const cminus::CallExpr *Call);

  /// Validates RHS (which may be a direct call) flowing into an l-value or
  /// declaration of type \p DstTy. Handles value-qualifier subtyping and
  /// reference-qualifier assign rules. \p TargetVar is the destination
  /// variable when the target is a bare variable (for failure records).
  void checkAssignmentTo(cminus::TypePtr DstTy, const cminus::Expr *RHS,
                         SourceLoc Loc, const FlowSite &Site,
                         const cminus::VarDecl *TargetVar = nullptr);
  /// Value-qualifier half of an assignment check.
  void checkValueQualFlow(cminus::TypePtr DstTy,
                          const cminus::Expr *RHS, SourceLoc Loc,
                          const FlowSite &Site,
                          const cminus::VarDecl *TargetVar);
  /// Reference-qualifier half: RHS must satisfy some assign clause of \p Q,
  /// or be an unchecked cast to a Q-qualified type.
  void checkRefAssign(const qual::QualifierDef *Q, const cminus::Expr *RHS,
                      SourceLoc Loc, const FlowSite &Site,
                      const cminus::VarDecl *TargetVar);

  // Pattern matching.
  /// Matches clause \p C's pattern against expression \p E. A case clause
  /// (\p BindSubject) first binds the subject, slot 0, to \p E.
  bool matchExprPattern(const qual::Clause &C, bool BindSubject,
                        const cminus::Expr *E, Bindings &Out);
  /// Matches an assign-clause pattern against RHS \p E (NULL/new allowed).
  bool matchAssignPattern(const qual::Clause &C, const cminus::Expr *E,
                          Bindings &Out);
  /// Binds slot \p S to \p E, checking classifier and type pattern.
  bool bindVar(const qual::Clause &C, uint8_t S, const cminus::Expr *E,
               Bindings &Out);
  bool bindLValue(const qual::Clause &C, uint8_t S, const cminus::LValue *LV,
                  Bindings &Out);
  /// Evaluates node \p I of \p C's compiled where-predicate under \p B.
  bool evalPred(const qual::Clause &C, uint32_t I, const Bindings &B);

  // Restrict / disallow.
  void applyRestrictsToDeref(const cminus::LValue *LV);
  void applyRestrictsToExpr(const cminus::Expr *E);
  /// Checks restrict clause \p C at a site whose pattern matched. The site
  /// is the dereference of \p Site (\p Deref) or the expression \p Site;
  /// its text is rendered only on failure.
  void runRestrictClause(const qual::QualifierDef *Q, const qual::Clause &C,
                         Bindings &B, SourceLoc Loc, const cminus::Expr *Site,
                         bool Deref);
  /// Reference qualifiers with DisallowRead/DisallowAddrOf present on
  /// \p Ty; returns their definitions.
  std::vector<const qual::QualifierDef *>
  refQualsOn(cminus::TypePtr Ty) const;

  void recordCast(const cminus::CastExpr *Cast);

  // Flow-sensitive narrowing (CheckerOptions::FlowSensitiveNarrowing).
  /// Qualifier narrowings implied by \p Cond when it evaluates true
  /// (\p Sense true) or false (\p Sense false): pairs of (variable,
  /// qualifier name).
  void narrowingsFrom(const cminus::Expr *Cond, bool Sense,
                      std::vector<std::pair<const cminus::VarDecl *,
                                            std::string>> &Out);
  /// Does the integer comparison `v Op C` (true branch) imply qualifier
  /// \p Q's invariant?
  bool comparisonImpliesInvariant(const qual::QualifierDef *Q,
                                  cminus::BinaryOp Op, bool IsNull,
                                  int64_t C);
  /// Runs \p Body with the given narrowings active (suppressing those
  /// whose variable is assigned within \p Body).
  void checkNarrowed(cminus::Stmt *Body,
                     const std::vector<std::pair<const cminus::VarDecl *,
                                                 std::string>> &Narrowings);
  static void collectAssignedVars(const cminus::Stmt *S,
                                  std::set<const cminus::VarDecl *> &Out);

  cminus::Program &Prog;
  const qual::QualifierSet &Quals;
  DiagnosticEngine &Diags;
  CheckerOptions Options;
  CheckResult Result;
  cminus::FuncDecl *CurrentFn = nullptr;

  // hasQualifier machinery. A query that finds itself in progress answers
  // false (least fixpoint), and a result that consulted such a query is not
  // stored. The memo keeps nested disjunctive rules linear.
  QueryTable Queries;
  /// True while the current derivation has consulted an in-progress query;
  /// such results are not memoized (they are valid only in context).
  bool TouchedInProgress = false;
  /// Casts already recorded (a cast expression is scanned once).
  std::set<const cminus::CastExpr *> RecordedCasts;
  /// Active flow-sensitive narrowings: variable -> qualifier names.
  std::map<const cminus::VarDecl *, std::set<std::string>> Narrowed;
};

/// Does \p F take a `char* untainted` parameter? Such a function belongs to
/// the printf family whose call sites Table 2 counts.
bool isUntaintedFormatFn(const cminus::FuncDecl *F);

/// cminus::runFrontEnd(), then one QualChecker::run(): the sequential
/// reference the work-item loop (Parallel.h) is tested against. Returns the
/// parsed program through \p ProgOut (may be null on parse failure).
CheckResult checkSource(const std::string &Source,
                        const qual::QualifierSet &Quals,
                        DiagnosticEngine &Diags,
                        std::unique_ptr<cminus::Program> &ProgOut,
                        CheckerOptions Options = {});

} // namespace stq::checker

#endif // STQ_CHECKER_CHECKER_H
