//===- test_soundness.cpp - Tests for the automated soundness checker -----===//
//
// The headline capability of the paper: every builtin qualifier is proven
// sound automatically, and the paper's deliberately-broken variants (pos
// with E1 - E2, unique without its disallow clause, unaliased without its
// disallow clause) are rejected.
//
//===----------------------------------------------------------------------===//

#include "soundness/Soundness.h"

#include "qual/Builtins.h"
#include "qual/QualParser.h"

#include <gtest/gtest.h>

using namespace stq;
using namespace stq::soundness;

namespace {

qual::QualifierSet loadBuiltins(const std::vector<std::string> &Names) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_TRUE(qual::loadBuiltinQualifiers(Names, Set, Diags));
  return Set;
}

qual::QualifierSet parseSet(const std::string &Source) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_TRUE(qual::parseQualifiers(Source, Set, Diags));
  EXPECT_TRUE(qual::checkWellFormed(Set, Diags));
  return Set;
}

SoundnessReport checkOne(const qual::QualifierSet &Set,
                         const std::string &Name) {
  SoundnessChecker SC(Set);
  return SC.checkQualifier(Name);
}

//===----------------------------------------------------------------------===//
// Value qualifiers (figures 1, 3, 12)
//===----------------------------------------------------------------------===//

TEST(SoundnessValue, PosIsSound) {
  auto Set = loadBuiltins({"pos", "neg"});
  SoundnessReport R = checkOne(Set, "pos");
  EXPECT_TRUE(R.sound()) << formatReports({R});
  EXPECT_EQ(R.Obligations.size(), 3u); // One per case clause.
}

TEST(SoundnessValue, NegIsSound) {
  auto Set = loadBuiltins({"pos", "neg"});
  SoundnessReport R = checkOne(Set, "neg");
  EXPECT_TRUE(R.sound()) << formatReports({R});
}

TEST(SoundnessValue, NonzeroIsSound) {
  auto Set = loadBuiltins({"pos", "neg", "nonzero"});
  SoundnessReport R = checkOne(Set, "nonzero");
  EXPECT_TRUE(R.sound()) << formatReports({R});
  // restrict clauses are ignored by the soundness checker.
  EXPECT_EQ(R.Obligations.size(), 3u);
}

TEST(SoundnessValue, NonnullIsSound) {
  auto Set = loadBuiltins({"nonnull"});
  SoundnessReport R = checkOne(Set, "nonnull");
  EXPECT_TRUE(R.sound()) << formatReports({R});
  EXPECT_EQ(R.Obligations.size(), 1u);
}

TEST(SoundnessValue, FlowQualifiersAreVacuouslySound) {
  auto Set = loadBuiltins({"tainted", "untainted"});
  SoundnessReport T = checkOne(Set, "tainted");
  EXPECT_TRUE(T.IsFlowQualifier);
  EXPECT_TRUE(T.sound());
  EXPECT_TRUE(T.Obligations.empty());
  SoundnessReport U = checkOne(Set, "untainted");
  EXPECT_TRUE(U.IsFlowQualifier);
}

TEST(SoundnessValue, PaperBogusSubtractionRuleRejected) {
  // Section 2.1.3: replacing E1 * E2 by E1 - E2 must be caught, since the
  // difference of two positives need not be positive.
  auto Set = parseSet(R"(
value qualifier neg(int Expr E)
  case E of
    decl int Const C:
      C, where C < 0
  invariant value(E) < 0
value qualifier pos(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  | decl int Expr E1, E2:
      E1 - E2, where pos(E1) && pos(E2)
  | decl int Expr E1:
      -E1, where neg(E1)
  invariant value(E) > 0
)");
  SoundnessReport R = checkOne(Set, "pos");
  EXPECT_FALSE(R.sound());
  EXPECT_EQ(R.failedCount(), 1u);
  // Specifically the subtraction clause.
  EXPECT_FALSE(R.Obligations[1].proved());
  EXPECT_TRUE(R.Obligations[0].proved());
  EXPECT_TRUE(R.Obligations[2].proved());
}

TEST(SoundnessValue, WrongConstantBoundRejected) {
  // C >= 0 admits zero, violating value(E) > 0.
  auto Set = parseSet("value qualifier pos(int Expr E)\n"
                      "  case E of\n"
                      "    decl int Const C:\n"
                      "      C, where C >= 0\n"
                      "  invariant value(E) > 0\n");
  SoundnessReport R = checkOne(Set, "pos");
  EXPECT_FALSE(R.sound());
}

TEST(SoundnessValue, AdditionRuleForPosProvable) {
  // An extension the paper mentions is expressible: the sum of positives
  // is positive.
  auto Set = parseSet("value qualifier pos(int Expr E)\n"
                      "  case E of\n"
                      "    decl int Const C:\n"
                      "      C, where C > 0\n"
                      "  | decl int Expr E1, E2:\n"
                      "      E1 + E2, where pos(E1) && pos(E2)\n"
                      "  invariant value(E) > 0\n");
  SoundnessReport R = checkOne(Set, "pos");
  EXPECT_TRUE(R.sound()) << formatReports({R});
}

TEST(SoundnessValue, DisjunctivePredicatesHandled) {
  // neg's builtin definition uses (pos && neg) || (neg && pos).
  auto Set = loadBuiltins({"pos", "neg"});
  SoundnessReport R = checkOne(Set, "neg");
  ASSERT_EQ(R.Obligations.size(), 3u);
  EXPECT_TRUE(R.Obligations[2].proved());
}

TEST(SoundnessValue, SubtypeEncodingClauseProvable) {
  // nonzero's clause "E1 where pos(E1)" is the subtyping encoding:
  // pos's invariant implies nonzero's.
  auto Set = loadBuiltins({"pos", "neg", "nonzero"});
  SoundnessReport R = checkOne(Set, "nonzero");
  ASSERT_GE(R.Obligations.size(), 2u);
  EXPECT_TRUE(R.Obligations[1].proved());
}

TEST(SoundnessValue, BogusSubtypeEncodingRejected) {
  // "nonzero implies pos" is false.
  auto Set = parseSet(R"(
value qualifier nonzero(int Expr E)
  case E of
    decl int Const C:
      C, where C != 0
  invariant value(E) != 0
value qualifier pos(int Expr E)
  case E of
    decl int Expr E1:
      E1, where nonzero(E1)
  invariant value(E) > 0
)");
  SoundnessReport R = checkOne(Set, "pos");
  EXPECT_FALSE(R.sound());
}

TEST(SoundnessValue, RelyingOnFlowQualifierGivesNothing) {
  // untainted has no invariant, so a rule deriving pos from untainted is
  // unsound and must be rejected.
  auto Set = parseSet(R"(
value qualifier untainted(T Expr E)
  case E of
    decl T Const C:
      C
value qualifier pos(int Expr E)
  case E of
    decl int Expr E1:
      E1, where untainted(E1)
  invariant value(E) > 0
)");
  SoundnessReport R = checkOne(Set, "pos");
  EXPECT_FALSE(R.sound());
}

//===----------------------------------------------------------------------===//
// Reference qualifiers (figures 5, 7)
//===----------------------------------------------------------------------===//

TEST(SoundnessRef, UniqueIsSound) {
  auto Set = loadBuiltins({"unique"});
  SoundnessReport R = checkOne(Set, "unique");
  EXPECT_TRUE(R.sound()) << formatReports({R});
  // 2 assign clauses + 5 preservation cases.
  EXPECT_EQ(R.Obligations.size(), 7u);
}

TEST(SoundnessRef, UnaliasedIsSound) {
  auto Set = loadBuiltins({"unaliased"});
  SoundnessReport R = checkOne(Set, "unaliased");
  EXPECT_TRUE(R.sound()) << formatReports({R});
  // ondecl + 5 preservation cases.
  EXPECT_EQ(R.Obligations.size(), 6u);
}

TEST(SoundnessRef, UniqueWithoutDisallowRejected) {
  // Section 2.2.3: dropping the disallow clause makes preservation fail
  // (storing the value of a unique l-value elsewhere breaks uniqueness).
  auto Set = parseSet(R"(
ref qualifier unique(T* LValue L)
  assign L
    NULL
  | new
  invariant value(L) == NULL ||
            (isHeapLoc(value(L)) &&
             forall T** P: *P == value(L) => P == location(L))
)");
  SoundnessReport R = checkOne(Set, "unique");
  EXPECT_FALSE(R.sound());
  // The failing case is the read preservation case.
  bool ReadCaseFailed = false;
  for (const Obligation &O : R.Obligations)
    if (!O.proved() && O.Description.find("read") != std::string::npos)
      ReadCaseFailed = true;
  EXPECT_TRUE(ReadCaseFailed) << formatReports({R});
}

TEST(SoundnessRef, UnaliasedWithoutDisallowRejected) {
  auto Set = parseSet("ref qualifier unaliased(T Var X)\n"
                      "  ondecl\n"
                      "  invariant forall T** P: *P != location(X)\n");
  SoundnessReport R = checkOne(Set, "unaliased");
  EXPECT_FALSE(R.sound());
  bool AddrCaseFailed = false;
  for (const Obligation &O : R.Obligations)
    if (!O.proved() && O.Description.find("address") != std::string::npos)
      AddrCaseFailed = true;
  EXPECT_TRUE(AddrCaseFailed) << formatReports({R});
}

TEST(SoundnessRef, BogusAssignClauseRejected) {
  // Allowing an arbitrary expression to initialize a unique l-value is
  // unsound.
  auto Set = parseSet(R"(
ref qualifier unique(T* LValue L)
  assign L
    decl T* Expr E1:
      E1
  disallow L
  invariant value(L) == NULL ||
            (isHeapLoc(value(L)) &&
             forall T** P: *P == value(L) => P == location(L))
)");
  SoundnessReport R = checkOne(Set, "unique");
  EXPECT_FALSE(R.sound());
  EXPECT_FALSE(R.Obligations[0].proved());
}

TEST(SoundnessRef, NullIsAlwaysSafeForUnique) {
  auto Set = loadBuiltins({"unique"});
  SoundnessReport R = checkOne(Set, "unique");
  ASSERT_GE(R.Obligations.size(), 2u);
  EXPECT_EQ(R.Obligations[0].Kind, "assign");
  EXPECT_TRUE(R.Obligations[0].proved()); // NULL clause.
  EXPECT_TRUE(R.Obligations[1].proved()); // new clause.
}

TEST(SoundnessRef, FailureReportsCounterexampleSketch) {
  auto Set = parseSet("ref qualifier unaliased(T Var X)\n"
                      "  ondecl\n"
                      "  invariant forall T** P: *P != location(X)\n");
  DiagnosticEngine Diags;
  SoundnessChecker SC(Set, prover::ProverOptions{}, &Diags);
  SoundnessReport R = SC.checkQualifier("unaliased");
  EXPECT_FALSE(R.sound());
  EXPECT_GT(Diags.countInPhase("soundness"), 0u);
}

//===----------------------------------------------------------------------===//
// Timing shape (section 4: value < 1s each, reference < 30s each)
//===----------------------------------------------------------------------===//

TEST(SoundnessTiming, ValueQualifiersFast) {
  auto Set = loadBuiltins({"pos", "neg", "nonzero", "nonnull"});
  SoundnessChecker SC(Set);
  for (const char *Name : {"pos", "neg", "nonzero", "nonnull"}) {
    SoundnessReport R = SC.checkQualifier(Name);
    EXPECT_TRUE(R.sound()) << Name;
    EXPECT_LT(R.TotalSeconds, 1.0) << Name;
  }
}

TEST(SoundnessTiming, ReferenceQualifiersWithinPaperBound) {
  auto Set = loadBuiltins({"unique", "unaliased"});
  SoundnessChecker SC(Set);
  for (const char *Name : {"unique", "unaliased"}) {
    SoundnessReport R = SC.checkQualifier(Name);
    EXPECT_TRUE(R.sound()) << Name;
    EXPECT_LT(R.TotalSeconds, 30.0) << Name;
  }
}

TEST(SoundnessAll, EveryBuiltinQualifierVerifies) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  ASSERT_TRUE(qual::loadAllBuiltinQualifiers(Set, Diags));
  SoundnessChecker SC(Set);
  auto Reports = SC.checkAll();
  ASSERT_EQ(Reports.size(), 9u);
  for (const SoundnessReport &R : Reports)
    EXPECT_TRUE(R.sound()) << formatReports({R});
}

} // namespace

namespace {

TEST(SoundnessValue, NonnegIsSound) {
  auto Set = loadBuiltins({"pos", "neg", "nonneg"});
  SoundnessReport R = checkOne(Set, "nonneg");
  EXPECT_TRUE(R.sound()) << formatReports({R});
  EXPECT_EQ(R.Obligations.size(), 4u);
}

TEST(SoundnessValue, NonnegSumRuleRequiresBothOperands) {
  // nonneg(E1) alone does not make E1 + E2 nonneg.
  auto Set = parseSet("value qualifier nonneg(int Expr E)\n"
                      "  case E of\n"
                      "    decl int Const C:\n"
                      "      C, where C >= 0\n"
                      "  | decl int Expr E1, E2:\n"
                      "      E1 + E2, where nonneg(E1)\n"
                      "  invariant value(E) >= 0\n");
  SoundnessReport R = checkOne(Set, "nonneg");
  EXPECT_FALSE(R.sound());
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Generic assign clauses (beyond the paper's NULL/new patterns)
//===----------------------------------------------------------------------===//

TEST(SoundnessRef, PredicatedAssignClauseProvable) {
  // A "never-null cell": establishment via address-of, preservation for
  // free (the invariant has no quantifier).
  auto Set = parseSet("ref qualifier nncell(T* LValue L)\n"
                      "  assign L\n"
                      "    decl T LValue L2:\n"
                      "      &L2\n"
                      "  invariant value(L) != NULL\n");
  SoundnessReport R = checkOne(Set, "nncell");
  EXPECT_TRUE(R.sound()) << formatReports({R});
}

TEST(SoundnessRef, NullAssignToNonNullCellRejected) {
  auto Set = parseSet("ref qualifier nncell(T* LValue L)\n"
                      "  assign L\n"
                      "    NULL\n"
                      "  invariant value(L) != NULL\n");
  SoundnessReport R = checkOne(Set, "nncell");
  EXPECT_FALSE(R.sound());
  EXPECT_FALSE(R.Obligations[0].proved()); // The NULL assign clause.
}

TEST(SoundnessRef, AssignClauseWithQualifierPredicate) {
  // Establishment may lean on a value qualifier's invariant: assigning an
  // expression known nonnull establishes the cell's invariant.
  auto Set = parseSet(R"(
value qualifier nonnull(T* Expr E)
  case E of
    decl T LValue L:
      &L
  invariant value(E) != NULL
ref qualifier nncell(T* LValue L)
  assign L
    decl T* Expr E1:
      E1, where nonnull(E1)
  invariant value(L) != NULL
)");
  SoundnessReport R = checkOne(Set, "nncell");
  EXPECT_TRUE(R.sound()) << formatReports({R});
}

TEST(SoundnessRef, AssignClauseWithoutPredicateRejected) {
  // The same clause without the nonnull requirement is unsound.
  auto Set = parseSet("ref qualifier nncell(T* LValue L)\n"
                      "  assign L\n"
                      "    decl T* Expr E1:\n"
                      "      E1\n"
                      "  invariant value(L) != NULL\n");
  SoundnessReport R = checkOne(Set, "nncell");
  EXPECT_FALSE(R.sound());
}

TEST(SoundnessRef, HeapOnlyCellSound) {
  // A cell that only ever holds fresh allocations (or NULL), without the
  // uniqueness part of unique's invariant.
  auto Set = parseSet("ref qualifier heapcell(T* LValue L)\n"
                      "  assign L\n"
                      "    NULL\n"
                      "  | new\n"
                      "  invariant value(L) == NULL ||"
                      " isHeapLoc(value(L))\n");
  SoundnessReport R = checkOne(Set, "heapcell");
  EXPECT_TRUE(R.sound()) << formatReports({R});
}

TEST(SoundnessRef, StackAddressIntoHeapCellRejected) {
  // Allowing &L2 (a stack or unknown location) breaks the heap-only
  // invariant.
  auto Set = parseSet("ref qualifier heapcell(T* LValue L)\n"
                      "  assign L\n"
                      "    new\n"
                      "  | decl T LValue L2:\n"
                      "      &L2\n"
                      "  invariant value(L) == NULL ||"
                      " isHeapLoc(value(L))\n");
  SoundnessReport R = checkOne(Set, "heapcell");
  EXPECT_FALSE(R.sound());
}

//===----------------------------------------------------------------------===//
// Prover resource limits
//===----------------------------------------------------------------------===//

TEST(SoundnessResources, ZeroRoundsCannotProve) {
  auto Set = loadBuiltins({"pos", "neg"});
  prover::ProverOptions Options;
  Options.MaxRounds = 0;
  SoundnessChecker SC(Set, Options);
  SoundnessReport R = SC.checkQualifier("pos");
  EXPECT_FALSE(R.sound()); // Needs instantiation of the eval axioms.
}

TEST(SoundnessResources, TightTimeoutReportsResourceOut) {
  auto Set = loadBuiltins({"unique"});
  prover::ProverOptions Options;
  Options.TimeoutSeconds = 0.0; // Instantly exhausted.
  SoundnessChecker SC(Set, Options);
  SoundnessReport R = SC.checkQualifier("unique");
  EXPECT_FALSE(R.sound());
  bool SawResourceOut = false;
  for (const Obligation &O : R.Obligations)
    SawResourceOut =
        SawResourceOut || O.Result == prover::ProofResult::ResourceOut;
  EXPECT_TRUE(SawResourceOut);
}

TEST(SoundnessResources, TwoInstantiationRoundsSuffice) {
  // Every builtin obligation discharges at a small matching depth, the
  // behaviour Simplify's trigger-based instantiation relies on.
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  ASSERT_TRUE(qual::loadAllBuiltinQualifiers(Set, Diags));
  prover::ProverOptions Options;
  Options.MaxRounds = 2;
  SoundnessChecker SC(Set, Options);
  for (const char *Name : {"pos", "nonzero", "nonnull", "unique", "unaliased"})
    EXPECT_TRUE(SC.checkQualifier(Name).sound()) << Name;
}

TEST(SoundnessResources, DefaultBudgetsAmple) {
  auto Set = loadBuiltins({"unique", "unaliased"});
  SoundnessChecker SC(Set);
  for (const char *Name : {"unique", "unaliased"}) {
    SoundnessReport R = SC.checkQualifier(Name);
    for (const Obligation &O : R.Obligations) {
      EXPECT_LT(O.Stats.Rounds, 6u) << Name;
      EXPECT_LT(O.Stats.Instantiations, 5000u) << Name;
    }
  }
}

} // namespace
