//===- test_checker.cpp - Tests for the extensible typechecker ------------===//
//
// Exercises the paper's worked examples: figure 2 (lcm/gcd with pos),
// figure 3 (nonzero division restrict), figure 4 (taintedness), figures 5/6
// (unique), figure 7 (unaliased), figure 12 (nonnull), and the subtyping
// examples of section 2.1.2.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "qual/Builtins.h"
#include "qual/QualParser.h"

#include <gtest/gtest.h>

using namespace stq;
using namespace stq::checker;

namespace {

struct Run {
  DiagnosticEngine Diags;
  std::unique_ptr<cminus::Program> Prog;
  CheckResult Result;
  qual::QualifierSet Quals;
};

/// Runs the full pipeline with the given builtin qualifiers loaded.
std::unique_ptr<Run> check(const std::vector<std::string> &QualNames,
                           const std::string &Source,
                           CheckerOptions Options = {}) {
  auto R = std::make_unique<Run>();
  EXPECT_TRUE(qual::loadBuiltinQualifiers(QualNames, R->Quals, R->Diags));
  R->Result = checkSource(Source, R->Quals, R->Diags, R->Prog, Options);
  EXPECT_FALSE(R->Diags.hasErrors())
      << "unexpected hard errors:\n"
      << [&] {
           std::string S;
           for (const auto &D : R->Diags.diagnostics())
             S += D.str() + "\n";
           return S;
         }();
  return R;
}

/// Runs the full pipeline with the qualifiers defined by \p QualSource.
std::unique_ptr<Run> checkDsl(const std::string &QualSource,
                              const std::string &Source) {
  auto R = std::make_unique<Run>();
  EXPECT_TRUE(qual::parseQualifiers(QualSource, R->Quals, R->Diags));
  EXPECT_TRUE(qual::checkWellFormed(R->Quals, R->Diags));
  R->Result = checkSource(Source, R->Quals, R->Diags, R->Prog);
  EXPECT_FALSE(R->Diags.hasErrors());
  return R;
}

std::vector<std::string> messages(const Run &R) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : R.Diags.diagnostics())
    Out.push_back(D.Message);
  return Out;
}

//===----------------------------------------------------------------------===//
// pos / neg (figure 1, figure 2)
//===----------------------------------------------------------------------===//

TEST(CheckerPos, PositiveConstantDerivable) {
  auto R = check({"pos", "neg"}, "int pos x = 3;\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerPos, NonPositiveConstantRejected) {
  auto R = check({"pos", "neg"}, "int pos x = 0;\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerPos, NegativeConstantRejectedForPos) {
  auto R = check({"pos", "neg"}, "int pos x = -5;\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerPos, ProductOfPosIsPos) {
  auto R = check({"pos", "neg"},
                 "int f(int pos a, int pos b) {\n"
                 "  int pos prod = a * b;\n"
                 "  return prod;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerPos, DifferenceOfPosIsNotPos) {
  auto R = check({"pos", "neg"},
                 "int f(int pos a, int pos b) {\n"
                 "  int pos d = a - b;\n"
                 "  return d;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerPos, NegationOfNegIsPos) {
  auto R = check({"pos", "neg"},
                 "int f(int neg a) {\n"
                 "  int pos p = -a;\n"
                 "  return p;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerPos, MutualRecursionPosNegProduct) {
  // neg * pos is neg; -(neg) is pos; deep nesting exercises recursion.
  auto R = check({"pos", "neg"},
                 "int f(int pos a, int neg b) {\n"
                 "  int neg n = a * b;\n"
                 "  int pos p = -(a * b);\n"
                 "  return p + n;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

// qc and qd derive each other on the same node, so a derivation of qc(x)
// meets the in-progress query qc(x) again. That query must answer false
// (the least fixpoint): answering true would let any x be qc. Both rules
// prove sound, and only the least-fixpoint reading keeps Theorem 5.1 true
// for them.
const char *CycleQuals = R"(
value qualifier qc(int Expr E)
  case E of
    decl int Const C:
      C, where C > 0
  | decl int Expr E1:
      E1, where qd(E1)
  invariant value(E) > 0

value qualifier qd(int Expr E)
  case E of
    decl int Expr E1:
      E1, where qc(E1)
  invariant value(E) > 0
)";

TEST(CheckerCycle, SelfDependentQueryAnswersFalse) {
  auto R = checkDsl(CycleQuals, "int f(int x) {\n"
                                "  int qc y = x;\n"
                                "  int qc z = 5;\n"
                                "  return 0;\n"
                                "}\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  EXPECT_EQ(messages(*R),
            std::vector<std::string>{
                "cannot derive qualifier 'qc' for 'x' in initialization of "
                "'y'"});
}

TEST(CheckerMemo, NestedDisjunctiveRulesStayLinear) {
  // Each sum's rule tries both qualifiers on both operands. Without the
  // (expression, qualifier) memo a sum of n terms costs 2^n - 1 queries;
  // with it, 155 queries (76 answered from the memo) for 40 terms.
  std::string Sum = "x";
  for (int I = 1; I < 40; ++I)
    Sum += " + x";
  auto R = checkDsl(R"(
value qualifier qa(int Expr E)
  case E of
    decl int Expr E1, E2:
      E1 + E2, where (qb(E1) && qb(E2)) || (qa(E1) && qa(E2))

value qualifier qb(int Expr E)
  case E of
    decl int Expr E1, E2:
      E1 + E2, where (qa(E1) && qa(E2)) || (qb(E1) && qb(E2))
)",
                    "int f(int x) { int qa y = " + Sum + "; return 0; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  EXPECT_EQ(R->Result.Stats.HasQualQueries, 155u);
  EXPECT_EQ(R->Result.Stats.MemoHits, 76u);
}

TEST(CheckerBinding, NonlinearPatternBindsOneNode) {
  // E1 + E1 matches only a sum whose operands are one node; x + x reads x
  // twice, as two nodes.
  auto R = checkDsl(R"(
value qualifier twice(int Expr E)
  case E of
    decl int Expr E1:
      E1 + E1
)",
                    "int f(int x) { int twice a = x + x; return 0; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerBinding, DeclaredButUnboundVariableComparesFalse) {
  // D is declared but the pattern never binds it, so `D > 0` is false.
  auto R = checkDsl(R"(
value qualifier unb(int Expr E)
  case E of
    decl int Const C, D:
      C, where D > 0
)",
                    "int f() { int unb b = 5; return 0; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerPos, PaperFigure2LcmTypechecksWithCast) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int pos gcd(int pos n, int pos m);\n"
                 "int pos lcm(int pos a, int pos b) {\n"
                 "  int pos d = gcd(a, b);\n"
                 "  int pos prod = a * b;\n"
                 "  return (int pos) (prod / d);\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  // The cast needs a run-time check: pos is not derivable for a quotient.
  ASSERT_EQ(R->Result.RuntimeChecks.size(), 1u);
  EXPECT_EQ(R->Result.RuntimeChecks[0].Quals,
            std::vector<std::string>{"pos"});
}

TEST(CheckerPos, PaperFigure2WithoutCastFails) {
  auto R = check({"pos", "neg"},
                 "int pos gcd(int pos n, int pos m);\n"
                 "int pos lcm(int pos a, int pos b) {\n"
                 "  int pos d = gcd(a, b);\n"
                 "  int pos prod = a * b;\n"
                 "  return prod / d;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerPos, CallReturnTypeCarriesQualifier) {
  auto R = check({"pos", "neg"},
                 "int pos g();\n"
                 "int f() { int pos x = g(); return x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerPos, ArgumentFlowIsChecked) {
  // Implicit assignment through a call: passing a plain int where int pos
  // is expected must fail.
  auto R = check({"pos", "neg"},
                 "int g(int pos x);\n"
                 "int f(int y) { return g(y); }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerPos, ConstantArgumentFlowsViaCaseRule) {
  auto R = check({"pos", "neg"},
                 "int g(int pos x);\n"
                 "int f() { return g(7); }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

//===----------------------------------------------------------------------===//
// Subtyping (section 2.1.2)
//===----------------------------------------------------------------------===//

TEST(CheckerSubtyping, ValueQualifiedIsSubtypeOfUnqualified) {
  auto R = check({"pos", "neg"},
                 "int f() { int pos x = 3; int y = x; return y; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerSubtyping, NoSubtypingUnderPointers) {
  // The paper's unsound example: int pos* must not flow to int*.
  auto R = check({"pos", "neg"},
                 "int f() {\n"
                 "  int pos x = 3;\n"
                 "  int* p = &x;\n"
                 "  *p = -1;\n"
                 "  return x;\n"
                 "}\n");
  EXPECT_GE(R->Result.QualErrors, 1u);
}

TEST(CheckerSubtyping, MatchingPointeeQualsAllowed) {
  auto R = check({"pos", "neg"},
                 "int f() {\n"
                 "  int pos x = 3;\n"
                 "  int pos* p = &x;\n"
                 "  return *p;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerSubtyping, MultipleQualifiersEachChecked) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f() { int pos nonzero x = 3; return x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  auto R2 = check({"pos", "neg", "nonzero"},
                  "int f(int pos a, int pos b) {\n"
                  "  int pos nonzero d = a - b;\n"
                  "  return d;\n"
                  "}\n");
  // Neither pos nor nonzero derivable for a difference: two failures.
  EXPECT_EQ(R2->Result.QualErrors, 2u);
}

//===----------------------------------------------------------------------===//
// nonzero (figure 3)
//===----------------------------------------------------------------------===//

TEST(CheckerNonzero, PosImpliesNonzeroViaCaseClause) {
  // The subtype-encoding clause: any int pos expression is also nonzero.
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int pos p) { int nonzero z = p; return z; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNonzero, DivisionRestrictRequiresNonzeroDenominator) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int a, int b) { return a / b; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  EXPECT_EQ(R->Result.Stats.RestrictFailures, 1u);
}

TEST(CheckerNonzero, DivisionByPosDenominatorAllowed) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int a, int pos b) { return a / b; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNonzero, DivisionByNonzeroConstantAllowed) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int a) { return a / 2; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNonzero, DivisionByZeroConstantRejected) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int a) { return a / 0; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNonzero, RestrictAppliesInsideConditions) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int a, int b) {\n"
                 "  if (a / b > 1) { return 1; }\n"
                 "  return 0;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

//===----------------------------------------------------------------------===//
// nonnull (figure 12)
//===----------------------------------------------------------------------===//

TEST(CheckerNonnull, AddressOfIsNonnull) {
  auto R = check({"nonnull"},
                 "int f() { int x; int* nonnull p = &x; return *p; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNonnull, NullNotAssignableToNonnull) {
  auto R = check({"nonnull"},
                 "int f() { int x; int* nonnull p = &x; p = NULL;"
                 " return 0; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNonnull, EveryDereferenceChecked) {
  auto R = check({"nonnull"}, "int f(int* p) { return *p; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  EXPECT_EQ(R->Result.Stats.DerefSites, 1u);
}

TEST(CheckerNonnull, AnnotatedPointerDereferenceAllowed) {
  auto R = check({"nonnull"}, "int f(int* nonnull p) { return *p; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNonnull, PointerArithmeticPreservesNonnull) {
  // The logical memory model: p + i has p's type, so array indexing of a
  // nonnull pointer is allowed.
  auto R = check({"nonnull"},
                 "int f(int* nonnull p, int i) { return p[i]; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNonnull, FieldDereferenceChecked) {
  auto R = check({"nonnull"},
                 "struct s { int a; };\n"
                 "int f(struct s* p) { return p->a; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  auto R2 = check({"nonnull"},
                  "struct s { int a; };\n"
                  "int f(struct s* nonnull p) { return p->a; }\n");
  EXPECT_EQ(R2->Result.QualErrors, 0u);
}

TEST(CheckerNonnull, WriteThroughPointerChecked) {
  auto R = check({"nonnull"}, "void f(int* p) { *p = 3; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNonnull, CastSilencesWithRuntimeCheck) {
  auto R = check({"nonnull"},
                 "int f(int* p) { return *((int* nonnull) p); }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  ASSERT_EQ(R->Result.RuntimeChecks.size(), 1u);
  EXPECT_EQ(R->Result.RuntimeChecks[0].Quals,
            std::vector<std::string>{"nonnull"});
}

TEST(CheckerNonnull, StructFieldAnnotationsChecked) {
  auto R = check({"nonnull"},
                 "struct s { int* nonnull q; };\n"
                 "void f(struct s* nonnull p, int* r) { p->q = r; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

//===----------------------------------------------------------------------===//
// tainted / untainted (figure 4, section 6.3)
//===----------------------------------------------------------------------===//

TEST(CheckerTaint, PaperPrintfSnippetTypechecks) {
  auto R = check({"tainted", "untainted"},
                 "int printf(char* untainted fmt, ...);\n"
                 "void f(char* buf) {\n"
                 "  char* untainted fmt = (char* untainted) \"%s\";\n"
                 "  printf(fmt, buf);\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  EXPECT_EQ(R->Result.Stats.FormatStringChecks, 1u);
}

TEST(CheckerTaint, FormatInLaterPositionCounted) {
  // bftpd's sendstrf and bftpd_log take their format second.
  auto R = check({"tainted", "untainted"},
                 "int sendstrf(int s, char* untainted format, ...);\n"
                 "void f(int s) { sendstrf(s, \"%d\", s); }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  EXPECT_EQ(R->Result.Stats.FormatStringChecks, 1u);
}

TEST(CheckerTaint, UntaintedFormatRequiredForPrintf) {
  // printf(buf) must fail: buf is not known untainted.
  auto R = check({"tainted", "untainted"},
                 "int printf(char* untainted fmt, ...);\n"
                 "void f(char* buf) { printf(buf); }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerTaint, ConstantsAreUntaintedWithoutCast) {
  // The section 6.3 clause: constants are trusted, removing casts.
  auto R = check({"tainted", "untainted"},
                 "int printf(char* untainted fmt, ...);\n"
                 "void f(int x) { printf(\"%d\", x); }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerTaint, AnythingCanBeTainted) {
  auto R = check({"tainted", "untainted"},
                 "char* tainted g(char* s) { return s; }\n"
                 "int h(int x) { int tainted t = x * 2 + 1; return t; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerTaint, UntaintedFlowsToPlain) {
  auto R = check({"tainted", "untainted"},
                 "void g(char* s);\n"
                 "void f(char* untainted u) { g(u); }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerTaint, BftpdStyleBugDetected) {
  // The real bftpd vulnerability shape: a file name flows into a format
  // string parameter (section 6.3).
  auto R = check({"tainted", "untainted"},
                 "struct dirent { char* d_name; };\n"
                 "int sendstrf(int s, char* untainted format, ...);\n"
                 "void list(int s, struct dirent* nonnull_entry) {\n"
                 "  sendstrf(s, nonnull_entry->d_name);\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

//===----------------------------------------------------------------------===//
// unique (figures 5, 6)
//===----------------------------------------------------------------------===//

TEST(CheckerUnique, PaperFigure6MakeArrayTypechecks) {
  auto R = check({"unique"},
                 "int* unique array;\n"
                 "void make_array(int n) {\n"
                 "  array = (int*) malloc(sizeof(int) * n);\n"
                 "  for (int i = 0; i < n; i = i + 1)\n"
                 "    array[i] = i;\n"
                 "}\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerUnique, AssignNullAllowed) {
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "void f() { p = NULL; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerUnique, AssignOtherPointerRejected) {
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "void f(int* q) { p = q; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  EXPECT_EQ(R->Result.Stats.RefAssignFailures, 1u);
}

TEST(CheckerUnique, ReferringToUniqueRejected) {
  // int* q = p violates the disallow clause (section 2.2.1).
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "void f() { int* q = p; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  EXPECT_EQ(R->Result.Stats.DisallowFailures, 1u);
}

TEST(CheckerUnique, DereferencingUniqueAllowed) {
  // int i = *p is fine: only the contents are read.
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "int f() { int i = *p; return i; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerUnique, FieldAccessThroughUniqueAllowed) {
  auto R = check({"unique"},
                 "struct dfa { int nstates; };\n"
                 "struct dfa* unique d;\n"
                 "int f() { return d->nstates; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerUnique, PassingUniqueAsArgumentRejected) {
  // Section 6.2: passing a unique global to a procedure violates
  // uniqueness and is rejected by the disallow rule.
  auto R = check({"unique"},
                 "struct dfa { int n; };\n"
                 "void use(struct dfa* d);\n"
                 "struct dfa* unique dfa_global;\n"
                 "void f() { use(dfa_global); }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerUnique, CastEscapeHatchUnchecked) {
  // Section 6.2: initialization from the parser module needs a cast, which
  // stays unchecked (as with traditional C casts).
  auto R = check({"unique"},
                 "struct dfa { int n; };\n"
                 "struct dfa* parser_result();\n"
                 "struct dfa* unique d;\n"
                 "void init() { d = (struct dfa* unique) parser_result(); }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  EXPECT_EQ(R->Result.Stats.CastsToRefQualified, 1u);
  EXPECT_TRUE(R->Result.RuntimeChecks.empty());
}

TEST(CheckerUnique, MallocWithoutCastAllowed) {
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "void f() { p = malloc(8); }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerUnique, WriteThroughUniqueAllowed) {
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "void f() { *p = 42; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

//===----------------------------------------------------------------------===//
// unaliased (figure 7)
//===----------------------------------------------------------------------===//

TEST(CheckerUnaliased, AddressTakenRejected) {
  auto R = check({"unaliased"},
                 "void f() { int unaliased x; int* p; p = &x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 1u);
  EXPECT_EQ(R->Result.Stats.DisallowFailures, 1u);
}

TEST(CheckerUnaliased, NormalUseAllowed) {
  auto R = check({"unaliased"},
                 "int f() { int unaliased x; x = 3; int y = x;"
                 " return y + x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerUnaliased, AddressOfOtherVariableStillAllowed) {
  auto R = check({"unaliased"},
                 "int f() { int unaliased x; int y; int* p = &y;"
                 " x = *p; return x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

//===----------------------------------------------------------------------===//
// Casts and run-time checks
//===----------------------------------------------------------------------===//

TEST(CheckerCasts, ProvableCastCheckElided) {
  auto R = check({"pos", "neg"},
                 "int f() { int pos x = (int pos) 5; return x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  EXPECT_TRUE(R->Result.RuntimeChecks.empty());
  EXPECT_EQ(R->Result.Stats.ElidedCastChecks, 1u);
}

TEST(CheckerCasts, UnprovableCastCheckRecorded) {
  auto R = check({"pos", "neg"},
                 "int f(int y) { int pos x = (int pos) y; return x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  ASSERT_EQ(R->Result.RuntimeChecks.size(), 1u);
  EXPECT_EQ(R->Result.Stats.CastsToValueQualified, 1u);
}

TEST(CheckerCasts, MultiQualCastChecksEachQualifier) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int y) {\n"
                 "  int pos nonzero x = (int pos nonzero) y;\n"
                 "  return x;\n"
                 "}\n");
  ASSERT_EQ(R->Result.RuntimeChecks.size(), 1u);
  EXPECT_EQ(R->Result.RuntimeChecks[0].Quals.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Flow-sensitive narrowing (the section 8 future-work extension, opt-in)
//===----------------------------------------------------------------------===//

CheckerOptions narrowing() {
  CheckerOptions Options;
  Options.FlowSensitiveNarrowing = true;
  return Options;
}

TEST(CheckerNarrowing, OffByDefault) {
  // The paper's system is flow-insensitive: the guarded dereference still
  // errors.
  auto R = check({"nonnull"},
                 "int f(int* p) { if (p != NULL) { return *p; } return 0; }");
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNarrowing, NullCheckGuardsDereference) {
  auto R = check({"nonnull"},
                 "int f(int* p) { if (p != NULL) { return *p; } return 0; }",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, GrepIdiomFromSection61) {
  // The exact imprecision example from the paper: the array index is
  // guarded by the NULL check.
  auto R = check({"nonnull"},
                 "struct dfa { int* trans; };\n"
                 "int f(struct dfa* nonnull d, int works) {\n"
                 "  int* t;\n"
                 "  t = d->trans;\n"
                 "  if (t != NULL) {\n"
                 "    works = t[works];\n"
                 "  }\n"
                 "  return works;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, ElseBranchOfEqNull) {
  auto R = check({"nonnull"},
                 "int f(int* p) {\n"
                 "  if (p == NULL) { return 0; } else { return *p; }\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, ThenBranchOfEqNullStillErrors) {
  auto R = check({"nonnull"},
                 "int f(int* p) {\n"
                 "  if (p == NULL) { return *p; }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNarrowing, PointerTruthinessCondition) {
  auto R = check({"nonnull"},
                 "int f(int* p) { if (p) { return *p; } return 0; }",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, ConjunctionNarrowsBoth) {
  auto R = check({"nonnull"},
                 "int f(int* p, int* q) {\n"
                 "  if (p != NULL && q != NULL) { return *p + *q; }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, DisjunctionDoesNotNarrowThen) {
  auto R = check({"nonnull"},
                 "int f(int* p, int* q) {\n"
                 "  if (p != NULL || q != NULL) { return *p; }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNarrowing, NegatedDisjunctionNarrowsElse) {
  // !(p == NULL || q == NULL) in the else: both non-null.
  auto R = check({"nonnull"},
                 "int f(int* p, int* q) {\n"
                 "  if (p == NULL || q == NULL) { return 0; }\n"
                 "  else { return *p + *q; }\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, AssignmentInBranchKillsNarrowing) {
  // p is reassigned inside the branch, so the narrowing must not apply.
  auto R = check({"nonnull"},
                 "int* g();\n"
                 "int f(int* p) {\n"
                 "  if (p != NULL) {\n"
                 "    p = g();\n"
                 "    return *p;\n"
                 "  }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNarrowing, AddressTakenInBranchKillsNarrowing) {
  auto R = check({"nonnull"},
                 "void reseat(int** pp);\n"
                 "int f(int* p) {\n"
                 "  if (p != NULL) {\n"
                 "    reseat(&p);\n"
                 "    return *p;\n"
                 "  }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 1u);
}

TEST(CheckerNarrowing, WhileConditionNarrowsBody) {
  auto R = check({"nonnull"},
                 "struct node { int v; struct node* next; };\n"
                 "int sum(struct node* n) {\n"
                 "  int s = 0;\n"
                 "  while (n != NULL) {\n"
                 "    s = s + n->v;\n"
                 "    n = n->next;\n"
                 "  }\n"
                 "  return s;\n"
                 "}\n",
                 narrowing());
  // n is assigned in the loop body, so the conservative kill applies and
  // the dereferences still error: linked-list traversal needs the
  // stronger flow-sensitive system of Foster et al. [20].
  EXPECT_GE(R->Result.QualErrors, 1u);

  auto R2 = check({"nonnull"},
                  "int drain(int* q) {\n"
                  "  int s = 0;\n"
                  "  while (q != NULL && s < 10) { s = s + *q; }\n"
                  "  return s;\n"
                  "}\n",
                  narrowing());
  EXPECT_EQ(R2->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, IntegerRangeNarrowsPos) {
  auto R = check({"pos", "neg"},
                 "int g(int pos x);\n"
                 "int f(int n) {\n"
                 "  if (n > 0) { return g(n); }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
  // n >= 0 is not enough for pos.
  auto R2 = check({"pos", "neg"},
                  "int g(int pos x);\n"
                  "int f(int n) {\n"
                  "  if (n >= 0) { return g(n); }\n"
                  "  return 0;\n"
                  "}\n",
                  narrowing());
  EXPECT_EQ(R2->Result.QualErrors, 1u);
  // But n >= 1 is.
  auto R3 = check({"pos", "neg"},
                  "int g(int pos x);\n"
                  "int f(int n) {\n"
                  "  if (n >= 1) { return g(n); }\n"
                  "  return 0;\n"
                  "}\n",
                  narrowing());
  EXPECT_EQ(R3->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, NonzeroGuardOnDivision) {
  auto R = check({"pos", "neg", "nonzero"},
                 "int f(int a, int b) {\n"
                 "  if (b != 0) { return a / b; }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerNarrowing, ReversedComparisonNormalized) {
  // `0 < n` is `n > 0`.
  auto R = check({"pos", "neg"},
                 "int g(int pos x);\n"
                 "int f(int n) {\n"
                 "  if (0 < n) { return g(n); }\n"
                 "  return 0;\n"
                 "}\n",
                 narrowing());
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

//===----------------------------------------------------------------------===//
// Stats plumbing
//===----------------------------------------------------------------------===//

TEST(CheckerStatsTest, DerefSitesCounted) {
  auto R = check({"nonnull"},
                 "struct s { int a; int* nonnull q; };\n"
                 "int f(struct s* nonnull p) {\n"
                 "  int x = p->a;\n"
                 "  int y = *(p->q);\n"
                 "  return x + y;\n"
                 "}\n");
  // Deref sites: p->a, p->q (inner), *(p->q) (outer).
  EXPECT_EQ(R->Result.Stats.DerefSites, 3u);
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

TEST(CheckerStatsTest, QueriesAndChecksReported) {
  auto R = check({"pos", "neg"},
                 "int f(int pos a) { int pos x = a * a; return x; }\n");
  EXPECT_GT(R->Result.Stats.HasQualQueries, 0u);
  EXPECT_GT(R->Result.Stats.AssignChecks, 0u);
}

} // namespace

namespace {

TEST(CheckerUnique, AddressOfDerefDoesNotLaunderUniqueness) {
  // &*p (and &p->f) reproduce p's value/derived addresses; allowing them
  // would let the unique pointer escape despite the disallow rule.
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "void f() { int* q = &(*p); }\n");
  EXPECT_GE(R->Result.QualErrors, 1u);
  auto R2 = check({"unique"},
                  "struct s { int a; };\n"
                  "struct s* unique p;\n"
                  "void f() { int* q = &(p->a); }\n");
  EXPECT_GE(R2->Result.QualErrors, 1u);
}

TEST(CheckerUnique, PlainDerefStillExempt) {
  auto R = check({"unique"},
                 "int* unique p;\n"
                 "int f() { return *p; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
}

} // namespace

namespace {

TEST(CheckerUnique, DerefOfAddrOfCollapsesToRead) {
  // CIL's *&lv simplification: *&table IS a read of table, so the
  // disallow rule fires rather than being laundered through the deref
  // exemption.
  auto R = check({"unique"},
                 "int* unique table;\n"
                 "void f() { int* q = *&table; }\n");
  EXPECT_GE(R->Result.QualErrors, 1u);
  EXPECT_GE(R->Result.Stats.DisallowFailures, 1u);
}

TEST(CheckerNonnull, DerefOfAddrOfNeedsNoNonnull) {
  // After the collapse there is no dereference left to check.
  auto R = check({"nonnull"},
                 "int f() { int x = 3; return *&x; }\n");
  EXPECT_EQ(R->Result.QualErrors, 0u);
  EXPECT_EQ(R->Result.Stats.DerefSites, 0u);
}

} // namespace
