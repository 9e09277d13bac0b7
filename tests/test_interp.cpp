//===- test_interp.cpp - Tests for the interpreter and run-time checks ----===//

#include "interp/Interp.h"

#include "qual/Builtins.h"
#include "qual/QualParser.h"

#include <gtest/gtest.h>

using namespace stq;
using namespace stq::interp;

namespace {

qual::QualifierSet loadQuals(const std::vector<std::string> &Names) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_TRUE(qual::loadBuiltinQualifiers(Names, Set, Diags));
  return Set;
}

RunResult run(const std::string &Source,
              const std::vector<std::string> &QualNames = {}) {
  qual::QualifierSet Set = loadQuals(QualNames);
  DiagnosticEngine Diags;
  RunResult R = runSource(Source, Set, Diags, {});
  EXPECT_FALSE(Diags.hasErrors()) << [&] {
    std::string S;
    for (const auto &D : Diags.diagnostics())
      S += D.str() + "\n";
    return S;
  }();
  return R;
}

//===----------------------------------------------------------------------===//
// Basic execution
//===----------------------------------------------------------------------===//

TEST(Interp, ReturnsConstant) {
  RunResult R = run("int main() { return 42; }");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(Interp, Arithmetic) {
  RunResult R = run("int main() { return (2 + 3) * 4 - 20 / 5; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 16);
}

TEST(Interp, LocalsAndAssignment) {
  RunResult R = run("int main() { int x = 5; int y; y = x * 2; return y; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 10);
}

TEST(Interp, ControlFlow) {
  RunResult R = run("int main() {\n"
                    "  int s = 0;\n"
                    "  for (int i = 1; i <= 10; i = i + 1) {\n"
                    "    if (i % 2 == 0) s = s + i;\n"
                    "  }\n"
                    "  return s;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 30);
}

TEST(Interp, WhileWithBreak) {
  RunResult R = run("int main() {\n"
                    "  int i = 0;\n"
                    "  while (1) { i = i + 1; if (i == 7) break; }\n"
                    "  return i;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 7);
}

TEST(Interp, RecursiveCalls) {
  RunResult R = run("int fact(int n) {\n"
                    "  if (n <= 1) return 1;\n"
                    "  int rec = fact(n - 1);\n"
                    "  return n * rec;\n"
                    "}\n"
                    "int main() { return fact(6); }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 720);
}

TEST(Interp, GlobalsSharedAcrossCalls) {
  RunResult R = run("int counter = 0;\n"
                    "void bump() { counter = counter + 1; }\n"
                    "int main() { bump(); bump(); bump(); return counter; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 3);
}

TEST(Interp, PointersAndAddressOf) {
  RunResult R = run("int main() {\n"
                    "  int x = 1;\n"
                    "  int* p = &x;\n"
                    "  *p = 99;\n"
                    "  return x;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 99);
}

TEST(Interp, MallocAndArrayIndexing) {
  RunResult R = run("int main() {\n"
                    "  int* a = (int*) malloc(sizeof(int) * 5);\n"
                    "  for (int i = 0; i < 5; i = i + 1) a[i] = i * i;\n"
                    "  return a[4];\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 16);
}

TEST(Interp, StructFields) {
  RunResult R = run("struct point { int x; int y; };\n"
                    "int main() {\n"
                    "  struct point p;\n"
                    "  p.x = 3;\n"
                    "  p.y = 4;\n"
                    "  return p.x * p.x + p.y * p.y;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 25);
}

TEST(Interp, StructThroughPointer) {
  RunResult R = run(
      "struct node { int value; struct node* next; };\n"
      "int main() {\n"
      "  struct node* n = (struct node*) malloc(sizeof(struct node));\n"
      "  n->value = 11;\n"
      "  n->next = NULL;\n"
      "  if (n->next == NULL) return n->value;\n"
      "  return 0;\n"
      "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 11);
}

TEST(Interp, ZeroInitializedLocals) {
  RunResult R = run("int main() { int x; int* p; if (p == NULL) return x; "
                    "return 1; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 0);
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

TEST(InterpTrap, NullDereference) {
  RunResult R = run("int main() { int* p; return *p; }");
  EXPECT_EQ(R.Status, RunStatus::Trap);
  EXPECT_NE(R.TrapMessage.find("null"), std::string::npos);
}

TEST(InterpTrap, UseAfterFree) {
  RunResult R = run("int main() {\n"
                    "  int* p = (int*) malloc(sizeof(int));\n"
                    "  *p = 1;\n"
                    "  free(p);\n"
                    "  return *p;\n"
                    "}");
  EXPECT_EQ(R.Status, RunStatus::Trap);
  EXPECT_NE(R.TrapMessage.find("freed"), std::string::npos);
}

TEST(InterpTrap, OutOfBounds) {
  RunResult R = run("int main() {\n"
                    "  int* a = (int*) malloc(sizeof(int) * 2);\n"
                    "  return a[5];\n"
                    "}");
  EXPECT_EQ(R.Status, RunStatus::Trap);
}

TEST(InterpTrap, DivisionByZero) {
  RunResult R = run("int main() { int z = 0; return 5 / z; }");
  EXPECT_EQ(R.Status, RunStatus::Trap);
}

TEST(InterpTrap, InfiniteLoopExhaustsFuel) {
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  InterpOptions Options;
  Options.Fuel = 10000;
  RunResult R = runSource("int main() { while (1) { } return 0; }", Set,
                          Diags, Options);
  EXPECT_EQ(R.Status, RunStatus::FuelExhausted);
}

TEST(InterpTrap, ShortCircuitPreventsNullDeref) {
  RunResult R = run("int main() {\n"
                    "  int* p;\n"
                    "  if (p != NULL && *p > 0) return 1;\n"
                    "  return 2;\n"
                    "}");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitValue, 2);
}

//===----------------------------------------------------------------------===//
// printf and format strings
//===----------------------------------------------------------------------===//

TEST(InterpPrintf, BasicFormatting) {
  RunResult R = run("int main() { printf(\"x=%d s=%s!\", 7, \"ok\");"
                    " return 0; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, "x=7 s=ok!");
  EXPECT_TRUE(R.FormatViolations.empty());
}

TEST(InterpPrintf, PercentEscapes) {
  RunResult R = run("int main() { printf(\"100%%\"); return 0; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, "100%");
}

TEST(InterpPrintf, FormatStringVulnerabilityDetected) {
  // The bftpd bug shape: a string containing format specifiers used as a
  // format string reads nonexistent arguments.
  RunResult R = run("int main() {\n"
                    "  char* buf = \"%s%d\";\n"
                    "  printf(buf);\n"
                    "  return 0;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.FormatViolations.size(), 1u);
  EXPECT_EQ(R.FormatViolations[0].Consumed, 2u);
  EXPECT_EQ(R.FormatViolations[0].Supplied, 0u);
}

TEST(InterpPrintf, SafeWhenArgumentsMatch) {
  RunResult R = run("int main() { printf(\"%s\", \"data\"); return 0; }");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.FormatViolations.empty());
  EXPECT_EQ(R.Output, "data");
}

//===----------------------------------------------------------------------===//
// Run-time qualifier checks (section 2.1.3)
//===----------------------------------------------------------------------===//

TEST(InterpChecks, PassingPosCastSucceeds) {
  // Figure 2's lcm: the cast's run-time check passes for positive inputs.
  RunResult R = run("int pos gcd(int pos n, int pos m) {\n"
                    "  if (m == n) return n;\n"
                    "  if (m > n) return gcd(n, (int pos)(m - n));\n"
                    "  return gcd(m, (int pos)(n - m));\n"
                    "}\n"
                    "int pos lcm(int pos a, int pos b) {\n"
                    "  int pos d = gcd(a, b);\n"
                    "  int pos prod = a * b;\n"
                    "  return (int pos) (prod / d);\n"
                    "}\n"
                    "int main() { return lcm(4, 6); }",
                    {"pos", "neg"});
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitValue, 12);
  EXPECT_GT(R.ChecksExecuted, 0u);
  EXPECT_TRUE(R.CheckFailures.empty());
}

TEST(InterpChecks, FailingPosCastSignalsFatalError) {
  RunResult R = run("int main() {\n"
                    "  int y = -3;\n"
                    "  int pos x = (int pos) y;\n"
                    "  return x;\n"
                    "}",
                    {"pos", "neg"});
  EXPECT_EQ(R.Status, RunStatus::CheckFailure);
  ASSERT_EQ(R.CheckFailures.size(), 1u);
  EXPECT_EQ(R.CheckFailures[0].Qual, "pos");
}

TEST(InterpChecks, NonnullCastCheckFiresOnNull) {
  RunResult R = run("int main() {\n"
                    "  int* p;\n"
                    "  int* nonnull q = (int* nonnull) p;\n"
                    "  return 0;\n"
                    "}",
                    {"nonnull"});
  EXPECT_EQ(R.Status, RunStatus::CheckFailure);
  ASSERT_EQ(R.CheckFailures.size(), 1u);
  EXPECT_EQ(R.CheckFailures[0].Qual, "nonnull");
}

TEST(InterpChecks, NonnullCastCheckPassesOnValidPointer) {
  RunResult R = run("int main() {\n"
                    "  int x = 5;\n"
                    "  int* p = &x;\n"
                    "  int* nonnull q = (int* nonnull) p;\n"
                    "  return *q;\n"
                    "}",
                    {"nonnull"});
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitValue, 5);
  EXPECT_EQ(R.ChecksExecuted, 1u);
}

TEST(InterpChecks, ZeroFailsPosButPassesNothingElse) {
  RunResult R = run("int main() {\n"
                    "  int z = 0;\n"
                    "  int pos x = (int pos) z;\n"
                    "  return x;\n"
                    "}",
                    {"pos", "neg"});
  EXPECT_EQ(R.Status, RunStatus::CheckFailure);
}

TEST(InterpChecks, NonzeroCastChecksDisjointRanges) {
  RunResult Good = run("int main() {\n"
                       "  int v = -7;\n"
                       "  int nonzero x = (int nonzero) v;\n"
                       "  return 100 / x;\n"
                       "}",
                       {"pos", "neg", "nonzero"});
  ASSERT_TRUE(Good.ok()) << Good.TrapMessage;
  EXPECT_EQ(Good.ExitValue, -14); // C division truncates toward zero.

  RunResult Bad = run("int main() {\n"
                      "  int v = 0;\n"
                      "  int nonzero x = (int nonzero) v;\n"
                      "  return 100 / x;\n"
                      "}",
                      {"pos", "neg", "nonzero"});
  EXPECT_EQ(Bad.Status, RunStatus::CheckFailure);
  // The run-time check fires before the division could trap.
  EXPECT_TRUE(Bad.TrapMessage.empty());
}

TEST(InterpChecks, StaticallyProvableCastNotInstrumented) {
  RunResult R = run("int main() { int pos x = (int pos) 5; return x; }",
                    {"pos", "neg"});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ChecksExecuted, 0u); // Elided by the checker.
}

TEST(InterpChecks, UniqueGlobalScenarioRuns) {
  // Figure 6 executes cleanly end to end.
  RunResult R = run("int* unique array;\n"
                    "void make_array(int n) {\n"
                    "  array = (int*) malloc(sizeof(int) * n);\n"
                    "  for (int i = 0; i < n; i = i + 1)\n"
                    "    array[i] = i;\n"
                    "}\n"
                    "int main() { make_array(8); return array[7]; }",
                    {"unique"});
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitValue, 7);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Additional execution semantics
//===----------------------------------------------------------------------===//

TEST(InterpMore, CharLiteralsAreIntegers) {
  RunResult R = run("int main() { char c = 'A'; return c + 1; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 66);
}

TEST(InterpMore, StringIndexing) {
  RunResult R = run("int main() { char* s = \"hello\"; return s[1]; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 'e');
}

TEST(InterpMore, StringsAreNulTerminated) {
  RunResult R = run("int main() {\n"
                    "  char* s = \"abc\";\n"
                    "  int n = 0;\n"
                    "  while (s[n] != 0) n = n + 1;\n"
                    "  return n;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 3);
}

TEST(InterpMore, NestedStructs) {
  RunResult R = run("struct inner { int a; int b; };\n"
                    "struct outer { int x; struct inner in; int y; };\n"
                    "int main() {\n"
                    "  struct outer o;\n"
                    "  o.x = 1;\n"
                    "  o.in.a = 2;\n"
                    "  o.in.b = 3;\n"
                    "  o.y = 4;\n"
                    "  return o.x * 1000 + o.in.a * 100 + o.in.b * 10 +"
                    " o.y;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 1234);
}

TEST(InterpMore, PointerIntoStructField) {
  RunResult R = run("struct s { int a; int b; };\n"
                    "int main() {\n"
                    "  struct s v;\n"
                    "  v.a = 10;\n"
                    "  v.b = 20;\n"
                    "  int* p = &v.b;\n"
                    "  *p = 99;\n"
                    "  return v.b;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 99);
}

TEST(InterpMore, PointerToPointer) {
  RunResult R = run("int main() {\n"
                    "  int x = 7;\n"
                    "  int* p = &x;\n"
                    "  int** pp = &p;\n"
                    "  **pp = 42;\n"
                    "  return x;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(InterpMore, PointerEqualityByIdentity) {
  RunResult R = run("int main() {\n"
                    "  int x = 1;\n"
                    "  int y = 1;\n"
                    "  int* p = &x;\n"
                    "  int* q = &y;\n"
                    "  int* r = &x;\n"
                    "  if (p == q) return 1;\n"
                    "  if (p != r) return 2;\n"
                    "  return 0;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 0);
}

TEST(InterpMore, PointerDifferenceWithinBlock) {
  RunResult R = run("int main() {\n"
                    "  int* a = (int*) malloc(sizeof(int) * 8);\n"
                    "  int* p = a + 6;\n"
                    "  return p - a;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 6);
}

TEST(InterpMore, GlobalInitializersRunInOrder) {
  RunResult R = run("int a = 5;\n"
                    "int b = a * 2;\n"
                    "int main() { return b; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 10);
}

TEST(InterpMore, MutualRecursion) {
  RunResult R = run("int isOdd(int n);\n"
                    "int isEven(int n) {\n"
                    "  if (n == 0) return 1;\n"
                    "  return isOdd(n - 1);\n"
                    "}\n"
                    "int isOdd(int n) {\n"
                    "  if (n == 0) return 0;\n"
                    "  return isEven(n - 1);\n"
                    "}\n"
                    "int main() { return isEven(10) * 10 + isOdd(7); }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 11);
}

TEST(InterpMore, NegativeModuloTruncatesTowardZero) {
  RunResult R = run("int main() { return -7 % 3 + 10; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 9); // -7 % 3 == -1 in C.
}

TEST(InterpMore, ForWithEmptyHeaderParts) {
  RunResult R = run("int main() {\n"
                    "  int i = 0;\n"
                    "  for (; i < 5;) { i = i + 1; }\n"
                    "  return i;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 5);
}

TEST(InterpMore, SizeofStructCountsCells) {
  RunResult R = run("struct s { int a; int* p; int c; };\n"
                    "int main() { return sizeof(struct s); }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 3);
}

TEST(InterpMore, FreeThenAllocReusesNothing) {
  // Blocks are never recycled, so dangling pointers always trap rather
  // than aliasing new allocations.
  RunResult R = run("int main() {\n"
                    "  int* p = (int*) malloc(sizeof(int));\n"
                    "  free(p);\n"
                    "  int* q = (int*) malloc(sizeof(int));\n"
                    "  *q = 5;\n"
                    "  return *p;\n"
                    "}");
  EXPECT_EQ(R.Status, RunStatus::Trap);
}

TEST(InterpMore, LogicalOperatorsReturnZeroOne) {
  RunResult R = run("int main() {\n"
                    "  int a = 5 && 3;\n"
                    "  int b = 0 || 7;\n"
                    "  int c = !9;\n"
                    "  return a * 100 + b * 10 + c;\n"
                    "}");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 110);
}

//===----------------------------------------------------------------------===//
// Fuel: the bounded-step execution limit
//===----------------------------------------------------------------------===//

RunResult runWith(const std::string &Source, InterpOptions Options,
                  const std::vector<std::string> &QualNames = {}) {
  qual::QualifierSet Set = loadQuals(QualNames);
  DiagnosticEngine Diags;
  RunResult R = runSource(Source, Set, Diags, Options);
  EXPECT_FALSE(Diags.hasErrors());
  return R;
}

TEST(InterpFuel, InfiniteLoopExhaustsFuel) {
  InterpOptions Options;
  Options.Fuel = 10000;
  RunResult R = runWith("int main() { while (1) { } return 0; }", Options);
  EXPECT_EQ(R.Status, RunStatus::FuelExhausted);
  EXPECT_GT(R.Steps, 0u);
}

TEST(InterpFuel, InfiniteRecursionExhaustsFuel) {
  InterpOptions Options;
  Options.Fuel = 10000;
  RunResult R = runWith("int spin(int n) { return spin(n + 1); }\n"
                        "int main() { return spin(0); }",
                        Options);
  EXPECT_EQ(R.Status, RunStatus::FuelExhausted);
}

/// f(N) recurses N + 1 frames deep under main's: N + 2 active calls.
std::string recursionTo(unsigned N) {
  return "int f(int n) { if (n == 0) return 0; return f(n - 1) + 1; }\n"
         "int main() { return f(" +
         std::to_string(N) + "); }";
}

TEST(InterpFuel, CallDepthPastTheBoundExhaustsInsteadOfCrashing) {
  // Deep enough to overflow an 8 MB native stack without the bound.
  RunResult Deep = runWith(recursionTo(7000), {});
  EXPECT_EQ(Deep.Status, RunStatus::FuelExhausted);
  EXPECT_FALSE(Deep.ExitValue);
  // One call past the bound exhausts; the deepest allowed chain returns.
  EXPECT_EQ(runWith(recursionTo(MaxCallDepth - 1), {}).Status,
            RunStatus::FuelExhausted);
  RunResult Edge = runWith(recursionTo(MaxCallDepth - 2), {});
  ASSERT_TRUE(Edge.ok()) << Edge.TrapMessage;
  EXPECT_EQ(*Edge.ExitValue, MaxCallDepth - 2);
}

TEST(InterpFuel, TerminatingProgramIsUnaffected) {
  InterpOptions Options;
  Options.Fuel = 100000;
  RunResult R = runWith("int main() {\n"
                        "  int s = 0;\n"
                        "  for (int i = 0; i < 100; i = i + 1) s = s + i;\n"
                        "  return s;\n"
                        "}",
                        Options);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitValue, 4950);
  EXPECT_LT(R.Steps, 100000u);
}

TEST(InterpFuel, BoundaryIsExact) {
  // The same program under shrinking budgets: there is a threshold below
  // which it stops finishing, and the verdict is FuelExhausted, never a
  // trap or a wrong exit value.
  const char *Src = "int main() {\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 50; i = i + 1) s = s + 1;\n"
                    "  return s;\n"
                    "}";
  InterpOptions Generous;
  Generous.Fuel = 1000000;
  RunResult Full = runWith(Src, Generous);
  ASSERT_TRUE(Full.ok());
  ASSERT_EQ(Full.ExitValue, 50);

  // Exactly enough fuel succeeds; one unit less must exhaust.
  InterpOptions Exact;
  Exact.Fuel = Full.Steps;
  RunResult AtBoundary = runWith(Src, Exact);
  EXPECT_TRUE(AtBoundary.ok());
  EXPECT_EQ(AtBoundary.ExitValue, 50);

  InterpOptions Short;
  Short.Fuel = Full.Steps - 1;
  RunResult Starved = runWith(Src, Short);
  EXPECT_EQ(Starved.Status, RunStatus::FuelExhausted);
}

//===----------------------------------------------------------------------===//
// The invariant audit (the executable face of Theorem 5.1)
//===----------------------------------------------------------------------===//

TEST(InterpAudit, AcceptedStoresAuditCleanly) {
  InterpOptions Options;
  Options.AuditQualifiedStores = true;
  RunResult R = runWith("int main() {\n"
                        "  int pos x = 5;\n"
                        "  x = (x * 2);\n"
                        "  int neg y = (- x);\n"
                        "  int nonzero z = x;\n"
                        "  return 0;\n"
                        "}",
                        Options, {"pos", "neg", "nonzero"});
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_GE(R.AuditChecks, 4u);
  EXPECT_TRUE(R.AuditFailures.empty());
}

TEST(InterpAudit, UnsoundQualifierDefinitionIsCaught) {
  // A deliberately bogus qualifier: every expression derives it, but the
  // invariant demands positivity. The checker accepts `int bogus x = 0;`
  // (the case rule allows anything), the audit must record the violation —
  // and record it without trapping (Status stays Ok).
  const char *Defs = "value qualifier bogus(int Expr E)\n"
                     "  case E of\n"
                     "    E\n"
                     "  invariant value(E) > 0\n";
  qual::QualifierSet Set;
  DiagnosticEngine Diags;
  ASSERT_TRUE(qual::parseQualifiers(Defs, Set, Diags));
  ASSERT_TRUE(qual::checkWellFormed(Set, Diags));
  InterpOptions Options;
  Options.AuditQualifiedStores = true;
  RunResult R = runSource("int main() {\n"
                          "  int bogus x = 0;\n"
                          "  return 0;\n"
                          "}",
                          Set, Diags, Options);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(R.Status, RunStatus::Ok);
  ASSERT_EQ(R.AuditFailures.size(), 1u);
  EXPECT_EQ(R.AuditFailures[0].Qual, "bogus");
  EXPECT_GE(R.AuditChecks, 1u);
}

TEST(InterpAudit, OffByDefault) {
  RunResult R = run("int main() { int pos x = 5; return 0; }", {"pos", "neg"});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.AuditChecks, 0u);
  EXPECT_TRUE(R.AuditFailures.empty());
}

TEST(InterpAudit, UninitializedDeclIsExempt) {
  // `int pos x;` holds the default 0, which violates the invariant — but
  // the checker never vetted a store there, so the audit must not fire
  // until the first real assignment.
  InterpOptions Options;
  Options.AuditQualifiedStores = true;
  RunResult R = runWith("int main() {\n"
                        "  int pos x;\n"
                        "  x = 3;\n"
                        "  return 0;\n"
                        "}",
                        Options, {"pos", "neg"});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.AuditChecks, 1u);
  EXPECT_TRUE(R.AuditFailures.empty());
}

TEST(InterpAudit, EntryParamBindingIsExempt) {
  // main's parameters are bound to synthesized defaults (0), which the
  // checker did not vet; the audit must exempt that binding.
  InterpOptions Options;
  Options.AuditQualifiedStores = true;
  RunResult R = runWith("int main(int pos argc) { return 0; }", Options,
                        {"pos", "neg"});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.AuditChecks, 0u);
  EXPECT_TRUE(R.AuditFailures.empty());
}

TEST(InterpAudit, HelperCallArgumentsAreAudited) {
  // Interior calls ARE vetted by the checker, so their parameter bindings
  // are audited like any other store.
  InterpOptions Options;
  Options.AuditQualifiedStores = true;
  RunResult R = runWith("int twice(int pos a) { return (a * 2); }\n"
                        "int main() {\n"
                        "  int pos x = 4;\n"
                        "  return twice(x);\n"
                        "}",
                        Options, {"pos", "neg"});
  ASSERT_TRUE(R.ok());
  // Stores audited: the decl of x and the binding of a.
  EXPECT_GE(R.AuditChecks, 2u);
  EXPECT_TRUE(R.AuditFailures.empty());
}

} // namespace
