//===- Parallel.cpp -------------------------------------------------------===//

#include "checker/Parallel.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Sema.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

using namespace stq;
using namespace stq::checker;

namespace {

/// Accumulates \p From into \p Into: counters add, record lists append.
void mergeResult(CheckResult &Into, CheckResult &From) {
  Into.QualErrors += From.QualErrors;
  Into.Stats += From.Stats;
  Into.RuntimeChecks.insert(Into.RuntimeChecks.end(),
                            std::make_move_iterator(From.RuntimeChecks.begin()),
                            std::make_move_iterator(From.RuntimeChecks.end()));
  Into.Failures.insert(Into.Failures.end(),
                       std::make_move_iterator(From.Failures.begin()),
                       std::make_move_iterator(From.Failures.end()));
}

} // namespace

CheckResult stq::checker::checkProgramParallel(cminus::Program &Prog,
                                               const qual::QualifierSet &Quals,
                                               DiagnosticEngine &Diags,
                                               CheckerOptions Options,
                                               unsigned Jobs,
                                               ParallelStats *StatsOut,
                                               ThreadPool *Pool) {
  trace::Span Span("qualcheck");
  std::vector<cminus::FuncDecl *> Fns;
  for (cminus::FuncDecl *Fn : Prog.Functions)
    if (Fn->isDefinition())
      Fns.push_back(Fn);
  const size_t Units = Fns.size() + 1; // Unit 0 is the global initializers.

  if (StatsOut) {
    *StatsOut = {};
    StatsOut->Units = static_cast<unsigned>(Units);
    StatsOut->Jobs = Jobs == 0 ? 1 : Jobs;
  }

  if (Jobs <= 1) {
    // The sequential baseline: one checker, reporting straight into Diags.
    QualChecker Checker(Prog, Quals, Diags, Options);
    CheckResult Result = Checker.run();
    if (StatsOut)
      StatsOut->Executed = Units;
    return Result;
  }

  struct UnitRun {
    DiagnosticEngine Diags;
    CheckResult Result;
  };
  std::vector<UnitRun> Runs(Units);
  ThreadPool::PoolStats PoolStats;
  parallelFor(Jobs, Units, [&](size_t I) {
    QualChecker Checker(Prog, Quals, Runs[I].Diags, Options);
    Runs[I].Result =
        I == 0 ? Checker.runGlobals() : Checker.runFunction(Fns[I - 1]);
  }, &PoolStats, Pool);

  // Merge in unit order: globals first, then functions as declared. This
  // reproduces the sequential checker's diagnostic order exactly, so any
  // job count produces byte-identical output.
  CheckResult Merged;
  for (UnitRun &Run : Runs) {
    for (const Diagnostic &D : Run.Diags.diagnostics())
      Diags.report(D);
    mergeResult(Merged, Run.Result);
  }
  if (StatsOut) {
    StatsOut->Executed = PoolStats.Executed;
    StatsOut->Steals = PoolStats.Steals;
  }
  return Merged;
}

CheckResult stq::checker::checkSourceParallel(
    const std::string &Source, const qual::QualifierSet &Quals,
    DiagnosticEngine &Diags, std::unique_ptr<cminus::Program> &ProgOut,
    CheckerOptions Options, unsigned Jobs, ParallelStats *StatsOut) {
  ProgOut = cminus::parseProgram(Source, Quals.names(), Diags);
  CheckResult Empty;
  if (Diags.hasErrors())
    return Empty;
  if (!cminus::runSema(*ProgOut, Quals.refNames(), Diags))
    return Empty;
  if (!cminus::lowerProgram(*ProgOut, Diags))
    return Empty;
  if (!cminus::verifyLoweredProgram(*ProgOut, Diags))
    return Empty;
  return checkProgramParallel(*ProgOut, Quals, Diags, Options, Jobs,
                              StatsOut);
}
