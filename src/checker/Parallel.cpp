//===- Parallel.cpp -------------------------------------------------------===//

#include "checker/Parallel.h"

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

std::vector<cminus::FuncDecl *>
stq::checker::workItemFunctions(const cminus::Program &Prog) {
  std::vector<cminus::FuncDecl *> Fns;
  for (cminus::FuncDecl *Fn : Prog.Functions)
    if (Fn->isDefinition())
      Fns.push_back(Fn);
  return Fns;
}

CheckResult stq::checker::checkWorkItems(
    cminus::Program &Prog, const std::vector<cminus::FuncDecl *> &Fns,
    const qual::QualifierSet &Quals, DiagnosticEngine &Diags,
    const CheckerOptions &Options, unsigned Jobs, ParallelStats *StatsOut,
    ThreadPool *Pool, ItemStore *Store) {
  const size_t Items = Fns.size() + 1;
  std::vector<ItemVerdict> Served(Store ? Items : 0);
  std::vector<size_t> Todo;
  Todo.reserve(Items);
  for (size_t I = 0; I < Items; ++I)
    if (!Store || !Store->Probe(I, Served[I]))
      Todo.push_back(I);

  struct ItemRun {
    DiagnosticEngine Diags;
    CheckResult Result;
  };
  std::vector<ItemRun> Runs(Todo.size());
  ThreadPool::PoolStats PoolStats;
  parallelFor(
      Jobs, Todo.size(),
      [&](size_t J) {
        const size_t I = Todo[J];
        QualChecker Checker(Prog, Quals, Runs[J].Diags, Options);
        Runs[J].Result =
            I == 0 ? Checker.runGlobals() : Checker.runFunction(Fns[I - 1]);
      },
      &PoolStats, Pool);
  if (StatsOut)
    *StatsOut = {static_cast<unsigned>(Items), Jobs == 0 ? 1 : Jobs,
                 PoolStats.Executed, PoolStats.Steals};

  // Merge in item order: globals first, then functions as declared. This
  // reproduces the sequential checker's diagnostic order exactly, so any
  // job count and any mix of served and checked items produce
  // byte-identical output.
  CheckResult Merged;
  for (size_t I = 0, J = 0; I < Items; ++I) {
    if (J == Todo.size() || Todo[J] != I) {
      for (const Diagnostic &D : Served[I].Diags)
        Diags.report(D);
      continue;
    }
    ItemRun &Run = Runs[J++];
    if (Store)
      Store->Fill(I, {Run.Result.counts(), Run.Diags.diagnostics()});
    for (const Diagnostic &D : Run.Diags.diagnostics())
      Diags.report(D);
    mergeResult(Merged, Run.Result);
  }
  return Merged;
}

CheckResult stq::checker::checkProgramParallel(cminus::Program &Prog,
                                               const qual::QualifierSet &Quals,
                                               DiagnosticEngine &Diags,
                                               CheckerOptions Options,
                                               unsigned Jobs,
                                               ParallelStats *StatsOut,
                                               ThreadPool *Pool) {
  trace::Span Span("qualcheck");
  return checkWorkItems(Prog, workItemFunctions(Prog), Quals, Diags, Options,
                        Jobs, StatsOut, Pool, nullptr);
}
