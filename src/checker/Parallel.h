//===- Parallel.h - The work-item loop --------------------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one work-item loop every check runs through, at every job count.
/// The program is split into work items — item 0 is the global
/// initializers, item I > 0 the I-th function definition — and each item is
/// checked by its own QualChecker into its own DiagnosticEngine on a
/// work-stealing pool. The checker only reads the lowered AST, so items
/// share the program without synchronization.
///
/// Determinism: item results are merged in item order, which reproduces
/// the diagnostic and runtime-check order of the sequential reference, one
/// QualChecker::run() (checker::checkSource). `--jobs N` must be
/// byte-identical to it for every N, 1 included; the differential test
/// enforces this. The hasQualifier memo is per checker instance, so with
/// one instance per item at every job count its counters (Stats.MemoHits,
/// Stats.HasQualQueries) are deterministic too.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CHECKER_PARALLEL_H
#define STQ_CHECKER_PARALLEL_H

#include "checker/Checker.h"

#include <functional>

namespace stq {
class ThreadPool;
}

namespace stq::checker {

/// Counters describing one run of the work-item loop.
struct ParallelStats {
  /// Work items: 1 (globals) + function definitions.
  unsigned Units = 0;
  /// Worker threads used.
  unsigned Jobs = 0;
  /// Tasks executed / stolen on the pool (0 stolen when Jobs <= 1).
  uint64_t Executed = 0;
  uint64_t Steals = 0;
};

/// One work item's verdict by value: no AST pointers, so a verdict store
/// can keep it past the program.
struct ItemVerdict : CheckCounts {
  std::vector<Diagnostic> Diags;
};

/// A verdict store (incremental::Engine). Probe(I, V) serves item I into V,
/// or returns false to have it checked; it is called for every item, in
/// order, before any checking. Fill(I, V) then receives each checked item's
/// verdict, in order.
struct ItemStore {
  std::function<bool(size_t I, ItemVerdict &V)> Probe;
  std::function<void(size_t I, const ItemVerdict &V)> Fill;
};

/// The function definitions of \p Prog in declaration order: work item
/// I > 0 is element I - 1.
std::vector<cminus::FuncDecl *> workItemFunctions(const cminus::Program &Prog);

/// The work-item loop: checks every item of \p Prog (\p Fns is
/// workItemFunctions(Prog)) that \p Store does not serve, over \p Jobs
/// workers (a task group on \p Pool when given), then reports every item's
/// diagnostics into \p Diags in item order. Returns the merged verdict of
/// the checked items.
CheckResult checkWorkItems(cminus::Program &Prog,
                           const std::vector<cminus::FuncDecl *> &Fns,
                           const qual::QualifierSet &Quals,
                           DiagnosticEngine &Diags,
                           const CheckerOptions &Options, unsigned Jobs,
                           ParallelStats *StatsOut, ThreadPool *Pool,
                           ItemStore *Store);

/// Checks every work item of \p Prog with \p Jobs workers (checkWorkItems()
/// without a store).
CheckResult checkProgramParallel(cminus::Program &Prog,
                                 const qual::QualifierSet &Quals,
                                 DiagnosticEngine &Diags,
                                 CheckerOptions Options = {},
                                 unsigned Jobs = 1,
                                 ParallelStats *StatsOut = nullptr,
                                 ThreadPool *Pool = nullptr);

} // namespace stq::checker

#endif // STQ_CHECKER_PARALLEL_H
