//===- Session.cpp --------------------------------------------------------===//

#include "driver/Session.h"

#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "qual/Builtins.h"
#include "qual/QualParser.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <atomic>
#include <fstream>
#include <ostream>
#include <sstream>

using namespace stq;

bool stq::readFileToString(const std::string &Path, std::string &Out,
                           std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

Session::Session(SessionOptions Options) : Opts(std::move(Options)) {
  if (Opts.SharedQualifiers)
    QualsView = Opts.SharedQualifiers;
  if (Opts.SharedCache)
    CachePtr = Opts.SharedCache;
}

Session::~Session() = default;

bool Session::loadQualifiers() {
  if (Loaded != LoadState::NotLoaded)
    return Loaded == LoadState::Ok;
  if (Opts.SharedQualifiers) {
    // The owner loaded (and well-formed-checked) the set once.
    Loaded = LoadState::Ok;
    Metrics.set("qual.loaded", QualsView->all().size());
    return true;
  }
  Loaded = LoadState::Failed;

  stats::ScopedTimer Timer(&Metrics, "phase.qualload_seconds");
  std::vector<std::string> Builtins = Opts.Builtins;
  if (Builtins.empty() && Opts.QualFiles.empty() && Opts.QualSources.empty() &&
      Opts.ImplicitAllBuiltins)
    Builtins = qual::builtinQualifierNames();

  for (const std::string &Name : Builtins) {
    std::string Source = qual::builtinQualifierSource(Name);
    if (Source.empty()) {
      Diags.error(SourceLoc(), "driver",
                  "unknown builtin qualifier '" + Name + "'");
      return false;
    }
    if (!qual::parseQualifiers(Source, Quals, Diags))
      return false;
  }
  for (const std::string &Path : Opts.QualFiles) {
    std::string Source, Error;
    if (!readFileToString(Path, Source, Error)) {
      Diags.error(SourceLoc(), "driver", Error);
      return false;
    }
    if (!qual::parseQualifiers(Source, Quals, Diags))
      return false;
  }
  for (const std::string &Source : Opts.QualSources)
    if (!qual::parseQualifiers(Source, Quals, Diags))
      return false;
  if (!qual::checkWellFormed(Quals, Diags))
    return false;

  Loaded = LoadState::Ok;
  Metrics.set("qual.loaded", Quals.all().size());
  return true;
}

Session::FrontEndOutcome Session::frontEnd(const std::string &Source) {
  FrontEndOutcome Out;
  if (loadQualifiers())
    Out.Ok = cminus::runFrontEnd(Source, QualsView->names(),
                                 QualsView->refNames(), Diags, Out.Program,
                                 &Metrics);
  publishDiagMetrics();
  return Out;
}

std::vector<checker::RuntimeCastCheck>
Session::checkProgram(cminus::Program &Prog, DiagnosticEngine &D,
                      unsigned Jobs, checker::incremental::Engine *Store,
                      const std::string &Unit,
                      const checker::incremental::Hash128 *Seed,
                      Verdict &Out) {
  stats::ScopedTimer Timer(&Metrics, "phase.qualcheck_seconds");
  if (Store) {
    Out.Result = Store->recheck(Unit, Prog, *QualsView, D, Opts.Checker, Jobs,
                                &Out.Incremental, Opts.SharedPool, Seed);
    Out.Pipeline = Out.Incremental;
    return {};
  }
  checker::CheckResult R = checker::checkProgramParallel(
      Prog, *QualsView, D, Opts.Checker, Jobs, &Out.Pipeline, Opts.SharedPool);
  Out.Result = R.counts();
  return std::move(R.RuntimeChecks);
}

Session::CheckOutcome
Session::checkSingle(const std::string &Source,
                     checker::incremental::Engine *Store) {
  CheckOutcome Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  Out.FrontEndOk =
      cminus::runFrontEnd(Source, QualsView->names(), QualsView->refNames(),
                          Diags, Out.Program, &Metrics);
  if (Out.FrontEndOk) {
    Out.RuntimeChecks = checkProgram(*Out.Program, Diags, Opts.Jobs, Store,
                                     Opts.IncrementalUnit, nullptr, Out);
    publishCheckMetrics(Out.Result, Out.Pipeline);
    if (Store)
      publishIncrementalMetrics(Out.Incremental);
  }
  publishDiagMetrics();
  return Out;
}

Session::CheckOutcome Session::check(const std::string &Source) {
  return checkSingle(Source, nullptr);
}

Session::CheckOutcome Session::recheck(const std::string &Source) {
  return checkSingle(Source, &incrementalEngine());
}

frontend::CompileOptions Session::compileOptions() const {
  frontend::CompileOptions CO;
  CO.Pp.IncludeDirs = Opts.IncludeDirs;
  CO.Pp.Defines = Opts.Defines;
  CO.Files = Opts.ShippedFiles;
  CO.QualNames = QualsView->names();
  CO.RefQualNames = QualsView->refNames();
  return CO;
}

/// What one TU's task leaves behind once its AST and preprocessed text are
/// freed: exactly what the ordered merge needs.
struct Session::UnitResult : Verdict {
  bool FrontEndOk = false;
  /// Preprocess through verify, remapped to file-attributed coordinates.
  std::vector<Diagnostic> FrontEndDiags;
  /// The checker's, remapped; reported only when the whole load is clean.
  std::vector<Diagnostic> CheckDiags;
  pp::PpStats Pp;
  frontend::LinkSummary Link;
};

void Session::checkUnit(const frontend::InputFile &In,
                        const frontend::CompileOptions &CO, unsigned Jobs,
                        checker::incremental::Engine *Store, UnitResult &R) {
  trace::Span Span("tu");
  if (Span.active())
    Span.detail(In.Name);
  DiagnosticEngine FrontDiags;
  frontend::TUnit U =
      frontend::compileUnit(In.Name, In.Text, CO, FrontDiags, &Metrics);
  R.FrontEndOk = U.FrontEndOk;
  R.Pp = U.Pp.Stats;
  R.FrontEndDiags = FrontDiags.diagnostics();
  {
    trace::Span SummarySpan("summary");
    stats::ScopedTimer Timer(&Metrics, "phase.summary_seconds");
    R.Link = frontend::summarizeUnit(U);
  }

  if (U.FrontEndOk) {
    DiagnosticEngine CheckDiags;
    // The TU's post-preprocess stream hash re-keys every work item in the
    // unit: a header edit dirties every includer. Snapshots are per TU:
    // signature-change invalidation must diff a TU against its own
    // previous version, not a sibling's.
    checker::incremental::Hash128 Seed;
    Seed.A = U.Pp.StreamHashA;
    Seed.B = U.Pp.StreamHashB;
    checkProgram(*U.Program, CheckDiags, Jobs, Store,
                 Opts.IncrementalUnit.empty()
                     ? U.Name
                     : Opts.IncrementalUnit + "/" + U.Name,
                 &Seed, R);
    R.CheckDiags = CheckDiags.diagnostics();
  }

  {
    trace::Span RemapSpan("remap");
    stats::ScopedTimer Timer(&Metrics, "phase.remap_seconds");
    frontend::remapDiagnostics(R.FrontEndDiags, 0, U.Name, U.Pp.Map);
    frontend::remapDiagnostics(R.CheckDiags, 0, U.Name, U.Pp.Map);
  }
  trace::Span FreeSpan("free");
  stats::ScopedTimer Timer(&Metrics, "phase.free_seconds");
  U = {};
}

Session::FilesOutcome
Session::checkUnits(const std::vector<frontend::InputFile> &Inputs,
                    checker::incremental::Engine *Store) {
  FilesOutcome Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  const frontend::CompileOptions CO = compileOptions();
  const size_t N = Inputs.size();
  const unsigned Jobs = Opts.Jobs == 0 ? 1 : Opts.Jobs;
  // parallelFor runs a lone task inline on this thread, so a single TU
  // may fan its functions out over the workers. Any other task checks
  // with one job: a TaskGroup task must not fan out again.
  const unsigned TaskJobs = N == 1 ? Jobs : 1;

  std::vector<UnitResult> Units(N);
  std::atomic<unsigned> Live{0}, PeakLive{0};
  ThreadPool::PoolStats Fanout;
  {
    trace::Span Span("fanout");
    stats::ScopedTimer Timer(&Metrics, "phase.fanout_seconds");
    parallelFor(
        Jobs, N,
        [&](size_t I) {
          unsigned Now = Live.fetch_add(1) + 1;
          unsigned Peak = PeakLive.load();
          while (Now > Peak && !PeakLive.compare_exchange_weak(Peak, Now)) {
          }
          checkUnit(Inputs[I], CO, TaskJobs, Store, Units[I]);
          Live.fetch_sub(1);
        },
        &Fanout, Opts.SharedPool);
  }
  Metrics.set("frontend.live_units_peak", PeakLive.load());

  // The serial tail, in the order a load-then-check pipeline reports:
  // front-end diagnostics by input, link errors, then checker output only
  // for a clean load.
  std::vector<frontend::LinkSummary> Links(N);
  for (size_t I = 0; I < N; ++I)
    Links[I] = std::move(Units[I].Link);
  DiagnosticEngine LinkDiags;
  {
    trace::Span Span("link");
    stats::ScopedTimer Timer(&Metrics, "phase.link_seconds");
    Out.LinkOk = frontend::linkSummaries(Links, LinkDiags);
  }
  trace::Span Span("merge");
  stats::ScopedTimer Timer(&Metrics, "phase.merge_seconds");
  Out.Units = static_cast<unsigned>(N);
  Out.FrontEndOk = N > 0;
  pp::PpStats Pp;
  unsigned UnitsOk = 0;
  for (UnitResult &U : Units) {
    for (Diagnostic &D : U.FrontEndDiags)
      Diags.report(std::move(D));
    Out.FrontEndOk = Out.FrontEndOk && U.FrontEndOk;
    UnitsOk += U.FrontEndOk;
    Pp += U.Pp;
  }
  for (const Diagnostic &D : LinkDiags.diagnostics())
    Diags.report(D);
  publishFrontendMetrics(N, UnitsOk, Pp);
  if (Out.loaded()) {
    checker::incremental::RecheckStats &Incr = Out.Incremental;
    for (UnitResult &U : Units) {
      for (Diagnostic &D : U.CheckDiags)
        Diags.report(std::move(D));
      Out.Result += U.Result;
      Out.Pipeline.Units += U.Pipeline.Units;
      Incr.Units += U.Incremental.Units;
      Incr.Hits += U.Incremental.Hits;
      Incr.Rechecked += U.Incremental.Rechecked;
      Incr.SignatureDirtied += U.Incremental.SignatureDirtied;
      Incr.Evictions += U.Incremental.Evictions;
    }
    // pool.* describes the fan-out: over TUs, or over a lone TU's
    // functions when that task fanned out itself.
    Out.Pipeline.Jobs = Jobs;
    Out.Pipeline.Executed = N == 1 ? Units[0].Pipeline.Executed
                                   : Fanout.Executed;
    Out.Pipeline.Steals = N == 1 ? Units[0].Pipeline.Steals : Fanout.Steals;
    publishCheckMetrics(Out.Result, Out.Pipeline);
    if (Store)
      publishIncrementalMetrics(Incr);
  }
  publishDiagMetrics();
  return Out;
}

Session::FilesOutcome
Session::checkFiles(const std::vector<frontend::InputFile> &Inputs) {
  return checkUnits(Inputs, nullptr);
}

Session::FilesOutcome
Session::recheckFiles(const std::vector<frontend::InputFile> &Inputs) {
  return checkUnits(Inputs, &incrementalEngine());
}

checker::incremental::Engine &Session::incrementalEngine() {
  if (Opts.SharedIncremental)
    return *Opts.SharedIncremental;
  if (!OwnedIncremental)
    OwnedIncremental = std::make_unique<checker::incremental::Engine>();
  return *OwnedIncremental;
}

void Session::loadCacheFile() {
  if (Opts.CacheFile.empty() || CacheFileLoaded)
    return;
  CacheFileLoaded = true;
  // A missing file is the normal cold start; anything else that fails to
  // load (truncated, corrupt, wrong version header) is ignored with a
  // warning — a stale cache must never be trusted.
  std::ifstream Probe(Opts.CacheFile);
  if (!Probe)
    return;
  Probe.close();
  std::string Error;
  if (!CachePtr->load(Opts.CacheFile, &Error))
    Diags.warning(SourceLoc(), "driver", "prover cache file: " + Error);
}

void Session::saveCacheFile() {
  if (Opts.CacheFile.empty())
    return;
  std::string Error;
  if (!CachePtr->save(Opts.CacheFile, &Error) && !CacheSaveWarned) {
    // Warn once: prove() and proveQualifier() save after every call, and a
    // persistently unwritable path would otherwise repeat the warning.
    CacheSaveWarned = true;
    Diags.warning(SourceLoc(), "driver", "prover cache file: " + Error);
  }
}

std::vector<soundness::SoundnessReport> Session::prove() {
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return {};
  }
  loadCacheFile();
  unsigned Jobs = Opts.Jobs;
  if (Opts.WarmProverCache) {
    // A silent first pass: every obligation lands in the cache, so the
    // reported pass below replays entirely from it.
    soundness::SoundnessChecker Warm(*QualsView, Opts.Prover, nullptr,
                                     CachePtr, &Metrics, Opts.SharedPool);
    Warm.checkAll(Jobs);
  }
  std::vector<soundness::SoundnessReport> Reports;
  {
    stats::ScopedTimer Timer(&Metrics, "phase.prove_seconds");
    soundness::SoundnessChecker SC(*QualsView, Opts.Prover, nullptr, CachePtr,
                                   &Metrics, Opts.SharedPool);
    Reports = SC.checkAll(Jobs);
  }
  saveCacheFile();
  publishProveMetrics(Reports);
  publishDiagMetrics();
  return Reports;
}

soundness::SoundnessReport Session::proveQualifier(const std::string &Name) {
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return {};
  }
  loadCacheFile();
  soundness::SoundnessReport Report;
  {
    stats::ScopedTimer Timer(&Metrics, "phase.prove_seconds");
    soundness::SoundnessChecker SC(*QualsView, Opts.Prover, nullptr, CachePtr,
                                   &Metrics, Opts.SharedPool);
    Report = SC.checkQualifier(Name, Opts.Jobs);
  }
  saveCacheFile();
  publishProveMetrics({Report});
  publishDiagMetrics();
  return Report;
}

Session::RunOutcome Session::run(const std::string &Source) {
  RunOutcome Out;
  Out.Check = check(Source);
  if (!Out.Check.FrontEndOk || Diags.hasErrors()) {
    Out.Run.Status = interp::RunStatus::SetupError;
    Out.Run.TrapMessage = "front-end errors";
    return Out;
  }
  {
    stats::ScopedTimer Timer(&Metrics, "phase.execute_seconds");
    if (Opts.Backend == SessionOptions::ExecBackend::Vm) {
      vm::VmOptions VO;
      VO.Interp = Opts.Interp;
      VO.ElideChecks = Opts.VmElideChecks;
      // Elision hypotheses come from static qualifier types, which only
      // mean something on a program the checker accepted (Theorem 5.1).
      VO.ProgramCheckedClean = Out.Check.Result.ok();
      VO.Prover = Opts.Prover;
      VO.Cache = CachePtr;
      VO.Metrics = &Metrics;
      Out.Run = vm::runProgram(*Out.Check.Program, *QualsView,
                               Out.Check.RuntimeChecks, VO);
    } else {
      Out.Run = interp::runProgram(*Out.Check.Program, *QualsView,
                                   Out.Check.RuntimeChecks, Opts.Interp);
    }
  }
  publishRunMetrics(Out.Run);
  return Out;
}

Session::InferenceReport Session::infer(const std::string &Source) {
  InferenceReport Out;
  if (!loadQualifiers()) {
    publishDiagMetrics();
    return Out;
  }
  loadCacheFile();
  Out.FrontEndOk =
      cminus::runFrontEnd(Source, QualsView->names(), QualsView->refNames(),
                          Diags, Out.Program, &Metrics);
  if (Out.FrontEndOk) {
    stats::ScopedTimer Timer(&Metrics, "phase.infer_seconds");
    checker::ConstraintInferenceOptions CI;
    CI.Scope = Opts.Infer.Scope;
    CI.Jobs = Opts.Jobs;
    CI.Pool = Opts.SharedPool;
    CI.Prover = Opts.Prover;
    CI.Cache = CachePtr;
    // Apply-mode always applies (and reports) the complete minimal set:
    // a truncated application is not guaranteed to re-check clean.
    CI.MaxSuggestions = Opts.Infer.Apply ? 0 : Opts.Infer.MaxSuggestions;
    CI.Checker = Opts.Checker;
    Out.Report =
        Opts.Infer.Engine == checker::InferenceEngine::Fixpoint
            ? checker::fixpointReport(*Out.Program, *QualsView, CI)
            : checker::inferWithConstraints(*Out.Program, *QualsView, CI);
    if (Opts.Infer.Apply) {
      checker::applyReport(*Out.Program, Out.Report);
      Out.AnnotatedSource = cminus::printProgram(*Out.Program);
    }
  }
  if (Out.FrontEndOk) {
    const checker::InferenceStats &S = Out.Report.Stats;
    Metrics.set("infer.units", S.Units);
    Metrics.set("infer.atoms", S.Atoms);
    Metrics.set("infer.constraints", S.Constraints);
    Metrics.set("infer.solve_rounds", S.SolveRounds);
    Metrics.set("infer.evaluations", S.Evaluations);
    Metrics.set("infer.dropped", S.Dropped);
    Metrics.set("infer.variables", S.Variables);
    Metrics.set("infer.suggestions", S.Suggested);
    Metrics.set("infer.prover_refinements", S.Implied);
    Metrics.set("infer.prover_queries", S.ProverQueries);
    // Warmth-dependent, so it lives here and not in the byte-stable
    // stq-inference-v1 document.
    Metrics.set("infer.prover_cache_hits", S.ProverCacheHits);
    // Historical names, kept for dashboards that predate the constraint
    // engine: all inferred pairs and the solve's round count.
    Metrics.set("infer.annotations", Out.Report.totalInferred());
    Metrics.set("infer.iterations", S.SolveRounds);
  }
  saveCacheFile();
  publishCacheMetrics();
  publishDiagMetrics();
  return Out;
}

void Session::publishCheckMetrics(const checker::CheckCounts &Result,
                                  const checker::ParallelStats &Pipeline) {
  const checker::CheckerStats &S = Result.Stats;
  Metrics.set("check.units", Pipeline.Units);
  Metrics.set("check.qual_errors", Result.QualErrors);
  Metrics.set("check.deref_sites", S.DerefSites);
  Metrics.set("check.restrict_checks", S.RestrictChecks);
  Metrics.set("check.restrict_failures", S.RestrictFailures);
  Metrics.set("check.assign_checks", S.AssignChecks);
  Metrics.set("check.assign_failures", S.AssignFailures);
  Metrics.set("check.ref_assign_checks", S.RefAssignChecks);
  Metrics.set("check.ref_assign_failures", S.RefAssignFailures);
  Metrics.set("check.disallow_failures", S.DisallowFailures);
  Metrics.set("check.casts_to_value_qualified", S.CastsToValueQualified);
  Metrics.set("check.casts_to_ref_qualified", S.CastsToRefQualified);
  Metrics.set("check.elided_cast_checks", S.ElidedCastChecks);
  Metrics.set("check.format_string_checks", S.FormatStringChecks);
  Metrics.set("check.runtime_checks", Result.RuntimeCheckCount);
  Metrics.set("check.memo.has_qual_queries", S.HasQualQueries);
  Metrics.set("check.memo.hits", S.MemoHits);
  // Scheduling-dependent by definition (see docs/OBSERVABILITY.md).
  Metrics.set("pool.jobs", Pipeline.Jobs);
  Metrics.set("pool.executed", Pipeline.Executed);
  Metrics.set("pool.steals", Pipeline.Steals);
}

void Session::publishIncrementalMetrics(
    const checker::incremental::RecheckStats &Stats) {
  // incremental.*: how much of the unit the store saved us. Scheduling- and
  // history-dependent by design, so they sit behind the same metrics
  // exclusion as pool.* (docs/OBSERVABILITY.md). The check.* counters a
  // recheck publishes beside them match a cold check() byte for byte (the
  // edit-replay harness pins this down).
  checker::incremental::Engine &E = incrementalEngine();
  Metrics.set("incremental.units", Stats.Units);
  Metrics.set("incremental.hits", Stats.Hits);
  Metrics.set("incremental.rechecked", Stats.Rechecked);
  Metrics.set("incremental.sig_dirtied", Stats.SignatureDirtied);
  Metrics.set("incremental.evictions", Stats.Evictions);
  Metrics.set("incremental.store.entries", E.entries());
  Metrics.set("incremental.store.evictions", E.evictions());
}

void Session::publishFrontendMetrics(size_t Units, unsigned UnitsOk,
                                     const pp::PpStats &Pp) {
  Metrics.set("pp.files", Pp.Files);
  Metrics.set("pp.includes", Pp.Includes);
  Metrics.set("pp.macros_defined", Pp.MacrosDefined);
  Metrics.set("pp.expansions", Pp.Expansions);
  Metrics.set("pp.conditionals", Pp.Conditionals);
  Metrics.set("pp.lines_in", Pp.LinesIn);
  Metrics.set("pp.lines_out", Pp.LinesOut);
  Metrics.set("frontend.units", Units);
  Metrics.set("frontend.units_ok", UnitsOk);
  Metrics.set("frontend.link_errors", Diags.countInPhase("link"));
}

void Session::publishProveMetrics(
    const std::vector<soundness::SoundnessReport> &Reports) {
  uint64_t Sound = 0, Unsound = 0, Flow = 0;
  for (const soundness::SoundnessReport &R : Reports) {
    if (R.IsFlowQualifier)
      ++Flow;
    else if (R.sound())
      ++Sound;
    else
      ++Unsound;
  }
  Metrics.set("prove.qualifiers", Reports.size());
  Metrics.set("prove.qualifiers_sound", Sound);
  Metrics.set("prove.qualifiers_unsound", Unsound);
  Metrics.set("prove.qualifiers_flow", Flow);
  publishCacheMetrics();
}

void Session::publishRunMetrics(const interp::RunResult &R) {
  Metrics.set("interp.steps", R.Steps);
  Metrics.set("interp.checks_executed", R.ChecksExecuted);
  Metrics.set("interp.check_failures", R.CheckFailures.size());
  Metrics.set("interp.format_violations", R.FormatViolations.size());
}

void Session::publishCacheMetrics() {
  prover::CacheStats CS = CachePtr->stats();
  Metrics.set("prover.cache.lookups", CS.Lookups);
  Metrics.set("prover.cache.hits", CS.Hits);
  Metrics.set("prover.cache.misses", CS.Misses);
  Metrics.set("prover.cache.insertions", CS.Insertions);
  Metrics.set("prover.cache.entries", CS.Entries);
  Metrics.set("prover.cache.contended", CS.Contended);
  Metrics.set("prover.cache.persist_loaded", CS.PersistLoaded);
  Metrics.set("prover.cache.persist_hits", CS.PersistHits);
  Metrics.setGauge("prover.cache.hit_rate", CS.hitRate());
  Metrics.setGauge("prover.cache.seconds_saved", CS.SecondsSaved);
}

void Session::publishDiagMetrics() {
  Metrics.set("diag.errors", Diags.errorCount());
  Metrics.set("diag.warnings", Diags.warningCount());
  Metrics.set("diag.total", Diags.diagnostics().size());
}

void Session::emitMetrics(std::ostream &OS, metrics::Format Format) {
  publishDiagMetrics();
  std::unique_ptr<metrics::MetricsEmitter> Emitter =
      metrics::MetricsEmitter::create(Format);
  Emitter->emit(Metrics.snapshot(), OS);
}
