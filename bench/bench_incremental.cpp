//===- bench_incremental.cpp - Edit-to-verdict latency, cold vs warm ------===//
//
// Measures the incremental layer against its reason to exist: after a
// small edit, a warm `recheck` should answer in time proportional to the
// edit, not the unit. A synthetic unit of N functions in a call chain is
// checked cold, then re-checked warm after
//
//   * no edit at all (every work item replays from the verdict store),
//   * a one-function body edit (exactly one item re-checks),
//   * a signature edit at the chain's root (every transitive caller
//     re-checks — the worst warm case).
//
// Alongside the latencies the report records the work-item counters, and
// the process exits non-zero unless a warm single-function edit re-checked
// strictly fewer functions than the cold run — the acceptance criterion CI
// pins.
//
// Results go to BENCH_incremental.json (schema stq-bench-incremental-v1);
// STQ_INCREMENTAL_BENCH_OUT overrides the path.
//
//===----------------------------------------------------------------------===//

#include "checker/Incremental.h"
#include "driver/Session.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace stq;
using checker::incremental::Engine;

namespace {

constexpr int NumFns = 60;

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Renders the synthetic unit: f0 <- f1 <- ... <- f59 <- main. \p Variant
/// switches one constant inside \p EditedFn between two same-width values
/// (a pure body edit: no other function's source positions move).
/// \p RootSig widens f0's parameter type (a signature edit dirtying the
/// whole chain).
std::string program(int EditedFn, int Variant, bool RootSig = false) {
  std::ostringstream OS;
  OS << "int f0(int " << (RootSig ? "pos " : "") << "a) { int pos p = "
     << (EditedFn == 0 ? 11 + Variant : 11) << "; return a + p; }\n";
  for (int I = 1; I < NumFns; ++I) {
    // Enough qualifier work per body (derived pos locals, an assignment
    // chain) that checking a function costs clearly more than hashing it.
    // Each function gets a distinct literal so a cold Session's prover
    // cache cannot collapse the whole unit into one proof per shape.
    OS << "int f" << I << "(int a) { int pos p = "
       << (EditedFn == I ? 2100 + Variant : 21 + I)
       << "; int pos q = p * p; int pos r = q * p + 1;"
          " int pos s = r + q; int pos t = s * s + p;"
          " int x = t + a; return f"
       << (I - 1) << "(x) + " << I % 7 << "; }\n";
  }
  OS << "int main() { return f" << (NumFns - 1) << "(1); }\n";
  return OS.str();
}

/// The session's mean qualcheck-phase duration (front end excluded) — the
/// part of the latency the incremental layer can actually shrink.
double qualcheckSeconds(Session &S) {
  stats::Registry::Snapshot Snap = S.metrics().snapshot();
  auto It = Snap.Histograms.find("phase.qualcheck_seconds");
  return It == Snap.Histograms.end() ? 0.0 : It->second.mean();
}

/// One warm recheck through a fresh Session sharing \p E (the server's
/// per-request shape). Returns elapsed seconds; stats land in \p Stats and
/// the checking-phase time in \p Phase when non-null.
double recheckOnce(Engine &E, const std::string &Source,
                   checker::incremental::RecheckStats &Stats,
                   double *Phase = nullptr) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Opts.SharedIncremental = &E;
  Opts.IncrementalUnit = "bench";
  Session S(Opts);
  auto Start = std::chrono::steady_clock::now();
  Session::CheckOutcome Out = S.recheck(Source);
  double Elapsed = secondsSince(Start);
  if (!Out.FrontEndOk) {
    std::fprintf(stderr, "bench_incremental: front end rejected the unit\n");
    std::exit(1);
  }
  Stats = Out.Incremental;
  if (Phase)
    *Phase = qualcheckSeconds(S);
  return Elapsed;
}

double checkOnce(const std::string &Source, double *Phase = nullptr) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Session S(Opts);
  auto Start = std::chrono::steady_clock::now();
  Session::CheckOutcome Out = S.check(Source);
  double Elapsed = secondsSince(Start);
  if (!Out.FrontEndOk)
    std::exit(1);
  if (Phase)
    *Phase = qualcheckSeconds(S);
  return Elapsed;
}

struct ResultEntry {
  std::string Name;
  std::string Detail;
  double Value = 0;
  const char *Unit = "seconds";
};

std::vector<ResultEntry> measure(bool &AcceptanceOk) {
  std::vector<ResultEntry> Entries;
  constexpr int Reps = 10;
  checker::incremental::RecheckStats Stats;

  // Cold baseline: a full check in a fresh Session, as the CLI pays it.
  double ColdPhase = 0;
  {
    double Total = 0, PhaseTotal = 0, Phase = 0;
    for (int I = 0; I < Reps; ++I) {
      Total += checkOnce(program(7, I % 2), &Phase);
      PhaseTotal += Phase;
    }
    ColdPhase = PhaseTotal / Reps;
    Entries.push_back({"check_cold_seconds",
                       "mean full `check` of the " + std::to_string(NumFns) +
                           "-function unit in a fresh Session",
                       Total / Reps});
  }

  Engine E;
  recheckOnce(E, program(7, 0), Stats); // populate the store
  const unsigned UnitsTotal = Stats.Units;

  // No-op recheck: the whole unit replays from the verdict store.
  {
    double Total = 0;
    for (int I = 0; I < Reps; ++I)
      Total += recheckOnce(E, program(7, 0), Stats);
    Entries.push_back({"recheck_noop_warm_seconds",
                       "mean warm recheck of the unchanged unit (every work "
                       "item served from the store)",
                       Total / Reps});
  }

  // Body edit: a fresh constant each rep, so every rep is a genuine
  // single-function edit against a warm store (never a replayed variant).
  unsigned BodyEditRechecked = 0;
  double BodyEditPhase = 0;
  {
    double Total = 0, PhaseTotal = 0, Phase = 0;
    for (int I = 0; I < Reps; ++I) {
      Total += recheckOnce(E, program(7, I + 1), Stats, &Phase);
      PhaseTotal += Phase;
      BodyEditRechecked = Stats.Rechecked;
    }
    BodyEditPhase = PhaseTotal / Reps;
    Entries.push_back({"recheck_body_edit_warm_seconds",
                       "mean warm recheck after a one-function body edit",
                       Total / Reps});
  }

  // Signature edit at the chain root: the invalidation closure re-checks
  // every transitive caller — warm recheck's worst case.
  unsigned SigEditRechecked = 0;
  {
    double Total = 0;
    for (int I = 0; I < Reps; ++I) {
      Total += recheckOnce(E, program(7, 0, I % 2 == 0), Stats);
      SigEditRechecked = Stats.Rechecked;
    }
    Entries.push_back({"recheck_sig_edit_warm_seconds",
                       "mean warm recheck after a signature edit at the "
                       "call chain's root (transitive callers re-check)",
                       Total / Reps});
  }

  Entries.push_back({"work_items_total",
                     "work items in the unit (functions + globals)",
                     static_cast<double>(UnitsTotal), "count"});
  Entries.push_back({"work_items_rechecked_body_edit",
                     "items re-checked by a warm single-function body edit",
                     static_cast<double>(BodyEditRechecked), "count"});
  Entries.push_back({"work_items_rechecked_sig_edit",
                     "items re-checked by a warm root signature edit",
                     static_cast<double>(SigEditRechecked), "count"});

  const double Cold = Entries[0].Value;
  const double BodyEdit = Entries[2].Value;
  Entries.push_back({"body_edit_speedup",
                     "cold full check latency / warm body-edit latency "
                     "(front end included, so unit-size bound)",
                     BodyEdit > 0 ? Cold / BodyEdit : 0, "ratio"});
  Entries.push_back({"qualcheck_cold_seconds",
                     "mean checking-phase time of the cold full check "
                     "(front end excluded)",
                     ColdPhase});
  Entries.push_back({"qualcheck_body_edit_warm_seconds",
                     "mean checking-phase time of the warm body-edit "
                     "recheck (front end excluded)",
                     BodyEditPhase});
  Entries.push_back({"qualcheck_body_edit_speedup",
                     "cold checking-phase time / warm body-edit "
                     "checking-phase time",
                     BodyEditPhase > 0 ? ColdPhase / BodyEditPhase : 0,
                     "ratio"});

  // The acceptance criterion: a warm single-function edit re-checks
  // strictly fewer work items than a cold run checks.
  AcceptanceOk = BodyEditRechecked > 0 && BodyEditRechecked < UnitsTotal;
  return Entries;
}

bool writeReport(const std::vector<ResultEntry> &Entries,
                 const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\n  \"schema\": \"stq-bench-incremental-v1\",\n  \"entries\": [\n";
  for (size_t I = 0; I < Entries.size(); ++I) {
    const ResultEntry &E = Entries[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6f", E.Value);
    OS << "    {\n"
       << "      \"name\": \"" << E.Name << "\",\n"
       << "      \"detail\": \"" << E.Detail << "\",\n"
       << "      \"value\": " << Buf << ",\n"
       << "      \"unit\": \"" << E.Unit << "\"\n"
       << "    }" << (I + 1 < Entries.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  return true;
}

} // namespace

// The steady-state warm paths on their own, for --benchmark_filter runs.
static void BM_WarmNoopRecheck(benchmark::State &State) {
  Engine E;
  checker::incremental::RecheckStats Stats;
  const std::string Source = program(7, 0);
  recheckOnce(E, Source, Stats);
  for (auto _ : State) {
    recheckOnce(E, Source, Stats);
    benchmark::DoNotOptimize(Stats.Hits);
  }
}
BENCHMARK(BM_WarmNoopRecheck)->Unit(benchmark::kMillisecond);

static void BM_WarmBodyEditRecheck(benchmark::State &State) {
  Engine E;
  checker::incremental::RecheckStats Stats;
  recheckOnce(E, program(7, 0), Stats);
  int Variant = 1;
  for (auto _ : State) {
    recheckOnce(E, program(7, Variant++), Stats);
    benchmark::DoNotOptimize(Stats.Rechecked);
  }
}
BENCHMARK(BM_WarmBodyEditRecheck)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bool AcceptanceOk = false;
  std::vector<ResultEntry> Entries = measure(AcceptanceOk);
  std::printf("=== incremental edit-to-verdict latency ===\n");
  for (const ResultEntry &E : Entries)
    std::printf("%-36s %12.6f %s\n", E.Name.c_str(), E.Value, E.Unit);
  const char *Out = std::getenv("STQ_INCREMENTAL_BENCH_OUT");
  std::string Path = Out && *Out ? Out : "BENCH_incremental.json";
  if (writeReport(Entries, Path))
    std::printf("report written to %s\n\n", Path.c_str());
  else
    std::printf("could not write %s\n\n", Path.c_str());
  if (!AcceptanceOk) {
    std::fprintf(stderr,
                 "bench_incremental: FAIL: a warm body edit did not re-check "
                 "strictly fewer work items than a cold run\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
