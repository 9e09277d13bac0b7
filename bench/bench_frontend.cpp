//===- bench_frontend.cpp - Multi-TU ingestion throughput and scaling -----===//
//
// Measures the real-C front end (src/pp + src/frontend) on a generated
// multi-translation-unit farm: a shared header plus 120 qualifier-heavy
// units fed through Session::checkFiles. Reports
//
//   * TU fan-out time (each TU's task preprocesses, parses, sema-checks,
//     lowers, checks, and frees it) and end-to-end check time at --jobs 1
//     and --jobs 4, with the jobs-4-over-1 speedups — the per-TU fan-out
//     is the point of the subsystem, so the speedup is the headline
//     number;
//   * preprocessor volume (input lines consumed, expanded lines
//     produced, includes honored) for throughput tracking;
//   * a byte-identity bit: diagnostics and verdict counters at jobs 4
//     must equal jobs 1 exactly (hard-gated, any host).
//
// On a single-CPU host a genuine parallel speedup is impossible, so the
// scaling gate mirrors bench_inference: above 1 hardware thread jobs-4
// must beat jobs-1; at 1 it must merely stay within scheduling noise.
// The gate exits non-zero when STQ_ENFORCE_TIMING_BOUNDS=1 (the CI
// frontend-smoke job sets it); otherwise it is informational.
//
// Results go to BENCH_frontend.json (schema stq-bench-frontend-v1);
// STQ_FRONTEND_BENCH_OUT overrides the path.
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace stq;

namespace {

constexpr unsigned NumUnits = 120;
constexpr unsigned FnsPerUnit = 6;
constexpr int Reps = 3;

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

double histogramMean(Session &S, const char *Name) {
  stats::Registry::Snapshot Snap = S.metrics().snapshot();
  auto It = Snap.Histograms.find(Name);
  return It == Snap.Histograms.end() ? 0.0 : It->second.mean();
}

uint64_t counter(Session &S, const char *Name) {
  return S.metrics().counter(Name).get();
}

struct RunResult {
  double Total = 0;    ///< checkFiles wall seconds.
  double Frontend = 0; ///< phase.fanout_seconds.
  unsigned QualErrors = 0;
  std::string Diags; ///< Every diagnostic rendered, for byte-comparison.
  pp::PpStats Pp;
};

/// One checkFiles run in a fresh Session; headers resolve from a shipped
/// in-memory map, so the benchmark never touches the filesystem.
RunResult runOnce(const workloads::MultiTuProgram &P, const pp::FileMap &Files,
                  unsigned Jobs) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Opts.Jobs = Jobs;
  Opts.ShippedFiles = &Files;
  Session S(Opts);
  std::vector<frontend::InputFile> Inputs;
  for (const workloads::MultiTuProgram::File &U : P.Units)
    Inputs.push_back({U.Name, U.Text});

  RunResult R;
  auto Start = std::chrono::steady_clock::now();
  Session::FilesOutcome Out = S.checkFiles(Inputs);
  R.Total = secondsSince(Start);
  if (!Out.loaded()) {
    std::fprintf(stderr, "bench_frontend: front end rejected the farm\n");
    S.diags().print(std::cerr);
    std::exit(1);
  }
  R.Frontend = histogramMean(S, "phase.fanout_seconds");
  R.QualErrors = Out.Result.QualErrors;
  for (const Diagnostic &D : S.diags().diagnostics())
    R.Diags += D.str() + "\n";
  R.Pp.LinesIn = counter(S, "pp.lines_in");
  R.Pp.LinesOut = counter(S, "pp.lines_out");
  R.Pp.Includes = counter(S, "pp.includes");
  R.Pp.Expansions = counter(S, "pp.expansions");
  return R;
}

struct ResultEntry {
  std::string Name;
  std::string Detail;
  double Value = 0;
  const char *Unit = "seconds";
};

std::vector<ResultEntry> measure(bool &AcceptanceOk) {
  std::vector<ResultEntry> Entries;
  // Seed 3 plants one qualifier warning, so the byte-identity comparison
  // covers remapped diagnostics and not just the verdict line.
  workloads::MultiTuProgram P =
      workloads::makeMultiTuFarm(NumUnits, FnsPerUnit, /*Seed=*/3);
  pp::FileMap Files;
  for (const workloads::MultiTuProgram::File &H : P.Headers)
    Files[H.Name] = H.Text;

  RunResult J1, J4;
  double Best1 = 0, Best4 = 0, Front1 = 0, Front4 = 0;
  for (int I = 0; I < Reps; ++I) {
    RunResult R = runOnce(P, Files, 1);
    if (I == 0 || R.Total < Best1) {
      Best1 = R.Total;
      Front1 = R.Frontend;
      J1 = R;
    }
  }
  for (int I = 0; I < Reps; ++I) {
    RunResult R = runOnce(P, Files, 4);
    if (I == 0 || R.Total < Best4) {
      Best4 = R.Total;
      Front4 = R.Frontend;
      J4 = R;
    }
  }

  bool ByteIdentical = J1.Diags == J4.Diags && J1.QualErrors == J4.QualErrors;

  Entries.push_back({"translation_units",
                     "generated .c files checked (plus one shared header)",
                     static_cast<double>(P.Units.size()), "count"});
  Entries.push_back({"source_lines",
                     "non-blank lines across headers and units",
                     static_cast<double>(P.Lines), "count"});
  Entries.push_back({"pp_lines_in",
                     "physical input lines the preprocessor consumed",
                     static_cast<double>(J1.Pp.LinesIn), "count"});
  Entries.push_back({"pp_lines_out",
                     "expanded output lines the parser consumed",
                     static_cast<double>(J1.Pp.LinesOut), "count"});
  Entries.push_back({"pp_includes",
                     "#include directives honored across all TUs",
                     static_cast<double>(J1.Pp.Includes), "count"});
  Entries.push_back({"pp_expansions",
                     "macro invocations expanded across all TUs",
                     static_cast<double>(J1.Pp.Expansions), "count"});
  Entries.push_back({"frontend_jobs1_seconds",
                     "TU fan-out (preprocess through check and free, all "
                     "TUs) at --jobs 1, best of " +
                         std::to_string(Reps),
                     Front1});
  Entries.push_back({"frontend_jobs4_seconds",
                     "TU fan-out at --jobs 4, best of " +
                         std::to_string(Reps),
                     Front4});
  Entries.push_back({"frontend_speedup_4x",
                     "TU fan-out: jobs-1 time over jobs-4 time",
                     Front4 > 0 ? Front1 / Front4 : 0, "ratio"});
  Entries.push_back({"check_jobs1_seconds",
                     "end-to-end checkFiles at --jobs 1, best of " +
                         std::to_string(Reps),
                     Best1});
  Entries.push_back({"check_jobs4_seconds",
                     "end-to-end checkFiles at --jobs 4, best of " +
                         std::to_string(Reps),
                     Best4});
  Entries.push_back({"check_speedup_4x",
                     "end-to-end: jobs-1 time over jobs-4 time",
                     Best4 > 0 ? Best1 / Best4 : 0, "ratio"});
  Entries.push_back({"diagnostics_byte_identical",
                     "jobs-4 diagnostics and verdict equal jobs-1 exactly",
                     ByteIdentical ? 1.0 : 0.0, "bool"});
  Entries.push_back({"planted_warnings",
                     "qualifier warnings the generator planted",
                     static_cast<double>(P.PlantedWarnings), "count"});

  // On a single-CPU host a genuine parallel speedup is impossible, and the
  // per-TU fan-out pays real oversubscription cost (one task per TU, all
  // context-switching on one core); require only that jobs-4 stays within
  // 1.5x of jobs-1 there.
  unsigned HW = std::thread::hardware_concurrency();
  bool ScalingOk = HW > 1 ? Front4 > 0 && Front4 < Front1
                          : Front4 > 0 && Front4 < Front1 * 1.5;
  Entries.push_back({"hardware_threads",
                     "std::thread::hardware_concurrency() on this host "
                     "(speedup is hard-gated only above 1)",
                     static_cast<double>(HW), "count"});
  AcceptanceOk = ScalingOk && ByteIdentical;
  return Entries;
}

bool writeReport(const std::vector<ResultEntry> &Entries,
                 const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\n  \"schema\": \"stq-bench-frontend-v1\",\n  \"entries\": [\n";
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

// The steady-state multi-TU check, for --benchmark_filter runs.
static void BM_MultiTuCheck(benchmark::State &State) {
  workloads::MultiTuProgram P = workloads::makeMultiTuFarm(24, FnsPerUnit, 1);
  pp::FileMap Files;
  for (const workloads::MultiTuProgram::File &H : P.Headers)
    Files[H.Name] = H.Text;
  std::vector<frontend::InputFile> Inputs;
  for (const workloads::MultiTuProgram::File &U : P.Units)
    Inputs.push_back({U.Name, U.Text});
  for (auto _ : State) {
    SessionOptions Opts;
    Opts.Builtins = {"pos", "neg"};
    Opts.ShippedFiles = &Files;
    Session S(Opts);
    Session::FilesOutcome Out = S.checkFiles(Inputs);
    benchmark::DoNotOptimize(Out.Units);
  }
}
BENCHMARK(BM_MultiTuCheck)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bool AcceptanceOk = false;
  std::vector<ResultEntry> Entries = measure(AcceptanceOk);
  std::printf("=== multi-TU front end: ingestion throughput and scaling ===\n");
  for (const ResultEntry &E : Entries)
    std::printf("%-32s %12.6f %s\n", E.Name.c_str(), E.Value, E.Unit);
  const char *Out = std::getenv("STQ_FRONTEND_BENCH_OUT");
  std::string Path = Out && *Out ? Out : "BENCH_frontend.json";
  if (writeReport(Entries, Path))
    std::printf("report written to %s\n\n", Path.c_str());
  else
    std::printf("could not write %s\n\n", Path.c_str());
  const char *Enforce = std::getenv("STQ_ENFORCE_TIMING_BOUNDS");
  if (!AcceptanceOk) {
    std::fprintf(stderr,
                 "bench_frontend: scaling or byte-identity gate failed%s\n",
                 Enforce && *Enforce && *Enforce != '0'
                     ? " (STQ_ENFORCE_TIMING_BOUNDS set: failing)"
                     : " (informational; set STQ_ENFORCE_TIMING_BOUNDS=1 "
                       "to enforce)");
    if (Enforce && *Enforce && *Enforce != '0')
      return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
