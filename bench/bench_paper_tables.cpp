//===- bench_paper_tables.cpp - Table 1/2 replication timings -------------===//
//
// Times the paper-fidelity evaluation harness (src/eval) end to end:
//
//   * each §6 corpus program (grep-dfa, bftpd, mingetty, identd) checked
//     through the multi-file front end, with its table columns re-derived
//     and hard-gated against the known Table 1/Table 2 values — the same
//     numbers tests/corpus/c/TABLES.expected pins;
//   * corpus rows at --jobs 1 and --jobs 4 must agree exactly, including
//     every rendered diagnostic (hard-gated, any host);
//   * a ~1M-line synthetic farm, generated one translation unit at a time
//     (never materialized as a whole MultiTuProgram, so the run fits CI
//     RAM), checked at --jobs 1 and --jobs 4 with a hardware-aware
//     scaling gate mirroring bench_frontend: above 1 hardware thread
//     jobs-4 must beat jobs-1; at 1 it must stay within 1.5x.
//
// Gates exit non-zero when STQ_ENFORCE_TIMING_BOUNDS=1 (the CI eval-smoke
// job sets it); otherwise they are informational. Results go to
// BENCH_paper_tables.json (schema stq-bench-tables-v1);
// STQ_PAPER_TABLES_BENCH_OUT overrides the path and STQ_PAPER_FARM_LINES
// scales the farm (default 1000000).
//
//===----------------------------------------------------------------------===//

#include "eval/PaperEval.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace stq;

namespace {

struct ResultEntry {
  std::string Name;
  std::string Detail;
  double Value = 0;
  const char *Unit = "seconds";
};

/// The published columns each corpus row must reproduce. Drift in the
/// generators, the front end, or the checker shows up here (and in the
/// TABLES.expected golden) before it can silently skew the tables.
struct ExpectedRow {
  const char *Name;
  unsigned Annotations, Casts, Sites, Errors;
};
constexpr ExpectedRow Expected[] = {
    {"grep-dfa", 110, 62, 884, 0}, // sites = dereference sites
    {"bftpd", 2, 0, 134, 1},       // sites = printf-family calls
    {"mingetty", 1, 0, 23, 0},
    {"identd", 0, 0, 21, 0},
};

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::string flat(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

bool sameRow(const eval::EvalRow &A, const eval::EvalRow &B) {
  return eval::renderRow(A) == eval::renderRow(B);
}

bool measureCorpora(std::vector<ResultEntry> &Entries) {
  bool Ok = true;
  std::vector<workloads::CorpusProgram> Corpora = workloads::makeAllCorpora();
  for (size_t I = 0; I < Corpora.size(); ++I) {
    eval::ProgramSpec Spec = eval::specFromCorpus(Corpora[I]);
    SessionOptions J1, J4;
    J1.Jobs = 1;
    J4.Jobs = 4;
    eval::EvalRow R1 = eval::evalProgram(Spec, J1);
    eval::EvalRow R4 = eval::evalProgram(Spec, J4);
    if (!R1.CheckOk || !R4.CheckOk) {
      std::fprintf(stderr, "bench_paper_tables: front end failed on '%s'\n",
                   Spec.Name.c_str());
      return false;
    }
    const ExpectedRow &E = Expected[I];
    unsigned Sites = Spec.Kind == "table1" ? R1.Derefs : R1.PrintfCalls;
    bool RowOk = Spec.Name == E.Name && R1.Annotations == E.Annotations &&
                 R1.Casts == E.Casts && Sites == E.Sites &&
                 R1.Errors == E.Errors;
    bool JobsOk = sameRow(R1, R4);
    if (!RowOk)
      std::fprintf(stderr,
                   "bench_paper_tables: '%s' columns drifted from the "
                   "published row (annots %u casts %u sites %u errors %u)\n",
                   Spec.Name.c_str(), R1.Annotations, R1.Casts, Sites,
                   R1.Errors);
    if (!JobsOk)
      std::fprintf(stderr,
                   "bench_paper_tables: '%s' rows differ between --jobs 1 "
                   "and --jobs 4\n",
                   Spec.Name.c_str());
    Ok = Ok && RowOk && JobsOk;

    std::string Tag = Spec.Name;
    for (char &C : Tag)
      if (C == '-')
        C = '_';
    Entries.push_back({Tag + "_lines", "non-blank corpus lines (lib/ excluded)",
                       static_cast<double>(R1.Lines), "count"});
    Entries.push_back({Tag + "_annotations",
                       "distinct as-written qualifier annotations",
                       static_cast<double>(R1.Annotations), "count"});
    Entries.push_back({Tag + "_casts", "qualifier casts in function bodies",
                       static_cast<double>(R1.Casts), "count"});
    Entries.push_back({Tag + "_sites",
                       Spec.Kind == "table1" ? "dereference sites"
                                             : "printf-family call sites",
                       static_cast<double>(Sites), "count"});
    Entries.push_back({Tag + "_errors", "qualifier errors reported",
                       static_cast<double>(R1.Errors), "count"});
    Entries.push_back({Tag + "_check_jobs1_seconds",
                       "evalProgram wall time at --jobs 1", R1.Seconds});
    Entries.push_back({Tag + "_check_jobs4_seconds",
                       "evalProgram wall time at --jobs 4", R4.Seconds});
    Entries.push_back({Tag + "_rows_jobs_identical",
                       "jobs-4 row (counts + diagnostics) equals jobs-1",
                       JobsOk ? 1.0 : 0.0, "bool"});
  }
  return Ok;
}

struct FarmRun {
  double Seconds = 0;
  unsigned QualErrors = 0;
  std::string Diags;
  bool Ok = false;
};

/// One checkFiles pass over the streamed farm. The unit texts are owned
/// by \p Inputs (generated once by the caller); only the shared header
/// lives in the shipped map.
FarmRun runFarm(const std::vector<frontend::InputFile> &Inputs,
                const pp::FileMap &Files, unsigned Jobs) {
  SessionOptions Opts;
  Opts.Builtins = {"pos", "neg"};
  Opts.Jobs = Jobs;
  Opts.ShippedFiles = &Files;
  Session S(Opts);
  FarmRun R;
  auto Start = std::chrono::steady_clock::now();
  Session::FilesOutcome Out = S.checkFiles(Inputs);
  R.Seconds = secondsSince(Start);
  R.Ok = Out.loaded();
  R.QualErrors = Out.Result.QualErrors;
  for (const Diagnostic &D : S.diags().diagnostics())
    R.Diags += D.str() + "\n";
  return R;
}

bool measureFarm(std::vector<ResultEntry> &Entries) {
  unsigned long TargetLines = 1000000;
  if (const char *Env = std::getenv("STQ_PAPER_FARM_LINES"))
    if (unsigned long V = std::strtoul(Env, nullptr, 10))
      TargetLines = V;

  // Unit count stays fixed: the shared header lists one prototype per
  // unit and is re-expanded into every TU, so growing the farm by unit
  // count is quadratic in preprocessed lines. Growing functions-per-unit
  // is linear (~6 lines per generated function).
  workloads::FarmSpec Spec;
  Spec.Units = 256;
  Spec.FnsPerUnit = static_cast<unsigned>(
      std::max(1ul, TargetLines / (Spec.Units * 6ul)));
  Spec.Seed = 3;
  Spec.CallFanOut = 4;

  pp::FileMap Files;
  Files["farm.h"] = workloads::makeFarmHeader(Spec);
  unsigned long Lines = workloads::countLines(Files["farm.h"]);
  std::vector<frontend::InputFile> Inputs;
  Inputs.reserve(Spec.Units + 1);
  for (unsigned U = 0; U < Spec.Units; ++U) {
    workloads::MultiTuProgram::File F = workloads::makeFarmUnit(Spec, U);
    Lines += workloads::countLines(F.Text);
    Inputs.push_back({std::move(F.Name), std::move(F.Text)});
  }
  {
    workloads::MultiTuProgram::File M = workloads::makeFarmMain(Spec);
    Lines += workloads::countLines(M.Text);
    Inputs.push_back({std::move(M.Name), std::move(M.Text)});
  }

  FarmRun J1 = runFarm(Inputs, Files, 1);
  FarmRun J4 = runFarm(Inputs, Files, 4);
  if (!J1.Ok || !J4.Ok) {
    std::fprintf(stderr, "bench_paper_tables: front end rejected the farm\n");
    return false;
  }
  bool ByteIdentical =
      J1.Diags == J4.Diags && J1.QualErrors == J4.QualErrors;
  unsigned HW = std::thread::hardware_concurrency();
  bool ScalingOk = HW > 1 ? J4.Seconds > 0 && J4.Seconds < J1.Seconds
                          : J4.Seconds > 0 && J4.Seconds < J1.Seconds * 1.5;
  if (!ByteIdentical)
    std::fprintf(stderr,
                 "bench_paper_tables: farm diagnostics differ between "
                 "--jobs 1 and --jobs 4\n");
  if (!ScalingOk)
    std::fprintf(stderr,
                 "bench_paper_tables: farm scaling gate failed "
                 "(jobs1 %.3fs, jobs4 %.3fs, %u hardware threads)\n",
                 J1.Seconds, J4.Seconds, HW);

  Entries.push_back({"farm_translation_units", "generated .c files checked",
                     static_cast<double>(Inputs.size()), "count"});
  Entries.push_back({"farm_lines", "non-blank lines across header and units",
                     static_cast<double>(Lines), "count"});
  Entries.push_back({"farm_check_jobs1_seconds",
                     "end-to-end checkFiles at --jobs 1", J1.Seconds});
  Entries.push_back({"farm_check_jobs4_seconds",
                     "end-to-end checkFiles at --jobs 4", J4.Seconds});
  Entries.push_back({"farm_speedup_4x", "jobs-1 time over jobs-4 time",
                     J4.Seconds > 0 ? J1.Seconds / J4.Seconds : 0, "ratio"});
  Entries.push_back(
      {"farm_lines_per_second_jobs4", "per-TU pipeline throughput at jobs 4",
       J4.Seconds > 0 ? Lines / J4.Seconds : 0, "lines/second"});
  Entries.push_back({"farm_qual_errors",
                     "qualifier errors the checker reported",
                     static_cast<double>(J1.QualErrors), "count"});
  Entries.push_back({"farm_diagnostics_byte_identical",
                     "jobs-4 diagnostics and verdict equal jobs-1 exactly",
                     ByteIdentical ? 1.0 : 0.0, "bool"});
  Entries.push_back({"hardware_threads",
                     "std::thread::hardware_concurrency() on this host "
                     "(speedup is hard-gated only above 1)",
                     static_cast<double>(HW), "count"});
  return ByteIdentical && ScalingOk;
}

bool writeReport(const std::vector<ResultEntry> &Entries,
                 const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\n  \"schema\": \"stq-bench-tables-v1\",\n  \"entries\": [\n";
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

// The grep-dfa corpus evaluation on its own, for --benchmark_filter runs.
static void BM_EvalGrepDfa(benchmark::State &State) {
  eval::ProgramSpec Spec =
      eval::specFromCorpus(workloads::makeGrepDfaCorpus());
  SessionOptions Base;
  Base.Jobs = 2;
  for (auto _ : State) {
    eval::EvalRow Row = eval::evalProgram(Spec, Base);
    benchmark::DoNotOptimize(Row.Annotations);
  }
}
BENCHMARK(BM_EvalGrepDfa)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  std::vector<ResultEntry> Entries;
  bool CorporaOk = measureCorpora(Entries);
  bool FarmOk = measureFarm(Entries);
  std::printf("=== paper tables: §6 corpus replication and farm scale ===\n");
  for (const ResultEntry &E : Entries)
    std::printf("%-36s %14.6f %s\n", E.Name.c_str(), E.Value, E.Unit);
  const char *Out = std::getenv("STQ_PAPER_TABLES_BENCH_OUT");
  std::string Path = Out && *Out ? Out : "BENCH_paper_tables.json";
  if (writeReport(Entries, Path))
    std::printf("report written to %s\n\n", Path.c_str());
  else
    std::printf("could not write %s\n\n", Path.c_str());
  const char *Enforce = std::getenv("STQ_ENFORCE_TIMING_BOUNDS");
  if (!CorporaOk || !FarmOk) {
    std::fprintf(stderr,
                 "bench_paper_tables: replication or scaling gate failed%s\n",
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
