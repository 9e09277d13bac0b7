//===- bench_vm.cpp - VM vs interpreter run-phase speedup -----------------===//
//
// Measures the register-bytecode VM against its reason to exist: executing
// an instrumented program should be several times faster than tree-walking
// it, with byte-identical observable behavior. Each workload-farm program
// is front-ended and checked once, compiled once (with and without the
// prover-driven guard-elision pass), and then the run phase alone is timed
// for all three engines (interpreter, VM with elision, VM without) as the
// best of several trials of many repetitions.
//
// Before timing, the three engines' results are compared field by field —
// status, exit value, output, trap message, step count, and (between the
// two non-eliding engines) executed-check counts. A mismatch is a
// correctness bug and fails the bench immediately, regardless of timing.
//
// The headline statistic is the farm run-phase speedup: total interpreter
// time over total VM time across the whole farm, weighting each program by
// how long it actually runs. The acceptance bound CI pins is speedup >= 3x
// (enforced when STQ_ENFORCE_TIMING_BOUNDS=1, mirroring bench_prover); the
// report also records per-workload speedups, compile+elide cost, elided
// vs residual guard counts, and the residual-check overhead the elision
// pass removes (VM-without-elision time over VM-with-elision time).
//
// Results go to BENCH_vm.json (schema stq-bench-vm-v1); STQ_VM_BENCH_OUT
// overrides the path.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "interp/Interp.h"
#include "qual/Builtins.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace stq;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ResultEntry {
  std::string Name;
  std::string Detail;
  double Value = 0;
  const char *Unit = "seconds";
};

/// One farm member: the generated program, the qualifiers it exercises,
/// and how many repetitions one timing trial runs (sized so every
/// workload contributes comparable wall-clock per trial).
struct FarmMember {
  workloads::GeneratedWorkload W;
  std::vector<std::string> Builtins;
  int Reps;
};

std::vector<FarmMember> farm() {
  using namespace stq::workloads;
  // The scaled grep-dfa gets its own name: report rows are keyed by it.
  GeneratedWorkload Dfa4 = makeGrepDfa(4);
  Dfa4.Name += "-x4";
  return {
      {makeGrepDfa(), {"nonnull"}, 30},
      {std::move(Dfa4), {"nonnull"}, 12},
      {makeBftpd(), {"untainted"}, 120},
      {makeMingetty(), {"untainted"}, 60},
      {makeIdentd(), {"untainted"}, 120},
      {makeChecksumKernel(), {"pos", "neg", "nonzero"}, 8},
  };
}

/// Field-by-field result comparison. Elision legitimately skips executed
/// checks, so ChecksExecuted is only compared when \p CompareChecks.
bool sameResult(const interp::RunResult &A, const interp::RunResult &B,
                bool CompareChecks, std::string &Why) {
  if (A.Status != B.Status) {
    Why = "status";
    return false;
  }
  if (A.ExitValue != B.ExitValue) {
    Why = "exit value";
    return false;
  }
  if (A.Output != B.Output) {
    Why = "output";
    return false;
  }
  if (A.TrapMessage != B.TrapMessage) {
    Why = "trap message";
    return false;
  }
  if (A.Steps != B.Steps) {
    Why = "step count";
    return false;
  }
  if (A.CheckFailures.size() != B.CheckFailures.size()) {
    Why = "check failures";
    return false;
  }
  if (CompareChecks && A.ChecksExecuted != B.ChecksExecuted) {
    Why = "executed-check count";
    return false;
  }
  return true;
}

/// Best-of-trials per-run times for the three engines, measured
/// interleaved (every trial times all three back to back) so CPU
/// frequency drift across the bench run cannot bias the ratios.
struct EngineTimes {
  double Interp = 1e18;
  double Vm = 1e18;
  double VmNoElide = 1e18;
};

template <typename InterpFn, typename VmFn, typename VmPlainFn>
EngineTimes bestPerRun(int Reps, InterpFn &&RunInterp, VmFn &&RunVm,
                       VmPlainFn &&RunVmPlain) {
  constexpr int Trials = 5;
  EngineTimes Best;
  for (int T = 0; T < Trials; ++T) {
    double T0 = now();
    for (int I = 0; I < Reps; ++I)
      RunInterp();
    double T1 = now();
    for (int I = 0; I < Reps; ++I)
      RunVm();
    double T2 = now();
    for (int I = 0; I < Reps; ++I)
      RunVmPlain();
    double T3 = now();
    Best.Interp = std::min(Best.Interp, T1 - T0);
    Best.Vm = std::min(Best.Vm, T2 - T1);
    Best.VmNoElide = std::min(Best.VmNoElide, T3 - T2);
  }
  Best.Interp /= Reps;
  Best.Vm /= Reps;
  Best.VmNoElide /= Reps;
  return Best;
}

std::vector<ResultEntry> measure(bool &AcceptanceOk, bool &ResultsMatch) {
  std::vector<ResultEntry> Entries;
  double TotInterp = 0, TotVm = 0, TotVmNoElide = 0;
  double TotCompile = 0;
  uint64_t TotQuals = 0, TotElided = 0;
  ResultsMatch = true;

  for (const FarmMember &F : farm()) {
    qual::QualifierSet Quals;
    DiagnosticEngine Diags;
    qual::loadBuiltinQualifiers(F.Builtins, Quals, Diags);
    std::unique_ptr<cminus::Program> Prog;
    // Keep every cast's run-time check in RuntimeChecks (the checker
    // normally strips statically derivable ones itself): the VM's
    // prover-driven elision pass is the subject under measurement, so
    // the full residual-check load must reach all three engines and
    // only that pass may remove any of it.
    checker::CheckerOptions CO;
    CO.ElideProvableCastChecks = false;
    checker::CheckResult CR =
        checker::checkSource(F.W.Source, Quals, Diags, Prog, CO);
    if (!Prog || Diags.hasErrors()) {
      std::fprintf(stderr, "bench_vm: front end rejected %s\n",
                   F.W.Name.c_str());
      std::exit(1);
    }

    vm::VmOptions VO;
    VO.ProgramCheckedClean = CR.ok();
    double C0 = now();
    auto CP = vm::compileProgram(*Prog, Quals, CR.RuntimeChecks, VO);
    double CompileSecs = now() - C0;
    TotCompile += CompileSecs;

    vm::VmOptions VOPlain = VO;
    VOPlain.ElideChecks = false;
    auto CPPlain = vm::compileProgram(*Prog, Quals, CR.RuntimeChecks, VOPlain);

    // Correctness before timing: the interpreter is the oracle.
    interp::RunResult RI =
        interp::runProgram(*Prog, Quals, CR.RuntimeChecks, VO.Interp);
    interp::RunResult RV = vm::execute(*CP, VO.Interp);
    interp::RunResult RVPlain = vm::execute(*CPPlain, VO.Interp);
    std::string Why;
    if (!sameResult(RI, RVPlain, /*CompareChecks=*/true, Why) ||
        !sameResult(RI, RV, /*CompareChecks=*/false, Why)) {
      std::fprintf(stderr, "bench_vm: %s: VM diverges from interpreter (%s)\n",
                   F.W.Name.c_str(), Why.c_str());
      ResultsMatch = false;
      continue;
    }

    EngineTimes Times = bestPerRun(
        F.Reps,
        [&] {
          benchmark::DoNotOptimize(
              interp::runProgram(*Prog, Quals, CR.RuntimeChecks, VO.Interp));
        },
        [&] { benchmark::DoNotOptimize(vm::execute(*CP, VO.Interp)); },
        [&] { benchmark::DoNotOptimize(vm::execute(*CPPlain, VO.Interp)); });
    double InterpSecs = Times.Interp;
    double VmSecs = Times.Vm;
    double VmPlainSecs = Times.VmNoElide;

    TotInterp += InterpSecs;
    TotVm += VmSecs;
    TotVmNoElide += VmPlainSecs;
    TotQuals += CP->Elision.GuardQuals;
    TotElided += CP->Elision.Elided;

    Entries.push_back({F.W.Name + "_interp_run_seconds",
                       "interpreter run phase, best of 5 trials x " +
                           std::to_string(F.Reps) + " reps",
                       InterpSecs});
    Entries.push_back({F.W.Name + "_vm_run_seconds",
                       "VM run phase with guard elision, same trials",
                       VmSecs});
    Entries.push_back({F.W.Name + "_vm_noelide_run_seconds",
                       "VM run phase with every compiled guard residual",
                       VmPlainSecs});
    Entries.push_back({F.W.Name + "_speedup",
                       "interpreter time / VM time for this workload",
                       VmSecs > 0 ? InterpSecs / VmSecs : 0, "ratio"});
  }

  double Speedup = TotVm > 0 ? TotInterp / TotVm : 0;
  double SpeedupNoElide = TotVmNoElide > 0 ? TotInterp / TotVmNoElide : 0;
  Entries.push_back({"farm_interp_run_seconds",
                     "summed per-run interpreter time across the farm",
                     TotInterp});
  Entries.push_back({"farm_vm_run_seconds",
                     "summed per-run VM time across the farm", TotVm});
  Entries.push_back({"farm_speedup",
                     "farm run-phase speedup (total interpreter time / "
                     "total VM time) — the >=3x acceptance bound",
                     Speedup, "ratio"});
  Entries.push_back({"farm_speedup_noelide",
                     "farm speedup with the elision pass disabled (every "
                     "compiled guard executes)",
                     SpeedupNoElide, "ratio"});
  Entries.push_back({"residual_check_overhead",
                     "VM-without-elision time / VM-with-elision time — the "
                     "run-phase cost the elision pass removes",
                     TotVm > 0 ? TotVmNoElide / TotVm : 0, "ratio"});
  Entries.push_back({"compile_elide_seconds",
                     "one-time compile + elide cost across the farm",
                     TotCompile});
  Entries.push_back({"guard_quals_total",
                     "individual qualifier checks compiled across the farm",
                     static_cast<double>(TotQuals), "count"});
  Entries.push_back({"guard_quals_elided",
                     "qualifier checks discharged by the prover-driven "
                     "elision pass",
                     static_cast<double>(TotElided), "count"});
  Entries.push_back({"guard_quals_residual",
                     "qualifier checks still evaluated at run time",
                     static_cast<double>(TotQuals - TotElided), "count"});

  AcceptanceOk = ResultsMatch && Speedup >= 3.0;
  return Entries;
}

/// The first row name that appears twice, or empty: a reader keyed by
/// name would silently keep only one of the rows.
std::string duplicateName(const std::vector<ResultEntry> &Entries) {
  std::set<std::string> Seen;
  for (const ResultEntry &E : Entries)
    if (!Seen.insert(E.Name).second)
      return E.Name;
  return "";
}

bool writeReport(const std::vector<ResultEntry> &Entries,
                 const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\n  \"schema\": \"stq-bench-vm-v1\",\n  \"entries\": [\n";
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

/// Shared setup for the steady-state BENCHMARK wrappers below.
struct KernelFixture {
  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  std::unique_ptr<cminus::Program> Prog;
  checker::CheckResult CR;
  std::unique_ptr<vm::CompiledProgram> CP;
  vm::VmOptions VO;

  KernelFixture() {
    workloads::GeneratedWorkload W = workloads::makeChecksumKernel();
    qual::loadBuiltinQualifiers({"pos", "neg", "nonzero"}, Quals, Diags);
    CR = checker::checkSource(W.Source, Quals, Diags, Prog, {});
    VO.ProgramCheckedClean = CR.ok();
    if (Prog)
      CP = vm::compileProgram(*Prog, Quals, CR.RuntimeChecks, VO);
  }
};

KernelFixture &kernel() {
  static KernelFixture F;
  return F;
}

} // namespace

static void BM_InterpChecksumKernel(benchmark::State &State) {
  KernelFixture &F = kernel();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        interp::runProgram(*F.Prog, F.Quals, F.CR.RuntimeChecks, F.VO.Interp));
}
BENCHMARK(BM_InterpChecksumKernel)->Unit(benchmark::kMillisecond);

static void BM_VmChecksumKernel(benchmark::State &State) {
  KernelFixture &F = kernel();
  for (auto _ : State)
    benchmark::DoNotOptimize(vm::execute(*F.CP, F.VO.Interp));
}
BENCHMARK(BM_VmChecksumKernel)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  bool AcceptanceOk = false, ResultsMatch = true;
  std::vector<ResultEntry> Entries = measure(AcceptanceOk, ResultsMatch);
  std::printf("=== VM vs interpreter run phase ===\n");
  for (const ResultEntry &E : Entries)
    std::printf("%-40s %12.6f %s\n", E.Name.c_str(), E.Value, E.Unit);
  if (std::string Dup = duplicateName(Entries); !Dup.empty()) {
    std::fprintf(stderr, "bench_vm: FAIL: duplicate report row '%s'\n",
                 Dup.c_str());
    return 1;
  }
  const char *Out = std::getenv("STQ_VM_BENCH_OUT");
  std::string Path = Out && *Out ? Out : "BENCH_vm.json";
  if (writeReport(Entries, Path))
    std::printf("report written to %s\n\n", Path.c_str());
  else
    std::printf("could not write %s\n\n", Path.c_str());
  if (!ResultsMatch) {
    std::fprintf(stderr,
                 "bench_vm: FAIL: VM results diverge from the interpreter\n");
    return 1;
  }
  const char *Enforce = std::getenv("STQ_ENFORCE_TIMING_BOUNDS");
  if (!AcceptanceOk) {
    std::fprintf(stderr,
                 "bench_vm: farm run-phase speedup below the 3x bound%s\n",
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
