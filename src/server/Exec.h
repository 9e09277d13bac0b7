//===- Exec.h - The shared stqc invocation executor -------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One parsed `stqc` subcommand, executed to byte buffers. Both front ends
/// run the same executeInvocation(): the one-shot CLI prints Out/Err
/// verbatim and the `stqd` worker ships them in the RPC response, so a
/// request answered by the server is byte-identical to the same command
/// run locally — the differential test in tests/test_server.cpp and the
/// `server.smoke` ctest entry both enforce this.
///
/// The server passes a SharedContext carrying its warm process-wide state
/// (prover cache, default qualifier set, worker pool); the one-shot CLI
/// passes none and the Session owns everything, exactly as before.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SERVER_EXEC_H
#define STQ_SERVER_EXEC_H

#include "driver/Session.h"

#include <string>

namespace stq::server {

/// One fully-parsed `stqc` invocation: the subcommand plus everything that
/// configures a Session. Built from argv by stqc and from a decoded
/// stq-rpc-v1 request by stqd.
struct Invocation {
  /// "prove", "check", "recheck", "run", "infer", or "eval".
  std::string Command;
  /// eval: the corpus program's name and table kind ("table1"/"table2"),
  /// echoed into the stq-eval-row-v1 payload the command returns. The
  /// stq-eval client does all table/JSON rendering itself from parsed
  /// rows, which is what keeps `--server` output byte-identical to
  /// one-shot.
  std::string EvalName;
  std::string EvalKind;
  /// Program source text for check/recheck/run/infer. Input files are read
  /// by the *client* (the daemon never touches caller paths).
  std::string Source;
  bool HasSource = false;
  /// Multi-input mode (check/recheck): the translation units, read by the
  /// client in command-line order. Non-empty selects the multi-TU front
  /// end (preprocess + parse + link per Session::checkFiles); Source is
  /// then unused.
  std::vector<frontend::InputFile> Inputs;
  /// Multi-input mode: the shipped include closure. When HasFiles is set,
  /// `#include` resolution reads this map instead of the filesystem — the
  /// daemon path; the one-shot CLI resolves from disk.
  pp::FileMap Files;
  bool HasFiles = false;
  SessionOptions Session;
  bool Metrics = false;
  metrics::Format MetricsFormat = metrics::Format::Text;
  bool JsonDiagnostics = false;
  /// infer: emit the versioned stq-inference-v1 JSON document instead of
  /// the human-readable text report. Both renderings are produced by this
  /// executor, so one-shot stqc and the stqd infer RPC are byte-identical.
  bool InferJson = false;
  /// Capture a Chrome trace of this invocation into ExecResult::TraceJson.
  bool Trace = false;
};

/// The daemon's warm process-wide state, shared into each per-request
/// Session. All-null (the default) means the Session owns everything.
struct SharedContext {
  prover::ProverCache *Cache = nullptr;
  /// Shared only when the invocation does not configure its own qualifier
  /// set (no builtins/files/sources), so explicit requests still load
  /// exactly what they asked for.
  const qual::QualifierSet *Qualifiers = nullptr;
  ThreadPool *Pool = nullptr;
  /// The long-lived incremental engine for `recheck` (verdict store +
  /// signature snapshots). Safe to share across arbitrary requests: store
  /// keys fold the full qualifier environment, so differently-configured
  /// requests can never serve each other's verdicts. Null: the per-request
  /// Session owns a cold engine (recheck degrades to a full check).
  checker::incremental::Engine *Incremental = nullptr;
};

/// Everything an invocation produced, as bytes plus the exit code.
struct ExecResult {
  std::string Out; ///< The stdout payload.
  std::string Err; ///< The stderr payload (diagnostics).
  std::string TraceJson; ///< Chrome trace document, when Invocation::Trace.
  int ExitCode = 2;
};

/// True for the subcommands executeInvocation() understands.
bool knownCommand(const std::string &Command);

/// Runs \p Inv against a fresh Session (wired to \p Shared when given).
/// Thread-safe: concurrent invocations only share what \p Shared shares,
/// and traced invocations serialize on the process-global tracer.
ExecResult executeInvocation(const Invocation &Inv,
                             const SharedContext &Shared = {});

} // namespace stq::server

#endif // STQ_SERVER_EXEC_H
