//===- stq-eval.cpp - Paper-table replication driver ----------------------===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// Replays the paper's §6 evaluation: checks each generated corpus program
// (grep-dfa, bftpd, mingetty, identd) through the multi-file front end and
// renders the Table 1/Table 2 columns. The generators in src/workloads are
// the source of truth; the checked-in tree under tests/corpus/c/ is kept
// byte-identical with --verify-sync / --write-corpus.
//
// The rendered document is deterministic, so CI diffs it against a golden
// file (--golden); any drift in counts, verdicts, or diagnostics fails the
// run with a readable line diff. With --server every check runs as an
// stqd `eval` RPC and the parsed rows are rendered client-side, which the
// smoke test holds byte-identical to one-shot output.
//
//===----------------------------------------------------------------------===//

#include "eval/PaperEval.h"
#include "server/Protocol.h"
#include "support/Socket.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace stq;

namespace {

struct CliOptions {
  std::string CorpusDir;
  std::string Format = "text"; ///< "text" | "json".
  std::string GoldenFile;
  bool UpdateGolden = false;
  std::string ServerSocket;
  bool VerifySync = false;
  bool WriteCorpus = false;
  bool Timings = false;
  unsigned Jobs = 1;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: stq-eval [options]\n"
      "  --corpus DIR      checked-in corpus root (tests/corpus/c)\n"
      "  --format FMT      text (default) or json\n"
      "  --jobs N          checker worker threads per program\n"
      "  --golden FILE     diff the rendered document against FILE\n"
      "  --update-golden   rewrite --golden FILE with the current output\n"
      "  --server SOCK     evaluate via a running stqd at SOCK\n"
      "  --verify-sync     check DIR matches the generators byte-for-byte\n"
      "  --write-corpus    (re)write the generated corpora into DIR\n"
      "  --timings         add per-program seconds to --format json\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](std::string &Dst) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "stq-eval: option '%s' needs a value\n",
                     A.c_str());
        return false;
      }
      Dst = Argv[++I];
      return true;
    };
    if (A == "--corpus") {
      if (!Value(O.CorpusDir))
        return false;
    } else if (A == "--format") {
      if (!Value(O.Format))
        return false;
      if (O.Format != "text" && O.Format != "json") {
        std::fprintf(stderr, "stq-eval: bad --format '%s' (text|json)\n",
                     O.Format.c_str());
        return false;
      }
    } else if (A == "--jobs") {
      std::string V;
      if (!Value(V))
        return false;
      try {
        O.Jobs = std::stoul(V);
      } catch (const std::exception &) {
        std::fprintf(stderr, "stq-eval: bad --jobs value '%s'\n", V.c_str());
        return false;
      }
    } else if (A == "--golden") {
      if (!Value(O.GoldenFile))
        return false;
    } else if (A == "--update-golden") {
      O.UpdateGolden = true;
    } else if (A == "--server") {
      if (!Value(O.ServerSocket))
        return false;
    } else if (A == "--verify-sync") {
      O.VerifySync = true;
    } else if (A == "--write-corpus") {
      O.WriteCorpus = true;
    } else if (A == "--timings") {
      O.Timings = true;
    } else {
      std::fprintf(stderr, "stq-eval: unknown option '%s'\n", A.c_str());
      usage();
      return false;
    }
  }
  if ((O.VerifySync || O.WriteCorpus) && O.CorpusDir.empty()) {
    std::fprintf(stderr,
                 "stq-eval: --verify-sync/--write-corpus need --corpus DIR\n");
    return false;
  }
  return true;
}

/// Every on-disk file of one corpus program: the spec's file map plus the
/// qualifier file, keyed by path relative to <corpus>/<name>/.
std::map<std::string, std::string> diskImage(const eval::ProgramSpec &Spec) {
  std::map<std::string, std::string> Image(Spec.Files.begin(),
                                           Spec.Files.end());
  Image["quals.stq"] = Spec.QualFileText;
  return Image;
}

int writeCorpusTree(const std::vector<eval::ProgramSpec> &Specs,
                    const std::string &Root) {
  namespace fs = std::filesystem;
  for (const eval::ProgramSpec &Spec : Specs) {
    for (const auto &[Path, Text] : diskImage(Spec)) {
      fs::path Full = fs::path(Root) / Spec.Name / Path;
      std::error_code EC;
      fs::create_directories(Full.parent_path(), EC);
      std::ofstream OS(Full, std::ios::binary);
      if (!OS) {
        std::fprintf(stderr, "stq-eval: cannot write '%s'\n",
                     Full.string().c_str());
        return 2;
      }
      OS << Text;
    }
    std::printf("wrote %s/%s\n", Root.c_str(), Spec.Name.c_str());
  }
  return 0;
}

int verifyCorpusSync(const std::vector<eval::ProgramSpec> &Specs,
                     const std::string &Root) {
  namespace fs = std::filesystem;
  unsigned Bad = 0;
  for (const eval::ProgramSpec &Spec : Specs) {
    for (const auto &[Path, Text] : diskImage(Spec)) {
      fs::path Full = fs::path(Root) / Spec.Name / Path;
      std::ifstream IS(Full, std::ios::binary);
      if (!IS) {
        std::fprintf(stderr, "stq-eval: missing '%s'\n",
                     Full.string().c_str());
        ++Bad;
        continue;
      }
      std::ostringstream Buf;
      Buf << IS.rdbuf();
      if (Buf.str() != Text) {
        std::fprintf(stderr,
                     "stq-eval: '%s' differs from its generator (run "
                     "--write-corpus to refresh)\n",
                     Full.string().c_str());
        ++Bad;
      }
    }
  }
  if (Bad) {
    std::fprintf(stderr, "stq-eval: %u file(s) out of sync\n", Bad);
    return 1;
  }
  std::printf("corpus in sync with generators (%zu programs)\n",
              Specs.size());
  return 0;
}

/// Runs one program as an stqd `eval` request and parses the returned
/// stq-eval-row-v1 payload. Transport/protocol failures exit code 6,
/// matching stqc's server error convention.
bool evalViaServer(const eval::ProgramSpec &Spec, const CliOptions &O,
                   eval::EvalRow &Row, int &HardExit) {
  server::rpc::Request Req;
  Req.Id = "eval-" + Spec.Name;
  Req.Inv.Command = "eval";
  Req.Inv.EvalName = Spec.Name;
  Req.Inv.EvalKind = Spec.Kind;
  for (const std::string &Unit : Spec.Units) {
    auto It = Spec.Files.find(Unit);
    Req.Inv.Inputs.push_back(
        {Unit, It == Spec.Files.end() ? std::string() : It->second});
  }
  Req.Inv.Files = Spec.Files;
  Req.Inv.HasFiles = true;
  Req.Inv.Session.QualSources = {Spec.QualFileText};
  Req.Inv.Session.IncludeDirs = Spec.IncludeDirs;
  Req.Inv.Session.Jobs = O.Jobs;

  UnixStream Conn;
  std::string Error;
  if (!Conn.connect(O.ServerSocket, Error)) {
    std::fprintf(stderr, "stq-eval: cannot reach server: %s\n",
                 Error.c_str());
    HardExit = 6;
    return false;
  }
  server::rpc::Response Resp;
  switch (server::rpc::exchange(Conn, Req, Resp, /*TimeoutMs=*/600000,
                                Error)) {
  case server::rpc::ExchangeStatus::Ok:
    break;
  case server::rpc::ExchangeStatus::SendFailed:
    std::fprintf(stderr, "stq-eval: cannot send request: %s\n",
                 Error.c_str());
    HardExit = 6;
    return false;
  case server::rpc::ExchangeStatus::NoResponse:
    std::fprintf(stderr, "stq-eval: no response from server%s%s\n",
                 Error.empty() ? "" : ": ", Error.c_str());
    HardExit = 6;
    return false;
  case server::rpc::ExchangeStatus::BadResponse:
    std::fprintf(stderr, "stq-eval: %s\n", Error.c_str());
    HardExit = 6;
    return false;
  }
  if (Resp.Status != "ok") {
    std::fprintf(stderr, "stq-eval: server %s: %s\n", Resp.Status.c_str(),
                 Resp.Error.c_str());
    HardExit = 6;
    return false;
  }
  if (!eval::parseRow(Resp.Out, Row, Error)) {
    std::fprintf(stderr, "stq-eval: bad eval row from server: %s\n",
                 Error.c_str());
    HardExit = 6;
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  std::vector<workloads::CorpusProgram> Corpora = workloads::makeAllCorpora();
  std::vector<eval::ProgramSpec> Specs;
  for (const workloads::CorpusProgram &C : Corpora)
    Specs.push_back(eval::specFromCorpus(C));

  if (O.WriteCorpus)
    return writeCorpusTree(Specs, O.CorpusDir);
  if (O.VerifySync)
    return verifyCorpusSync(Specs, O.CorpusDir);

  SessionOptions Base;
  Base.Jobs = O.Jobs;

  std::vector<eval::EvalRow> Rows;
  bool CountMismatch = false;
  for (const eval::ProgramSpec &Spec : Specs) {
    eval::EvalRow Row;
    if (!O.ServerSocket.empty()) {
      int HardExit = 6;
      if (!evalViaServer(Spec, O, Row, HardExit))
        return HardExit;
    } else {
      Row = eval::evalProgram(Spec, Base);
    }
    if (!Row.CheckOk) {
      std::fprintf(stderr, "stq-eval: front end failed on '%s'\n",
                   Spec.Name.c_str());
      for (const std::string &D : Row.Diagnostics)
        std::fprintf(stderr, "  %s\n", D.c_str());
      return 2;
    }
    if (Row.Errors != Spec.ExpectedErrors) {
      std::fprintf(stderr,
                   "stq-eval: '%s' reported %u qualifier error(s), expected "
                   "%u\n",
                   Spec.Name.c_str(), Row.Errors, Spec.ExpectedErrors);
      CountMismatch = true;
    }
    Rows.push_back(std::move(Row));
  }

  std::string Doc = O.Format == "json" ? eval::renderJson(Rows, O.Timings)
                                       : eval::renderTables(Rows);
  std::fputs(Doc.c_str(), stdout);

  if (!O.GoldenFile.empty()) {
    if (O.UpdateGolden) {
      std::ofstream OS(O.GoldenFile, std::ios::binary);
      if (!OS) {
        std::fprintf(stderr, "stq-eval: cannot write golden '%s'\n",
                     O.GoldenFile.c_str());
        return 2;
      }
      OS << Doc;
      std::fprintf(stderr, "stq-eval: golden '%s' updated\n",
                   O.GoldenFile.c_str());
    } else {
      std::ifstream IS(O.GoldenFile, std::ios::binary);
      if (!IS) {
        std::fprintf(stderr, "stq-eval: cannot read golden '%s'\n",
                     O.GoldenFile.c_str());
        return 2;
      }
      std::ostringstream Buf;
      Buf << IS.rdbuf();
      std::string Diff = eval::diffGolden(Buf.str(), Doc);
      if (!Diff.empty()) {
        std::fprintf(stderr,
                     "stq-eval: output differs from golden '%s':\n%s",
                     O.GoldenFile.c_str(), Diff.c_str());
        return 1;
      }
    }
  }
  return CountMismatch ? 1 : 0;
}
