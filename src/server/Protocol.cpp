//===- Protocol.cpp -------------------------------------------------------===//

#include "server/Protocol.h"

#include "prover/ProverCache.h"
#include "support/Json.h"
#include "support/Socket.h"

using namespace stq;
using namespace stq::server;
using namespace stq::server::rpc;

bool stq::server::rpc::isControlCommand(const std::string &Command) {
  return Command == "status" || Command == "shutdown";
}

std::string stq::server::rpc::encodeRequest(const Request &R) {
  json::Value Doc = json::Value::object();
  Doc.set("v", json::Value::str(Version));
  if (!R.Id.empty())
    Doc.set("id", json::Value::str(R.Id));
  Doc.set("command", json::Value::str(R.Inv.Command));
  if (R.Inv.HasSource)
    Doc.set("source", json::Value::str(R.Inv.Source));
  if (!R.Inv.Inputs.empty()) {
    json::Value A = json::Value::array();
    for (const frontend::InputFile &In : R.Inv.Inputs) {
      json::Value E = json::Value::object();
      E.set("name", json::Value::str(In.Name));
      E.set("text", json::Value::str(In.Text));
      A.push(std::move(E));
    }
    Doc.set("inputs", std::move(A));
  }
  if (R.Inv.HasFiles) {
    // The client-collected include closure: the daemon resolves #include
    // from this map and never touches client paths.
    json::Value F = json::Value::object();
    for (const auto &[Path, Text] : R.Inv.Files)
      F.set(Path, json::Value::str(Text));
    Doc.set("files", std::move(F));
  }

  json::Value Opts = json::Value::object();
  const SessionOptions &S = R.Inv.Session;
  if (!S.Builtins.empty()) {
    json::Value A = json::Value::array();
    for (const std::string &B : S.Builtins)
      A.push(json::Value::str(B));
    Opts.set("builtins", std::move(A));
  }
  if (!S.QualSources.empty()) {
    json::Value A = json::Value::array();
    for (const std::string &Src : S.QualSources)
      A.push(json::Value::str(Src));
    Opts.set("qualsources", std::move(A));
  }
  if (!S.Interp.EntryPoint.empty())
    Opts.set("entry", json::Value::str(S.Interp.EntryPoint));
  if (S.Backend != SessionOptions::ExecBackend::Vm)
    Opts.set("backend", json::Value::str("interp"));
  if (!S.VmElideChecks)
    Opts.set("elide_checks", json::Value::boolean(false));
  if (!S.IncrementalUnit.empty())
    Opts.set("unit", json::Value::str(S.IncrementalUnit));
  if (!S.IncludeDirs.empty()) {
    json::Value A = json::Value::array();
    for (const std::string &D : S.IncludeDirs)
      A.push(json::Value::str(D));
    Opts.set("include_dirs", std::move(A));
  }
  if (!S.Defines.empty()) {
    json::Value A = json::Value::array();
    for (const std::string &D : S.Defines)
      A.push(json::Value::str(D));
    Opts.set("defines", std::move(A));
  }
  if (S.Checker.FlowSensitiveNarrowing)
    Opts.set("flow_sensitive", json::Value::boolean(true));
  if (S.Jobs != 1)
    Opts.set("jobs", json::Value::integer(S.Jobs));
  if (S.WarmProverCache)
    Opts.set("warm_cache", json::Value::boolean(true));
  if (R.Inv.Metrics)
    Opts.set("metrics", json::Value::str(
                            R.Inv.MetricsFormat == metrics::Format::Json
                                ? "json"
                                : "text"));
  if (R.Inv.JsonDiagnostics)
    Opts.set("diagnostics", json::Value::str("json"));
  if (S.Infer.Engine != checker::InferenceEngine::Constraints)
    Opts.set("infer_engine",
             json::Value::str(checker::engineName(S.Infer.Engine)));
  if (S.Infer.Scope != checker::InferenceScope::Program)
    Opts.set("infer_scope",
             json::Value::str(checker::scopeName(S.Infer.Scope)));
  if (S.Infer.MaxSuggestions != 0)
    Opts.set("infer_max_suggestions",
             json::Value::integer(S.Infer.MaxSuggestions));
  if (S.Infer.Apply)
    Opts.set("infer_apply", json::Value::boolean(true));
  if (R.Inv.InferJson)
    Opts.set("infer_format", json::Value::str("json"));
  if (R.Inv.Trace)
    Opts.set("trace", json::Value::boolean(true));
  if (!R.Inv.EvalName.empty())
    Opts.set("eval_name", json::Value::str(R.Inv.EvalName));
  if (!R.Inv.EvalKind.empty())
    Opts.set("eval_kind", json::Value::str(R.Inv.EvalKind));
  if (!Opts.members().empty())
    Doc.set("options", std::move(Opts));
  return Doc.write();
}

bool stq::server::rpc::parseRequest(const std::string &Line, Request &Out,
                                    std::string &Error) {
  json::Value Doc;
  if (!json::parse(Line, Doc, Error)) {
    Error = "malformed request: " + Error;
    return false;
  }
  if (!Doc.isObject()) {
    Error = "malformed request: expected a JSON object";
    return false;
  }
  std::string V = Doc.getString("v");
  if (V != Version) {
    Error = V.empty() ? std::string("missing protocol version tag 'v'")
                      : "unsupported protocol version '" + V +
                            "' (this server speaks " + Version + ")";
    return false;
  }
  Out = Request();
  Out.Id = Doc.getString("id");
  Out.Inv.Command = Doc.getString("command");
  if (Out.Inv.Command.empty()) {
    Error = "missing 'command'";
    return false;
  }
  if (!isControlCommand(Out.Inv.Command) && !knownCommand(Out.Inv.Command)) {
    Error = "unknown command '" + Out.Inv.Command + "'";
    return false;
  }
  if (const json::Value *Src = Doc.get("source")) {
    if (!Src->isString()) {
      Error = "'source' must be a string";
      return false;
    }
    Out.Inv.Source = Src->asString();
    Out.Inv.HasSource = true;
  }
  if (const json::Value *Inputs = Doc.get("inputs")) {
    if (!Inputs->isArray()) {
      Error = "'inputs' must be an array";
      return false;
    }
    for (const json::Value &E : Inputs->elements()) {
      const json::Value *Name = E.isObject() ? E.get("name") : nullptr;
      const json::Value *Text = E.isObject() ? E.get("text") : nullptr;
      if (!Name || !Name->isString() || !Text || !Text->isString()) {
        Error = "'inputs' entries must be {\"name\":string,\"text\":string}";
        return false;
      }
      Out.Inv.Inputs.push_back({Name->asString(), Text->asString()});
    }
  }
  if (const json::Value *Files = Doc.get("files")) {
    if (!Files->isObject()) {
      Error = "'files' must be an object of path -> contents";
      return false;
    }
    for (const auto &[Path, Text] : Files->members()) {
      if (!Text.isString()) {
        Error = "'files' must be an object of path -> contents";
        return false;
      }
      Out.Inv.Files[Path] = Text.asString();
    }
    Out.Inv.HasFiles = true;
  }

  const json::Value *Opts = Doc.get("options");
  if (!Opts)
    return true;
  if (!Opts->isObject()) {
    Error = "'options' must be an object";
    return false;
  }
  SessionOptions &S = Out.Inv.Session;
  for (const auto &[Key, Val] : Opts->members()) {
    if (Key == "builtins" || Key == "qualsources") {
      if (!Val.isArray()) {
        Error = "'" + Key + "' must be an array of strings";
        return false;
      }
      for (const json::Value &E : Val.elements()) {
        if (!E.isString()) {
          Error = "'" + Key + "' must be an array of strings";
          return false;
        }
        (Key == "builtins" ? S.Builtins : S.QualSources)
            .push_back(E.asString());
      }
    } else if (Key == "entry") {
      S.Interp.EntryPoint = Val.asString();
    } else if (Key == "backend") {
      if (Val.asString() == "vm") {
        S.Backend = SessionOptions::ExecBackend::Vm;
      } else if (Val.asString() == "interp") {
        S.Backend = SessionOptions::ExecBackend::Interp;
      } else {
        Error = "bad backend '" + Val.asString() + "' (expected vm|interp)";
        return false;
      }
    } else if (Key == "elide_checks") {
      S.VmElideChecks = Val.asBool();
    } else if (Key == "unit") {
      if (!Val.isString()) {
        Error = "'unit' must be a string";
        return false;
      }
      S.IncrementalUnit = Val.asString();
    } else if (Key == "include_dirs" || Key == "defines") {
      if (!Val.isArray()) {
        Error = "'" + Key + "' must be an array of strings";
        return false;
      }
      for (const json::Value &E : Val.elements()) {
        if (!E.isString()) {
          Error = "'" + Key + "' must be an array of strings";
          return false;
        }
        (Key == "include_dirs" ? S.IncludeDirs : S.Defines)
            .push_back(E.asString());
      }
    } else if (Key == "flow_sensitive") {
      S.Checker.FlowSensitiveNarrowing = Val.asBool();
    } else if (Key == "jobs") {
      if (!Val.isNumber() || Val.asInt() < 0) {
        Error = "'jobs' must be a non-negative integer";
        return false;
      }
      S.Jobs = static_cast<unsigned>(Val.asInt());
    } else if (Key == "warm_cache") {
      S.WarmProverCache = Val.asBool();
    } else if (Key == "metrics") {
      auto F = metrics::parseFormat(Val.asString());
      if (!F) {
        Error = "bad metrics format '" + Val.asString() + "'";
        return false;
      }
      Out.Inv.Metrics = true;
      Out.Inv.MetricsFormat = *F;
    } else if (Key == "diagnostics") {
      if (Val.asString() == "json") {
        Out.Inv.JsonDiagnostics = true;
      } else if (Val.asString() != "text") {
        Error = "bad diagnostics format '" + Val.asString() + "'";
        return false;
      }
    } else if (Key == "infer_engine") {
      if (!Val.isString() ||
          !checker::parseEngineName(Val.asString(), S.Infer.Engine)) {
        Error = "bad inference engine '" + Val.asString() +
                "' (expected fixpoint|constraints)";
        return false;
      }
    } else if (Key == "infer_scope") {
      if (!Val.isString() ||
          !checker::parseScopeName(Val.asString(), S.Infer.Scope)) {
        Error = "bad inference scope '" + Val.asString() +
                "' (expected program|locals)";
        return false;
      }
    } else if (Key == "infer_max_suggestions") {
      if (!Val.isNumber() || Val.asInt() < 0) {
        Error = "'infer_max_suggestions' must be a non-negative integer";
        return false;
      }
      S.Infer.MaxSuggestions = static_cast<unsigned>(Val.asInt());
    } else if (Key == "infer_apply") {
      S.Infer.Apply = Val.asBool();
    } else if (Key == "infer_format") {
      if (Val.asString() == "json") {
        Out.Inv.InferJson = true;
      } else if (Val.asString() != "text") {
        Error = "bad inference format '" + Val.asString() + "'";
        return false;
      }
    } else if (Key == "trace") {
      Out.Inv.Trace = Val.asBool();
    } else if (Key == "eval_name" || Key == "eval_kind") {
      if (!Val.isString()) {
        Error = "'" + Key + "' must be a string";
        return false;
      }
      (Key == "eval_name" ? Out.Inv.EvalName : Out.Inv.EvalKind) =
          Val.asString();
    } else {
      Error = "unknown option '" + Key + "'";
      return false;
    }
  }
  return true;
}

std::string stq::server::rpc::encodeResponse(const Response &R) {
  json::Value Doc = json::Value::object();
  Doc.set("v", json::Value::str(Version));
  if (!R.Id.empty())
    Doc.set("id", json::Value::str(R.Id));
  Doc.set("status", json::Value::str(R.Status));
  Doc.set("exit_code", json::Value::integer(R.ExitCode));
  Doc.set("stdout", json::Value::str(R.Out));
  Doc.set("stderr", json::Value::str(R.Err));
  if (!R.TraceJson.empty())
    Doc.set("trace", json::Value::str(R.TraceJson));
  if (!R.Error.empty())
    Doc.set("error", json::Value::str(R.Error));
  return Doc.write();
}

bool stq::server::rpc::parseResponse(const std::string &Line, Response &Out,
                                     std::string &Error) {
  json::Value Doc;
  if (!json::parse(Line, Doc, Error)) {
    Error = "malformed response: " + Error;
    return false;
  }
  if (!Doc.isObject()) {
    Error = "malformed response: expected a JSON object";
    return false;
  }
  std::string V = Doc.getString("v");
  if (V != Version) {
    Error = "unsupported protocol version '" + V + "'";
    return false;
  }
  Out = Response();
  Out.Id = Doc.getString("id");
  Out.Status = Doc.getString("status");
  if (Out.Status.empty()) {
    Error = "missing 'status'";
    return false;
  }
  Out.ExitCode = static_cast<int>(Doc.getInt("exit_code", 2));
  Out.Out = Doc.getString("stdout");
  Out.Err = Doc.getString("stderr");
  Out.TraceJson = Doc.getString("trace");
  Out.Error = Doc.getString("error");
  return true;
}

ExchangeStatus stq::server::rpc::exchange(UnixStream &Conn, const Request &Req,
                                         Response &Resp, int TimeoutMs,
                                         std::string &Error) {
  std::string SendError;
  bool Sent = Conn.writeAll(encodeRequest(Req) + "\n", SendError);
  std::string Line;
  bool Read = Conn.readLine(Line, /*MaxBytes=*/64u << 20, TimeoutMs, Error);
  if (Read && parseResponse(Line, Resp, Error))
    return ExchangeStatus::Ok;
  if (!Sent) {
    Error = SendError;
    return ExchangeStatus::SendFailed;
  }
  return Read ? ExchangeStatus::BadResponse : ExchangeStatus::NoResponse;
}

std::string stq::server::rpc::versionText(const std::string &Tool) {
  // The metrics/diagnostics tags mirror the "schema" fields the emitters
  // write (support/MetricsEmitter.cpp, support/Diagnostics.cpp).
  std::string Out = Tool + " (stq: semantic type qualifiers)\n";
  Out += "  rpc protocol:  ";
  Out += Version;
  Out += "\n  metrics:       stq-metrics-v1\n";
  Out += "  diagnostics:   stq-diagnostics-v1\n";
  Out += "  inference:     stq-inference-v1\n";
  Out += "  prover cache:  ";
  Out += prover::ProverCache::PersistVersion;
  Out += "\n";
  return Out;
}
