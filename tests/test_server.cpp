//===- test_server.cpp - The stqd server subsystem ------------------------===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
// Covers the server stack bottom-up: the JSON codec, the stq-rpc-v1
// protocol, the bounded request queue, the shared TaskGroup pool, the
// shared invocation executor's byte-identity contract, and a real
// in-process daemon on a Unix-domain socket — including the warm-cache
// second request, >= 8 concurrent clients (run under TSan in CI), `busy`
// backpressure, and the graceful drain that persists the prover cache.
//
//===----------------------------------------------------------------------===//

#include "server/Exec.h"
#include "server/Protocol.h"
#include "server/RequestQueue.h"
#include "server/Server.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace stq;

namespace {

//===----------------------------------------------------------------------===//
// JSON codec
//===----------------------------------------------------------------------===//

TEST(Json, WriteScalars) {
  EXPECT_EQ(json::Value::null().write(), "null");
  EXPECT_EQ(json::Value::boolean(true).write(), "true");
  EXPECT_EQ(json::Value::boolean(false).write(), "false");
  EXPECT_EQ(json::Value::integer(-42).write(), "-42");
  EXPECT_EQ(json::Value::str("hi").write(), "\"hi\"");
}

TEST(Json, StringEscaping) {
  // Control characters must be escaped: the RPC framing is one document
  // per line, so written output may never contain a literal newline.
  json::Value V = json::Value::str("a\"b\\c\nd\te\x01");
  std::string W = V.write();
  EXPECT_EQ(W, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_EQ(W.find('\n'), std::string::npos);

  json::Value Back;
  std::string Error;
  ASSERT_TRUE(json::parse(W, Back, Error)) << Error;
  EXPECT_EQ(Back.asString(), V.asString());
}

TEST(Json, ParseRoundtripObject) {
  json::Value Doc = json::Value::object();
  Doc.set("v", json::Value::str("stq-rpc-v1"));
  Doc.set("n", json::Value::integer(7));
  Doc.set("f", json::Value::boolean(false));
  json::Value Arr = json::Value::array();
  Arr.push(json::Value::str("a"));
  Arr.push(json::Value::integer(2));
  Doc.set("list", std::move(Arr));

  json::Value Back;
  std::string Error;
  ASSERT_TRUE(json::parse(Doc.write(), Back, Error)) << Error;
  // Member order is preserved, so encode(decode(x)) is stable.
  EXPECT_EQ(Back.write(), Doc.write());
  EXPECT_EQ(Back.getString("v"), "stq-rpc-v1");
  EXPECT_EQ(Back.getInt("n"), 7);
  EXPECT_FALSE(Back.getBool("f", true));
  ASSERT_NE(Back.get("list"), nullptr);
  EXPECT_EQ(Back.get("list")->elements().size(), 2u);
}

TEST(Json, ParseUnicodeEscapes) {
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse("\"\\u00e9\\uD83D\\uDE00\"", V, Error)) << Error;
  EXPECT_EQ(V.asString(), "\xc3\xa9\xf0\x9f\x98\x80"); // é + 😀
}

TEST(Json, StrictParserRejectsGarbage) {
  json::Value V;
  std::string Error;
  EXPECT_FALSE(json::parse("", V, Error));
  EXPECT_FALSE(json::parse("{", V, Error));
  EXPECT_FALSE(json::parse("{\"a\":1,}", V, Error));
  EXPECT_FALSE(json::parse("[1,2] trailing", V, Error));
  EXPECT_FALSE(json::parse("'single'", V, Error));
  EXPECT_FALSE(json::parse("{\"a\" 1}", V, Error));
}

TEST(Json, NumbersIntVsDouble) {
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse("[3, -9, 2.5, 1e3]", V, Error)) << Error;
  ASSERT_EQ(V.elements().size(), 4u);
  EXPECT_TRUE(V.elements()[0].isInt());
  EXPECT_TRUE(V.elements()[1].isInt());
  EXPECT_FALSE(V.elements()[2].isInt());
  EXPECT_DOUBLE_EQ(V.elements()[2].asDouble(), 2.5);
  EXPECT_DOUBLE_EQ(V.elements()[3].asDouble(), 1000.0);
}

TEST(Json, RawEmbedsVerbatim) {
  json::Value Doc = json::Value::object();
  Doc.set("payload", json::Value::raw("{\"schema\":\"stq-metrics-v1\"}"));
  EXPECT_EQ(Doc.write(), "{\"payload\":{\"schema\":\"stq-metrics-v1\"}}");
}

//===----------------------------------------------------------------------===//
// stq-rpc-v1 protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundtrip) {
  server::rpc::Request Req;
  Req.Id = "req-1";
  Req.Inv.Command = "check";
  Req.Inv.Source = "int pos x = 3;\n";
  Req.Inv.HasSource = true;
  Req.Inv.Session.Builtins = {"pos", "neg"};
  Req.Inv.Session.Jobs = 4;
  Req.Inv.Session.Checker.FlowSensitiveNarrowing = true;
  Req.Inv.Metrics = true;
  Req.Inv.MetricsFormat = metrics::Format::Json;
  Req.Inv.JsonDiagnostics = true;
  Req.Inv.Trace = true;

  std::string Line = server::rpc::encodeRequest(Req);
  EXPECT_EQ(Line.find('\n'), std::string::npos);

  server::rpc::Request Back;
  std::string Error;
  ASSERT_TRUE(server::rpc::parseRequest(Line, Back, Error)) << Error;
  EXPECT_EQ(Back.Id, "req-1");
  EXPECT_EQ(Back.Inv.Command, "check");
  EXPECT_TRUE(Back.Inv.HasSource);
  EXPECT_EQ(Back.Inv.Source, Req.Inv.Source);
  EXPECT_EQ(Back.Inv.Session.Builtins,
            (std::vector<std::string>{"pos", "neg"}));
  EXPECT_EQ(Back.Inv.Session.Jobs, 4u);
  EXPECT_TRUE(Back.Inv.Session.Checker.FlowSensitiveNarrowing);
  EXPECT_TRUE(Back.Inv.Metrics);
  EXPECT_EQ(Back.Inv.MetricsFormat, metrics::Format::Json);
  EXPECT_TRUE(Back.Inv.JsonDiagnostics);
  EXPECT_TRUE(Back.Inv.Trace);
}

TEST(Protocol, RecheckUnitOptionRoundtrip) {
  server::rpc::Request Req;
  Req.Inv.Command = "recheck";
  Req.Inv.Source = "int main() { return 0; }\n";
  Req.Inv.HasSource = true;
  Req.Inv.Session.IncrementalUnit = "editor:main.cmm";

  server::rpc::Request Back;
  std::string Error;
  ASSERT_TRUE(
      server::rpc::parseRequest(server::rpc::encodeRequest(Req), Back, Error))
      << Error;
  EXPECT_EQ(Back.Inv.Command, "recheck");
  EXPECT_EQ(Back.Inv.Session.IncrementalUnit, "editor:main.cmm");

  // Omitted unit parses to the default (one shared snapshot).
  server::rpc::Request Bare;
  Bare.Inv.Command = "recheck";
  Bare.Inv.Source = "int main() { return 0; }\n";
  Bare.Inv.HasSource = true;
  ASSERT_TRUE(
      server::rpc::parseRequest(server::rpc::encodeRequest(Bare), Back, Error))
      << Error;
  EXPECT_TRUE(Back.Inv.Session.IncrementalUnit.empty());

  // A non-string unit is a hard protocol error.
  EXPECT_FALSE(server::rpc::parseRequest(
      "{\"v\":\"stq-rpc-v1\",\"command\":\"recheck\",\"source\":\"\","
      "\"options\":{\"unit\":7}}",
      Back, Error));
  EXPECT_NE(Error.find("unit"), std::string::npos) << Error;
}

TEST(Protocol, InferOptionsRoundtrip) {
  server::rpc::Request Req;
  Req.Inv.Command = "infer";
  Req.Inv.Source = "int f() { int x = 3; return x; }\n";
  Req.Inv.HasSource = true;
  Req.Inv.Session.Infer.Engine = checker::InferenceEngine::Fixpoint;
  Req.Inv.Session.Infer.Scope = checker::InferenceScope::LocalsOnly;
  Req.Inv.Session.Infer.MaxSuggestions = 9;
  Req.Inv.Session.Infer.Apply = true;
  Req.Inv.InferJson = true;

  server::rpc::Request Back;
  std::string Error;
  ASSERT_TRUE(
      server::rpc::parseRequest(server::rpc::encodeRequest(Req), Back, Error))
      << Error;
  EXPECT_EQ(Back.Inv.Command, "infer");
  EXPECT_EQ(Back.Inv.Session.Infer.Engine, checker::InferenceEngine::Fixpoint);
  EXPECT_EQ(Back.Inv.Session.Infer.Scope, checker::InferenceScope::LocalsOnly);
  EXPECT_EQ(Back.Inv.Session.Infer.MaxSuggestions, 9u);
  EXPECT_TRUE(Back.Inv.Session.Infer.Apply);
  EXPECT_TRUE(Back.Inv.InferJson);

  // Defaults encode to no infer_* keys at all and parse back to defaults.
  server::rpc::Request Bare;
  Bare.Inv.Command = "infer";
  Bare.Inv.Source = "int x = 1;\n";
  Bare.Inv.HasSource = true;
  std::string Line = server::rpc::encodeRequest(Bare);
  EXPECT_EQ(Line.find("infer_"), std::string::npos) << Line;
  ASSERT_TRUE(server::rpc::parseRequest(Line, Back, Error)) << Error;
  EXPECT_EQ(Back.Inv.Session.Infer.Engine,
            checker::InferenceEngine::Constraints);
  EXPECT_EQ(Back.Inv.Session.Infer.Scope, checker::InferenceScope::Program);
  EXPECT_EQ(Back.Inv.Session.Infer.MaxSuggestions, 0u);
  EXPECT_FALSE(Back.Inv.Session.Infer.Apply);
  EXPECT_FALSE(Back.Inv.InferJson);

  // Unknown engine / scope names are hard protocol errors.
  EXPECT_FALSE(server::rpc::parseRequest(
      "{\"v\":\"stq-rpc-v1\",\"command\":\"infer\",\"source\":\"\","
      "\"options\":{\"infer_engine\":\"magic\"}}",
      Back, Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
  EXPECT_FALSE(server::rpc::parseRequest(
      "{\"v\":\"stq-rpc-v1\",\"command\":\"infer\",\"source\":\"\","
      "\"options\":{\"infer_scope\":\"galaxy\"}}",
      Back, Error));
  EXPECT_NE(Error.find("galaxy"), std::string::npos) << Error;
}

TEST(Protocol, RequestVersionIsMandatory) {
  server::rpc::Request Req;
  std::string Error;
  EXPECT_FALSE(server::rpc::parseRequest("{\"command\":\"check\"}", Req,
                                         Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
  EXPECT_FALSE(server::rpc::parseRequest(
      "{\"v\":\"stq-rpc-v999\",\"command\":\"check\"}", Req, Error));
  EXPECT_NE(Error.find("stq-rpc-v999"), std::string::npos) << Error;
}

TEST(Protocol, RequestRejectsUnknownCommandAndOption) {
  server::rpc::Request Req;
  std::string Error;
  EXPECT_FALSE(server::rpc::parseRequest(
      "{\"v\":\"stq-rpc-v1\",\"command\":\"explode\"}", Req, Error));
  EXPECT_NE(Error.find("explode"), std::string::npos);
  EXPECT_FALSE(server::rpc::parseRequest(
      "{\"v\":\"stq-rpc-v1\",\"command\":\"check\","
      "\"options\":{\"bogus\":1}}",
      Req, Error));
  EXPECT_NE(Error.find("bogus"), std::string::npos);
  EXPECT_FALSE(server::rpc::parseRequest("not json at all", Req, Error));
}

TEST(Protocol, ResponseRoundtrip) {
  server::rpc::Response Resp;
  Resp.Id = "req-9";
  Resp.Status = "ok";
  Resp.ExitCode = 1;
  Resp.Out = "qualifier errors: 1\n";
  Resp.Err = "error: ...\nsecond line\n";
  Resp.TraceJson = "{\"traceEvents\":[]}";

  std::string Line = server::rpc::encodeResponse(Resp);
  EXPECT_EQ(Line.find('\n'), std::string::npos);

  server::rpc::Response Back;
  std::string Error;
  ASSERT_TRUE(server::rpc::parseResponse(Line, Back, Error)) << Error;
  EXPECT_EQ(Back.Id, "req-9");
  EXPECT_EQ(Back.Status, "ok");
  EXPECT_EQ(Back.ExitCode, 1);
  EXPECT_EQ(Back.Out, Resp.Out);
  EXPECT_EQ(Back.Err, Resp.Err);
  EXPECT_EQ(Back.TraceJson, Resp.TraceJson);
}

TEST(Protocol, VersionTextNamesEveryFormat) {
  std::string V = server::rpc::versionText("stqc");
  EXPECT_NE(V.find("stq-rpc-v1"), std::string::npos);
  EXPECT_NE(V.find("stq-metrics-v1"), std::string::npos);
  EXPECT_NE(V.find("stq-diagnostics-v1"), std::string::npos);
  EXPECT_NE(V.find("stq-prover-cache-v1"), std::string::npos);
  EXPECT_NE(V.find("stq-inference-v1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// RequestQueue
//===----------------------------------------------------------------------===//

TEST(Protocol, ExchangeReadsTheAnswerAfterAFailedSend) {
  // The daemon's `busy` bounce: the answer is written and the connection
  // closed before the client sends. The send fails (EPIPE), and the
  // answer waiting on the socket must still be returned.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  UnixStream Client(Fds[0]);
  {
    UnixStream Daemon(Fds[1]);
    server::rpc::Response Busy;
    Busy.Status = "busy";
    Busy.ExitCode = 6;
    std::string Error;
    ASSERT_TRUE(Daemon.writeAll(server::rpc::encodeResponse(Busy) + "\n",
                                Error))
        << Error;
  }
  server::rpc::Request Req;
  Req.Inv.Command = "check";
  Req.Inv.Source = "int x = 1;\n";
  Req.Inv.HasSource = true;
  server::rpc::Response Resp;
  std::string Error;
  EXPECT_EQ(server::rpc::exchange(Client, Req, Resp, 5000, Error),
            server::rpc::ExchangeStatus::Ok)
      << Error;
  EXPECT_EQ(Resp.Status, "busy");
  EXPECT_EQ(Resp.ExitCode, 6);

  // With no answer waiting, the send error is what the caller sees.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  UnixStream Lone(Fds[0]);
  ::close(Fds[1]);
  EXPECT_EQ(server::rpc::exchange(Lone, Req, Resp, 5000, Error),
            server::rpc::ExchangeStatus::SendFailed);
  EXPECT_NE(Error, "");
}

TEST(RequestQueue, BoundedPushRejectsWhenFull) {
  server::RequestQueue Q(2);
  EXPECT_TRUE(Q.push(UnixStream()));
  EXPECT_TRUE(Q.push(UnixStream()));
  EXPECT_FALSE(Q.push(UnixStream())); // explicit backpressure, no blocking
  EXPECT_EQ(Q.depth(), 2u);

  UnixStream S;
  EXPECT_TRUE(Q.pop(S));
  EXPECT_TRUE(Q.push(UnixStream())); // slot freed
}

TEST(RequestQueue, CloseDrainsThenStops) {
  server::RequestQueue Q(4);
  EXPECT_TRUE(Q.push(UnixStream()));
  EXPECT_TRUE(Q.push(UnixStream()));
  Q.close();
  EXPECT_FALSE(Q.push(UnixStream())); // no new work after close
  UnixStream S;
  EXPECT_TRUE(Q.pop(S)); // queued connections still drain
  EXPECT_TRUE(Q.pop(S));
  EXPECT_FALSE(Q.pop(S)); // then pop reports shutdown
}

TEST(RequestQueue, CloseWakesBlockedWorkers) {
  server::RequestQueue Q(4);
  std::atomic<int> Exited{0};
  std::vector<std::thread> Workers;
  for (int I = 0; I < 3; ++I)
    Workers.emplace_back([&] {
      UnixStream S;
      while (Q.pop(S)) {
      }
      Exited.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Q.close();
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Exited.load(), 3);
}

//===----------------------------------------------------------------------===//
// Shared pool: TaskGroup
//===----------------------------------------------------------------------===//

TEST(TaskGroup, WaitCoversOnlyOwnTasks) {
  // Two groups on one pool: each wait() returns when *its* tasks are done,
  // even though the pool's global pending count includes the other group
  // (the property that lets concurrent server requests share one pool).
  ThreadPool Pool(2);
  std::atomic<int> SlowDone{0}, FastDone{0};
  TaskGroup Slow(Pool), Fast(Pool);
  std::atomic<bool> Release{false};
  Slow.submit([&] {
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    SlowDone.fetch_add(1);
  });
  for (int I = 0; I < 8; ++I)
    Fast.submit([&] { FastDone.fetch_add(1); });
  Fast.wait();
  EXPECT_EQ(FastDone.load(), 8);
  EXPECT_EQ(SlowDone.load(), 0); // the slow group is still running
  Release.store(true, std::memory_order_release);
  Slow.wait();
  EXPECT_EQ(SlowDone.load(), 1);
}

TEST(TaskGroup, ParallelForOnSharedPool) {
  ThreadPool Pool(3);
  std::vector<int> Values(64, 0);
  ThreadPool::PoolStats Stats;
  parallelFor(4, Values.size(), [&](size_t I) { Values[I] = static_cast<int>(I); },
              &Stats, &Pool);
  for (size_t I = 0; I < Values.size(); ++I)
    EXPECT_EQ(Values[I], static_cast<int>(I));
  EXPECT_EQ(Stats.Executed, Values.size());
}

//===----------------------------------------------------------------------===//
// executeInvocation: byte-identity between owned and shared state
//===----------------------------------------------------------------------===//

server::Invocation checkInvocation(const std::string &Source) {
  server::Invocation Inv;
  Inv.Command = "check";
  Inv.Source = Source;
  Inv.HasSource = true;
  return Inv;
}

TEST(Exec, SharedStateKeepsBytesIdentical) {
  // The differential contract: a request answered with the server's warm
  // shared state produces exactly the bytes of an owned one-shot run.
  server::Invocation Inv = checkInvocation(
      "int f(int pos a) { int pos b = a * a; return b; }\n"
      "int main() { int pos x = 3; return f(x); }\n");
  server::ExecResult OneShot = server::executeInvocation(Inv);

  Session Boot{SessionOptions{}};
  ASSERT_TRUE(Boot.loadQualifiers());
  prover::ProverCache Cache;
  ThreadPool Pool(2);
  server::SharedContext Ctx;
  Ctx.Cache = &Cache;
  Ctx.Qualifiers = &Boot.qualifiers();
  Ctx.Pool = &Pool;

  for (int Round = 0; Round < 2; ++Round) {
    server::ExecResult Shared = server::executeInvocation(Inv, Ctx);
    EXPECT_EQ(Shared.Out, OneShot.Out);
    EXPECT_EQ(Shared.Err, OneShot.Err);
    EXPECT_EQ(Shared.ExitCode, OneShot.ExitCode);
  }
}

TEST(Exec, RecheckWarmEngineMatchesOneShotCheckBytes) {
  // The incremental differential at the exec layer: a recheck answered
  // from a warm shared engine must produce exactly the bytes of a cold
  // one-shot `check` — including on a program with a qualifier warning.
  const std::string Source = "int pos x = 0 - 1;\n"
                             "int f(int a) { return a + x; }\n"
                             "int main() { return f(2); }\n";
  server::ExecResult OneShot =
      server::executeInvocation(checkInvocation(Source));

  checker::incremental::Engine Engine;
  server::SharedContext Ctx;
  Ctx.Incremental = &Engine;
  server::Invocation Inv = checkInvocation(Source);
  Inv.Command = "recheck";
  Inv.Session.IncrementalUnit = "exec-test";
  for (int Round = 0; Round < 3; ++Round) {
    server::ExecResult Warm = server::executeInvocation(Inv, Ctx);
    EXPECT_EQ(Warm.Out, OneShot.Out) << "round " << Round;
    EXPECT_EQ(Warm.Err, OneShot.Err) << "round " << Round;
    EXPECT_EQ(Warm.ExitCode, OneShot.ExitCode) << "round " << Round;
  }
  EXPECT_GT(Engine.entries(), 0u);
}

TEST(Exec, FailingCheckKeepsBytesIdentical) {
  server::Invocation Inv = checkInvocation("int pos x = -1;\n");
  Inv.Session.Builtins = {"pos", "neg"};
  server::ExecResult OneShot = server::executeInvocation(Inv);
  EXPECT_EQ(OneShot.ExitCode, 1);

  // The invocation asks for its own builtins, so the shared default set
  // must NOT be used — but cache and pool still are.
  Session Boot{SessionOptions{}};
  ASSERT_TRUE(Boot.loadQualifiers());
  prover::ProverCache Cache;
  server::SharedContext Ctx;
  Ctx.Cache = &Cache;
  Ctx.Qualifiers = &Boot.qualifiers();
  server::ExecResult Shared = server::executeInvocation(Inv, Ctx);
  EXPECT_EQ(Shared.Out, OneShot.Out);
  EXPECT_EQ(Shared.Err, OneShot.Err);
  EXPECT_EQ(Shared.ExitCode, OneShot.ExitCode);
}

TEST(Exec, ProveSharedCacheMatchesVerdictsAndDiagnostics) {
  // prove output embeds wall-clock timings, so the byte contract is on
  // diagnostics + exit code; verdict lines are checked structurally.
  server::Invocation Inv;
  Inv.Command = "prove";
  Inv.Session.Builtins = {"pos", "neg"};

  server::ExecResult OneShot = server::executeInvocation(Inv);
  prover::ProverCache Cache;
  server::SharedContext Ctx;
  Ctx.Cache = &Cache;
  server::ExecResult Cold = server::executeInvocation(Inv, Ctx);
  server::ExecResult Warm = server::executeInvocation(Inv, Ctx);
  EXPECT_EQ(Cold.ExitCode, OneShot.ExitCode);
  EXPECT_EQ(Warm.ExitCode, OneShot.ExitCode);
  EXPECT_EQ(Cold.Err, OneShot.Err);
  EXPECT_EQ(Warm.Err, OneShot.Err);
  // The warm run replayed from the shared cache.
  EXPECT_GT(Cache.stats().Hits, 0u);
}

TEST(Exec, InferSharedStateKeepsBytesIdentical) {
  // infer answered with the daemon's warm shared state (prover cache +
  // pool) must produce exactly the one-shot bytes, in both renderings.
  server::Invocation Inv;
  Inv.Command = "infer";
  Inv.Source = "int f() { int x = 3; int y = x; return y; }\n";
  Inv.HasSource = true;
  Inv.Session.Builtins = {"pos", "neg", "nonneg", "nonzero"};

  Session Boot{SessionOptions{}};
  ASSERT_TRUE(Boot.loadQualifiers());
  prover::ProverCache Cache;
  ThreadPool Pool(2);
  server::SharedContext Ctx;
  Ctx.Cache = &Cache;
  Ctx.Qualifiers = &Boot.qualifiers();
  Ctx.Pool = &Pool;

  for (bool Json : {false, true}) {
    Inv.InferJson = Json;
    server::ExecResult OneShot = server::executeInvocation(Inv);
    EXPECT_EQ(OneShot.ExitCode, 0);
    for (int Round = 0; Round < 2; ++Round) {
      server::ExecResult Shared = server::executeInvocation(Inv, Ctx);
      EXPECT_EQ(Shared.Out, OneShot.Out) << "json=" << Json;
      EXPECT_EQ(Shared.Err, OneShot.Err) << "json=" << Json;
      EXPECT_EQ(Shared.ExitCode, OneShot.ExitCode) << "json=" << Json;
    }
  }
}

TEST(Exec, InferJsonIsOneParseableSchemaDocument) {
  server::Invocation Inv;
  Inv.Command = "infer";
  Inv.Source = "int f() { int x = 3; return x; }\n";
  Inv.HasSource = true;
  Inv.Session.Builtins = {"pos", "neg", "nonneg", "nonzero"};
  Inv.InferJson = true;
  server::ExecResult R = server::executeInvocation(Inv);
  ASSERT_EQ(R.ExitCode, 0) << R.Err;

  // One line: the RPC framing is one document per line.
  ASSERT_FALSE(R.Out.empty());
  EXPECT_EQ(R.Out.find('\n'), R.Out.size() - 1) << R.Out;

  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(R.Out.substr(0, R.Out.size() - 1), Doc, Error))
      << Error;
  EXPECT_EQ(Doc.getString("schema"), "stq-inference-v1");
  EXPECT_EQ(Doc.getString("engine"), "constraints");
  EXPECT_EQ(Doc.getString("scope"), "program");
  ASSERT_NE(Doc.get("suggestions"), nullptr);
  ASSERT_FALSE(Doc.get("suggestions")->elements().empty());
  const json::Value &First = Doc.get("suggestions")->elements()[0];
  EXPECT_EQ(First.getString("var"), "x");
  EXPECT_EQ(First.getString("function"), "f");
  ASSERT_NE(Doc.get("stats"), nullptr);
  EXPECT_GT(Doc.get("stats")->getInt("constraints"), 0);
  EXPECT_FALSE(Doc.getBool("applied", true));
}

TEST(Exec, UnknownCommandAndMissingSource) {
  server::Invocation Inv;
  Inv.Command = "explode";
  server::ExecResult R = server::executeInvocation(Inv);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Err.find("unknown command"), std::string::npos);

  Inv.Command = "check";
  R = server::executeInvocation(Inv);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Err.find("no input"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The daemon end-to-end (in-process, over a real Unix socket)
//===----------------------------------------------------------------------===//

/// A running in-process server plus its serve() thread.
class ServerFixture {
public:
  explicit ServerFixture(server::ServerOptions Opts) {
    Srv = std::make_unique<server::Server>(std::move(Opts));
    std::string Error;
    Ok = Srv->start(Error);
    EXPECT_TRUE(Ok) << Error;
    if (Ok)
      Loop = std::thread([this] { ExitCode = Srv->serve(); });
  }
  ~ServerFixture() { stop(); }

  void stop() {
    if (Loop.joinable()) {
      Srv->requestShutdown();
      Loop.join();
    }
  }

  server::Server &server() { return *Srv; }
  int exitCode() const { return ExitCode; }
  bool ok() const { return Ok; }

private:
  std::unique_ptr<server::Server> Srv;
  std::thread Loop;
  int ExitCode = -1;
  bool Ok = false;
};

/// One client round-trip: connect, send \p Req, read the response.
bool roundTrip(const std::string &Socket, const server::rpc::Request &Req,
               server::rpc::Response &Resp, std::string &Error,
               int TimeoutMs = 30000) {
  UnixStream Conn;
  if (!Conn.connect(Socket, Error))
    return false;
  server::rpc::ExchangeStatus Status =
      server::rpc::exchange(Conn, Req, Resp, TimeoutMs, Error);
  if (Status == server::rpc::ExchangeStatus::NoResponse && Error.empty())
    Error = "connection closed before a response";
  return Status == server::rpc::ExchangeStatus::Ok;
}

TEST(ServerEndToEnd, CheckMatchesOneShotBytes) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  Opts.Workers = 2;
  Opts.PoolThreads = 2;
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Req;
  Req.Inv = checkInvocation("int pos x = 3;\n");
  Req.Inv.Metrics = false;
  server::ExecResult OneShot = server::executeInvocation(Req.Inv);

  for (int Round = 0; Round < 3; ++Round) {
    server::rpc::Response Resp;
    std::string Error;
    ASSERT_TRUE(roundTrip(Opts.SocketPath, Req, Resp, Error)) << Error;
    EXPECT_EQ(Resp.Status, "ok");
    EXPECT_EQ(Resp.Out, OneShot.Out);
    EXPECT_EQ(Resp.Err, OneShot.Err);
    EXPECT_EQ(Resp.ExitCode, OneShot.ExitCode);
  }
}

TEST(ServerEndToEnd, InferMatchesOneShotBytesTextAndJson) {
  // The satellite contract: `stqc infer` one-shot and the same request
  // answered by a (warm) daemon produce byte-identical output, in the
  // text rendering, the stq-inference-v1 rendering, and apply-mode.
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  Opts.Workers = 2;
  Opts.PoolThreads = 2;
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Req;
  Req.Inv.Command = "infer";
  Req.Inv.Source = "int g(int v) { return v; }\n"
                   "int f() { int x = 3; int y = x; return g(y); }\n";
  Req.Inv.HasSource = true;

  struct Variant {
    bool Json;
    bool Apply;
  };
  for (Variant V : {Variant{false, false}, Variant{true, false},
                    Variant{false, true}}) {
    Req.Inv.InferJson = V.Json;
    Req.Inv.Session.Infer.Apply = V.Apply;
    server::ExecResult OneShot = server::executeInvocation(Req.Inv);
    ASSERT_EQ(OneShot.ExitCode, 0) << OneShot.Err;
    for (int Round = 0; Round < 2; ++Round) {
      server::rpc::Response Resp;
      std::string Error;
      ASSERT_TRUE(roundTrip(Opts.SocketPath, Req, Resp, Error)) << Error;
      EXPECT_EQ(Resp.Status, "ok");
      EXPECT_EQ(Resp.Out, OneShot.Out)
          << "json=" << V.Json << " apply=" << V.Apply;
      EXPECT_EQ(Resp.Err, OneShot.Err);
      EXPECT_EQ(Resp.ExitCode, OneShot.ExitCode);
    }
  }
}

TEST(ServerEndToEnd, SecondProveReplaysEntirelyFromWarmCache) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Req;
  Req.Inv.Command = "prove";
  Req.Inv.Metrics = true; // per-request counters ride in stdout

  server::rpc::Response First, Second;
  std::string Error;
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Req, First, Error, 120000)) << Error;
  ASSERT_EQ(First.Status, "ok");
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Req, Second, Error, 120000)) << Error;
  ASSERT_EQ(Second.Status, "ok");

  // Cold request proved at least one obligation itself; the warm request's
  // per-session counters show every obligation replayed from the shared
  // cache: zero prover calls.
  EXPECT_NE(First.Out.find("prove.obligations ="), std::string::npos);
  auto Counter = [](const std::string &Text, const std::string &Name) {
    size_t At = Text.find(Name + " = ");
    EXPECT_NE(At, std::string::npos) << Name << " missing in:\n" << Text;
    if (At == std::string::npos)
      return uint64_t(0);
    return static_cast<uint64_t>(
        std::stoull(Text.substr(At + Name.size() + 3)));
  };
  // The counter only materializes on a cache hit, so a truly cold first
  // request does not report it at all.
  EXPECT_EQ(First.Out.find("prove.obligations_from_cache"), std::string::npos);
  uint64_t Obligations = Counter(Second.Out, "prove.obligations");
  EXPECT_GT(Obligations, 0u);
  EXPECT_EQ(Counter(Second.Out, "prove.obligations_from_cache"), Obligations);
}

TEST(ServerEndToEnd, EightConcurrentClientsGetIdenticalBytes) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  Opts.Workers = 4;
  Opts.PoolThreads = 2;
  Opts.QueueCapacity = 64; // all clients must be answered, never bounced
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Check;
  Check.Inv = checkInvocation(
      "int f(int pos a) { int pos b = a + 1; return b; }\n");
  Check.Inv.Session.Jobs = 2; // exercise the shared pool concurrently
  server::rpc::Request Prove;
  Prove.Inv.Command = "prove";

  server::ExecResult CheckOneShot = server::executeInvocation(Check.Inv);
  server::ExecResult ProveOneShot = server::executeInvocation(Prove.Inv);

  constexpr int Clients = 8;
  std::vector<std::thread> Threads;
  std::vector<std::string> Failures(Clients);
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      const bool IsProve = I % 2 == 1;
      server::rpc::Response Resp;
      std::string Error;
      if (!roundTrip(Opts.SocketPath, IsProve ? Prove : Check, Resp, Error,
                     120000)) {
        Failures[I] = "transport: " + Error;
        return;
      }
      if (Resp.Status != "ok") {
        Failures[I] = "status " + Resp.Status + ": " + Resp.Error;
        return;
      }
      const server::ExecResult &Want = IsProve ? ProveOneShot : CheckOneShot;
      if (Resp.ExitCode != Want.ExitCode)
        Failures[I] = "exit code mismatch";
      else if (Resp.Err != Want.Err)
        Failures[I] = "stderr mismatch";
      else if (!IsProve && Resp.Out != Want.Out)
        Failures[I] = "stdout mismatch"; // prove stdout carries timings
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < Clients; ++I)
    EXPECT_EQ(Failures[I], "") << "client " << I;

  EXPECT_GE(Fix.server().metrics().counter("server.requests").get(),
            static_cast<uint64_t>(Clients));
}

TEST(ServerEndToEnd, ConcurrentRecheckAndCheckStayByteIdentical) {
  // `recheck` requests racing ordinary `check` requests on the daemon's
  // warm shared engine: every response must match the cold one-shot bytes,
  // whichever path answered it and however the store interleaves.
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  Opts.Workers = 4;
  Opts.PoolThreads = 2;
  Opts.QueueCapacity = 64;
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  const std::string Source =
      "int pos x = 0 - 1;\n"
      "int f(int a) { return a + x; }\n"
      "int main() { return f(2); }\n";
  server::rpc::Request Check;
  Check.Inv = checkInvocation(Source);
  server::rpc::Request Recheck;
  Recheck.Inv = checkInvocation(Source);
  Recheck.Inv.Command = "recheck";
  Recheck.Inv.Session.IncrementalUnit = "e2e";
  Recheck.Inv.Session.Jobs = 2;

  server::ExecResult OneShot = server::executeInvocation(Check.Inv);

  constexpr int Clients = 8;
  std::vector<std::thread> Threads;
  std::vector<std::string> Failures(Clients);
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      const server::rpc::Request &Req = I % 2 == 0 ? Recheck : Check;
      server::rpc::Response Resp;
      std::string Error;
      if (!roundTrip(Opts.SocketPath, Req, Resp, Error, 120000)) {
        Failures[I] = "transport: " + Error;
        return;
      }
      if (Resp.Status != "ok")
        Failures[I] = "status " + Resp.Status + ": " + Resp.Error;
      else if (Resp.ExitCode != OneShot.ExitCode)
        Failures[I] = "exit code mismatch";
      else if (Resp.Out != OneShot.Out)
        Failures[I] = "stdout mismatch";
      else if (Resp.Err != OneShot.Err)
        Failures[I] = "stderr mismatch";
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < Clients; ++I)
    EXPECT_EQ(Failures[I], "") << "client " << I;

  // The daemon's engine kept the verdicts, and status gauges surface it.
  EXPECT_GT(Fix.server().incrementalEngine().entries(), 0u);
}

TEST(ServerEndToEnd, FullQueueAnswersBusy) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  Opts.Workers = 1;
  Opts.QueueCapacity = 1;
  Opts.RequestTimeoutMs = 3000; // silent connections park the worker
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  // Occupy the only worker with a silent connection, then fill the queue
  // with another; the next connection must be bounced with `busy`.
  std::string Error;
  UnixStream Hold1, Hold2;
  ASSERT_TRUE(Hold1.connect(Opts.SocketPath, Error)) << Error;
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_TRUE(Hold2.connect(Opts.SocketPath, Error)) << Error;
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  server::rpc::Request Req;
  Req.Inv = checkInvocation("int x = 1;\n");
  server::rpc::Response Resp;
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, "busy");
  EXPECT_EQ(Resp.ExitCode, 6);
  EXPECT_GE(Fix.server().metrics().counter("server.rejected").get(), 1u);

  // The parked connections get protocol-error responses once they time
  // out; the server stays healthy for real requests afterwards. `busy`
  // means retry — the worker may still be draining the closed holds.
  Hold1.close();
  Hold2.close();
  server::rpc::Response After;
  for (int Attempt = 0; Attempt < 50; ++Attempt) {
    ASSERT_TRUE(roundTrip(Opts.SocketPath, Req, After, Error, 30000)) << Error;
    if (After.Status != "busy")
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(After.Status, "ok");
}

TEST(ServerEndToEnd, MalformedRequestGetsProtocolError) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  UnixStream Conn;
  std::string Error;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;
  ASSERT_TRUE(Conn.writeAll("this is not json\n", Error)) << Error;
  std::string Line;
  ASSERT_TRUE(Conn.readLine(Line, 1u << 20, 30000, Error)) << Error;
  server::rpc::Response Resp;
  ASSERT_TRUE(server::rpc::parseResponse(Line, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, "error");
  EXPECT_EQ(Resp.ExitCode, 6);
}

TEST(ServerEndToEnd, OversizedRequestIsRejected) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  Opts.MaxRequestBytes = 256;
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Req;
  Req.Inv = checkInvocation(std::string(4096, 'x'));
  server::rpc::Response Resp;
  std::string Error;
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, "error");
  EXPECT_EQ(Resp.ExitCode, 6);
}

TEST(ServerEndToEnd, StatusReportsServerMetrics) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Check;
  Check.Inv = checkInvocation("int x = 1;\n");
  server::rpc::Response Ignored;
  std::string Error;
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Check, Ignored, Error)) << Error;

  server::rpc::Request Status;
  Status.Inv.Command = "status";
  server::rpc::Response Resp;
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Status, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, "ok");
  EXPECT_EQ(Resp.ExitCode, 0);
  EXPECT_NE(Resp.Out.find("server.requests"), std::string::npos);
  EXPECT_NE(Resp.Out.find("server.queue_depth"), std::string::npos);
  EXPECT_NE(Resp.Out.find("prover.cache.entries"), std::string::npos);
}

TEST(ServerEndToEnd, DeepRecursionRunIsAnsweredAndServerSurvives) {
  // The tree-walking interpreter recurses natively per C-minus call: a
  // request past interp::MaxCallDepth must end as budget exhaustion, not
  // take the daemon's stack (and every other client) down with it.
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Run;
  Run.Inv = checkInvocation(
      "int f(int n) { if (n == 0) return 0; return f(n - 1) + 1; }\n"
      "int main() { return f(20000); }\n");
  Run.Inv.Command = "run";
  Run.Inv.Session.Backend = SessionOptions::ExecBackend::Interp;
  server::rpc::Response Resp;
  std::string Error;
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Run, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, "ok");
  EXPECT_EQ(Resp.ExitCode, 5);
  EXPECT_EQ(Resp.Err, "error: step budget exhausted\n");

  server::rpc::Request Status;
  Status.Inv.Command = "status";
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Status, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, "ok");
  EXPECT_EQ(Resp.ExitCode, 0);
}

TEST(ServerEndToEnd, ShutdownRequestDrainsAndSavesCache) {
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  const std::string CachePath = Tmp.path("nested/dir/warm.stqcache");
  server::ServerOptions Opts;
  Opts.SocketPath = Tmp.path("stq.sock");
  Opts.Defaults.CacheFile = CachePath;
  ServerFixture Fix(Opts);
  ASSERT_TRUE(Fix.ok());

  server::rpc::Request Prove;
  Prove.Inv.Command = "prove";
  server::rpc::Response Resp;
  std::string Error;
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Prove, Resp, Error, 120000)) << Error;
  ASSERT_EQ(Resp.Status, "ok");

  server::rpc::Request Shutdown;
  Shutdown.Inv.Command = "shutdown";
  ASSERT_TRUE(roundTrip(Opts.SocketPath, Shutdown, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, "ok");
  Fix.stop();
  EXPECT_EQ(Fix.exitCode(), 0);

  // The drain persisted the warm cache (creating the parent directories),
  // so the next daemon starts warm: requests replay without proving.
  {
    std::ifstream Probe(CachePath);
    EXPECT_TRUE(Probe.good()) << CachePath;
  }
  server::ServerOptions Next = Opts;
  Next.SocketPath = Tmp.path("stq2.sock");
  ServerFixture Fix2(Next);
  ASSERT_TRUE(Fix2.ok());
  EXPECT_GT(
      Fix2.server().metrics().counter("server.cache_entries_loaded").get(),
      0u);
  server::rpc::Request Warm;
  Warm.Inv.Command = "prove";
  Warm.Inv.Metrics = true;
  ASSERT_TRUE(roundTrip(Next.SocketPath, Warm, Resp, Error, 120000)) << Error;
  ASSERT_EQ(Resp.Status, "ok");
  EXPECT_NE(Resp.Out.find("prover.cache.misses = 0\n"), std::string::npos)
      << Resp.Out;
}

} // namespace
