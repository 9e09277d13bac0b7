//===- test_metrics.cpp - Tests for the observability layer ---------------===//
//
// Stats registry (counters, gauges, histograms, scoped timers), the trace
// collector and its RAII spans, the text/JSON metrics emitters, the Chrome
// trace writer, JSON escaping, and the diagnostic consumers.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/MetricsEmitter.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

using namespace stq;

namespace {

// Crude structural validity check: quotes balanced, braces/brackets
// balanced and never negative outside strings.
void expectBalancedJson(const std::string &S) {
  int Braces = 0, Brackets = 0;
  bool InString = false, Escaped = false;
  for (char C : S) {
    if (Escaped) {
      Escaped = false;
      continue;
    }
    if (InString) {
      if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    switch (C) {
    case '"': InString = true; break;
    case '{': ++Braces; break;
    case '}': --Braces; break;
    case '[': ++Brackets; break;
    case ']': --Brackets; break;
    default: break;
    }
    ASSERT_GE(Braces, 0);
    ASSERT_GE(Brackets, 0);
  }
  EXPECT_FALSE(InString);
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
}

TEST(Stats, CounterAddSetGet) {
  stats::Registry R;
  R.add("a.b", 2);
  R.add("a.b", 3);
  EXPECT_EQ(R.counter("a.b").get(), 5u);
  R.set("a.b", 7);
  EXPECT_EQ(R.counter("a.b").get(), 7u);
}

TEST(Stats, LookupIsStable) {
  stats::Registry R;
  stats::Counter &C1 = R.counter("x");
  stats::Counter &C2 = R.counter("x");
  EXPECT_EQ(&C1, &C2);
}

TEST(Stats, GaugeLastWriteWins) {
  stats::Registry R;
  R.setGauge("rate", 0.25);
  R.setGauge("rate", 0.5);
  EXPECT_DOUBLE_EQ(R.gauge("rate").get(), 0.5);
}

TEST(Stats, HistogramSummary) {
  stats::Registry R;
  R.record("h", 1.0);
  R.record("h", 3.0);
  R.record("h", 2.0);
  stats::Histogram::Data D = R.histogram("h").data();
  EXPECT_EQ(D.Count, 3u);
  EXPECT_DOUBLE_EQ(D.Sum, 6.0);
  EXPECT_DOUBLE_EQ(D.Min, 1.0);
  EXPECT_DOUBLE_EQ(D.Max, 3.0);
  EXPECT_DOUBLE_EQ(D.mean(), 2.0);
  uint64_t Total = 0;
  for (uint64_t B : D.Buckets)
    Total += B;
  EXPECT_EQ(Total, 3u);
}

TEST(Stats, HistogramBucketsAreLog2Microseconds) {
  stats::Registry R;
  R.record("h", 0.0000005); // below 1us: bucket 0
  R.record("h", 0.000002);  // 2us: floor(log2(2)) = 1 -> bucket 2
  stats::Histogram::Data D = R.histogram("h").data();
  ASSERT_GE(D.Buckets.size(), 3u);
  EXPECT_EQ(D.Buckets[0], 1u);
  EXPECT_EQ(D.Buckets[2], 1u);
}

TEST(Stats, SnapshotIsSortedByName) {
  stats::Registry R;
  R.add("zeta", 1);
  R.add("alpha", 1);
  R.add("mid", 1);
  auto Snap = R.snapshot();
  std::vector<std::string> Names;
  for (const auto &[Name, V] : Snap.Counters)
    Names.push_back(Name);
  ASSERT_EQ(Names.size(), 3u);
  EXPECT_EQ(Names[0], "alpha");
  EXPECT_EQ(Names[1], "mid");
  EXPECT_EQ(Names[2], "zeta");
}

TEST(Stats, ScopedTimerRecordsOnce) {
  stats::Registry R;
  {
    stats::ScopedTimer T(&R, "phase.x_seconds");
    T.stop();
    T.stop(); // idempotent
  }
  stats::Histogram::Data D = R.histogram("phase.x_seconds").data();
  EXPECT_EQ(D.Count, 1u);
  EXPECT_GE(D.Sum, 0.0);
}

TEST(Stats, ScopedTimerNullRegistryIsNoOp) {
  stats::ScopedTimer T(nullptr, "ignored");
  T.stop(); // must not crash
}

TEST(Stats, CountersAreThreadSafe) {
  stats::Registry R;
  stats::Counter &C = R.counter("hot");
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&C] {
      for (int I = 0; I < 1000; ++I)
        C.add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.get(), 4000u);
}

TEST(Trace, DisabledByDefault) {
  EXPECT_FALSE(trace::Tracer::enabled());
  { trace::Span S("parse"); EXPECT_FALSE(S.active()); }
  trace::instant("probe");
  // Nothing was buffered: a start/stop cycle with no activity is empty.
  trace::Tracer::start();
  EXPECT_TRUE(trace::Tracer::stop().empty());
  EXPECT_FALSE(trace::Tracer::enabled());
}

TEST(Trace, RecordsNestedSpansAndInstants) {
  trace::Tracer::start();
  {
    trace::Span Outer("qualcheck");
    EXPECT_TRUE(Outer.active());
    {
      trace::Span Inner("check.unit");
      Inner.detail("main");
    }
    trace::instant("prover.cache.hit");
  }
  std::vector<trace::TraceEvent> Events = trace::Tracer::stop();
  ASSERT_EQ(Events.size(), 3u);

  const trace::TraceEvent *Outer = nullptr, *Inner = nullptr, *Hit = nullptr;
  for (const trace::TraceEvent &E : Events) {
    std::string Name = E.Name;
    if (Name == "qualcheck")
      Outer = &E;
    else if (Name == "check.unit")
      Inner = &E;
    else if (Name == "prover.cache.hit")
      Hit = &E;
  }
  ASSERT_TRUE(Outer && Inner && Hit);
  EXPECT_EQ(Outer->K, trace::TraceEvent::Kind::Span);
  EXPECT_EQ(Inner->Detail, "main");
  EXPECT_GT(Inner->Depth, Outer->Depth);
  EXPECT_EQ(Hit->K, trace::TraceEvent::Kind::Instant);
  EXPECT_EQ(Hit->DurUs, 0u);
  EXPECT_GE(Outer->DurUs, Inner->DurUs);
}

TEST(Trace, StartClearsPreviousBuffer) {
  trace::Tracer::start();
  { trace::Span S("parse"); }
  trace::Tracer::start(); // discard the first trace
  { trace::Span S("sema"); }
  std::vector<trace::TraceEvent> Events = trace::Tracer::stop();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Name, "sema");
}

TEST(Metrics, ParseFormat) {
  EXPECT_EQ(metrics::parseFormat(""), metrics::Format::Text);
  EXPECT_EQ(metrics::parseFormat("text"), metrics::Format::Text);
  EXPECT_EQ(metrics::parseFormat("json"), metrics::Format::Json);
  EXPECT_FALSE(metrics::parseFormat("yaml").has_value());
  EXPECT_FALSE(metrics::parseFormat("JSON").has_value());
}

TEST(Metrics, TextEmitterFormat) {
  stats::Registry R;
  R.add("check.units", 2);
  R.setGauge("prover.cache.hit_rate", 0.5);
  R.record("phase.parse_seconds", 0.25);
  std::ostringstream OS;
  metrics::MetricsEmitter::create(metrics::Format::Text)
      ->emit(R.snapshot(), OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("check.units = 2\n"), std::string::npos);
  EXPECT_NE(Out.find("prover.cache.hit_rate = 0.500\n"), std::string::npos);
  EXPECT_NE(Out.find("phase.parse_seconds: count=1 sum=0.25"),
            std::string::npos);
}

TEST(Metrics, JsonEmitterSchemaAndBalance) {
  stats::Registry R;
  R.add("check.units", 2);
  R.setGauge("prover.cache.hit_rate", 0.5);
  R.record("phase.parse_seconds", 0.001);
  std::ostringstream OS;
  metrics::MetricsEmitter::create(metrics::Format::Json)
      ->emit(R.snapshot(), OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("\"schema\": \"stq-metrics-v1\""), std::string::npos);
  EXPECT_NE(Out.find("\"counters\""), std::string::npos);
  EXPECT_NE(Out.find("\"check.units\": 2"), std::string::npos);
  EXPECT_NE(Out.find("\"gauges\""), std::string::npos);
  EXPECT_NE(Out.find("\"histograms\""), std::string::npos);
  EXPECT_NE(Out.find("\"buckets\""), std::string::npos);
  expectBalancedJson(Out);
}

TEST(Metrics, JsonEmitterEmptySnapshotIsValid) {
  stats::Registry R;
  std::ostringstream OS;
  metrics::MetricsEmitter::create(metrics::Format::Json)
      ->emit(R.snapshot(), OS);
  expectBalancedJson(OS.str());
}

TEST(Metrics, JsonEscape) {
  EXPECT_EQ(metrics::jsonEscape("plain"), "plain");
  EXPECT_EQ(metrics::jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(metrics::jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(metrics::jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(metrics::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Metrics, ChromeTraceFormat) {
  std::vector<trace::TraceEvent> Events;
  trace::TraceEvent Span;
  Span.Name = "parse";
  Span.K = trace::TraceEvent::Kind::Span;
  Span.StartUs = 10;
  Span.DurUs = 5;
  Span.Tid = 0;
  Events.push_back(Span);
  trace::TraceEvent Instant;
  Instant.Name = "prover.cache.hit";
  Instant.Detail = "shard 3";
  Instant.K = trace::TraceEvent::Kind::Instant;
  Instant.StartUs = 12;
  Events.push_back(Instant);

  std::ostringstream OS;
  metrics::writeChromeTrace(Events, OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Out.find("\"name\": \"parse\", \"ph\": \"X\", \"ts\": 10, "
                     "\"dur\": 5"),
            std::string::npos);
  EXPECT_NE(Out.find("\"name\": \"prover.cache.hit shard 3\", \"ph\": \"i\""),
            std::string::npos);
  expectBalancedJson(Out);
}

TEST(Metrics, SchedulingDependentPrefixes) {
  const std::vector<std::string> &P =
      metrics::schedulingDependentCounterPrefixes();
  EXPECT_NE(std::find(P.begin(), P.end(), "pool."), P.end());
  // check.memo.* is deterministic: one QualChecker per work item at every
  // job count, replayed unchanged from cached verdicts.
  EXPECT_EQ(std::find(P.begin(), P.end(), "check.memo."), P.end());
  EXPECT_NE(std::find(P.begin(), P.end(), "prover.cache.contended"), P.end());
  // check.* totals themselves are part of the determinism contract.
  EXPECT_EQ(std::find(P.begin(), P.end(), "check."), P.end());
}

TEST(Diagnostics, TextConsumerMatchesHistoricalFormat) {
  DiagnosticEngine Diags;
  std::ostringstream OS;
  TextDiagnosticConsumer Consumer(OS);
  Diags.setConsumer(&Consumer);
  Diags.warning(SourceLoc(3, 7), "qualcheck", "cannot prove nonnull");
  Diags.error(SourceLoc(), "driver", "cannot open 'x.q'");
  Diags.setConsumer(nullptr);

  std::string Expected = Diags.diagnostics()[0].str() + "\n" +
                         Diags.diagnostics()[1].str() + "\n";
  EXPECT_EQ(OS.str(), Expected);
}

TEST(Diagnostics, TextConsumerPhaseFilter) {
  DiagnosticEngine Diags;
  std::ostringstream OS;
  TextDiagnosticConsumer Consumer(OS, "qualcheck");
  Diags.setConsumer(&Consumer);
  Diags.error(SourceLoc(1, 1), "parse", "dropped");
  Diags.warning(SourceLoc(2, 2), "qualcheck", "kept");
  Diags.setConsumer(nullptr);
  EXPECT_EQ(OS.str().find("dropped"), std::string::npos);
  EXPECT_NE(OS.str().find("kept"), std::string::npos);
}

TEST(Diagnostics, JsonConsumerEmitsSchemaOnFinish) {
  DiagnosticEngine Diags;
  std::ostringstream OS;
  JsonDiagnosticConsumer Consumer(OS);
  Diags.setConsumer(&Consumer);
  Diags.warning(SourceLoc(3, 7), "qualcheck", "cannot prove \"nonnull\"");
  Diags.note(SourceLoc(), "soundness", "no location");
  EXPECT_TRUE(OS.str().empty()); // buffered until finish()
  Consumer.finish();
  Diags.setConsumer(nullptr);

  std::string Out = OS.str();
  EXPECT_NE(Out.find("\"schema\": \"stq-diagnostics-v1\""),
            std::string::npos);
  EXPECT_NE(Out.find("\"severity\": \"warning\""), std::string::npos);
  EXPECT_NE(Out.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(Out.find("\"col\": 7"), std::string::npos);
  EXPECT_NE(Out.find("cannot prove \\\"nonnull\\\""), std::string::npos);
  // The invalid location must not produce line/col keys.
  size_t NotePos = Out.find("\"no location\"");
  ASSERT_NE(NotePos, std::string::npos);
  EXPECT_EQ(Out.find("\"line\"", NotePos), std::string::npos);
  expectBalancedJson(Out);
}

} // namespace
