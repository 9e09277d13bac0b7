//===- Trace.h - RAII phase spans and trace events --------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer (docs/OBSERVABILITY.md).
/// Pipeline phases (lex, parse, sema, lower, qualcheck, obligations,
/// prover, execute), per-unit and per-obligation work items, and
/// per-cache-probe events are recorded as spans and instants into a
/// process-global buffer, then written as a Chrome trace-event JSON file by
/// `stqc --trace FILE` (load it in chrome://tracing or Perfetto).
///
/// The disabled path is the default and must stay near-free: every entry
/// point first checks one inline relaxed atomic load and does nothing else
/// when tracing is off, so the instrumentation can remain compiled in on
/// production builds. Recording is thread-safe; spans nest per thread via
/// a thread-local depth.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SUPPORT_TRACE_H
#define STQ_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace stq::trace {

/// One recorded event. Span durations are closed intervals measured on the
/// recording thread; instants have DurUs == 0.
struct TraceEvent {
  enum class Kind { Span, Instant };

  const char *Name = "";  ///< Static phase/event name.
  std::string Detail;     ///< Optional dynamic annotation (function name...).
  Kind K = Kind::Span;
  uint64_t StartUs = 0;   ///< Microseconds since Tracer::start().
  uint64_t DurUs = 0;
  uint32_t Tid = 0;       ///< Small sequential per-trace thread id.
  uint32_t Depth = 0;     ///< Nesting depth on the recording thread.
};

/// The process-global trace collector. Exactly one trace is recorded at a
/// time; start() clears the buffer and enables recording, stop() disables
/// it and hands the events back.
class Tracer {
public:
  /// The inline fast path every instrumentation point checks first.
  static bool enabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  static void start();
  static std::vector<TraceEvent> stop();

  /// Appends \p E (no-op unless enabled). Fills in nothing; callers stamp
  /// times and ids via nowUs()/threadId().
  static void record(TraceEvent E);

  static uint64_t nowUs();
  static uint32_t threadId();

  /// Span-nesting depth bookkeeping for the current thread.
  static uint32_t enterSpan();
  static void exitSpan();

private:
  static std::atomic<bool> EnabledFlag;
};

/// RAII span: records one TraceEvent covering its lifetime. Constructing
/// while tracing is disabled is a no-op (one atomic load).
class Span {
public:
  explicit Span(const char *Name) {
    if (Tracer::enabled())
      begin(Name);
  }
  Span(const char *Name, std::string Detail) {
    if (Tracer::enabled()) {
      begin(Name);
      Detail_ = std::move(Detail);
    }
  }
  ~Span() {
    if (Name_)
      end();
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a dynamic annotation; callers should guard any expensive
  /// string construction behind active().
  void detail(std::string D) {
    if (Name_)
      Detail_ = std::move(D);
  }
  bool active() const { return Name_ != nullptr; }

private:
  void begin(const char *Name);
  void end();

  const char *Name_ = nullptr;
  std::string Detail_;
  uint64_t StartUs_ = 0;
  uint32_t Depth_ = 0;
};

/// Records an instant event (no-op unless enabled).
void instant(const char *Name);
void instant(const char *Name, std::string Detail);

} // namespace stq::trace

#endif // STQ_SUPPORT_TRACE_H
