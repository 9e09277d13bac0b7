//===- Protocol.h - The stq-rpc-v1 wire protocol ----------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned newline-delimited JSON protocol spoken over the stqd
/// Unix-domain socket (docs/SERVER.md is the normative spec). One request
/// document per connection, one response document back:
///
///   {"v":"stq-rpc-v1","command":"check","source":"int pos x = 3;",
///    "options":{"builtins":["pos","neg"],"jobs":2}}
///
///   {"v":"stq-rpc-v1","status":"ok","exit_code":0,
///    "stdout":"qualifier errors: 0 (...)\n","stderr":""}
///
/// `status` is "ok", "busy" (bounded-queue backpressure: retry later), or
/// "error" (malformed request, unsupported version, oversized or timed-out
/// read). The stdout/stderr payloads carry the existing stq-diagnostics-v1
/// and stq-metrics-v1 documents unchanged — the protocol frames bytes, it
/// does not reinterpret them.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SERVER_PROTOCOL_H
#define STQ_SERVER_PROTOCOL_H

#include "server/Exec.h"

#include <string>

namespace stq {
class UnixStream;
}

namespace stq::server::rpc {

/// The protocol version tag every request and response carries.
inline constexpr const char *Version = "stq-rpc-v1";

/// Commands the daemon itself answers (everything else is an Invocation).
bool isControlCommand(const std::string &Command); // "status" | "shutdown"

/// One decoded request: a control command or a full Invocation, plus an
/// opaque client correlation id (echoed back verbatim).
struct Request {
  std::string Id;
  Invocation Inv;
};

/// Encodes \p R as one line of JSON (no trailing newline).
std::string encodeRequest(const Request &R);

/// Decodes one request line. False (with \p Error) on malformed JSON, a
/// missing/unsupported version tag, or an unknown command.
bool parseRequest(const std::string &Line, Request &Out, std::string &Error);

/// One response document.
struct Response {
  std::string Id;
  std::string Status = "ok"; ///< "ok" | "busy" | "error".
  int ExitCode = 0;
  std::string Out;       ///< The stdout payload.
  std::string Err;       ///< The stderr payload.
  std::string TraceJson; ///< Chrome trace document, when requested.
  std::string Error;     ///< Human-readable cause when Status != "ok".
};

std::string encodeResponse(const Response &R);
bool parseResponse(const std::string &Line, Response &Out,
                   std::string &Error);

/// How one client round trip ended.
enum class ExchangeStatus { Ok, SendFailed, NoResponse, BadResponse };

/// One client round trip on a connected stream: sends \p Req as one line,
/// then reads and parses one response line into \p Resp. The daemon
/// answers a full queue with `busy` before reading the request and
/// closes, so the send can fail while that answer already waits on the
/// socket: a failed send still reads, and a response that parses wins.
/// Otherwise \p Error holds the send error (SendFailed), the read error
/// (NoResponse; empty for a clean close), or the parse error
/// (BadResponse).
ExchangeStatus exchange(UnixStream &Conn, const Request &Req, Response &Resp,
                        int TimeoutMs, std::string &Error);

/// The `--version` banner: the tool name plus every stable format version
/// this build speaks (rpc, metrics, diagnostics, prover cache).
std::string versionText(const std::string &Tool);

} // namespace stq::server::rpc

#endif // STQ_SERVER_PROTOCOL_H
