//===- Preprocessor.h - Lexer-level C preprocessor --------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-pass, line-oriented C preprocessor in front of the C-minus
/// parser, so the pipeline can ingest the paper's real §6 subjects (grep's
/// dfa.c/dfa.h, bftpd, mingetty, identd) instead of hand-flattened
/// transcriptions. Supported:
///
///   * `#include "f.h"` and `#include <f.h>` with a search path (quoted
///     includes try the including file's directory first), an include
///     stack recorded per spliced line, and a recursion-depth cap that
///     diagnoses cycles instead of overflowing;
///   * object-like and function-like macros (`#define N 10`,
///     `#define MAX(a,b) ...`) with argument substitution, rescanning,
///     and the C99 no-reexpansion rule for self-referential and mutually
///     recursive macros; `#undef`;
///   * `#if` / `#ifdef` / `#ifndef` / `#elif` / `#else` / `#endif` with
///     the integer constant-expression subset (decimal/hex literals,
///     `defined`, `! ~ -`, `* / % + -`, comparisons, `&& ||`, `?:`,
///     parentheses) and a nesting-depth cap;
///   * `#error`, and comment stripping that preserves line/column
///     coordinates (comment bytes become spaces).
///
/// Output is the expanded source text plus a LineMap: for every output
/// line, the originating file, physical line, include stack, and — when
/// the line was rewritten by macro expansion — the macro backtrace. The
/// downstream parser/sema/checker run on the expanded text unchanged;
/// the multi-TU front end uses the map to render "in file included
/// from ..." chains and macro-expansion notes instead of raw
/// post-expansion SourceLocs.
///
/// Robustness mirrors the parser's hardening contracts (see
/// tests/test_pp.cpp): include depth, conditional depth, per-line
/// expansion work, and the diagnostic flood are all capped; missing
/// headers and unterminated conditionals are diagnosed, never crashed on.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_PP_PREPROCESSOR_H
#define STQ_PP_PREPROCESSOR_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stq::pp {

/// A virtual filesystem: resolved path -> file contents. The include
/// closure a recording resolver collects ships over stq-rpc-v1 in exactly
/// this shape, so the daemon re-resolves includes without touching client
/// paths.
using FileMap = std::map<std::string, std::string>;

/// Where `#include` bytes come from. Resolution order (quoted: including
/// file's directory, then the -I dirs; angled: -I dirs only) lives in the
/// preprocessor; resolvers only answer "give me this exact path".
class FileResolver {
public:
  virtual ~FileResolver();
  /// Reads \p Path into \p Text; false when the file does not exist
  /// (the preprocessor then tries the next search-path candidate).
  virtual bool read(const std::string &Path, std::string &Text) = 0;
};

/// Reads from the real filesystem. When \p Record is non-null, every
/// successful read is mirrored into it — the client-side include-closure
/// scan `stqc --server` runs before shipping a multi-input request.
class DiskResolver : public FileResolver {
public:
  explicit DiskResolver(FileMap *Record = nullptr) : Record(Record) {}
  bool read(const std::string &Path, std::string &Text) override;

private:
  FileMap *Record;
};

/// Serves a shipped FileMap; never touches the filesystem (the daemon's
/// resolver). Search-path resolution is byte-identical to the disk pass
/// that recorded the map: a candidate is readable iff the map holds it.
class MemoryResolver : public FileResolver {
public:
  explicit MemoryResolver(const FileMap &Files) : Files(Files) {}
  bool read(const std::string &Path, std::string &Text) override;

private:
  const FileMap &Files;
};

/// One frame of an include chain: the file that wrote the `#include` and
/// the line it sits on.
struct IncludeFrame {
  std::string File;
  unsigned Line = 0;
};

/// Per-output-line provenance.
struct LineInfo {
  /// Index into LineMap::Files.
  uint32_t FileId = 0;
  /// 1-based physical line in that file.
  uint32_t PhysLine = 0;
  /// Index into LineMap::Stacks (0 = the empty stack: the main file).
  uint32_t StackId = 0;
  /// When the line was rewritten by macro expansion, the name of the
  /// outermost macro expanded on it (empty otherwise). Columns on such
  /// lines are post-expansion coordinates; the renderer says so.
  std::string Macro;
};

/// Maps expanded-output coordinates back to user coordinates.
struct LineMap {
  std::vector<std::string> Files;
  /// Interned include chains, outermost first; Stacks[0] is empty.
  std::vector<std::vector<IncludeFrame>> Stacks;
  /// Lines[N-1] describes output line N.
  std::vector<LineInfo> Lines;

  /// Provenance for output line \p Line (1-based); null when out of range
  /// (synthesized or unknown locations).
  const LineInfo *info(unsigned Line) const {
    if (Line == 0 || Line > Lines.size())
      return nullptr;
    return &Lines[Line - 1];
  }
  const std::string &file(const LineInfo &I) const { return Files[I.FileId]; }
  const std::vector<IncludeFrame> &stack(const LineInfo &I) const {
    return Stacks[I.StackId];
  }
};

/// Counters one preprocess() run publishes (summed over TUs into the
/// pp.* metrics; docs/OBSERVABILITY.md).
struct PpStats {
  uint64_t Files = 0;       ///< Distinct files entered (main + includes).
  uint64_t Includes = 0;    ///< `#include` directives honored.
  uint64_t MacrosDefined = 0;
  uint64_t Expansions = 0;  ///< Macro invocations expanded.
  uint64_t Conditionals = 0; ///< #if/#ifdef/#ifndef directives evaluated.
  uint64_t LinesIn = 0;     ///< Physical input lines consumed.
  uint64_t LinesOut = 0;    ///< Expanded output lines produced.

  PpStats &operator+=(const PpStats &O) {
    Files += O.Files;
    Includes += O.Includes;
    MacrosDefined += O.MacrosDefined;
    Expansions += O.Expansions;
    Conditionals += O.Conditionals;
    LinesIn += O.LinesIn;
    LinesOut += O.LinesOut;
    return *this;
  }
};

struct PpOptions {
  /// -I search directories, in command-line order.
  std::vector<std::string> IncludeDirs;
  /// -D predefines: "NAME" (defined as 1) or "NAME=VALUE".
  std::vector<std::string> Defines;

  /// Robustness caps, mirroring the parser's limits.
  unsigned MaxIncludeDepth = 32;
  unsigned MaxConditionalDepth = 64;
  /// Macro expansions allowed while rewriting one logical line; past it
  /// the line is diagnosed and emitted as-is expanded so far.
  unsigned MaxExpansionsPerLine = 4096;
  unsigned MaxErrors = 64;
};

struct PpResult {
  /// The expanded translation unit (what the parser consumes).
  std::string Text;
  LineMap Map;
  /// FNV-style 128-bit hash of the post-preprocess text and every file
  /// name in the include closure: the per-TU content key the incremental
  /// layer folds in, so a header edit re-keys every includer.
  uint64_t StreamHashA = 0;
  uint64_t StreamHashB = 0;
  PpStats Stats;
  /// False when any pp-phase error was reported.
  bool Ok = false;
};

/// Preprocesses \p MainText (presented as file \p MainName). Include
/// resolution goes through \p Resolver; diagnostics land in \p Diags with
/// phase "pp", already file-attributed (Diagnostic::File) and followed by
/// their "in file included from ..." notes.
PpResult preprocess(const std::string &MainName, const std::string &MainText,
                    FileResolver &Resolver, const PpOptions &Options,
                    DiagnosticEngine &Diags);

/// Runs the preprocessor over every input purely to collect the include
/// closure: the returned map holds every file `#include` successfully
/// resolved from disk. `stqc --server` ships it so the daemon resolves
/// the same headers without touching client paths.
FileMap collectIncludeClosure(
    const std::vector<std::pair<std::string, std::string>> &Inputs,
    const PpOptions &Options);

/// The directory prefix of \p Path ("" for a bare filename) — the quoted
/// include search anchor.
std::string dirName(const std::string &Path);

} // namespace stq::pp

#endif // STQ_PP_PREPROCESSOR_H
