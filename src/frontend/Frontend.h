//===- Frontend.h - Multi-TU ingestion over the preprocessor ----*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-C multi-translation-unit front end: each input file is
/// preprocessed (src/pp), parsed, sema-checked, and lowered as an
/// independent TU — stq::Session runs compileUnit() inside one pool task
/// per TU, which also checks the TU and frees it — and a link step then
/// unifies the per-TU symbol tables, diagnosing duplicate definitions and
/// qualifier-signature mismatches across TUs the way a linker would. The
/// link reads LinkSummary values taken while each AST was alive, so it
/// never needs the ASTs themselves.
///
/// Because the core pipeline's SourceLocs have no file dimension, every
/// TU-local diagnostic comes out in *post-expansion* coordinates.
/// remapDiagnostics() rewrites them against the TU's pp::LineMap: the
/// location becomes (physical line in the originating file), the
/// Diagnostic::File field carries the file name, and included or
/// macro-expanded lines grow "in file included from ..." / "in expansion
/// of macro ..." notes. A single source skips the preprocessor and the
/// remap, so it renders byte-identically to every release since the seed,
/// but shares cminus::runFrontEnd() and Session's check step with a TU.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_FRONTEND_FRONTEND_H
#define STQ_FRONTEND_FRONTEND_H

#include "cminus/AST.h"
#include "pp/Preprocessor.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace stq::stats {
class Registry;
}

namespace stq::frontend {

/// One input file as the *client* read it (the daemon never touches
/// caller paths; stq-rpc-v1 ships name + text).
struct InputFile {
  std::string Name;
  std::string Text;
};

/// Everything compileUnit() needs besides the input itself. The qualifier
/// name lists come from the loaded qual::QualifierSet (names() for the
/// parser, refNames() for sema) and are read-only, so one CompileOptions
/// is safely shared by concurrent compileUnit() calls.
struct CompileOptions {
  pp::PpOptions Pp;
  /// When non-null, #include resolution reads this shipped map instead of
  /// the filesystem (daemon mode).
  const pp::FileMap *Files = nullptr;
  std::vector<std::string> QualNames;
  std::vector<std::string> RefQualNames;
};

/// One compiled translation unit.
struct TUnit {
  std::string Name;
  pp::PpResult Pp;
  /// Null when preprocessing failed outright; otherwise the parsed AST
  /// (possibly incomplete when FrontEndOk is false).
  std::unique_ptr<cminus::Program> Program;
  /// Preprocess + parse + sema + lower + verify all succeeded.
  bool FrontEndOk = false;
};

/// Compiles one TU: preprocess, then cminus::runFrontEnd(). Diagnostics
/// land in \p Diags in TU-local (post-expansion) form — run
/// remapDiagnostics() over them before rendering. Thread-safe against
/// other compileUnit() calls on distinct \p Diags engines. When
/// \p Metrics is non-null, each stage the TU reaches records one sample
/// into phase.pp_seconds, phase.lex_seconds, phase.parse_seconds,
/// phase.sema_seconds, and phase.lower_seconds (lower + verify).
TUnit compileUnit(const std::string &Name, const std::string &Text,
                  const CompileOptions &Opts, DiagnosticEngine &Diags,
                  stats::Registry *Metrics = nullptr);

/// Rewrites \p Diags[From..] from post-expansion coordinates to
/// file-attributed user coordinates using \p Map, inserting include-chain
/// and macro-expansion notes after each remapped diagnostic. Diagnostics
/// that already carry a file (the preprocessor's own) are left untouched;
/// location-free diagnostics are attributed to \p MainFile.
void remapDiagnostics(std::vector<Diagnostic> &Diags, size_t From,
                      const std::string &MainFile, const pp::LineMap &Map);

/// One symbol a TU contributes to the link.
struct LinkSymbol {
  std::string Name;
  /// The full qualified signature: a function's return and parameter
  /// types, a global's declared type, or a struct's field list.
  std::string Sig;
  /// The declaration's user-facing position: file and physical line via
  /// the TU's line map, or the TU name and post-expansion location when
  /// the map has no entry.
  std::string File;
  SourceLoc Loc;
  /// Function definitions only (globals and structs always define).
  bool Defined = false;
};

/// What the link needs from one TU, in declaration order. Built while the
/// TU's AST and line map are alive; self-contained after that.
struct LinkSummary {
  /// The input's name, as link diagnostics cite it.
  std::string Unit;
  std::vector<LinkSymbol> Structs;
  std::vector<LinkSymbol> Globals;
  std::vector<LinkSymbol> Functions;
};

/// Summarizes \p U for linkSummaries() (empty when the TU never parsed).
LinkSummary summarizeUnit(const TUnit &U);

/// Cross-TU symbol resolution over per-TU summaries, in input order:
/// a function may be declared (prototyped) in any number of TUs but
/// defined in at most one, every declaration must agree on the full
/// qualified signature (qualifier mismatches across TUs are exactly the
/// bugs the paper's checker exists to catch, so they are link errors
/// here), globals may be defined once, and struct definitions shared
/// through headers must agree field-for-field. Reports phase "link"
/// errors into \p Diags (already file-attributed); returns true when no
/// link error was found.
bool linkSummaries(const std::vector<LinkSummary> &Units,
                   DiagnosticEngine &Diags);

/// linkSummaries() over compiled units: summarizes each, then links.
bool linkUnits(const std::vector<TUnit> &TUs, DiagnosticEngine &Diags);

} // namespace stq::frontend

#endif // STQ_FRONTEND_FRONTEND_H
