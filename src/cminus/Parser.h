//===- Parser.h - C-minus parser --------------------------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for C-minus. Qualifier names are supplied by the
/// caller (they come from loaded qualifier definitions, mirroring the
/// paper's gcc-attribute macros) and are accepted in postfix position after
/// any type. The parser resolves variable names against lexical scopes as it
/// goes; C-minus is declare-before-use.
///
/// Before parsing, every identifier token is classified once: interned to
/// a per-parse name id and marked as a keyword or qualifier, so the
/// grammar compares ids, and scopes and the qualifier set are indexed by
/// them. Nodes, names and types go into the new Program's ASTContext,
/// which builds each distinct struct, pointer and qualified type once and
/// shares it with every declaration that spells it.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_PARSER_H
#define STQ_CMINUS_PARSER_H

#include "cminus/AST.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace stq::stats {
class Registry;
}

namespace stq::cminus {

/// Parses one C-minus translation unit.
///
/// \param Source the program text.
/// \param QualifierNames identifiers to recognize as type qualifiers.
/// \param Diags receives parse errors (phase "parse").
/// \returns the parsed program; inspect Diags.hasErrors() for validity.
std::unique_ptr<Program> parseProgram(const std::string &Source,
                                      const std::vector<std::string>
                                          &QualifierNames,
                                      DiagnosticEngine &Diags);

/// The front end in its one order, shared by every caller: parseProgram
/// (with \p QualNames), runSema (with \p RefQualNames), lowerProgram,
/// verifyLoweredProgram. Stops at the first failing stage, or after
/// parsing when \p Diags holds an error. \p ProgOut receives the program,
/// possibly incomplete. With \p Metrics, each stage reached records one
/// sample into phase.lex_seconds, phase.parse_seconds (parsing the
/// lexed tokens), phase.sema_seconds or phase.lower_seconds (lower +
/// verify). Returns true when all succeed.
bool runFrontEnd(const std::string &Source,
                 const std::vector<std::string> &QualNames,
                 const std::vector<std::string> &RefQualNames,
                 DiagnosticEngine &Diags, std::unique_ptr<Program> &ProgOut,
                 stats::Registry *Metrics = nullptr);

} // namespace stq::cminus

#endif // STQ_CMINUS_PARSER_H
