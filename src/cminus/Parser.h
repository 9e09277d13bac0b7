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
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_PARSER_H
#define STQ_CMINUS_PARSER_H

#include "cminus/AST.h"
#include "support/Diagnostics.h"
#include "support/Lexer.h"

#include <map>
#include <memory>
#include <set>
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
/// sample into phase.parse_seconds, phase.sema_seconds or
/// phase.lower_seconds (lower + verify). Returns true when all succeed.
bool runFrontEnd(const std::string &Source,
                 const std::vector<std::string> &QualNames,
                 const std::vector<std::string> &RefQualNames,
                 DiagnosticEngine &Diags, std::unique_ptr<Program> &ProgOut,
                 stats::Registry *Metrics = nullptr);

namespace detail {

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::set<std::string> QualifierNames,
         DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), QualifierNames(std::move(QualifierNames)),
        Diags(Diags), Prog(std::make_unique<Program>()) {}

  std::unique_ptr<Program> run();

private:
  // Token plumbing.
  const Token &peek(unsigned Ahead = 0) const;
  const Token &advance();
  bool check(TokenKind K) const { return peek().is(K); }
  bool checkIdent(const char *S) const { return peek().isIdent(S); }
  bool match(TokenKind K);
  bool matchIdent(const char *S);
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Message);
  /// Skips tokens until a likely statement/declaration boundary.
  void synchronize();

  // Scopes.
  void pushScope();
  void popScope();
  VarDecl *lookupVar(const std::string &Name) const;
  void declareVar(VarDecl *Var);

  // Types.
  bool atTypeStart() const;
  /// Parses `basetype quals* ('*' quals*)*`; returns null on error.
  TypePtr parseType();
  std::vector<std::string> parseQuals();

  // Top level.
  void parseTopLevel();
  void parseStructDef();
  void parseFunctionRest(TypePtr RetTy, const std::string &Name,
                         SourceLoc Loc);
  void parseGlobalRest(TypePtr Ty, const std::string &Name, SourceLoc Loc);

  // Statements.
  Stmt *parseStmt();
  BlockStmt *parseBlock();
  Stmt *parseDeclStmt();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseFor();
  Stmt *parseReturn();
  Stmt *parseExprOrAssign();

  // Expressions (precedence climbing).
  Expr *parseExpr();
  Expr *parseLOr();
  Expr *parseLAnd();
  Expr *parseEquality();
  Expr *parseRelational();
  Expr *parseAdditive();
  Expr *parseMultiplicative();
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  /// Requires \p E to be an l-value read and returns the l-value; reports an
  /// error and returns null otherwise.
  LValue *requireLValue(Expr *E, const char *Context);
  /// Makes a placeholder int expression after an error.
  Expr *makeErrorExpr(SourceLoc Loc);

  /// Hard cap on expression/statement nesting. Recursive descent uses the
  /// native stack, so an adversarial `((((...` tower would otherwise
  /// overflow it; past the cap the parser diagnoses once, resynchronizes,
  /// and keeps going.
  static constexpr unsigned MaxNestingDepth = 200;
  /// True when nesting is within bounds; otherwise reports the (one)
  /// too-deep diagnostic, skips to a statement boundary, and returns false.
  bool checkDepth();

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::set<std::string> QualifierNames;
  DiagnosticEngine &Diags;
  std::unique_ptr<Program> Prog;
  std::vector<std::map<std::string, VarDecl *>> Scopes;
  unsigned Depth = 0;
  bool DepthErrorReported = false;
  /// Diagnostics cap for pathological input; the last slot reports the
  /// suppression itself.
  static constexpr unsigned MaxParseErrors = 64;
  unsigned ErrorCount = 0;
};

} // namespace detail

} // namespace stq::cminus

#endif // STQ_CMINUS_PARSER_H
