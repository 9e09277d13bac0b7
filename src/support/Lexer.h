//===- Lexer.h - Shared C-like tokenizer ------------------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single tokenizer shared by the C-minus front end and the
/// qualifier-definition language. Both languages draw from the same C-like
/// token set, so the lexer knows no keywords: every word is an Identifier
/// token carrying its spelling. Each parser classifies words against its
/// own static keyword table (the C-minus parser does it once per token,
/// before parsing, together with interning names and marking qualifier
/// names; see cminus/Parser.h).
///
/// tokenize() reserves the token vector from the buffer size and moves
/// each token into it, so lexing allocates only for spellings that do not
/// fit a short string.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SUPPORT_LEXER_H
#define STQ_SUPPORT_LEXER_H

#include "support/Diagnostics.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stq {

enum class TokenKind {
  EndOfFile,
  Identifier,
  IntLiteral,
  StringLiteral,
  CharLiteral,
  // Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Dot,
  Ellipsis,
  Arrow,      // ->
  Amp,        // &
  AmpAmp,     // &&
  Pipe,       // |
  PipePipe,   // ||
  Bang,       // !
  BangEq,     // !=
  Eq,         // =
  EqEq,       // ==
  FatArrow,   // =>
  Less,       // <
  LessEq,     // <=
  Greater,    // >
  GreaterEq,  // >=
  Plus,       // +
  Minus,      // -
  Star,       // *
  Slash,      // /
  Percent,    // %
  Colon,      // :
  Question,   // ?
  Tilde,      // ~
};

/// Returns a human-readable spelling for \p Kind, e.g. "'=='" or
/// "identifier".
const char *tokenKindName(TokenKind Kind);

struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  SourceLoc Loc;
  /// Identifier spelling, or decoded string/char literal contents.
  std::string Text;
  /// Value for IntLiteral and CharLiteral tokens.
  int64_t IntValue = 0;

  bool is(TokenKind K) const { return Kind == K; }
  bool isIdent(const char *S) const {
    return Kind == TokenKind::Identifier && Text == S;
  }
};

/// Tokenizes an entire buffer up front. Handles //- and /* */-style comments,
/// decimal and hex integer literals, and C escape sequences in string/char
/// literals. Lexical errors are reported to the DiagnosticEngine and the
/// offending character is skipped.
class Lexer {
public:
  Lexer(std::string Source, DiagnosticEngine &Diags);

  /// Lexes the whole buffer and returns the token stream, terminated by an
  /// EndOfFile token.
  std::vector<Token> tokenize();

private:
  char peek(unsigned Ahead = 0) const;
  char advance();
  bool match(char Expected);
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc loc() const { return SourceLoc(Line, Col); }

  void lexToken(std::vector<Token> &Out);
  void lexNumber(std::vector<Token> &Out, SourceLoc Start, char First);
  void lexIdentifier(std::vector<Token> &Out, SourceLoc Start);
  void lexString(std::vector<Token> &Out, SourceLoc Start);
  void lexChar(std::vector<Token> &Out, SourceLoc Start);
  /// Decodes one escape sequence after a backslash; returns the character.
  char lexEscape();
  /// Reports a lexical error, capped so byte garbage cannot flood the
  /// diagnostic stream with one entry per stray character.
  void error(SourceLoc Loc, const std::string &Message);

  std::string Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
  static constexpr unsigned MaxLexErrors = 64;
  unsigned ErrorCount = 0;
};

} // namespace stq

#endif // STQ_SUPPORT_LEXER_H
