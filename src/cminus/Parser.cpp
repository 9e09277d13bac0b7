//===- Parser.cpp ---------------------------------------------------------===//

#include "cminus/Parser.h"

#include "cminus/Lowering.h"
#include "cminus/Sema.h"
#include "support/Lexer.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <unordered_map>

using namespace stq;
using namespace stq::cminus;

namespace {

/// The C-minus keywords. They stay identifier tokens (a keyword spelling
/// in expression position still names a variable); the parser tests the
/// classification instead of the spelling.
enum class Kw : uint8_t {
  None,
  Void,
  Int,
  Char,
  Struct,
  If,
  Else,
  While,
  For,
  Return,
  Break,
  Continue,
  Null,
  Sizeof,
};

Kw keywordOf(std::string_view S) {
  switch (S.size()) {
  case 2:
    return S == "if" ? Kw::If : Kw::None;
  case 3:
    return S == "int" ? Kw::Int : S == "for" ? Kw::For : Kw::None;
  case 4:
    return S == "void"   ? Kw::Void
           : S == "char" ? Kw::Char
           : S == "else" ? Kw::Else
           : S == "NULL" ? Kw::Null
                         : Kw::None;
  case 5:
    return S == "while" ? Kw::While : S == "break" ? Kw::Break : Kw::None;
  case 6:
    return S == "struct"   ? Kw::Struct
           : S == "return" ? Kw::Return
           : S == "sizeof" ? Kw::Sizeof
                           : Kw::None;
  case 8:
    return S == "continue" ? Kw::Continue : Kw::None;
  default:
    return Kw::None;
  }
}

class Parser {
public:
  Parser(std::vector<Token> Tokens,
         const std::vector<std::string> &QualifierNames,
         DiagnosticEngine &Diags);

  std::unique_ptr<Program> run();

private:
  /// Name id of non-identifier tokens.
  static constexpr uint32_t NoName = UINT32_MAX;

  // Token plumbing.
  size_t indexAt(unsigned Ahead) const {
    return std::min(Pos + Ahead, Tokens.size() - 1); // EndOfFile sentinel.
  }
  const Token &peek(unsigned Ahead = 0) const {
    return Tokens[indexAt(Ahead)];
  }
  /// The interned name of the identifier \p Ahead tokens on, or NoName.
  uint32_t nameAt(unsigned Ahead = 0) const { return Names[indexAt(Ahead)]; }
  Kw keywordAt(unsigned Ahead = 0) const {
    uint32_t Id = nameAt(Ahead);
    return Id == NoName ? Kw::None : Keywords[Id];
  }
  /// True when the token \p Ahead on is a loaded qualifier name; qualifier
  /// names take the first ids, in sorted order.
  bool qualAt(unsigned Ahead = 0) const { return nameAt(Ahead) < QualNames.size(); }
  const Token &advance();
  bool check(TokenKind K) const { return peek().is(K); }
  bool checkKw(Kw K) const { return keywordAt() == K; }
  bool match(TokenKind K);
  bool matchKw(Kw K);
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Message);
  /// Skips tokens until a likely statement/declaration boundary.
  void synchronize();

  // Scopes: one binding per name id, with an undo log per scope.
  void pushScope();
  void popScope();
  VarDecl *lookupVar(uint32_t Name) const { return Bindings[Name].Var; }
  void declareVar(VarDecl *Var, uint32_t Name);

  // Types.
  bool atTypeStart(unsigned Ahead = 0) const;
  /// Parses `basetype quals* ('*' quals*)*`; returns null on error.
  TypePtr parseType();
  /// Applies the postfix qualifiers at the cursor to \p Base.
  TypePtr parseQuals(TypePtr Base);

  // Top level.
  void parseTopLevel();
  void parseStructDef();
  void parseFunctionRest(TypePtr RetTy, const std::string &Name,
                         SourceLoc Loc);
  void parseGlobalRest(TypePtr Ty, const std::string &Name, uint32_t NameId,
                       SourceLoc Loc);

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
  /// Per token: its interned name id, or NoName for non-identifiers.
  std::vector<uint32_t> Names;
  /// Per name id: its keyword classification.
  std::vector<Kw> Keywords;
  /// The loaded qualifier names, sorted and deduplicated; name id I < size
  /// is QualNames[I].
  std::vector<std::string> QualNames;
  DiagnosticEngine &Diags;
  std::unique_ptr<Program> Prog;
  ASTContext &Ctx;
  /// Statements of the open blocks and arguments of the open calls,
  /// innermost last; each list moves into the arena when it closes.
  std::vector<Stmt *> OpenStmts;
  std::vector<Expr *> OpenArgs;

  struct Binding {
    VarDecl *Var = nullptr;
    /// Scope depth of the declaration.
    uint32_t Depth = 0;
  };
  struct Shadowed {
    uint32_t Name;
    Binding Old;
  };
  std::vector<Binding> Bindings;
  std::vector<Shadowed> Undo;
  /// Undo.size() at each open scope.
  std::vector<size_t> ScopeMarks;

  unsigned Depth = 0;
  bool DepthErrorReported = false;
  /// Diagnostics cap for pathological input; the last slot reports the
  /// suppression itself.
  static constexpr unsigned MaxParseErrors = 64;
  unsigned ErrorCount = 0;
};

} // namespace

static std::vector<Token> lexProgram(const std::string &Source,
                                     DiagnosticEngine &Diags) {
  trace::Span LexSpan("lex");
  return Lexer(Source, Diags).tokenize();
}

static std::unique_ptr<Program>
parseTokens(std::vector<Token> Tokens,
            const std::vector<std::string> &QualifierNames,
            DiagnosticEngine &Diags) {
  trace::Span ParseSpan("parse");
  return Parser(std::move(Tokens), QualifierNames, Diags).run();
}

std::unique_ptr<Program> stq::cminus::parseProgram(
    const std::string &Source,
    const std::vector<std::string> &QualifierNames, DiagnosticEngine &Diags) {
  return parseTokens(lexProgram(Source, Diags), QualifierNames, Diags);
}

Parser::Parser(std::vector<Token> Toks,
               const std::vector<std::string> &QualifierNames,
               DiagnosticEngine &Diags)
    : Tokens(std::move(Toks)), QualNames(QualifierNames), Diags(Diags),
      Prog(std::make_unique<Program>()), Ctx(Prog->Ctx) {
  std::sort(QualNames.begin(), QualNames.end());
  QualNames.erase(std::unique(QualNames.begin(), QualNames.end()),
                  QualNames.end());
  // Intern every identifier once. The table lives only for this loop;
  // its keys view QualNames and Tokens.
  std::unordered_map<std::string_view, uint32_t> Ids;
  auto intern = [&](std::string_view S) {
    auto [It, Inserted] = Ids.emplace(S, static_cast<uint32_t>(Ids.size()));
    if (Inserted)
      Keywords.push_back(keywordOf(S));
    return It->second;
  };
  for (const std::string &Q : QualNames)
    intern(Q);
  Names.reserve(Tokens.size());
  for (const Token &T : Tokens)
    Names.push_back(T.is(TokenKind::Identifier) ? intern(T.Text) : NoName);
  Bindings.resize(Ids.size());
}

//===----------------------------------------------------------------------===//
// Token plumbing
//===----------------------------------------------------------------------===//

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::match(TokenKind K) {
  if (!check(K))
    return false;
  advance();
  return true;
}

bool Parser::matchKw(Kw K) {
  if (!checkKw(K))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (match(K))
    return true;
  error(std::string("expected ") + tokenKindName(K) + " " + Context +
        ", found " + tokenKindName(peek().Kind));
  return false;
}

void Parser::error(const std::string &Message) {
  // Cap the flood: malformed input (fuzzed bytes, deep-nesting recovery)
  // can otherwise produce one diagnostic per token.
  ++ErrorCount;
  if (ErrorCount > MaxParseErrors)
    return;
  if (ErrorCount == MaxParseErrors) {
    Diags.error(peek().Loc, "parse",
                "too many parse errors; suppressing further diagnostics");
    return;
  }
  Diags.error(peek().Loc, "parse", Message);
}

void Parser::synchronize() {
  while (!check(TokenKind::EndOfFile)) {
    if (match(TokenKind::Semi))
      return;
    if (check(TokenKind::RBrace))
      return;
    advance();
  }
}

namespace {
/// Increments a nesting counter for the lifetime of one recursive parse
/// call.
struct DepthScope {
  unsigned &Depth;
  explicit DepthScope(unsigned &Depth) : Depth(Depth) { ++Depth; }
  ~DepthScope() { --Depth; }
};
} // namespace

bool Parser::checkDepth() {
  if (Depth < MaxNestingDepth)
    return true;
  if (!DepthErrorReported) {
    error("nesting too deep: more than " + std::to_string(MaxNestingDepth) +
          " levels of nested expressions or statements");
    DepthErrorReported = true;
  }
  synchronize();
  return false;
}

//===----------------------------------------------------------------------===//
// Scopes
//===----------------------------------------------------------------------===//

void Parser::pushScope() { ScopeMarks.push_back(Undo.size()); }

void Parser::popScope() {
  assert(!ScopeMarks.empty() && "popScope without matching push");
  for (size_t Mark = ScopeMarks.back(); Undo.size() > Mark; Undo.pop_back())
    Bindings[Undo.back().Name] = Undo.back().Old;
  ScopeMarks.pop_back();
}

void Parser::declareVar(VarDecl *Var, uint32_t Name) {
  assert(!ScopeMarks.empty() && "declaration outside any scope");
  Binding &B = Bindings[Name];
  uint32_t Here = static_cast<uint32_t>(ScopeMarks.size());
  if (B.Var && B.Depth == Here) {
    Diags.error(Var->Loc, "parse",
                "redeclaration of '" + std::string(Var->Name) +
                    "' in the same scope");
    return;
  }
  Undo.push_back({Name, B});
  B = {Var, Here};
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

bool Parser::atTypeStart(unsigned Ahead) const {
  Kw K = keywordAt(Ahead);
  return K == Kw::Void || K == Kw::Int || K == Kw::Char || K == Kw::Struct;
}

TypePtr Parser::parseQuals(TypePtr Base) {
  while (qualAt()) {
    Base = Ctx.withQual(Base, QualNames[nameAt()]);
    advance();
  }
  return Base;
}

TypePtr Parser::parseType() {
  TypePtr Base = nullptr;
  if (matchKw(Kw::Void)) {
    Base = Ctx.voidTy();
  } else if (matchKw(Kw::Int)) {
    Base = Ctx.intTy();
  } else if (matchKw(Kw::Char)) {
    Base = Ctx.charTy();
  } else if (matchKw(Kw::Struct)) {
    if (!check(TokenKind::Identifier)) {
      error("expected struct name");
      return nullptr;
    }
    Base = Ctx.getStruct(advance().Text);
  } else {
    error("expected type");
    return nullptr;
  }
  Base = parseQuals(Base);
  while (match(TokenKind::Star))
    Base = parseQuals(Ctx.getPointer(Base));
  return Base;
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> Parser::run() {
  pushScope(); // Global scope.
  while (!check(TokenKind::EndOfFile)) {
    size_t Before = Pos;
    parseTopLevel();
    // Guarantee progress on malformed input (e.g. a stray '}' at top
    // level, where synchronize() deliberately stops without consuming).
    if (Pos == Before)
      advance();
  }
  popScope();
  return std::move(Prog);
}

void Parser::parseTopLevel() {
  // Struct definition: 'struct' IDENT '{'.
  if (checkKw(Kw::Struct) && peek(1).is(TokenKind::Identifier) &&
      peek(2).is(TokenKind::LBrace)) {
    parseStructDef();
    return;
  }
  if (!atTypeStart()) {
    error("expected declaration at top level, found " +
          std::string(tokenKindName(peek().Kind)));
    synchronize();
    return;
  }
  SourceLoc Loc = peek().Loc;
  TypePtr Ty = parseType();
  if (!Ty) {
    synchronize();
    return;
  }
  if (!check(TokenKind::Identifier)) {
    error("expected declarator name");
    synchronize();
    return;
  }
  uint32_t NameId = nameAt();
  const std::string &Name = advance().Text;
  if (check(TokenKind::LParen))
    parseFunctionRest(Ty, Name, Loc);
  else
    parseGlobalRest(Ty, Name, NameId, Loc);
}

void Parser::parseStructDef() {
  SourceLoc Loc = advance().Loc; // 'struct'
  StructDef *Def = Ctx.createStruct(advance().Text, Loc);
  std::vector<StructDef::Field> Fields;
  expect(TokenKind::LBrace, "after struct name");
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    TypePtr FieldTy = parseType();
    if (!FieldTy) {
      synchronize();
      continue;
    }
    if (!check(TokenKind::Identifier)) {
      error("expected field name");
      synchronize();
      continue;
    }
    const std::string &FieldName = advance().Text;
    if (std::any_of(Fields.begin(), Fields.end(),
                    [&](const StructDef::Field &F) {
                      return F.Name == FieldName;
                    }))
      error("duplicate field '" + FieldName + "'");
    Fields.push_back({Ctx.copyString(FieldName), FieldTy});
    expect(TokenKind::Semi, "after struct field");
  }
  Def->Fields = Ctx.list(Fields);
  expect(TokenKind::RBrace, "to close struct definition");
  expect(TokenKind::Semi, "after struct definition");
  Prog->addStruct(Def);
}

void Parser::parseFunctionRest(TypePtr RetTy, const std::string &Name,
                               SourceLoc Loc) {
  FuncDecl *Fn = Ctx.createFunc(Name, RetTy, Loc);
  std::vector<VarDecl *> Params;
  expect(TokenKind::LParen, "after function name");
  pushScope(); // Parameter scope.
  if (checkKw(Kw::Void) && peek(1).is(TokenKind::RParen)) {
    advance(); // `f(void)`: explicit empty parameter list.
  } else if (!check(TokenKind::RParen)) {
    while (true) {
      if (match(TokenKind::Ellipsis)) {
        Fn->Variadic = true;
        break;
      }
      TypePtr ParamTy = parseType();
      if (!ParamTy)
        break;
      std::string_view ParamName;
      uint32_t ParamId = nameAt();
      SourceLoc ParamLoc = peek().Loc;
      if (check(TokenKind::Identifier) && !qualAt())
        ParamName = advance().Text;
      VarDecl *Param = Ctx.createVar(ParamName, ParamTy, ParamLoc);
      Param->IsParam = true;
      if (!Param->Name.empty())
        declareVar(Param, ParamId);
      Params.push_back(Param);
      if (!match(TokenKind::Comma))
        break;
    }
  }
  Fn->Params = Ctx.list(Params);
  expect(TokenKind::RParen, "to close parameter list");

  // Merge with a previous prototype if one exists.
  if (FuncDecl *Prev = Prog->findFunction(Fn->Name)) {
    if (Prev->isDefinition() && check(TokenKind::LBrace))
      Diags.error(Loc, "parse", "redefinition of function '" + Name + "'");
  } else {
    Prog->addFunction(Fn);
  }

  if (check(TokenKind::LBrace)) {
    // If a prototype exists, replace its entry so calls resolve to the
    // definition.
    Prog->defineFunction(Fn);
    Fn->Body = parseBlock();
  } else {
    expect(TokenKind::Semi, "after function prototype");
  }
  popScope();
}

void Parser::parseGlobalRest(TypePtr Ty, const std::string &Name,
                             uint32_t NameId, SourceLoc Loc) {
  VarDecl *Var = Ctx.createVar(Name, Ty, Loc);
  Var->IsGlobal = true;
  declareVar(Var, NameId);
  Prog->Globals.push_back(Var);
  if (match(TokenKind::Eq))
    Var->Init = parseExpr();
  expect(TokenKind::Semi, "after global declaration");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

BlockStmt *Parser::parseBlock() {
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::LBrace, "to open block");
  auto *Block = Ctx.createStmt<BlockStmt>(Loc);
  size_t Open = OpenStmts.size();
  pushScope();
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (Stmt *S = parseStmt())
      OpenStmts.push_back(S);
  }
  popScope();
  Block->Stmts = Ctx.list(OpenStmts.data() + Open, OpenStmts.size() - Open);
  OpenStmts.resize(Open);
  expect(TokenKind::RBrace, "to close block");
  return Block;
}

Stmt *Parser::parseStmt() {
  if (!checkDepth())
    return nullptr;
  DepthScope Scope(Depth);
  if (check(TokenKind::LBrace))
    return parseBlock();
  if (atTypeStart())
    return parseDeclStmt();
  switch (keywordAt()) {
  case Kw::If:
    return parseIf();
  case Kw::While:
    return parseWhile();
  case Kw::For:
    return parseFor();
  case Kw::Return:
    return parseReturn();
  case Kw::Break: {
    SourceLoc Loc = advance().Loc;
    expect(TokenKind::Semi, "after 'break'");
    return Ctx.createStmt<BreakStmt>(Loc);
  }
  case Kw::Continue: {
    SourceLoc Loc = advance().Loc;
    expect(TokenKind::Semi, "after 'continue'");
    return Ctx.createStmt<ContinueStmt>(Loc);
  }
  default:
    return parseExprOrAssign();
  }
}

Stmt *Parser::parseDeclStmt() {
  SourceLoc Loc = peek().Loc;
  TypePtr Ty = parseType();
  if (!Ty) {
    synchronize();
    return nullptr;
  }
  if (!check(TokenKind::Identifier)) {
    error("expected variable name in declaration");
    synchronize();
    return nullptr;
  }
  uint32_t NameId = nameAt();
  VarDecl *Var = Ctx.createVar(advance().Text, Ty, Loc);
  if (match(TokenKind::Eq))
    Var->Init = parseExpr();
  declareVar(Var, NameId);
  expect(TokenKind::Semi, "after declaration");
  return Ctx.createStmt<DeclStmt>(Var, Loc);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = advance().Loc; // 'if'
  expect(TokenKind::LParen, "after 'if'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "to close if condition");
  Stmt *Then = parseStmt();
  Stmt *Else = nullptr;
  if (matchKw(Kw::Else))
    Else = parseStmt();
  return Ctx.createStmt<IfStmt>(Cond, Then, Else, Loc);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = advance().Loc; // 'while'
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "to close while condition");
  Stmt *Body = parseStmt();
  return Ctx.createStmt<WhileStmt>(Cond, Body, Loc);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = advance().Loc; // 'for'
  expect(TokenKind::LParen, "after 'for'");
  pushScope();
  Stmt *Init = nullptr;
  if (!check(TokenKind::Semi)) {
    if (atTypeStart())
      Init = parseDeclStmt(); // Consumes the ';'.
    else
      Init = parseExprOrAssign(); // Consumes the ';'.
  } else {
    advance();
  }
  Expr *Cond = nullptr;
  if (!check(TokenKind::Semi))
    Cond = parseExpr();
  expect(TokenKind::Semi, "after for condition");
  Stmt *Step = nullptr;
  if (!check(TokenKind::RParen)) {
    // The step is an assignment or call without the trailing ';'.
    Expr *E = parseExpr();
    if (match(TokenKind::Eq)) {
      LValue *LV = requireLValue(E, "on the left of '='");
      Expr *RHS = parseExpr();
      if (LV)
        Step = Ctx.createStmt<AssignStmt>(LV, RHS, E->Loc);
    } else if (auto *Call = dyn_cast<CallExpr>(E)) {
      Step = Ctx.createStmt<CallStmt>(Call, E->Loc);
    } else {
      error("for-step must be an assignment or a call");
    }
  }
  expect(TokenKind::RParen, "to close for header");
  Stmt *Body = parseStmt();
  popScope();
  return Ctx.createStmt<ForStmt>(Init, Cond, Step, Body, Loc);
}

Stmt *Parser::parseReturn() {
  SourceLoc Loc = advance().Loc; // 'return'
  Expr *Value = nullptr;
  if (!check(TokenKind::Semi))
    Value = parseExpr();
  expect(TokenKind::Semi, "after return statement");
  return Ctx.createStmt<ReturnStmt>(Value, Loc);
}

Stmt *Parser::parseExprOrAssign() {
  SourceLoc Loc = peek().Loc;
  Expr *E = parseExpr();
  if (match(TokenKind::Eq)) {
    LValue *LV = requireLValue(E, "on the left of '='");
    Expr *RHS = parseExpr();
    expect(TokenKind::Semi, "after assignment");
    if (!LV)
      return nullptr;
    return Ctx.createStmt<AssignStmt>(LV, RHS, Loc);
  }
  expect(TokenKind::Semi, "after expression statement");
  if (auto *Call = dyn_cast<CallExpr>(E))
    return Ctx.createStmt<CallStmt>(Call, Loc);
  error("expression statement must be a call");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

LValue *Parser::requireLValue(Expr *E, const char *Context) {
  if (auto *Read = dyn_cast<LValReadExpr>(E))
    return Read->LV;
  error(std::string("expected an l-value ") + Context);
  return nullptr;
}

Expr *Parser::makeErrorExpr(SourceLoc Loc) {
  return Ctx.createExpr<IntConstExpr>(0, Loc);
}

Expr *Parser::parseExpr() {
  if (!checkDepth())
    return makeErrorExpr(peek().Loc);
  DepthScope Scope(Depth);
  return parseLOr();
}

Expr *Parser::parseLOr() {
  Expr *LHS = parseLAnd();
  while (check(TokenKind::PipePipe)) {
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseLAnd();
    LHS = Ctx.createExpr<BinaryExpr>(BinaryOp::LOr, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseLAnd() {
  Expr *LHS = parseEquality();
  while (check(TokenKind::AmpAmp)) {
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseEquality();
    LHS = Ctx.createExpr<BinaryExpr>(BinaryOp::LAnd, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseEquality() {
  Expr *LHS = parseRelational();
  while (check(TokenKind::EqEq) || check(TokenKind::BangEq)) {
    BinaryOp Op = check(TokenKind::EqEq) ? BinaryOp::Eq : BinaryOp::Ne;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseRelational();
    LHS = Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseRelational() {
  Expr *LHS = parseAdditive();
  while (check(TokenKind::Less) || check(TokenKind::LessEq) ||
         check(TokenKind::Greater) || check(TokenKind::GreaterEq)) {
    BinaryOp Op;
    if (check(TokenKind::Less))
      Op = BinaryOp::Lt;
    else if (check(TokenKind::LessEq))
      Op = BinaryOp::Le;
    else if (check(TokenKind::Greater))
      Op = BinaryOp::Gt;
    else
      Op = BinaryOp::Ge;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseAdditive();
    LHS = Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseAdditive() {
  Expr *LHS = parseMultiplicative();
  while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
    BinaryOp Op = check(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseMultiplicative();
    LHS = Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseMultiplicative() {
  Expr *LHS = parseUnary();
  while (check(TokenKind::Star) || check(TokenKind::Slash) ||
         check(TokenKind::Percent)) {
    BinaryOp Op;
    if (check(TokenKind::Star))
      Op = BinaryOp::Mul;
    else if (check(TokenKind::Slash))
      Op = BinaryOp::Div;
    else
      Op = BinaryOp::Rem;
    SourceLoc Loc = advance().Loc;
    Expr *RHS = parseUnary();
    LHS = Ctx.createExpr<BinaryExpr>(Op, LHS, RHS, Loc);
  }
  return LHS;
}

Expr *Parser::parseUnary() {
  // Unary operators and casts recurse directly into parseUnary without
  // passing through parseExpr, so a `-----...` tower needs its own guard.
  if (!checkDepth())
    return makeErrorExpr(peek().Loc);
  DepthScope Scope(Depth);
  SourceLoc Loc = peek().Loc;
  if (match(TokenKind::Minus)) {
    Expr *Sub = parseUnary();
    // Fold negative integer literals into constants (as CIL does), so
    // Const-classifier patterns match them.
    if (auto *IC = dyn_cast<IntConstExpr>(Sub))
      return Ctx.createExpr<IntConstExpr>(-IC->Value, Loc);
    return Ctx.createExpr<UnaryExpr>(UnaryOp::Neg, Sub, Loc);
  }
  if (match(TokenKind::Bang)) {
    Expr *Sub = parseUnary();
    return Ctx.createExpr<UnaryExpr>(UnaryOp::Not, Sub, Loc);
  }
  if (match(TokenKind::Tilde)) {
    Expr *Sub = parseUnary();
    return Ctx.createExpr<UnaryExpr>(UnaryOp::BitNot, Sub, Loc);
  }
  if (match(TokenKind::Star)) {
    Expr *Sub = parseUnary();
    LValue *LV = Ctx.createLValue(Sub, Loc);
    return Ctx.createExpr<LValReadExpr>(LV, Loc);
  }
  if (match(TokenKind::Amp)) {
    Expr *Sub = parseUnary();
    LValue *LV = requireLValue(Sub, "after '&'");
    if (!LV)
      return makeErrorExpr(Loc);
    return Ctx.createExpr<AddrOfExpr>(LV, Loc);
  }
  // Cast: '(' type ')' unary.
  if (check(TokenKind::LParen) && atTypeStart(1)) {
    advance(); // '('
    TypePtr Target = parseType();
    expect(TokenKind::RParen, "to close cast");
    Expr *Sub = parseUnary();
    if (!Target)
      return Sub;
    return Ctx.createExpr<CastExpr>(Target, Sub, Loc);
  }
  return parsePostfix();
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  while (true) {
    SourceLoc Loc = peek().Loc;
    if (match(TokenKind::LBracket)) {
      // a[i] desugars to *(a + i); the logical memory model means the
      // element type equals the pointer's pointee type.
      Expr *Index = parseExpr();
      expect(TokenKind::RBracket, "to close index");
      Expr *Addr =
          Ctx.createExpr<BinaryExpr>(BinaryOp::Add, E, Index, Loc);
      LValue *LV = Ctx.createLValue(Addr, Loc);
      E = Ctx.createExpr<LValReadExpr>(LV, Loc);
      continue;
    }
    if (match(TokenKind::Dot)) {
      if (!check(TokenKind::Identifier)) {
        error("expected field name after '.'");
        return E;
      }
      std::string_view Field = Ctx.copyString(advance().Text);
      LValue *LV = requireLValue(E, "before '.'");
      if (!LV)
        return makeErrorExpr(Loc);
      std::vector<std::string_view> Fields(LV->Fields.begin(),
                                          LV->Fields.end());
      Fields.push_back(Field);
      LV->Fields = Ctx.list(Fields);
      // Reuse the same read expression; its type is recomputed by Sema.
      continue;
    }
    if (match(TokenKind::Arrow)) {
      if (!check(TokenKind::Identifier)) {
        error("expected field name after '->'");
        return E;
      }
      LValue *LV = Ctx.createLValue(E, Loc);
      std::string_view Field = Ctx.copyString(advance().Text);
      LV->Fields = Ctx.list(&Field, 1);
      E = Ctx.createExpr<LValReadExpr>(LV, Loc);
      continue;
    }
    break;
  }
  return E;
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  if (check(TokenKind::IntLiteral)) {
    int64_t V = advance().IntValue;
    return Ctx.createExpr<IntConstExpr>(V, Loc);
  }
  if (check(TokenKind::CharLiteral)) {
    int64_t V = advance().IntValue;
    return Ctx.createExpr<IntConstExpr>(V, Loc);
  }
  if (check(TokenKind::StringLiteral)) {
    std::string_view S = Ctx.copyString(advance().Text);
    return Ctx.createExpr<StrConstExpr>(S, Loc);
  }
  if (checkKw(Kw::Null)) {
    advance();
    return Ctx.createExpr<NullConstExpr>(Loc);
  }
  if (checkKw(Kw::Sizeof)) {
    advance();
    expect(TokenKind::LParen, "after 'sizeof'");
    TypePtr Target = parseType();
    expect(TokenKind::RParen, "to close sizeof");
    if (!Target)
      return makeErrorExpr(Loc);
    return Ctx.createExpr<SizeofTypeExpr>(Target, Loc);
  }
  if (check(TokenKind::Identifier)) {
    uint32_t NameId = nameAt();
    const std::string &Name = advance().Text;
    if (check(TokenKind::LParen)) {
      advance();
      size_t Open = OpenArgs.size();
      if (!check(TokenKind::RParen)) {
        do {
          Expr *Arg = parseExpr();
          OpenArgs.push_back(Arg);
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "to close call");
      NodeList<Expr *> Args =
          Ctx.list(OpenArgs.data() + Open, OpenArgs.size() - Open);
      OpenArgs.resize(Open);
      return Ctx.createExpr<CallExpr>(Ctx.copyString(Name), Args, Loc);
    }
    VarDecl *Var = lookupVar(NameId);
    if (!Var) {
      error("use of undeclared identifier '" + Name + "'");
      return makeErrorExpr(Loc);
    }
    LValue *LV = Ctx.createLValue(Var, Loc);
    return Ctx.createExpr<LValReadExpr>(LV, Loc);
  }
  if (match(TokenKind::LParen)) {
    Expr *E = parseExpr();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return E;
  }
  error("expected expression, found " +
        std::string(tokenKindName(peek().Kind)));
  advance();
  return makeErrorExpr(Loc);
}

bool stq::cminus::runFrontEnd(const std::string &Source,
                              const std::vector<std::string> &QualNames,
                              const std::vector<std::string> &RefQualNames,
                              DiagnosticEngine &Diags,
                              std::unique_ptr<Program> &ProgOut,
                              stats::Registry *Metrics) {
  std::vector<Token> Tokens;
  {
    stats::ScopedTimer Timer(Metrics, "phase.lex_seconds");
    Tokens = lexProgram(Source, Diags);
  }
  {
    stats::ScopedTimer Timer(Metrics, "phase.parse_seconds");
    ProgOut = parseTokens(std::move(Tokens), QualNames, Diags);
  }
  if (!ProgOut || Diags.hasErrors())
    return false;
  {
    stats::ScopedTimer Timer(Metrics, "phase.sema_seconds");
    if (!runSema(*ProgOut, RefQualNames, Diags))
      return false;
  }
  stats::ScopedTimer Timer(Metrics, "phase.lower_seconds");
  if (!lowerProgram(*ProgOut, Diags))
    return false;
  trace::Span Span("verify");
  return verifyLoweredProgram(*ProgOut, Diags);
}
