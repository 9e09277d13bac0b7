//===- AST.h - C-minus abstract syntax --------------------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-minus AST. After the CIL-style lowering pass (Lowering.h) the AST
/// obeys the paper's intermediate-language discipline: expressions are
/// side-effect-free, l-values are a distinguished category, and calls appear
/// only as instructions (a call statement or the direct right-hand side of
/// an assignment/initialization). The qualifier checker and the soundness
/// axioms both consume this lowered form.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_AST_H
#define STQ_CMINUS_AST_H

#include "cminus/Type.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace stq::cminus {

class Expr;
class Stmt;
class BlockStmt;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A struct definition with named, typed fields.
class StructDef {
public:
  struct Field {
    std::string Name;
    TypePtr Ty;
  };

  StructDef(std::string Name, SourceLoc Loc)
      : Name(std::move(Name)), Loc(Loc) {}

  std::string Name;
  std::vector<Field> Fields;
  SourceLoc Loc;

  /// Returns the field named \p FieldName, or nullptr.
  const Field *findField(std::string_view FieldName) const;
};

/// A variable declaration: global, local, or parameter. The declared type
/// retains every user-written qualifier (value and reference).
class VarDecl {
public:
  VarDecl(std::string Name, TypePtr Ty, SourceLoc Loc, unsigned Id)
      : Name(std::move(Name)), DeclaredTy(std::move(Ty)), Loc(Loc), Id(Id) {}

  std::string Name;
  TypePtr DeclaredTy;
  /// Optional initializer (may be a call; treated as an assignment
  /// instruction by the checker).
  Expr *Init = nullptr;
  bool IsGlobal = false;
  bool IsParam = false;
  SourceLoc Loc;
  /// Dense id unique within one Program; used for memoization keys.
  unsigned Id;
};

/// A function declaration or definition.
class FuncDecl {
public:
  FuncDecl(std::string Name, TypePtr RetTy, SourceLoc Loc)
      : Name(std::move(Name)), RetTy(std::move(RetTy)), Loc(Loc) {}

  std::string Name;
  TypePtr RetTy;
  std::vector<VarDecl *> Params;
  bool Variadic = false;
  /// Null for prototypes.
  BlockStmt *Body = nullptr;
  SourceLoc Loc;

  bool isDefinition() const { return Body != nullptr; }
  /// Builds the function type from the return and parameter types.
  TypePtr type() const;
};

//===----------------------------------------------------------------------===//
// L-values
//===----------------------------------------------------------------------===//

/// An l-value: a variable or a memory dereference, optionally extended by a
/// field path (matching CIL's host+offset representation). `d->trans` is
/// Mem(read d) with path [trans]; `s.f` is Var(s) with path [f].
class LValue {
public:
  enum class Kind { Var, Mem };

  LValue(VarDecl *Var, SourceLoc Loc) : K(Kind::Var), Var(Var), Loc(Loc) {}
  LValue(Expr *Addr, SourceLoc Loc) : K(Kind::Mem), Addr(Addr), Loc(Loc) {}

  Kind getKind() const { return K; }
  bool isVar() const { return K == Kind::Var; }
  bool isMem() const { return K == Kind::Mem; }
  /// True if this is a bare variable with no field path.
  bool isBareVar() const { return isVar() && Fields.empty(); }

  Kind K;
  /// The variable, for Var l-values.
  VarDecl *Var = nullptr;
  /// The address expression, for Mem l-values.
  Expr *Addr = nullptr;
  /// Field path applied after the base (empty for plain variables/derefs).
  std::vector<std::string> Fields;
  SourceLoc Loc;
  /// Declared type of the l-value, including reference qualifiers; set by
  /// Sema.
  TypePtr Ty;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class UnaryOp : uint8_t { Neg, Not, BitNot };
enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LAnd,
  LOr,
};

/// Returns the C spelling of \p Op, e.g. "*" or "&&".
const char *binaryOpSpelling(BinaryOp Op);
const char *unaryOpSpelling(UnaryOp Op);

/// Base of the expression hierarchy. After lowering every Expr except a
/// direct-instruction CallExpr is side-effect-free.
class Expr {
public:
  enum class Kind {
    IntConst,
    StrConst,
    NullConst,
    LValRead,
    AddrOf,
    Unary,
    Binary,
    Cast,
    Call,
    SizeofType,
  };

  virtual ~Expr() = default;

  Kind getKind() const { return K; }

  SourceLoc Loc;
  /// Static type, set by Sema. For l-value reads this is the r-type
  /// (reference qualifiers stripped).
  TypePtr Ty;
  /// Dense id unique within one Program; used for memoization keys.
  unsigned Id = 0;

protected:
  Expr(Kind K, SourceLoc Loc) : Loc(Loc), K(K) {}

private:
  Kind K;
};

/// An integer or character constant.
class IntConstExpr : public Expr {
public:
  IntConstExpr(int64_t Value, SourceLoc Loc)
      : Expr(Kind::IntConst, Loc), Value(Value) {}
  int64_t Value;
  static bool classof(const Expr *E) { return E->getKind() == Kind::IntConst; }
};

/// A string literal (type char*).
class StrConstExpr : public Expr {
public:
  StrConstExpr(std::string Value, SourceLoc Loc)
      : Expr(Kind::StrConst, Loc), Value(std::move(Value)) {}
  std::string Value;
  static bool classof(const Expr *E) { return E->getKind() == Kind::StrConst; }
};

/// The NULL constant.
class NullConstExpr : public Expr {
public:
  explicit NullConstExpr(SourceLoc Loc) : Expr(Kind::NullConst, Loc) {}
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::NullConst;
  }
};

/// Reading an l-value (using it on the right-hand side).
class LValReadExpr : public Expr {
public:
  LValReadExpr(LValue *LV, SourceLoc Loc) : Expr(Kind::LValRead, Loc), LV(LV) {}
  LValue *LV;
  static bool classof(const Expr *E) { return E->getKind() == Kind::LValRead; }
};

/// Taking the address of an l-value.
class AddrOfExpr : public Expr {
public:
  AddrOfExpr(LValue *LV, SourceLoc Loc) : Expr(Kind::AddrOf, Loc), LV(LV) {}
  LValue *LV;
  static bool classof(const Expr *E) { return E->getKind() == Kind::AddrOf; }
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Sub, SourceLoc Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(Sub) {}
  UnaryOp Op;
  Expr *Sub;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }
};

/// An explicit cast `(type) e`. Casts to value-qualified types trigger
/// run-time check instrumentation (paper section 2.1.3).
class CastExpr : public Expr {
public:
  CastExpr(TypePtr Target, Expr *Sub, SourceLoc Loc)
      : Expr(Kind::Cast, Loc), Target(std::move(Target)), Sub(Sub) {}
  TypePtr Target;
  Expr *Sub;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Cast; }
};

/// A call. After lowering, calls occur only as a CallStmt or as the direct
/// right-hand side of an assignment/initializer (possibly under one cast,
/// which is ignored for pattern-matching purposes, as in the paper).
class CallExpr : public Expr {
public:
  CallExpr(std::string CalleeName, std::vector<Expr *> Args, SourceLoc Loc)
      : Expr(Kind::Call, Loc), CalleeName(std::move(CalleeName)),
        Args(std::move(Args)) {}
  std::string CalleeName;
  std::vector<Expr *> Args;
  /// Resolved by Sema; null for unknown externals.
  FuncDecl *Callee = nullptr;
  /// True for memory-allocation routines (malloc); these match the `new`
  /// pattern in qualifier definitions.
  bool IsAlloc = false;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }
};

/// `sizeof(type)`; evaluates to the logical size of the type.
class SizeofTypeExpr : public Expr {
public:
  SizeofTypeExpr(TypePtr Target, SourceLoc Loc)
      : Expr(Kind::SizeofType, Loc), Target(std::move(Target)) {}
  TypePtr Target;
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::SizeofType;
  }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Block,
    Decl,
    Assign,
    CallStmt,
    If,
    While,
    For,
    Return,
    Break,
    Continue,
  };

  virtual ~Stmt() = default;

  Kind getKind() const { return K; }
  SourceLoc Loc;

protected:
  Stmt(Kind K, SourceLoc Loc) : Loc(Loc), K(K) {}

private:
  Kind K;
};

class BlockStmt : public Stmt {
public:
  explicit BlockStmt(SourceLoc Loc) : Stmt(Kind::Block, Loc) {}
  std::vector<Stmt *> Stmts;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Block; }
};

class DeclStmt : public Stmt {
public:
  DeclStmt(VarDecl *Var, SourceLoc Loc) : Stmt(Kind::Decl, Loc), Var(Var) {}
  VarDecl *Var;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Decl; }
};

class AssignStmt : public Stmt {
public:
  AssignStmt(LValue *LHS, Expr *RHS, SourceLoc Loc)
      : Stmt(Kind::Assign, Loc), LHS(LHS), RHS(RHS) {}
  LValue *LHS;
  Expr *RHS;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }
};

class CallStmt : public Stmt {
public:
  CallStmt(CallExpr *Call, SourceLoc Loc)
      : Stmt(Kind::CallStmt, Loc), Call(Call) {}
  CallExpr *Call;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::CallStmt; }
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  Expr *Cond;
  Stmt *Then;
  Stmt *Else; // may be null
  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }
};

class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}
  Expr *Cond;
  Stmt *Body;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }
};

/// A `for` loop; desugared to while by the lowering pass.
class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Stmt *Step, Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::For, Loc), Init(Init), Cond(Cond), Step(Step), Body(Body) {}
  Stmt *Init; // may be null
  Expr *Cond; // may be null (treated as true)
  Stmt *Step; // may be null
  Stmt *Body;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::For; }
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLoc Loc)
      : Stmt(Kind::Return, Loc), Value(Value) {}
  Expr *Value; // may be null
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Continue; }
};

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

/// Owns every AST node of one translation unit and hands out raw pointers.
class ASTContext {
public:
  template <typename T, typename... Args> T *createExpr(Args &&...A) {
    auto Node = std::make_unique<T>(std::forward<Args>(A)...);
    T *Raw = Node.get();
    Raw->Id = NextExprId++;
    Exprs.push_back(std::move(Node));
    return Raw;
  }

  LValue *createLValue(VarDecl *Var, SourceLoc Loc) {
    LValues.push_back(std::make_unique<LValue>(Var, Loc));
    return LValues.back().get();
  }
  LValue *createLValue(Expr *Addr, SourceLoc Loc) {
    LValues.push_back(std::make_unique<LValue>(Addr, Loc));
    return LValues.back().get();
  }

  template <typename T, typename... Args> T *createStmt(Args &&...A) {
    auto Node = std::make_unique<T>(std::forward<Args>(A)...);
    T *Raw = Node.get();
    Stmts.push_back(std::move(Node));
    return Raw;
  }

  VarDecl *createVar(std::string Name, TypePtr Ty, SourceLoc Loc) {
    auto Node =
        std::make_unique<VarDecl>(std::move(Name), std::move(Ty), Loc,
                                  NextVarId++);
    VarDecl *Raw = Node.get();
    Vars.push_back(std::move(Node));
    return Raw;
  }

  FuncDecl *createFunc(std::string Name, TypePtr RetTy, SourceLoc Loc) {
    Funcs.push_back(
        std::make_unique<FuncDecl>(std::move(Name), std::move(RetTy), Loc));
    return Funcs.back().get();
  }

  StructDef *createStruct(std::string Name, SourceLoc Loc) {
    Structs.push_back(std::make_unique<StructDef>(std::move(Name), Loc));
    return Structs.back().get();
  }

  unsigned numExprs() const { return NextExprId; }

  /// Clears every computed type so Sema can be re-run after a tool mutates
  /// declared types (the annotation driver's iterative loop).
  void resetComputedTypes() {
    for (auto &E : Exprs)
      E->Ty = nullptr;
    for (auto &LV : LValues)
      LV->Ty = nullptr;
  }

private:
  std::vector<std::unique_ptr<Expr>> Exprs;
  std::vector<std::unique_ptr<LValue>> LValues;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  std::vector<std::unique_ptr<VarDecl>> Vars;
  std::vector<std::unique_ptr<FuncDecl>> Funcs;
  std::vector<std::unique_ptr<StructDef>> Structs;
  unsigned NextExprId = 0;
  unsigned NextVarId = 0;
};

/// One parsed translation unit.
class Program {
public:
  ASTContext Ctx;
  /// In definition order; findStruct() answers the first of a name.
  std::vector<StructDef *> Structs;
  std::vector<VarDecl *> Globals;
  /// One entry per function name, in first-declaration order: the
  /// definition once there is one, else the first prototype. Grown only
  /// through addFunction/defineFunction, which keep findFunction() in
  /// step.
  std::vector<FuncDecl *> Functions;

  /// Hash lookups; the keys view names owned by this Program's nodes.
  FuncDecl *findFunction(std::string_view Name) const;
  StructDef *findStruct(std::string_view Name) const;

  /// Appends \p Fn as the entry for a name not declared yet.
  void addFunction(FuncDecl *Fn);
  /// Makes the definition \p Fn the entry for its (declared) name.
  void defineFunction(FuncDecl *Fn);
  void addStruct(StructDef *S);

private:
  /// Name -> index into Functions.
  std::unordered_map<std::string_view, size_t> FunctionIndex;
  std::unordered_map<std::string_view, StructDef *> StructIndex;
};

} // namespace stq::cminus

#endif // STQ_CMINUS_AST_H
