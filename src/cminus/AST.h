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
/// A translation unit's nodes, types and names live in one arena owned by
/// its ASTContext. Nodes are trivially destructible: names are views of
/// arena copies, child lists are NodeLists, and types are plain pointers,
/// so freeing a TU frees its arena's chunks and destroys no node.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_AST_H
#define STQ_CMINUS_AST_H

#include "cminus/Type.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
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
    std::string_view Name;
    TypePtr Ty;
  };

  StructDef(std::string_view Name, SourceLoc Loc) : Name(Name), Loc(Loc) {}

  std::string_view Name;
  NodeList<Field> Fields;
  SourceLoc Loc;

  /// Returns the field named \p FieldName, or nullptr.
  const Field *findField(std::string_view FieldName) const;
};

/// A variable declaration: global, local, or parameter. The declared type
/// retains every user-written qualifier (value and reference).
class VarDecl {
public:
  VarDecl(std::string_view Name, TypePtr Ty, SourceLoc Loc, unsigned Id)
      : Name(Name), DeclaredTy(Ty), Loc(Loc), Id(Id) {}

  std::string_view Name;
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
  FuncDecl(std::string_view Name, TypePtr RetTy, SourceLoc Loc)
      : Name(Name), RetTy(RetTy), Loc(Loc) {}

  std::string_view Name;
  TypePtr RetTy;
  NodeList<VarDecl *> Params;
  bool Variadic = false;
  /// Null for prototypes.
  BlockStmt *Body = nullptr;
  SourceLoc Loc;

  bool isDefinition() const { return Body != nullptr; }
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
  NodeList<std::string_view> Fields;
  SourceLoc Loc;
  /// Declared type of the l-value, including reference qualifiers; set by
  /// Sema.
  TypePtr Ty = nullptr;
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

  Kind getKind() const { return K; }

  SourceLoc Loc;
  /// Static type, set by Sema. For l-value reads this is the r-type
  /// (reference qualifiers stripped).
  TypePtr Ty = nullptr;
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
  StrConstExpr(std::string_view Value, SourceLoc Loc)
      : Expr(Kind::StrConst, Loc), Value(Value) {}
  std::string_view Value;
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
      : Expr(Kind::Cast, Loc), Target(Target), Sub(Sub) {}
  TypePtr Target;
  Expr *Sub;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Cast; }
};

/// A call. After lowering, calls occur only as a CallStmt or as the direct
/// right-hand side of an assignment/initializer (possibly under one cast,
/// which is ignored for pattern-matching purposes, as in the paper).
class CallExpr : public Expr {
public:
  CallExpr(std::string_view CalleeName, NodeList<Expr *> Args, SourceLoc Loc)
      : Expr(Kind::Call, Loc), CalleeName(CalleeName), Args(Args) {}
  std::string_view CalleeName;
  NodeList<Expr *> Args;
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
      : Expr(Kind::SizeofType, Loc), Target(Target) {}
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
  NodeList<Stmt *> Stmts;
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

/// Owns one translation unit: its AST nodes, its types and the names both
/// use, all allocated in one arena that is freed as a whole. Nodes are
/// never destroyed one at a time, so every node class is trivially
/// destructible. Types other than function types are built once per
/// context (see Type.h), so within one Program two equal such types are
/// the same node.
class ASTContext {
public:
  ASTContext();
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  template <typename T, typename... Args> T *createExpr(Args &&...A) {
    T *Node = create<T>(std::forward<Args>(A)...);
    Node->Id = NextExprId++;
    return Node;
  }

  LValue *createLValue(VarDecl *Var, SourceLoc Loc) {
    return create<LValue>(Var, Loc);
  }
  LValue *createLValue(Expr *Addr, SourceLoc Loc) {
    return create<LValue>(Addr, Loc);
  }

  template <typename T, typename... Args> T *createStmt(Args &&...A) {
    return create<T>(std::forward<Args>(A)...);
  }

  /// The declaration nodes copy \p Name into the arena.
  VarDecl *createVar(std::string_view Name, TypePtr Ty, SourceLoc Loc) {
    return create<VarDecl>(copyString(Name), Ty, Loc, NextVarId++);
  }
  FuncDecl *createFunc(std::string_view Name, TypePtr RetTy, SourceLoc Loc) {
    return create<FuncDecl>(copyString(Name), RetTy, Loc);
  }
  StructDef *createStruct(std::string_view Name, SourceLoc Loc) {
    return create<StructDef>(copyString(Name), Loc);
  }

  /// A copy of \p S that lives as long as this context.
  std::string_view copyString(std::string_view S) {
    return Arena.copyString(S);
  }

  /// An arena copy of \p Elems.
  template <typename T> NodeList<T> list(const T *Elems, size_t N) {
    static_assert(std::is_trivially_destructible_v<T>);
    if (N == 0)
      return {};
    T *Data = static_cast<T *>(Arena.allocate(sizeof(T) * N, alignof(T)));
    std::uninitialized_copy(Elems, Elems + N, Data);
    return {Data, N};
  }
  template <typename T> NodeList<T> list(const std::vector<T> &Elems) {
    return list(Elems.data(), Elems.size());
  }

  unsigned numExprs() const { return NextExprId; }

  // Types. Each factory returns this context's one node for the type it
  // names, building it on first use.
  TypePtr voidTy() const { return Void; }
  TypePtr intTy() const { return Int; }
  TypePtr charTy() const { return Char; }
  TypePtr getPointer(TypePtr Pointee);
  TypePtr getStruct(std::string_view Name);
  /// Function types are not cached.
  TypePtr getFunction(TypePtr Ret, const std::vector<TypePtr> &Params,
                      bool Variadic);
  /// \p T with \p Qual added to its top-level qualifier set.
  TypePtr withQual(TypePtr T, std::string_view Qual);
  /// \p T with the top-level qualifier set \p Quals instead of its own.
  TypePtr withQuals(TypePtr T, std::vector<std::string> Quals);
  /// \p T without the top-level qualifiers in \p Drop (reference
  /// qualifiers, when Sema computes r-types); \p T itself when it carries
  /// none of them.
  TypePtr withoutQualsIn(TypePtr T, const std::vector<std::string> &Drop);

  /// True when \p T was built by this context.
  bool owns(TypePtr T) const { return Arena.contains(T); }

private:
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena nodes are never destroyed");
    return new (Arena.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(A)...);
  }
  Type *newType(Type::Kind K);
  Type *newType(const Type &Copy);

  struct TypeKeyHash {
    template <typename A, typename B>
    size_t operator()(const std::pair<A, B> &K) const {
      return std::hash<A>()(K.first) * 31 + std::hash<B>()(K.second);
    }
  };

  // Declared first, so it is destroyed last.
  BumpArena Arena;
  unsigned NextExprId = 0;
  unsigned NextVarId = 0;
  TypePtr Void, Int, Char;
  /// Every distinct top-level qualifier set of this context's types.
  std::set<std::vector<std::string>> QualSets;
  std::unordered_map<TypePtr, TypePtr> PointerTypes;
  /// Keys view the struct nodes' own names.
  std::unordered_map<std::string_view, TypePtr> StructTypes;
  /// (unqualified type, interned qualifier set) -> the qualified node.
  std::unordered_map<std::pair<TypePtr, const std::vector<std::string> *>,
                     TypePtr, TypeKeyHash>
      QualifiedTypes;
  /// withQual() answers: (type, added qualifier) -> result. Keys view the
  /// interned qualifier sets.
  std::unordered_map<std::pair<TypePtr, std::string_view>, TypePtr,
                     TypeKeyHash>
      AddedQual;
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
