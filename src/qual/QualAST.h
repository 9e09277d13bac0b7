//===- QualAST.h - Qualifier-definition language AST ------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax of the paper's qualifier-definition language
/// (section 2): value and reference qualifiers with `case`, `restrict`,
/// `assign`, `disallow`, `ondecl`, and `invariant` blocks.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_QUAL_QUALAST_H
#define STQ_QUAL_QUALAST_H

#include "cminus/AST.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stq::qual {

/// The classifier of a pattern variable (section 2.1): which kind of program
/// fragment it may bind to during typechecking.
enum class Classifier { Expr, Const, LValue, Var };

const char *classifierName(Classifier C);

/// A type in a qualifier signature or declaration list: `T`, `T*`, `int`,
/// `char`, etc. `T` is the paper's type variable and matches any type.
/// Matching ignores qualifiers at every level.
struct TypePattern {
  enum class Kind { Any, Int, Char, Pointer };

  Kind K = Kind::Any;
  /// Pointee pattern, for Kind::Pointer.
  std::shared_ptr<TypePattern> Pointee;

  static TypePattern any() { return TypePattern{Kind::Any, nullptr}; }
  static TypePattern intTy() { return TypePattern{Kind::Int, nullptr}; }
  static TypePattern charTy() { return TypePattern{Kind::Char, nullptr}; }
  static TypePattern pointerTo(TypePattern Sub) {
    return TypePattern{Kind::Pointer,
                       std::make_shared<TypePattern>(std::move(Sub))};
  }

  /// Does the concrete type \p Ty match this pattern (qualifiers ignored)?
  bool matches(cminus::TypePtr Ty) const;

  std::string str() const;
};

/// A declared pattern variable: `int Expr E1`.
struct VarPatternDecl {
  std::string Name;
  TypePattern Ty;
  Classifier Cls = Classifier::Expr;
  SourceLoc Loc;
};

/// A syntactic expression pattern (grammar in section 2.1.1):
///   P ::= X | *X | &X | new | NULL | uop X | X bop X
/// NULL appears as a right-hand-side pattern in assign blocks (figure 5).
struct ExprPattern {
  enum class Kind { Var, Deref, AddrOf, New, Null, Unary, Binary };

  Kind K = Kind::Var;
  /// First variable (X); unused for New/Null.
  std::string X;
  /// Second variable (for Binary).
  std::string Y;
  cminus::UnaryOp Uop = cminus::UnaryOp::Neg;
  cminus::BinaryOp Bop = cminus::BinaryOp::Add;
  SourceLoc Loc;

  std::string str() const;
};

/// A predicate over bound pattern variables: qualifier checks, comparisons
/// on constants, and conjunction/disjunction.
struct Pred {
  enum class Kind { True, And, Or, QualCheck, Compare };

  /// A comparison operand: a bound Const-classifier variable or a literal.
  struct Term {
    enum class Kind { Var, Int, Null };
    Kind K = Kind::Int;
    std::string Var;
    int64_t Int = 0;
  };

  Kind K = Kind::True;
  // And/Or.
  std::shared_ptr<Pred> LHS;
  std::shared_ptr<Pred> RHS;
  // QualCheck: Qual(VarName).
  std::string Qual;
  std::string Var;
  // Compare: A Op B.
  cminus::BinaryOp CmpOp = cminus::BinaryOp::Eq;
  Term A;
  Term B;
  SourceLoc Loc;

  static Pred makeTrue() { return Pred{}; }

  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Clauses compiled for the checker
//===----------------------------------------------------------------------===//

/// A clause pattern binds at most three variables: the subject (case
/// clauses only), X and Y. QualifierSet::add gives each name the pattern or
/// the `where` predicate uses one of these slots, so the checker binds and
/// looks up variables by index instead of by name.
constexpr unsigned NumSlots = 3;
/// The slot of a name the pattern never binds: a predicate over it is
/// false.
constexpr uint8_t NoSlot = 0xff;
/// The index of a qualifier the set does not hold.
constexpr uint32_t NoQual = 0xffffffffu;

/// What a slot may bind: its `decl`'s classifier and type pattern. A name
/// without a `decl` (the subject) binds any node.
struct SlotDecl {
  bool Declared = false;
  Classifier Cls = Classifier::Expr;
  TypePattern Ty;
};

/// One node of a compiled `where` predicate. Nodes are stored in preorder:
/// an And/Or node's left operand is the next node, its right operand
/// starts at RHS.
struct SlotPred {
  struct Term {
    Pred::Term::Kind K = Pred::Term::Kind::Int;
    uint8_t Slot = NoSlot;
    int64_t Int = 0;
  };

  Pred::Kind K = Pred::Kind::True;
  uint32_t RHS = 0;
  /// QualCheck: the checked variable's slot and the qualifier's index in
  /// the set.
  uint8_t Slot = NoSlot;
  uint32_t Qual = NoQual;
  /// Compare.
  cminus::BinaryOp CmpOp = cminus::BinaryOp::Eq;
  Term A;
  Term B;
};

/// One clause of a case/restrict/assign block: optional declarations, a
/// pattern, and an optional `where` predicate.
struct Clause {
  std::vector<VarPatternDecl> Decls;
  ExprPattern Pattern;
  Pred Where; // Kind::True when absent.
  SourceLoc Loc;

  /// The compiled form, filled in by QualifierSet::add: the slots of the
  /// pattern's X and Y (NoSlot when the pattern has none), what each slot
  /// may bind, and `Where` in preorder.
  uint8_t XSlot = NoSlot;
  uint8_t YSlot = NoSlot;
  SlotDecl Slots[NumSlots];
  std::vector<SlotPred> WhereCode;

  const VarPatternDecl *findDecl(const std::string &Name) const;
};

//===----------------------------------------------------------------------===//
// Invariants
//===----------------------------------------------------------------------===//

/// A term of the invariant language, interpreted in an arbitrary run-time
/// execution state rho (section 2.1.3 / 2.2.3).
struct InvTerm {
  enum class Kind {
    ValueOf,    ///< value(V): the value of expression/l-value V in rho.
    LocationOf, ///< location(V): the address of l-value V in rho.
    Deref,      ///< *P: contents of quantified location P in rho.
    VarRef,     ///< P: a forall-bound location variable.
    Int,        ///< integer literal.
    Null,       ///< NULL.
  };

  Kind K = Kind::Int;
  std::string Var;
  int64_t Int = 0;

  std::string str() const;
};

/// A predicate of the invariant language.
struct InvPred {
  enum class Kind { Compare, IsHeapLoc, And, Or, Implies, Forall };

  Kind K = Kind::Compare;
  // Compare: A Op B (Op in ==, !=, <, <=, >, >=).
  cminus::BinaryOp CmpOp = cminus::BinaryOp::Eq;
  InvTerm A;
  InvTerm B;
  // IsHeapLoc: isHeapLoc(A).
  // And/Or/Implies.
  std::shared_ptr<InvPred> LHS;
  std::shared_ptr<InvPred> RHS;
  // Forall: forall <Ty> <Var>: Body.
  TypePattern ForallTy;
  std::string ForallVar;
  std::shared_ptr<InvPred> Body;
  SourceLoc Loc;

  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Qualifier definitions
//===----------------------------------------------------------------------===//

/// One user-defined qualifier with its type rules and intended invariant.
struct QualifierDef {
  std::string Name;
  /// False for value qualifiers, true for reference qualifiers.
  bool IsRef = false;

  /// Subject declaration, e.g. `(int Expr E)` or `(T* LValue L)`.
  std::string SubjectVar;
  TypePattern SubjectTy;
  Classifier SubjectCls = Classifier::Expr;
  SourceLoc Loc;

  /// `case` clauses: introduction rules (value qualifiers only).
  std::vector<Clause> Cases;
  /// `restrict` clauses: checks imposed on every matching program
  /// expression.
  std::vector<Clause> Restricts;
  /// `assign` clauses: allowed RHS forms for assignments to a qualified
  /// l-value (reference qualifiers only).
  std::vector<Clause> Assigns;
  /// `ondecl`: the qualifier may be assumed at the point of declaration.
  bool OnDecl = false;
  /// `disallow L`: the qualified l-value may not be referred to (used as a
  /// whole r-value).
  bool DisallowRead = false;
  /// `disallow &X`: the qualified l-value may not have its address taken.
  bool DisallowAddrOf = false;
  /// The intended run-time invariant, if declared. Flow qualifiers like
  /// tainted/untainted omit it.
  std::optional<InvPred> Invariant;

  bool isValue() const { return !IsRef; }
};

/// A set of loaded qualifier definitions; lookup by name.
class QualifierSet {
public:
  /// Appends \p Def and compiles its clauses (Clause::XSlot and the rest).
  /// A `where` check of a qualifier not yet loaded is resolved when that
  /// qualifier is added. A set is written only while it loads; checkers
  /// on several threads then read it.
  void add(QualifierDef Def);

  const QualifierDef *find(const std::string &Name) const;
  /// The index in all() of the first definition named \p Name, or NoQual.
  uint32_t indexOf(std::string_view Name) const;
  const std::vector<QualifierDef> &all() const { return Defs; }

  /// All qualifier names (for parser registration).
  std::vector<std::string> names() const;
  /// Names of reference qualifiers (for r-type stripping in Sema).
  std::vector<std::string> refNames() const;

private:
  std::vector<QualifierDef> Defs;
};

} // namespace stq::qual

#endif // STQ_QUAL_QUALAST_H
