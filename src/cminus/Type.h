//===- Type.h - C-minus types with qualifier sets ---------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-minus type representation. Every type node carries a set of
/// user-defined qualifier names; the paper's postfix notation means a
/// qualifier attaches to the whole type to its left, so `int pos*` is a
/// pointer to pos-qualified int while `int* unique` is a unique-qualified
/// pointer to int. Qualifier order is irrelevant (rule SubQualReorder), so
/// the set is kept sorted and deduplicated.
///
/// Types are immutable and belong to one translation unit: the
/// ASTContext of the Program that uses them allocates them in its arena
/// and frees them with it, so a TypePtr is a plain pointer and no
/// reference count is shared between threads checking different TUs.
/// The context builds each distinct type once: its own int, char and
/// void, one pointer node per pointee, one struct node per tag, and one
/// node per (unqualified type, qualifier set). A qualified node remembers
/// the unqualified node it was built from, so dropping every top-level
/// qualifier returns an existing node. Code that needs a variant asks the
/// context (ASTContext in AST.h) for it and never edits a node in place.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_TYPE_H
#define STQ_CMINUS_TYPE_H

#include "cminus/Arena.h"

#include <string>
#include <string_view>
#include <vector>

namespace stq::cminus {

class Type;
using TypePtr = const Type *;

/// An immutable, structurally compared type, built by an ASTContext.
class Type {
public:
  enum class Kind { Void, Int, Char, Pointer, Struct, Function };

  Kind getKind() const { return K; }

  /// Top-level qualifier names, sorted and deduplicated.
  const std::vector<std::string> &quals() const { return *Quals; }
  bool hasQual(std::string_view Q) const;

  bool isVoid() const { return K == Kind::Void; }
  bool isInt() const { return K == Kind::Int; }
  bool isChar() const { return K == Kind::Char; }
  bool isArithmetic() const { return isInt() || isChar(); }
  bool isPointer() const { return K == Kind::Pointer; }
  bool isStruct() const { return K == Kind::Struct; }
  bool isFunction() const { return K == Kind::Function; }

  /// Pointee type; only valid for pointers.
  TypePtr pointee() const { return Pointee; }
  /// Struct tag; only valid for struct types.
  std::string_view structName() const { return StructName; }
  /// Return type; only valid for function types.
  TypePtr returnType() const { return Ret; }
  /// Parameter types; only valid for function types.
  const NodeList<TypePtr> &paramTypes() const { return Params; }
  bool isVariadic() const { return Variadic; }

  /// Returns \p T with an empty top-level qualifier set: \p T itself when
  /// it has none, else the node it was qualified from.
  static TypePtr withoutQuals(TypePtr T) {
    return T->Unqualified ? T->Unqualified : T;
  }

  /// Structural equality including qualifier sets at every level.
  static bool equals(TypePtr A, TypePtr B);
  /// Structural equality ignoring qualifiers at every level.
  static bool equalsIgnoringQuals(TypePtr A, TypePtr B);
  /// Structural equality ignoring top-level qualifiers only; nested
  /// qualifier sets must still match (no subtyping under pointers).
  static bool equalsIgnoringTopQuals(TypePtr A, TypePtr B);

  /// The paper's subtype relation for value-qualified types: A <= B iff the
  /// types agree structurally, A's top-level qualifier set is a superset of
  /// B's, and all nested qualifier sets are equal. (Reference qualifiers are
  /// stripped from r-types before this is consulted, so top-level qualifiers
  /// here are value qualifiers.)
  static bool isSubtypeOf(TypePtr A, TypePtr B);

  /// Renders in C-minus postfix syntax, e.g. "int pos*" or "char* untainted".
  std::string str() const;

private:
  friend class ASTContext;
  explicit Type(Kind K);

  Kind K;
  bool Variadic = false;
  /// Interned by the owning context; never null.
  const std::vector<std::string> *Quals;
  /// The same node with no top-level qualifiers; null when Quals is empty.
  TypePtr Unqualified = nullptr;
  TypePtr Pointee = nullptr;
  std::string_view StructName;
  TypePtr Ret = nullptr;
  NodeList<TypePtr> Params;
};

} // namespace stq::cminus

#endif // STQ_CMINUS_TYPE_H
