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
/// Types are immutable and shared. The primitives are process-wide
/// singletons. A qualified node remembers the unqualified node it was
/// built from, so dropping every top-level qualifier, or dropping names
/// the node does not carry, returns an existing node instead of a copy.
/// The parser builds each distinct qualified or pointer type once per
/// parse and hands the same node to every declaration that spells it;
/// code that needs a variant asks a factory for it and never edits a
/// node in place.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CMINUS_TYPE_H
#define STQ_CMINUS_TYPE_H

#include <memory>
#include <string>
#include <vector>

namespace stq::cminus {

class Type;
using TypePtr = std::shared_ptr<const Type>;

/// An immutable, structurally compared type. Construct via the static
/// factories; share freely.
class Type {
public:
  enum class Kind { Void, Int, Char, Pointer, Struct, Function };

  Kind getKind() const { return K; }

  /// Top-level qualifier names, sorted and deduplicated.
  const std::vector<std::string> &quals() const { return Quals; }
  bool hasQual(const std::string &Q) const;

  bool isVoid() const { return K == Kind::Void; }
  bool isInt() const { return K == Kind::Int; }
  bool isChar() const { return K == Kind::Char; }
  bool isArithmetic() const { return isInt() || isChar(); }
  bool isPointer() const { return K == Kind::Pointer; }
  bool isStruct() const { return K == Kind::Struct; }
  bool isFunction() const { return K == Kind::Function; }

  /// Pointee type; only valid for pointers.
  const TypePtr &pointee() const { return Pointee; }
  /// Struct tag; only valid for struct types.
  const std::string &structName() const { return StructName; }
  /// Return type; only valid for function types.
  const TypePtr &returnType() const { return Ret; }
  /// Parameter types; only valid for function types.
  const std::vector<TypePtr> &paramTypes() const { return Params; }
  bool isVariadic() const { return Variadic; }

  // Factories.
  static TypePtr getVoid();
  static TypePtr getInt();
  static TypePtr getChar();
  static TypePtr getPointer(TypePtr Pointee);
  static TypePtr getStruct(std::string Name);
  static TypePtr getFunction(TypePtr Ret, std::vector<TypePtr> Params,
                             bool Variadic);

  /// Returns this type with \p Qual added to the top-level qualifier set.
  static TypePtr withQual(const TypePtr &T, const std::string &Qual);
  /// Returns this type with the given top-level qualifier set (replacing the
  /// existing one).
  static TypePtr withQuals(const TypePtr &T, std::vector<std::string> Quals);
  /// Returns this type with an empty top-level qualifier set: \p T itself
  /// when it has none, else the node it was qualified from.
  static TypePtr withoutQuals(const TypePtr &T);
  /// Returns this type with every qualifier in \p Drop removed from the
  /// top-level set (used to strip reference qualifiers from r-types);
  /// \p T itself when it carries none of them.
  static TypePtr withoutQualsIn(const TypePtr &T,
                                const std::vector<std::string> &Drop);
  /// Returns this type with every qualifier removed at every level; the
  /// base type system compares these, leaving all qualifier reasoning to
  /// the extensible checker.
  static TypePtr deepUnqualified(const TypePtr &T);

  /// Structural equality including qualifier sets at every level.
  static bool equals(const TypePtr &A, const TypePtr &B);
  /// Structural equality ignoring qualifiers at every level: equals() on
  /// the deepUnqualified() forms, without building them.
  static bool equalsIgnoringQuals(const TypePtr &A, const TypePtr &B);
  /// Structural equality ignoring top-level qualifiers only; nested
  /// qualifier sets must still match (no subtyping under pointers).
  static bool equalsIgnoringTopQuals(const TypePtr &A, const TypePtr &B);

  /// The paper's subtype relation for value-qualified types: A <= B iff the
  /// types agree structurally, A's top-level qualifier set is a superset of
  /// B's, and all nested qualifier sets are equal. (Reference qualifiers are
  /// stripped from r-types before this is consulted, so top-level qualifiers
  /// here are value qualifiers.)
  static bool isSubtypeOf(const TypePtr &A, const TypePtr &B);

  /// Renders in C-minus postfix syntax, e.g. "int pos*" or "char* untainted".
  std::string str() const;

private:
  explicit Type(Kind K) : K(K) {}

  Kind K;
  std::vector<std::string> Quals;
  /// The same node with no top-level qualifiers; null when Quals is empty.
  TypePtr Unqualified;
  TypePtr Pointee;
  std::string StructName;
  TypePtr Ret;
  std::vector<TypePtr> Params;
  bool Variadic = false;
};

} // namespace stq::cminus

#endif // STQ_CMINUS_TYPE_H
