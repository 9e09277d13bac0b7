//===- Type.cpp -----------------------------------------------------------===//

#include "cminus/Type.h"

#include <algorithm>
#include <cassert>

using namespace stq::cminus;

bool Type::hasQual(const std::string &Q) const {
  return std::binary_search(Quals.begin(), Quals.end(), Q);
}

TypePtr Type::getVoid() {
  static TypePtr T(new Type(Kind::Void));
  return T;
}

TypePtr Type::getInt() {
  static TypePtr T(new Type(Kind::Int));
  return T;
}

TypePtr Type::getChar() {
  static TypePtr T(new Type(Kind::Char));
  return T;
}

TypePtr Type::getPointer(TypePtr Pointee) {
  assert(Pointee && "pointer to null type");
  auto *T = new Type(Kind::Pointer);
  T->Pointee = std::move(Pointee);
  return TypePtr(T);
}

TypePtr Type::getStruct(std::string Name) {
  auto *T = new Type(Kind::Struct);
  T->StructName = std::move(Name);
  return TypePtr(T);
}

TypePtr Type::getFunction(TypePtr Ret, std::vector<TypePtr> Params,
                          bool Variadic) {
  auto *T = new Type(Kind::Function);
  T->Ret = std::move(Ret);
  T->Params = std::move(Params);
  T->Variadic = Variadic;
  return TypePtr(T);
}

static void normalizeQuals(std::vector<std::string> &Quals) {
  std::sort(Quals.begin(), Quals.end());
  Quals.erase(std::unique(Quals.begin(), Quals.end()), Quals.end());
}

TypePtr Type::withQual(const TypePtr &T, const std::string &Qual) {
  if (T->hasQual(Qual))
    return T;
  std::vector<std::string> Quals = T->Quals;
  Quals.push_back(Qual);
  return withQuals(T, std::move(Quals));
}

TypePtr Type::withQuals(const TypePtr &T, std::vector<std::string> Quals) {
  normalizeQuals(Quals);
  if (Quals == T->Quals)
    return T;
  const TypePtr &Base = T->Quals.empty() ? T : T->Unqualified;
  if (Quals.empty())
    return Base;
  auto *N = new Type(*Base);
  N->Quals = std::move(Quals);
  N->Unqualified = Base;
  return TypePtr(N);
}

TypePtr Type::withoutQuals(const TypePtr &T) {
  return T->Quals.empty() ? T : T->Unqualified;
}

TypePtr Type::withoutQualsIn(const TypePtr &T,
                             const std::vector<std::string> &Drop) {
  auto Dropped = [&](const std::string &Q) {
    return std::find(Drop.begin(), Drop.end(), Q) != Drop.end();
  };
  if (std::none_of(T->Quals.begin(), T->Quals.end(), Dropped))
    return T;
  std::vector<std::string> Kept;
  for (const std::string &Q : T->Quals)
    if (!Dropped(Q))
      Kept.push_back(Q);
  return withQuals(T, std::move(Kept));
}

TypePtr Type::deepUnqualified(const TypePtr &T) {
  TypePtr Stripped = withoutQuals(T);
  switch (T->getKind()) {
  case Kind::Pointer: {
    TypePtr Pointee = deepUnqualified(T->pointee());
    if (Pointee.get() == T->pointee().get())
      return Stripped;
    return getPointer(std::move(Pointee));
  }
  case Kind::Function: {
    std::vector<TypePtr> Params;
    Params.reserve(T->paramTypes().size());
    for (const TypePtr &P : T->paramTypes())
      Params.push_back(deepUnqualified(P));
    return getFunction(deepUnqualified(T->returnType()), std::move(Params),
                       T->isVariadic());
  }
  default:
    return Stripped;
  }
}

bool Type::equals(const TypePtr &A, const TypePtr &B) {
  if (A.get() == B.get())
    return true;
  if (A->K != B->K || A->Quals != B->Quals)
    return false;
  switch (A->K) {
  case Kind::Void:
  case Kind::Int:
  case Kind::Char:
    return true;
  case Kind::Pointer:
    return equals(A->Pointee, B->Pointee);
  case Kind::Struct:
    return A->StructName == B->StructName;
  case Kind::Function: {
    if (A->Variadic != B->Variadic || A->Params.size() != B->Params.size())
      return false;
    if (!equals(A->Ret, B->Ret))
      return false;
    for (size_t I = 0; I < A->Params.size(); ++I)
      if (!equals(A->Params[I], B->Params[I]))
        return false;
    return true;
  }
  }
  return false;
}

bool Type::equalsIgnoringQuals(const TypePtr &A, const TypePtr &B) {
  if (A.get() == B.get())
    return true;
  if (A->K != B->K)
    return false;
  switch (A->K) {
  case Kind::Void:
  case Kind::Int:
  case Kind::Char:
    return true;
  case Kind::Pointer:
    return equalsIgnoringQuals(A->Pointee, B->Pointee);
  case Kind::Struct:
    return A->StructName == B->StructName;
  case Kind::Function: {
    if (A->Variadic != B->Variadic || A->Params.size() != B->Params.size())
      return false;
    if (!equalsIgnoringQuals(A->Ret, B->Ret))
      return false;
    for (size_t I = 0; I < A->Params.size(); ++I)
      if (!equalsIgnoringQuals(A->Params[I], B->Params[I]))
        return false;
    return true;
  }
  }
  return false;
}

bool Type::equalsIgnoringTopQuals(const TypePtr &A, const TypePtr &B) {
  return equals(withoutQuals(A), withoutQuals(B));
}

bool Type::isSubtypeOf(const TypePtr &A, const TypePtr &B) {
  if (!equalsIgnoringTopQuals(A, B))
    return false;
  // A's qualifier set must include B's (tau q <= tau, transitively).
  return std::includes(A->Quals.begin(), A->Quals.end(), B->Quals.begin(),
                       B->Quals.end());
}

std::string Type::str() const {
  std::string Out;
  switch (K) {
  case Kind::Void:
    Out = "void";
    break;
  case Kind::Int:
    Out = "int";
    break;
  case Kind::Char:
    Out = "char";
    break;
  case Kind::Struct:
    Out = "struct " + StructName;
    break;
  case Kind::Pointer:
    Out = Pointee->str() + "*";
    break;
  case Kind::Function: {
    Out = Ret->str() + " (";
    for (size_t I = 0; I < Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Params[I]->str();
    }
    if (Variadic)
      Out += Params.empty() ? "..." : ", ...";
    Out += ")";
    break;
  }
  }
  for (const std::string &Q : Quals) {
    Out += " ";
    Out += Q;
  }
  return Out;
}
