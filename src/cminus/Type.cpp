//===- Type.cpp -----------------------------------------------------------===//

#include "cminus/Type.h"

#include "cminus/AST.h"

#include <algorithm>
#include <cassert>

using namespace stq::cminus;

namespace {
/// The qualifier set of every unqualified type, in every context.
const std::vector<std::string> NoQuals;

bool sameQuals(TypePtr A, TypePtr B) {
  return &A->quals() == &B->quals() || A->quals() == B->quals();
}
} // namespace

Type::Type(Kind K) : K(K), Quals(&NoQuals) {}

bool Type::hasQual(std::string_view Q) const {
  return std::binary_search(Quals->begin(), Quals->end(), Q);
}

//===----------------------------------------------------------------------===//
// Construction (ASTContext)
//===----------------------------------------------------------------------===//

ASTContext::ASTContext()
    : Void(newType(Type::Kind::Void)), Int(newType(Type::Kind::Int)),
      Char(newType(Type::Kind::Char)) {}

Type *ASTContext::newType(Type::Kind K) {
  return new (Arena.allocate(sizeof(Type), alignof(Type))) Type(K);
}

Type *ASTContext::newType(const Type &Copy) {
  return new (Arena.allocate(sizeof(Type), alignof(Type))) Type(Copy);
}

TypePtr ASTContext::getPointer(TypePtr Pointee) {
  assert(Pointee && "pointer to null type");
  TypePtr &Slot = PointerTypes[Pointee];
  if (!Slot) {
    Type *T = newType(Type::Kind::Pointer);
    T->Pointee = Pointee;
    Slot = T;
  }
  return Slot;
}

TypePtr ASTContext::getStruct(std::string_view Name) {
  auto It = StructTypes.find(Name);
  if (It != StructTypes.end())
    return It->second;
  Type *T = newType(Type::Kind::Struct);
  T->StructName = copyString(Name);
  StructTypes.emplace(T->StructName, T);
  return T;
}

TypePtr ASTContext::getFunction(TypePtr Ret,
                                const std::vector<TypePtr> &Params,
                                bool Variadic) {
  Type *T = newType(Type::Kind::Function);
  T->Ret = Ret;
  T->Params = list(Params);
  T->Variadic = Variadic;
  return T;
}

TypePtr ASTContext::withQual(TypePtr T, std::string_view Qual) {
  if (T->hasQual(Qual))
    return T;
  auto It = AddedQual.find({T, Qual});
  if (It != AddedQual.end())
    return It->second;
  std::vector<std::string> Quals = T->quals();
  Quals.emplace_back(Qual);
  TypePtr R = withQuals(T, std::move(Quals));
  // Key the entry by the interned copy of the name, which R's set holds.
  const std::vector<std::string> &Interned = R->quals();
  auto Name = std::lower_bound(Interned.begin(), Interned.end(), Qual);
  AddedQual.emplace(std::make_pair(T, std::string_view(*Name)), R);
  return R;
}

TypePtr ASTContext::withQuals(TypePtr T, std::vector<std::string> Quals) {
  std::sort(Quals.begin(), Quals.end());
  Quals.erase(std::unique(Quals.begin(), Quals.end()), Quals.end());
  if (Quals == T->quals())
    return T;
  TypePtr Base = Type::withoutQuals(T);
  if (Quals.empty())
    return Base;
  const std::vector<std::string> *Set =
      &*QualSets.insert(std::move(Quals)).first;
  TypePtr &Slot = QualifiedTypes[{Base, Set}];
  if (!Slot) {
    Type *N = newType(*Base);
    N->Quals = Set;
    N->Unqualified = Base;
    Slot = N;
  }
  return Slot;
}

TypePtr ASTContext::withoutQualsIn(TypePtr T,
                                   const std::vector<std::string> &Drop) {
  auto Dropped = [&](const std::string &Q) {
    return std::find(Drop.begin(), Drop.end(), Q) != Drop.end();
  };
  if (std::none_of(T->quals().begin(), T->quals().end(), Dropped))
    return T;
  std::vector<std::string> Kept;
  for (const std::string &Q : T->quals())
    if (!Dropped(Q))
      Kept.push_back(Q);
  return withQuals(T, std::move(Kept));
}

//===----------------------------------------------------------------------===//
// Comparison and rendering
//===----------------------------------------------------------------------===//

bool Type::equals(TypePtr A, TypePtr B) {
  if (A == B)
    return true;
  if (A->K != B->K || !sameQuals(A, B))
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

bool Type::equalsIgnoringQuals(TypePtr A, TypePtr B) {
  if (A == B)
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

bool Type::equalsIgnoringTopQuals(TypePtr A, TypePtr B) {
  return equals(withoutQuals(A), withoutQuals(B));
}

bool Type::isSubtypeOf(TypePtr A, TypePtr B) {
  if (!equalsIgnoringTopQuals(A, B))
    return false;
  // A's qualifier set must include B's (tau q <= tau, transitively).
  return std::includes(A->Quals->begin(), A->Quals->end(), B->Quals->begin(),
                       B->Quals->end());
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
    Out = "struct ";
    Out += StructName;
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
  for (const std::string &Q : *Quals) {
    Out += " ";
    Out += Q;
  }
  return Out;
}
