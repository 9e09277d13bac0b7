//===- QualAST.cpp --------------------------------------------------------===//

#include "qual/QualAST.h"

#include "cminus/Type.h"

using namespace stq;
using namespace stq::qual;
using cminus::Type;
using cminus::TypePtr;

const char *stq::qual::classifierName(Classifier C) {
  switch (C) {
  case Classifier::Expr:
    return "Expr";
  case Classifier::Const:
    return "Const";
  case Classifier::LValue:
    return "LValue";
  case Classifier::Var:
    return "Var";
  }
  return "?";
}

bool TypePattern::matches(TypePtr Ty) const {
  TypePtr Bare = Type::withoutQuals(Ty);
  switch (K) {
  case Kind::Any:
    return true;
  case Kind::Int:
    return Bare->isInt();
  case Kind::Char:
    return Bare->isChar();
  case Kind::Pointer:
    return Bare->isPointer() && Pointee->matches(Bare->pointee());
  }
  return false;
}

std::string TypePattern::str() const {
  switch (K) {
  case Kind::Any:
    return "T";
  case Kind::Int:
    return "int";
  case Kind::Char:
    return "char";
  case Kind::Pointer:
    return Pointee->str() + "*";
  }
  return "?";
}

std::string ExprPattern::str() const {
  switch (K) {
  case Kind::Var:
    return X;
  case Kind::Deref:
    return "*" + X;
  case Kind::AddrOf:
    return "&" + X;
  case Kind::New:
    return "new";
  case Kind::Null:
    return "NULL";
  case Kind::Unary:
    return std::string(cminus::unaryOpSpelling(Uop)) + X;
  case Kind::Binary:
    return X + " " + cminus::binaryOpSpelling(Bop) + " " + Y;
  }
  return "?";
}

static std::string termStr(const Pred::Term &T) {
  switch (T.K) {
  case Pred::Term::Kind::Var:
    return T.Var;
  case Pred::Term::Kind::Int:
    return std::to_string(T.Int);
  case Pred::Term::Kind::Null:
    return "NULL";
  }
  return "?";
}

std::string Pred::str() const {
  switch (K) {
  case Kind::True:
    return "true";
  case Kind::And:
    return "(" + LHS->str() + " && " + RHS->str() + ")";
  case Kind::Or:
    return "(" + LHS->str() + " || " + RHS->str() + ")";
  case Kind::QualCheck:
    return Qual + "(" + Var + ")";
  case Kind::Compare:
    return termStr(A) + " " + cminus::binaryOpSpelling(CmpOp) + " " +
           termStr(B);
  }
  return "?";
}

const VarPatternDecl *Clause::findDecl(const std::string &Name) const {
  for (const VarPatternDecl &D : Decls)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

std::string InvTerm::str() const {
  switch (K) {
  case Kind::ValueOf:
    return "value(" + Var + ")";
  case Kind::LocationOf:
    return "location(" + Var + ")";
  case Kind::Deref:
    return "*" + Var;
  case Kind::VarRef:
    return Var;
  case Kind::Int:
    return std::to_string(Int);
  case Kind::Null:
    return "NULL";
  }
  return "?";
}

std::string InvPred::str() const {
  switch (K) {
  case Kind::Compare:
    return A.str() + " " + cminus::binaryOpSpelling(CmpOp) + " " + B.str();
  case Kind::IsHeapLoc:
    return "isHeapLoc(" + A.str() + ")";
  case Kind::And:
    return "(" + LHS->str() + " && " + RHS->str() + ")";
  case Kind::Or:
    return "(" + LHS->str() + " || " + RHS->str() + ")";
  case Kind::Implies:
    return "(" + LHS->str() + " => " + RHS->str() + ")";
  case Kind::Forall:
    return "forall " + ForallTy.str() + " " + ForallVar + ": " + Body->str();
  }
  return "?";
}

namespace {

/// Compiles clause \p C against \p Set (Clause::XSlot and the rest). Slot
/// 0 holds \p Subject in case clauses (null elsewhere), 1 the pattern's X
/// and 2 its Y; a name used twice keeps its first slot.
class ClauseCompiler {
public:
  ClauseCompiler(Clause &C, const std::string *Subject,
                 const QualifierSet &Set)
      : C(C), Set(Set) {
    Names[0] = Subject;
  }

  void run() {
    const ExprPattern &P = C.Pattern;
    for (SlotDecl &S : C.Slots)
      S = SlotDecl();
    bool HasX = P.K != ExprPattern::Kind::New &&
                P.K != ExprPattern::Kind::Null;
    C.XSlot = HasX ? bind(P.X, 1) : NoSlot;
    C.YSlot = P.K == ExprPattern::Kind::Binary ? bind(P.Y, 2) : NoSlot;
    C.WhereCode.clear();
    emit(C.Where);
  }

private:
  uint8_t slotOf(const std::string &Name) const {
    for (uint8_t S = 0; S < NumSlots; ++S)
      if (Names[S] && *Names[S] == Name)
        return S;
    return NoSlot;
  }

  uint8_t bind(const std::string &Name, uint8_t Fresh) {
    if (uint8_t S = slotOf(Name); S != NoSlot)
      return S;
    Names[Fresh] = &Name;
    if (const VarPatternDecl *D = C.findDecl(Name))
      C.Slots[Fresh] = SlotDecl{true, D->Cls, D->Ty};
    return Fresh;
  }

  SlotPred::Term term(const Pred::Term &T) const {
    return {T.K, T.K == Pred::Term::Kind::Var ? slotOf(T.Var) : NoSlot,
            T.Int};
  }

  void emit(const Pred &P) {
    size_t At = C.WhereCode.size();
    C.WhereCode.emplace_back();
    C.WhereCode[At].K = P.K;
    switch (P.K) {
    case Pred::Kind::True:
      return;
    case Pred::Kind::And:
    case Pred::Kind::Or:
      emit(*P.LHS);
      C.WhereCode[At].RHS = static_cast<uint32_t>(C.WhereCode.size());
      emit(*P.RHS);
      return;
    case Pred::Kind::QualCheck:
      C.WhereCode[At].Slot = slotOf(P.Var);
      C.WhereCode[At].Qual = Set.indexOf(P.Qual);
      return;
    case Pred::Kind::Compare:
      C.WhereCode[At].CmpOp = P.CmpOp;
      C.WhereCode[At].A = term(P.A);
      C.WhereCode[At].B = term(P.B);
      return;
    }
  }

  Clause &C;
  const QualifierSet &Set;
  const std::string *Names[NumSlots] = {};
};

bool hasUnresolvedCheck(const Clause &C) {
  for (const SlotPred &P : C.WhereCode)
    if (P.K == Pred::Kind::QualCheck && P.Qual == NoQual)
      return true;
  return false;
}

} // namespace

void QualifierSet::add(QualifierDef Def) {
  Defs.push_back(std::move(Def));
  // Compile the new definition, and recompile each earlier clause whose
  // `where` names a qualifier that was missing (possibly this one: pos
  // names neg before neg loads).
  for (QualifierDef &D : Defs) {
    bool New = &D == &Defs.back();
    for (Clause &C : D.Cases)
      if (New || hasUnresolvedCheck(C))
        ClauseCompiler(C, &D.SubjectVar, *this).run();
    for (std::vector<Clause> *Block : {&D.Restricts, &D.Assigns})
      for (Clause &C : *Block)
        if (New || hasUnresolvedCheck(C))
          ClauseCompiler(C, nullptr, *this).run();
  }
}

uint32_t QualifierSet::indexOf(std::string_view Name) const {
  for (size_t I = 0; I < Defs.size(); ++I)
    if (Defs[I].Name == Name)
      return static_cast<uint32_t>(I);
  return NoQual;
}

const QualifierDef *QualifierSet::find(const std::string &Name) const {
  uint32_t I = indexOf(Name);
  return I == NoQual ? nullptr : &Defs[I];
}

std::vector<std::string> QualifierSet::names() const {
  std::vector<std::string> Out;
  Out.reserve(Defs.size());
  for (const QualifierDef &D : Defs)
    Out.push_back(D.Name);
  return Out;
}

std::vector<std::string> QualifierSet::refNames() const {
  std::vector<std::string> Out;
  for (const QualifierDef &D : Defs)
    if (D.IsRef)
      Out.push_back(D.Name);
  return Out;
}
