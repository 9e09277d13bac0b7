//===- Checker.cpp --------------------------------------------------------===//

#include "checker/Checker.h"

#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace stq;
using namespace stq::checker;
using namespace stq::cminus;
using qual::Classifier;
using qual::Clause;
using qual::ExprPattern;
using qual::Pred;
using qual::QualifierDef;

QualChecker::QualChecker(Program &Prog, const qual::QualifierSet &Quals,
                         DiagnosticEngine &Diags, CheckerOptions Options)
    : Prog(Prog), Quals(Quals), Diags(Diags), Options(Options) {}

void QualChecker::warn(SourceLoc Loc, const std::string &Message) {
  // The paper's implementation reports qualifier errors as warnings and
  // lets compilation continue.
  Diags.warning(Loc, "qualcheck", Message);
  ++Result.QualErrors;
}

//===----------------------------------------------------------------------===//
// hasQualifier
//===----------------------------------------------------------------------===//

QualChecker::QueryTable::State &QualChecker::QueryTable::at(unsigned Id,
                                                           uint32_t Qual) {
  if ((Used + 1) * 4 > Capacity * 3)
    grow();
  Entry *Entries = entries();
  size_t Mask = Capacity - 1;
  for (size_t I = (Id * 0x9E3779B1u + Qual * 0x85EBCA6Bu) & Mask;;
       I = (I + 1) & Mask) {
    Entry &En = Entries[I];
    if (En.S == State::Empty) {
      En = {Id, Qual, State::Unstored};
      ++Used;
      return En.S;
    }
    if (En.Id == Id && En.Qual == Qual)
      return En.S;
  }
}

void QualChecker::QueryTable::grow() {
  std::vector<Entry> Old(entries(), entries() + Capacity);
  Capacity *= 2;
  Heap.assign(Capacity, Entry());
  Used = 0;
  for (const Entry &En : Old)
    if (En.S != State::Empty)
      at(En.Id, En.Qual) = En.S;
}

bool QualChecker::hasQualifier(const Expr *E, const std::string &QualName) {
  return derive(E, Quals.indexOf(QualName));
}

bool QualChecker::hasQualifier(const Expr *E, const QualifierDef *Q) {
  assert((!Q || (Q >= Quals.all().data() &&
                 Q < Quals.all().data() + Quals.all().size())) &&
         "qualifier from another set");
  return derive(E, Q ? static_cast<uint32_t>(Q - Quals.all().data())
                     : qual::NoQual);
}

bool QualChecker::derive(const Expr *E, uint32_t QI) {
  ++Result.Stats.HasQualQueries;
  if (QI == qual::NoQual || !E->Ty)
    return false;
  const QualifierDef &Q = Quals.all()[QI];
  if (Options.AssumedCasts) {
    auto Assumed = Options.AssumedCasts->find(E->Id);
    if (Assumed != Options.AssumedCasts->end())
      for (const std::string &Name : Assumed->second)
        if (Name == Q.Name)
          return true;
  }
  if (Options.AssumedVarQuals) {
    if (const auto *Read = dyn_cast<LValReadExpr>(E)) {
      if (Read->LV->isBareVar()) {
        auto Found = Options.AssumedVarQuals->find(Read->LV->Var);
        if (Found != Options.AssumedVarQuals->end() &&
            Found->second.count(Q.Name))
          return true;
      }
    }
  }
  // Flow-sensitive narrowing: the guarding condition verified the
  // invariant for this variable. Pointer arithmetic keeps the narrowed
  // qualifier (the logical memory model: p+i has p's type).
  if (Options.FlowSensitiveNarrowing && !Narrowed.empty()) {
    const Expr *Root = E;
    while (true) {
      if (const auto *Bin = dyn_cast<BinaryExpr>(Root)) {
        if ((Bin->Op == BinaryOp::Add || Bin->Op == BinaryOp::Sub) &&
            Bin->LHS->Ty && Bin->LHS->Ty->isPointer()) {
          Root = Bin->LHS;
          continue;
        }
        if (Bin->Op == BinaryOp::Add && Bin->RHS->Ty &&
            Bin->RHS->Ty->isPointer()) {
          Root = Bin->RHS;
          continue;
        }
      }
      break;
    }
    if (const auto *Read = dyn_cast<LValReadExpr>(Root)) {
      if (Read->LV->isBareVar()) {
        auto Found = Narrowed.find(Read->LV->Var);
        if (Found != Narrowed.end() && Found->second.count(Q.Name))
          return true;
      }
    }
  }
  // Declared/static types carry value qualifiers directly (variable
  // declarations, function returns, casts, pointer arithmetic under the
  // logical memory model).
  if (E->Ty->hasQual(Q.Name))
    return true;
  if (Q.IsRef)
    return false; // Reference qualifiers never attach to r-types.
  if (!Q.SubjectTy.matches(E->Ty))
    return false;
  if (Q.Cases.empty())
    return false;

  using State = QueryTable::State;
  State &Before = Queries.at(E->Id, QI);
  if (Before == State::True || Before == State::False) {
    ++Result.Stats.MemoHits;
    return Before == State::True;
  }
  if (Before == State::InProgress) {
    // A derivation may not depend on itself (least fixpoint).
    TouchedInProgress = true;
    return false;
  }
  Before = State::InProgress;
  bool SavedTouched = TouchedInProgress;
  TouchedInProgress = false;

  bool Derivable = false;
  for (const Clause &C : Q.Cases) {
    Bindings B;
    if (matchExprPattern(C, /*BindSubject=*/true, E, B) && evalPred(C, 0, B)) {
      Derivable = true;
      break;
    }
  }

  // The derivation may have grown the table: look the entry up again.
  // Results that consulted an in-progress query hold only in this
  // derivation context; do not cache them.
  Queries.at(E->Id, QI) = TouchedInProgress ? State::Unstored
                          : Derivable       ? State::True
                                            : State::False;
  TouchedInProgress = TouchedInProgress || SavedTouched;
  return Derivable;
}

//===----------------------------------------------------------------------===//
// Pattern matching
//===----------------------------------------------------------------------===//

bool QualChecker::bindVar(const Clause &C, uint8_t S, const Expr *E,
                          Bindings &Out) {
  if (Out[S].bound())
    return Out[S].E == E; // Nonlinear patterns require the same node.
  const qual::SlotDecl &D = C.Slots[S];
  if (D.Declared) {
    switch (D.Cls) {
    case Classifier::Expr:
      break;
    case Classifier::Const:
      if (!isa<IntConstExpr>(E) && !isa<StrConstExpr>(E) &&
          !isa<NullConstExpr>(E))
        return false;
      break;
    case Classifier::LValue:
      if (!isa<LValReadExpr>(E))
        return false;
      break;
    case Classifier::Var:
      if (const auto *Read = dyn_cast<LValReadExpr>(E)) {
        if (!Read->LV->isBareVar())
          return false;
      } else {
        return false;
      }
      break;
    }
    if (E->Ty && !D.Ty.matches(E->Ty))
      return false;
  }
  // An undeclared name (the subject) binds anything; its type was checked
  // before matching began.
  Out[S].E = E;
  return true;
}

bool QualChecker::bindLValue(const Clause &C, uint8_t S, const LValue *LV,
                             Bindings &Out) {
  if (Out[S].bound())
    return Out[S].LV == LV;
  const qual::SlotDecl &D = C.Slots[S];
  if (!D.Declared)
    return false;
  if (D.Cls == Classifier::Var && !LV->isBareVar())
    return false;
  if (D.Cls != Classifier::Var && D.Cls != Classifier::LValue)
    return false;
  if (LV->Ty && !D.Ty.matches(LV->Ty))
    return false;
  Out[S].LV = LV;
  return true;
}

bool QualChecker::matchExprPattern(const Clause &C, bool BindSubject,
                                   const Expr *E, Bindings &Out) {
  const ExprPattern &P = C.Pattern;
  // Bind the subject first so `case E of E` (tainted) matches anything.
  if (BindSubject)
    Out[0].E = E;
  switch (P.K) {
  case ExprPattern::Kind::Var:
    return bindVar(C, C.XSlot, E, Out);
  case ExprPattern::Kind::Deref: {
    const auto *Read = dyn_cast<LValReadExpr>(E);
    if (!Read || !Read->LV->isMem() || !Read->LV->Fields.empty())
      return false;
    return bindVar(C, C.XSlot, Read->LV->Addr, Out);
  }
  case ExprPattern::Kind::AddrOf: {
    const auto *Addr = dyn_cast<AddrOfExpr>(E);
    if (!Addr)
      return false;
    return bindLValue(C, C.XSlot, Addr->LV, Out);
  }
  case ExprPattern::Kind::Unary: {
    const auto *Un = dyn_cast<UnaryExpr>(E);
    if (!Un || Un->Op != P.Uop)
      return false;
    return bindVar(C, C.XSlot, Un->Sub, Out);
  }
  case ExprPattern::Kind::Binary: {
    const auto *Bin = dyn_cast<BinaryExpr>(E);
    if (!Bin || Bin->Op != P.Bop)
      return false;
    return bindVar(C, C.XSlot, Bin->LHS, Out) &&
           bindVar(C, C.YSlot, Bin->RHS, Out);
  }
  case ExprPattern::Kind::New:
  case ExprPattern::Kind::Null:
    return false; // Only meaningful in assign blocks.
  }
  return false;
}

bool QualChecker::matchAssignPattern(const Clause &C, const Expr *E,
                                     Bindings &Out) {
  switch (C.Pattern.K) {
  case ExprPattern::Kind::Null:
    return isa<NullConstExpr>(E);
  case ExprPattern::Kind::New: {
    const CallExpr *Call = getDirectCall(E);
    return Call && Call->IsAlloc;
  }
  default:
    // The subject (the assigned l-value) is not an expression binding here.
    return matchExprPattern(C, /*BindSubject=*/false, E, Out);
  }
}

namespace {

/// A comparison operand value: an integer or NULL.
struct TermValue {
  bool IsNull = false;
  int64_t Int = 0;
  bool Valid = false;
};

} // namespace

bool QualChecker::evalPred(const Clause &C, uint32_t I, const Bindings &B) {
  const qual::SlotPred &P = C.WhereCode[I];
  switch (P.K) {
  case Pred::Kind::True:
    return true;
  case Pred::Kind::And:
    return evalPred(C, I + 1, B) && evalPred(C, P.RHS, B);
  case Pred::Kind::Or:
    return evalPred(C, I + 1, B) || evalPred(C, P.RHS, B);
  case Pred::Kind::QualCheck:
    if (P.Slot == qual::NoSlot || !B[P.Slot].E)
      return false;
    return derive(B[P.Slot].E, P.Qual);
  case Pred::Kind::Compare: {
    auto Eval = [&](const qual::SlotPred::Term &T) -> TermValue {
      TermValue V;
      switch (T.K) {
      case Pred::Term::Kind::Int:
        V.Int = T.Int;
        V.Valid = true;
        return V;
      case Pred::Term::Kind::Null:
        V.IsNull = true;
        V.Valid = true;
        return V;
      case Pred::Term::Kind::Var: {
        const Expr *Bound = T.Slot == qual::NoSlot ? nullptr : B[T.Slot].E;
        if (!Bound)
          return V;
        if (const auto *IC = dyn_cast<IntConstExpr>(Bound)) {
          V.Int = IC->Value;
          V.Valid = true;
        } else if (isa<NullConstExpr>(Bound)) {
          V.IsNull = true;
          V.Valid = true;
        }
        return V;
      }
      }
      return V;
    };
    TermValue A = Eval(P.A), Bv = Eval(P.B);
    if (!A.Valid || !Bv.Valid)
      return false;
    if (A.IsNull || Bv.IsNull) {
      bool BothNull = A.IsNull && Bv.IsNull;
      if (P.CmpOp == BinaryOp::Eq)
        return BothNull;
      if (P.CmpOp == BinaryOp::Ne)
        return !BothNull;
      return false;
    }
    switch (P.CmpOp) {
    case BinaryOp::Eq:
      return A.Int == Bv.Int;
    case BinaryOp::Ne:
      return A.Int != Bv.Int;
    case BinaryOp::Lt:
      return A.Int < Bv.Int;
    case BinaryOp::Le:
      return A.Int <= Bv.Int;
    case BinaryOp::Gt:
      return A.Int > Bv.Int;
    case BinaryOp::Ge:
      return A.Int >= Bv.Int;
    default:
      return false;
    }
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Assignments
//===----------------------------------------------------------------------===//

std::string QualChecker::FlowSite::str() const {
  switch (K) {
  case Kind::Init:
    return "initialization of '" + std::string(Name) + "'";
  case Kind::GlobalInit:
    return "initialization of global '" + std::string(Name) + "'";
  case Kind::Assign:
    return "assignment to '" + printLValue(Target) + "'";
  case Kind::Arg:
    return "argument " + std::to_string(Arg + 1) + " of call to '" +
           std::string(Name) + "'";
  case Kind::Return:
    return "return from '" + std::string(Name) + "'";
  }
  return "?";
}

std::vector<const QualifierDef *>
QualChecker::refQualsOn(TypePtr Ty) const {
  std::vector<const QualifierDef *> Out;
  for (const std::string &Name : Ty->quals())
    if (const QualifierDef *Q = Quals.find(Name))
      if (Q->IsRef)
        Out.push_back(Q);
  return Out;
}

void QualChecker::checkAssignmentTo(TypePtr DstTy, const Expr *RHS,
                                    SourceLoc Loc, const FlowSite &Site,
                                    const VarDecl *TargetVar) {
  for (const QualifierDef *Q : refQualsOn(DstTy))
    checkRefAssign(Q, RHS, Loc, Site, TargetVar);
  checkValueQualFlow(DstTy, RHS, Loc, Site, TargetVar);
}

void QualChecker::checkValueQualFlow(TypePtr DstTy, const Expr *RHS,
                                     SourceLoc Loc, const FlowSite &Site,
                                     const VarDecl *TargetVar) {
  TypePtr RHSTy = RHS->Ty;
  // Nested qualifier sets must agree exactly: there is no subtyping under
  // pointers (section 2.1.2). NULL and void* conversions are exempt.
  if (!isa<NullConstExpr>(RHS) && RHSTy && RHSTy->isPointer() &&
      DstTy->isPointer() && !RHSTy->pointee()->isVoid() &&
      !DstTy->pointee()->isVoid() &&
      !Type::equals(RHSTy->pointee(), DstTy->pointee())) {
    warn(Loc, "qualifier mismatch below pointer type in " + Site.str() +
                  ": cannot use '" + RHSTy->str() + "' as '" + DstTy->str() +
                  "' (no subtyping under pointers)");
    return;
  }
  for (const std::string &Name : DstTy->quals()) {
    uint32_t QI = Quals.indexOf(Name);
    if (QI == qual::NoQual || Quals.all()[QI].IsRef)
      continue;
    ++Result.Stats.AssignChecks;
    if (!derive(RHS, QI)) {
      ++Result.Stats.AssignFailures;
      Result.Failures.push_back(
          {QualFailure::Kind::Assign, Name, Loc, RHS, TargetVar});
      warn(Loc, "cannot derive qualifier '" + Name + "' for '" +
                    printExpr(RHS) + "' in " + Site.str());
    }
  }
}

void QualChecker::checkRefAssign(const QualifierDef *Q, const Expr *RHS,
                                 SourceLoc Loc, const FlowSite &Site,
                                 const VarDecl *TargetVar) {
  ++Result.Stats.RefAssignChecks;
  // A cast to a Q-qualified type is an unchecked escape hatch, as with
  // traditional C casts (section 2.2.3: reference-qualifier casts are not
  // instrumented).
  if (const auto *Cast_ = dyn_cast<CastExpr>(RHS))
    if (Cast_->Target->hasQual(Q->Name))
      return;
  // Without an assign block, assignments are unrestricted (e.g. unaliased:
  // the qualifier is a property of the address only).
  if (Q->Assigns.empty())
    return;
  for (const Clause &C : Q->Assigns) {
    Bindings B;
    if (matchAssignPattern(C, RHS, B) && evalPred(C, 0, B))
      return;
  }
  ++Result.Stats.RefAssignFailures;
  Result.Failures.push_back(
      {QualFailure::Kind::RefAssign, Q->Name, Loc, RHS, TargetVar});
  warn(Loc, "assignment to '" + Q->Name + "' l-value in " + Site.str() +
                " does not match any assign rule of '" + Q->Name +
                "' (rhs: " + printExpr(RHS) + ")");
}

//===----------------------------------------------------------------------===//
// Restrict clauses
//===----------------------------------------------------------------------===//

void QualChecker::runRestrictClause(const QualifierDef *Q, const Clause &C,
                                    Bindings &B, SourceLoc Loc,
                                    const Expr *Site, bool Deref) {
  ++Result.Stats.RestrictChecks;
  if (evalPred(C, 0, B))
    return;
  ++Result.Stats.RestrictFailures;
  const Expr *Offending = C.XSlot == qual::NoSlot ? nullptr : B[C.XSlot].E;
  Result.Failures.push_back(
      {QualFailure::Kind::Restrict, Q->Name, Loc, Offending, nullptr});
  std::string SiteText = Deref ? "dereference of '" + printExpr(Site) + "'"
                               : "'" + printExpr(Site) + "'";
  warn(Loc, "restrict rule of qualifier '" + Q->Name + "' violated at " +
                SiteText + " (requires " + C.Where.str() + ")");
}

void QualChecker::applyRestrictsToDeref(const LValue *LV) {
  ++Result.Stats.DerefSites;
  for (const QualifierDef &Q : Quals.all()) {
    for (const Clause &C : Q.Restricts) {
      if (C.Pattern.K != ExprPattern::Kind::Deref)
        continue;
      Bindings B;
      if (!bindVar(C, C.XSlot, LV->Addr, B))
        continue;
      runRestrictClause(&Q, C, B, LV->Loc, LV->Addr, /*Deref=*/true);
    }
  }
}

void QualChecker::applyRestrictsToExpr(const Expr *E) {
  for (const QualifierDef &Q : Quals.all()) {
    for (const Clause &C : Q.Restricts) {
      if (C.Pattern.K == ExprPattern::Kind::Deref)
        continue; // Handled at dereference sites.
      Bindings B;
      if (!matchExprPattern(C, /*BindSubject=*/false, E, B))
        continue;
      runRestrictClause(&Q, C, B, E->Loc, E, /*Deref=*/false);
    }
  }
}

//===----------------------------------------------------------------------===//
// Casts
//===----------------------------------------------------------------------===//

void QualChecker::recordCast(const CastExpr *Cast) {
  if (!RecordedCasts.insert(Cast).second)
    return;
  std::vector<std::string> ValueQuals;
  bool HasRefQual = false;
  for (const std::string &Name : Cast->Target->quals()) {
    const QualifierDef *Q = Quals.find(Name);
    if (!Q)
      continue;
    if (Q->IsRef) {
      HasRefQual = true;
      continue;
    }
    ValueQuals.push_back(Name);
  }
  if (HasRefQual)
    ++Result.Stats.CastsToRefQualified;
  if (ValueQuals.empty())
    return;
  ++Result.Stats.CastsToValueQualified;

  RuntimeCastCheck Check;
  Check.Cast = Cast;
  for (const std::string &Name : ValueQuals) {
    if (derive(Cast->Sub, Quals.indexOf(Name))) {
      ++Result.Stats.ElidedCastChecks;
      continue;
    }
    Check.Quals.push_back(Name);
  }
  if (!Check.Quals.empty())
    Result.RuntimeChecks.push_back(std::move(Check));
}

//===----------------------------------------------------------------------===//
// Traversal
//===----------------------------------------------------------------------===//

void QualChecker::scanLValue(const LValue *LV, bool IsWrite,
                             bool GrantDerefExemption) {
  (void)IsWrite;
  if (LV->isMem()) {
    applyRestrictsToDeref(LV);
    scanExpr(LV->Addr, /*InMemAddr=*/GrantDerefExemption);
  }
}

void QualChecker::scanExpr(const Expr *E, bool InMemAddr) {
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::StrConst:
  case Expr::Kind::NullConst:
  case Expr::Kind::SizeofType:
    break;
  case Expr::Kind::LValRead: {
    const auto *Read = cast<LValReadExpr>(E);
    if (!InMemAddr && Read->LV->Ty) {
      for (const QualifierDef *Q : refQualsOn(Read->LV->Ty)) {
        if (Q->DisallowRead) {
          ++Result.Stats.DisallowFailures;
          Result.Failures.push_back({QualFailure::Kind::Disallow, Q->Name,
                                     E->Loc, E,
                                     Read->LV->isBareVar() ? Read->LV->Var
                                                           : nullptr});
          warn(E->Loc, "'" + printLValue(Read->LV) + "' has qualifier '" +
                           Q->Name +
                           "' and may not be referred to (disallow rule)");
        }
      }
    }
    scanLValue(Read->LV, /*IsWrite=*/false);
    break;
  }
  case Expr::Kind::AddrOf: {
    const auto *Addr = cast<AddrOfExpr>(E);
    if (Addr->LV->Ty) {
      for (const QualifierDef *Q : refQualsOn(Addr->LV->Ty)) {
        if (Q->DisallowAddrOf) {
          ++Result.Stats.DisallowFailures;
          Result.Failures.push_back({QualFailure::Kind::Disallow, Q->Name,
                                     E->Loc, E,
                                     Addr->LV->isBareVar() ? Addr->LV->Var
                                                           : nullptr});
          warn(E->Loc, "cannot take the address of '" +
                           printLValue(Addr->LV) + "': qualifier '" +
                           Q->Name + "' disallows it");
        }
      }
    }
    // Under '&' the deref exemption is revoked: &*p reproduces p's value,
    // which a disallow-read qualifier forbids.
    scanLValue(Addr->LV, /*IsWrite=*/false, /*GrantDerefExemption=*/false);
    break;
  }
  case Expr::Kind::Unary:
    scanExpr(cast<UnaryExpr>(E)->Sub, false);
    break;
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    // Pointer arithmetic forms part of a dereference address; reading a
    // disallow-read l-value is still permitted there.
    bool Propagate = InMemAddr && (Bin->Op == BinaryOp::Add ||
                                   Bin->Op == BinaryOp::Sub);
    scanExpr(Bin->LHS, Propagate);
    scanExpr(Bin->RHS, Propagate);
    break;
  }
  case Expr::Kind::Cast: {
    const auto *Cast_ = cast<CastExpr>(E);
    recordCast(Cast_);
    scanExpr(Cast_->Sub, InMemAddr);
    break;
  }
  case Expr::Kind::Call:
    // Calls appear only in direct-instruction positions; they are scanned
    // by scanCall.
    assert(false && "call in pure-expression position during scan");
    break;
  }
  applyRestrictsToExpr(E);
}

void QualChecker::scanCall(const CallExpr *Call) {
  for (const Expr *Arg : Call->Args)
    scanExpr(Arg, false);
  const FuncDecl *Callee = Call->Callee;
  if (!Callee)
    return;
  if (isUntaintedFormatFn(Callee))
    ++Result.Stats.FormatStringChecks;
  for (size_t I = 0; I < Call->Args.size() && I < Callee->Params.size(); ++I)
    checkAssignmentTo(Callee->Params[I]->DeclaredTy, Call->Args[I],
                      Call->Args[I]->Loc,
                      {FlowSite::Kind::Arg, Callee->Name, nullptr, I},
                      Callee->Params[I]);
}

void QualChecker::checkStmt(Stmt *S) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      checkStmt(Sub);
    return;
  case Stmt::Kind::Decl: {
    VarDecl *Var = cast<DeclStmt>(S)->Var;
    if (!Var->Init)
      return;
    if (const CallExpr *Call = getDirectCall(Var->Init)) {
      scanCall(Call);
      if (const auto *Cast_ = dyn_cast<CastExpr>(Var->Init))
        recordCast(Cast_);
    } else {
      scanExpr(Var->Init, false);
    }
    checkAssignmentTo(Var->DeclaredTy, Var->Init, Var->Loc,
                      {FlowSite::Kind::Init, Var->Name}, Var);
    return;
  }
  case Stmt::Kind::Assign: {
    auto *Assign = cast<AssignStmt>(S);
    scanLValue(Assign->LHS, /*IsWrite=*/true);
    if (const CallExpr *Call = getDirectCall(Assign->RHS)) {
      scanCall(Call);
      if (const auto *Cast_ = dyn_cast<CastExpr>(Assign->RHS))
        recordCast(Cast_);
    } else {
      scanExpr(Assign->RHS, false);
    }
    if (Assign->LHS->Ty)
      checkAssignmentTo(Assign->LHS->Ty, Assign->RHS, Assign->Loc,
                        {FlowSite::Kind::Assign, {}, Assign->LHS},
                        Assign->LHS->isBareVar() ? Assign->LHS->Var
                                                 : nullptr);
    return;
  }
  case Stmt::Kind::CallStmt:
    scanCall(cast<CallStmt>(S)->Call);
    return;
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    scanExpr(If->Cond, false);
    if (Options.FlowSensitiveNarrowing) {
      std::vector<std::pair<const VarDecl *, std::string>> ThenNar, ElseNar;
      narrowingsFrom(If->Cond, /*Sense=*/true, ThenNar);
      narrowingsFrom(If->Cond, /*Sense=*/false, ElseNar);
      checkNarrowed(If->Then, ThenNar);
      checkNarrowed(If->Else, ElseNar);
      return;
    }
    checkStmt(If->Then);
    checkStmt(If->Else);
    return;
  }
  case Stmt::Kind::While: {
    auto *While = cast<WhileStmt>(S);
    scanExpr(While->Cond, false);
    if (Options.FlowSensitiveNarrowing) {
      std::vector<std::pair<const VarDecl *, std::string>> BodyNar;
      narrowingsFrom(While->Cond, /*Sense=*/true, BodyNar);
      checkNarrowed(While->Body, BodyNar);
      return;
    }
    checkStmt(While->Body);
    return;
  }
  case Stmt::Kind::For: {
    auto *For = cast<ForStmt>(S);
    checkStmt(For->Init);
    if (For->Cond)
      scanExpr(For->Cond, false);
    checkStmt(For->Step);
    if (Options.FlowSensitiveNarrowing && For->Cond) {
      std::vector<std::pair<const VarDecl *, std::string>> BodyNar;
      narrowingsFrom(For->Cond, /*Sense=*/true, BodyNar);
      // The step runs inside the loop too; treat it as part of the body
      // for the conservative kill.
      checkNarrowed(For->Body, BodyNar);
      return;
    }
    checkStmt(For->Body);
    return;
  }
  case Stmt::Kind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    if (!Ret->Value)
      return;
    scanExpr(Ret->Value, false);
    assert(CurrentFn && "return outside function");
    if (!CurrentFn->RetTy->isVoid())
      checkAssignmentTo(CurrentFn->RetTy, Ret->Value, Ret->Loc,
                        {FlowSite::Kind::Return, CurrentFn->Name});
    return;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Flow-sensitive narrowing (section 8 future work, opt-in)
//===----------------------------------------------------------------------===//

bool QualChecker::comparisonImpliesInvariant(const QualifierDef *Q,
                                             BinaryOp Op, bool IsNull,
                                             int64_t C) {
  if (!Q || Q->IsRef || !Q->Invariant)
    return false;
  const qual::InvPred &Inv = *Q->Invariant;
  if (Inv.K != qual::InvPred::Kind::Compare ||
      Inv.A.K != qual::InvTerm::Kind::ValueOf)
    return false;
  // Invariant compares the value against NULL.
  if (Inv.B.K == qual::InvTerm::Kind::Null)
    return IsNull && Inv.CmpOp == BinaryOp::Ne && Op == BinaryOp::Ne;
  if (Inv.B.K != qual::InvTerm::Kind::Int || IsNull)
    return false;
  int64_t T = Inv.B.Int;
  // The condition constrains the variable to a range; does the range lie
  // within the invariant's?
  bool HasLo = false, HasHi = false;
  int64_t Lo = 0, Hi = 0; // Inclusive integer bounds.
  switch (Op) {
  case BinaryOp::Eq:
    HasLo = HasHi = true;
    Lo = Hi = C;
    break;
  case BinaryOp::Gt:
    HasLo = true;
    Lo = C + 1;
    break;
  case BinaryOp::Ge:
    HasLo = true;
    Lo = C;
    break;
  case BinaryOp::Lt:
    HasHi = true;
    Hi = C - 1;
    break;
  case BinaryOp::Le:
    HasHi = true;
    Hi = C;
    break;
  case BinaryOp::Ne:
    // v != C only implies v != T when C == T.
    return Inv.CmpOp == BinaryOp::Ne && C == T;
  default:
    return false;
  }
  switch (Inv.CmpOp) {
  case BinaryOp::Gt:
    return HasLo && Lo > T;
  case BinaryOp::Ge:
    return HasLo && Lo >= T;
  case BinaryOp::Lt:
    return HasHi && Hi < T;
  case BinaryOp::Le:
    return HasHi && Hi <= T;
  case BinaryOp::Ne:
    return (HasLo && Lo > T) || (HasHi && Hi < T);
  case BinaryOp::Eq:
    return HasLo && HasHi && Lo == Hi && Lo == T;
  default:
    return false;
  }
}

void QualChecker::narrowingsFrom(
    const Expr *Cond, bool Sense,
    std::vector<std::pair<const VarDecl *, std::string>> &Out) {
  if (!Cond)
    return;
  switch (Cond->getKind()) {
  case Expr::Kind::Unary: {
    const auto *Un = cast<UnaryExpr>(Cond);
    if (Un->Op == UnaryOp::Not)
      narrowingsFrom(Un->Sub, !Sense, Out);
    return;
  }
  case Expr::Kind::LValRead: {
    // Truthiness of a pointer: `if (p)` means p != NULL.
    const auto *Read = cast<LValReadExpr>(Cond);
    if (!Sense || !Read->LV->isBareVar() || !Cond->Ty ||
        !Cond->Ty->isPointer())
      return;
    for (const QualifierDef &Q : Quals.all())
      if (comparisonImpliesInvariant(&Q, BinaryOp::Ne, /*IsNull=*/true, 0))
        Out.emplace_back(Read->LV->Var, Q.Name);
    return;
  }
  case Expr::Kind::Binary:
    break;
  default:
    return;
  }

  const auto *Bin = cast<BinaryExpr>(Cond);
  if (Bin->Op == BinaryOp::LAnd) {
    // The true branch of a && b gives both; the false branch neither.
    if (Sense) {
      narrowingsFrom(Bin->LHS, true, Out);
      narrowingsFrom(Bin->RHS, true, Out);
    }
    return;
  }
  if (Bin->Op == BinaryOp::LOr) {
    // The false branch of a || b gives the negation of both.
    if (!Sense) {
      narrowingsFrom(Bin->LHS, false, Out);
      narrowingsFrom(Bin->RHS, false, Out);
    }
    return;
  }

  // A comparison between a bare variable and a constant.
  const Expr *VarSide = nullptr;
  const Expr *ConstSide = nullptr;
  BinaryOp Op = Bin->Op;
  auto IsConst = [](const Expr *E) {
    return isa<IntConstExpr>(E) || isa<NullConstExpr>(E);
  };
  auto IsBareRead = [](const Expr *E) {
    const auto *Read = dyn_cast<LValReadExpr>(E);
    return Read && Read->LV->isBareVar();
  };
  if (IsBareRead(Bin->LHS) && IsConst(Bin->RHS)) {
    VarSide = Bin->LHS;
    ConstSide = Bin->RHS;
  } else if (IsBareRead(Bin->RHS) && IsConst(Bin->LHS)) {
    VarSide = Bin->RHS;
    ConstSide = Bin->LHS;
    // Mirror the comparison: C op v becomes v op' C.
    switch (Op) {
    case BinaryOp::Lt:
      Op = BinaryOp::Gt;
      break;
    case BinaryOp::Le:
      Op = BinaryOp::Ge;
      break;
    case BinaryOp::Gt:
      Op = BinaryOp::Lt;
      break;
    case BinaryOp::Ge:
      Op = BinaryOp::Le;
      break;
    default:
      break;
    }
  } else {
    return;
  }
  if (!Sense) {
    switch (Op) {
    case BinaryOp::Eq:
      Op = BinaryOp::Ne;
      break;
    case BinaryOp::Ne:
      Op = BinaryOp::Eq;
      break;
    case BinaryOp::Lt:
      Op = BinaryOp::Ge;
      break;
    case BinaryOp::Le:
      Op = BinaryOp::Gt;
      break;
    case BinaryOp::Gt:
      Op = BinaryOp::Le;
      break;
    case BinaryOp::Ge:
      Op = BinaryOp::Lt;
      break;
    default:
      return;
    }
  }
  bool IsNull = isa<NullConstExpr>(ConstSide);
  int64_t C = IsNull ? 0 : cast<IntConstExpr>(ConstSide)->Value;
  const VarDecl *Var = cast<LValReadExpr>(VarSide)->LV->Var;
  for (const QualifierDef &Q : Quals.all())
    if (comparisonImpliesInvariant(&Q, Op, IsNull, C))
      Out.emplace_back(Var, Q.Name);
}

namespace {

/// Collects variables possibly modified by an expression's evaluation
/// context: address-taken bare variables (which a callee could write).
void collectKilledInExpr(const Expr *E, std::set<const VarDecl *> &Out) {
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::AddrOf: {
    const auto *Addr = cast<AddrOfExpr>(E);
    if (Addr->LV->isBareVar())
      Out.insert(Addr->LV->Var);
    if (Addr->LV->isMem())
      collectKilledInExpr(Addr->LV->Addr, Out);
    return;
  }
  case Expr::Kind::LValRead:
    if (cast<LValReadExpr>(E)->LV->isMem())
      collectKilledInExpr(cast<LValReadExpr>(E)->LV->Addr, Out);
    return;
  case Expr::Kind::Unary:
    collectKilledInExpr(cast<UnaryExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Binary:
    collectKilledInExpr(cast<BinaryExpr>(E)->LHS, Out);
    collectKilledInExpr(cast<BinaryExpr>(E)->RHS, Out);
    return;
  case Expr::Kind::Cast:
    collectKilledInExpr(cast<CastExpr>(E)->Sub, Out);
    return;
  case Expr::Kind::Call:
    for (const Expr *Arg : cast<CallExpr>(E)->Args)
      collectKilledInExpr(Arg, Out);
    return;
  default:
    return;
  }
}

} // namespace

void QualChecker::collectAssignedVars(const Stmt *S,
                                      std::set<const VarDecl *> &Out) {
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      collectAssignedVars(Sub, Out);
    return;
  case Stmt::Kind::Decl:
    if (const Expr *Init = cast<DeclStmt>(S)->Var->Init)
      collectKilledInExpr(Init, Out);
    return;
  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    if (Assign->LHS->isBareVar())
      Out.insert(Assign->LHS->Var);
    else if (Assign->LHS->isMem())
      collectKilledInExpr(Assign->LHS->Addr, Out);
    collectKilledInExpr(Assign->RHS, Out);
    return;
  }
  case Stmt::Kind::CallStmt:
    collectKilledInExpr(cast<CallStmt>(S)->Call, Out);
    return;
  case Stmt::Kind::If:
    collectKilledInExpr(cast<IfStmt>(S)->Cond, Out);
    collectAssignedVars(cast<IfStmt>(S)->Then, Out);
    collectAssignedVars(cast<IfStmt>(S)->Else, Out);
    return;
  case Stmt::Kind::While:
    collectKilledInExpr(cast<WhileStmt>(S)->Cond, Out);
    collectAssignedVars(cast<WhileStmt>(S)->Body, Out);
    return;
  case Stmt::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    collectAssignedVars(For->Init, Out);
    if (For->Cond)
      collectKilledInExpr(For->Cond, Out);
    collectAssignedVars(For->Step, Out);
    collectAssignedVars(For->Body, Out);
    return;
  }
  case Stmt::Kind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->Value)
      collectKilledInExpr(V, Out);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void QualChecker::checkNarrowed(
    Stmt *Body,
    const std::vector<std::pair<const VarDecl *, std::string>> &Narrowings) {
  if (!Body)
    return;
  if (Narrowings.empty()) {
    checkStmt(Body);
    return;
  }
  std::set<const VarDecl *> Killed;
  collectAssignedVars(Body, Killed);
  std::map<const VarDecl *, std::set<std::string>> Saved = Narrowed;
  for (const auto &[Var, Qual] : Narrowings)
    if (!Killed.count(Var))
      Narrowed[Var].insert(Qual);
  checkStmt(Body);
  Narrowed = std::move(Saved);
}


void QualChecker::checkFunction(FuncDecl *Fn) {
  trace::Span S("check.unit",
                trace::Tracer::enabled() ? std::string(Fn->Name)
                                         : std::string());
  CurrentFn = Fn;
  checkStmt(Fn->Body);
  CurrentFn = nullptr;
}

CheckResult QualChecker::runGlobals() {
  trace::Span S("check.unit", trace::Tracer::enabled() ? "<globals>"
                                                       : std::string());
  for (VarDecl *G : Prog.Globals) {
    if (!G->Init)
      continue;
    scanExpr(G->Init, false);
    checkAssignmentTo(G->DeclaredTy, G->Init, G->Loc,
                      {FlowSite::Kind::GlobalInit, G->Name}, G);
  }
  return Result;
}

CheckResult QualChecker::runFunction(cminus::FuncDecl *Fn) {
  checkFunction(Fn);
  return Result;
}

CheckResult QualChecker::run() {
  runGlobals();
  for (FuncDecl *Fn : Prog.Functions)
    if (Fn->isDefinition())
      checkFunction(Fn);
  return Result;
}

//===----------------------------------------------------------------------===//
// Convenience pipeline
//===----------------------------------------------------------------------===//

bool stq::checker::isUntaintedFormatFn(const FuncDecl *F) {
  for (const VarDecl *P : F->Params) {
    TypePtr Ty = P->DeclaredTy;
    if (Ty && Ty->isPointer() && Ty->pointee() && Ty->pointee()->isChar() &&
        Ty->hasQual("untainted"))
      return true;
  }
  return false;
}

CheckResult stq::checker::checkSource(const std::string &Source,
                                      const qual::QualifierSet &Quals,
                                      DiagnosticEngine &Diags,
                                      std::unique_ptr<Program> &ProgOut,
                                      CheckerOptions Options) {
  if (!runFrontEnd(Source, Quals.names(), Quals.refNames(), Diags, ProgOut))
    return {};
  QualChecker Checker(*ProgOut, Quals, Diags, Options);
  return Checker.run();
}
