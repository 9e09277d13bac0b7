//===- ConstraintInference.cpp --------------------------------------------===//

#include "checker/ConstraintInference.h"

#include "checker/Inference.h"
#include "cminus/Lowering.h"
#include "prover/Formula.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <tuple>

using namespace stq;
using namespace stq::checker;
using namespace stq::cminus;
using namespace stq::qual;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *stq::checker::engineName(InferenceEngine E) {
  switch (E) {
  case InferenceEngine::Fixpoint:
    return "fixpoint";
  case InferenceEngine::Constraints:
    return "constraints";
  }
  return "constraints";
}

const char *stq::checker::scopeName(InferenceScope S) {
  switch (S) {
  case InferenceScope::Program:
    return "program";
  case InferenceScope::LocalsOnly:
    return "locals";
  }
  return "program";
}

bool stq::checker::parseEngineName(const std::string &Name,
                                   InferenceEngine &Out) {
  if (Name == "fixpoint") {
    Out = InferenceEngine::Fixpoint;
    return true;
  }
  if (Name == "constraints") {
    Out = InferenceEngine::Constraints;
    return true;
  }
  return false;
}

bool stq::checker::parseScopeName(const std::string &Name,
                                  InferenceScope &Out) {
  if (Name == "program") {
    Out = InferenceScope::Program;
    return true;
  }
  if (Name == "locals") {
    Out = InferenceScope::LocalsOnly;
    return true;
  }
  return false;
}

unsigned InferenceReport::totalSuggested() const {
  unsigned N = 0;
  for (const InferenceSuggestion &S : Suggestions)
    for (const SuggestedQual &Q : S.Quals)
      if (!Q.Implied)
        ++N;
  return N;
}

unsigned InferenceReport::totalInferred() const {
  unsigned N = 0;
  for (const InferenceSuggestion &S : Suggestions)
    N += static_cast<unsigned>(S.Quals.size());
  return N;
}

//===----------------------------------------------------------------------===//
// Variable provenance (unit / function / kind), for deterministic keys
//===----------------------------------------------------------------------===//

namespace {

struct VarInfo {
  unsigned Unit = 0;
  std::string Function;
  const char *Kind = "global";
};

std::map<const VarDecl *, VarInfo> buildVarInfo(const Program &Prog) {
  std::map<const VarDecl *, VarInfo> Info;
  for (const VarDecl *G : Prog.Globals)
    Info[G] = {0, "", "global"};
  for (unsigned I = 0; I < Prog.Functions.size(); ++I) {
    const FuncDecl *Fn = Prog.Functions[I];
    UnitFlows Unit;
    collectUnitFlows(Prog, I + 1, Unit);
    for (const VarDecl *V : Unit.Vars)
      Info[V] = {I + 1, std::string(Fn->Name),
                 V->IsParam ? "parameter" : "local"};
  }
  return Info;
}

bool suggestionKeyLess(const InferenceSuggestion &A,
                       const InferenceSuggestion &B) {
  return std::tie(A.Unit, A.Function, A.Var, A.Loc.Line, A.Loc.Col) <
         std::tie(B.Unit, B.Function, B.Var, B.Loc.Line, B.Loc.Col);
}

//===----------------------------------------------------------------------===//
// Prover-discharged implication between value qualifiers
//===----------------------------------------------------------------------===//

/// Translates a *simple* value invariant — Compare/And/Or/Implies over
/// value(E), integer literals, and NULL — with value(E) mapped to \p V.
/// Returns nullptr for anything touching state (Deref, LocationOf,
/// IsHeapLoc, Forall, quantified variables): those qualifiers are outside
/// the pos/nonzero refinement class.
prover::FormulaPtr translateSimpleInv(const InvPred &Inv,
                                      prover::TermArena &A,
                                      prover::TermId V) {
  using prover::FormulaPtr;
  auto TermOf = [&](const InvTerm &T) -> std::optional<prover::TermId> {
    switch (T.K) {
    case InvTerm::Kind::ValueOf:
      return V;
    case InvTerm::Kind::Int:
      return A.intConst(T.Int);
    case InvTerm::Kind::Null:
      return A.nullTerm();
    default:
      return std::nullopt;
    }
  };
  switch (Inv.K) {
  case InvPred::Kind::Compare: {
    auto L = TermOf(Inv.A), R = TermOf(Inv.B);
    if (!L || !R)
      return nullptr;
    switch (Inv.CmpOp) {
    case BinaryOp::Eq:
      return prover::fEq(*L, *R);
    case BinaryOp::Ne:
      return prover::fNe(*L, *R);
    case BinaryOp::Lt:
      return prover::fLt(*L, *R);
    case BinaryOp::Le:
      return prover::fLe(*L, *R);
    case BinaryOp::Gt:
      return prover::fGt(*L, *R);
    case BinaryOp::Ge:
      return prover::fGe(*L, *R);
    default:
      return nullptr;
    }
  }
  case InvPred::Kind::And: {
    FormulaPtr L = translateSimpleInv(*Inv.LHS, A, V);
    FormulaPtr R = translateSimpleInv(*Inv.RHS, A, V);
    return L && R ? prover::fAnd({L, R}) : nullptr;
  }
  case InvPred::Kind::Or: {
    FormulaPtr L = translateSimpleInv(*Inv.LHS, A, V);
    FormulaPtr R = translateSimpleInv(*Inv.RHS, A, V);
    return L && R ? prover::fOr({L, R}) : nullptr;
  }
  case InvPred::Kind::Implies: {
    FormulaPtr L = translateSimpleInv(*Inv.LHS, A, V);
    FormulaPtr R = translateSimpleInv(*Inv.RHS, A, V);
    return L && R ? prover::fImplies(L, R) : nullptr;
  }
  case InvPred::Kind::IsHeapLoc:
  case InvPred::Kind::Forall:
    return nullptr;
  }
  return nullptr;
}

/// Does \p Q carry a case clause `X, where P(X)` — i.e. the checker can
/// re-derive Q for any expression already known to satisfy \p P? This is
/// the syntactic half of "P implies Q": without it, demoting Q from an
/// annotation would lose derivability at use sites.
bool hasDerivationClause(const QualifierDef &Q, const std::string &P) {
  for (const Clause &C : Q.Cases)
    if (C.Pattern.K == ExprPattern::Kind::Var &&
        C.Where.K == Pred::Kind::QualCheck && C.Where.Qual == P &&
        C.Where.Var == C.Pattern.X)
      return true;
  return false;
}

/// Discharges implication queries between value-qualifier invariants on
/// the incremental prover, memoizing through the shared ProverCache.
class ImplicationOracle {
public:
  ImplicationOracle(const QualifierSet &Quals,
                    const ConstraintInferenceOptions &Options,
                    InferenceStats &Stats)
      : Quals(Quals), Options(Options), Stats(Stats) {}

  /// True iff \p P strictly entitles dropping the annotation \p Q: Q has a
  /// derivation clause from P and the prover shows P's invariant implies
  /// Q's for an arbitrary value.
  bool implies(const std::string &P, const std::string &Q) {
    auto Key = std::make_pair(P, Q);
    auto Found = Memo.find(Key);
    if (Found != Memo.end())
      return Found->second;
    bool Result = compute(P, Q);
    Memo.emplace(Key, Result);
    return Result;
  }

private:
  bool compute(const std::string &PName, const std::string &QName) {
    const QualifierDef *P = Quals.find(PName);
    const QualifierDef *Q = Quals.find(QName);
    if (!P || !Q || !P->Invariant || !Q->Invariant)
      return false;
    if (!hasDerivationClause(*Q, PName))
      return false;

    prover::Prover Session(Options.Prover);
    prover::TermId V = Session.freshConst("iv");
    prover::FormulaPtr Hyp =
        translateSimpleInv(*P->Invariant, Session.arena(), V);
    prover::FormulaPtr Goal =
        translateSimpleInv(*Q->Invariant, Session.arena(), V);
    if (!Hyp || !Goal)
      return false; // Outside the simple value-invariant class.
    Session.addHypothesis(Hyp);

    ++Stats.ProverQueries;
    std::string CacheKey;
    if (Options.Cache) {
      CacheKey = prover::canonicalTaskKey(Session.arena(), Session.inputs(),
                                          Goal);
      if (auto Hit = Options.Cache->lookup(CacheKey)) {
        ++Stats.ProverCacheHits;
        return Hit->Result == prover::ProofResult::Proved;
      }
    }
    prover::ProofResult R = Session.prove(Goal);
    if (Options.Cache)
      Options.Cache->insert(CacheKey, R, Session.stats());
    return R == prover::ProofResult::Proved;
  }

  const QualifierSet &Quals;
  const ConstraintInferenceOptions &Options;
  InferenceStats &Stats;
  std::map<std::pair<std::string, std::string>, bool> Memo;
};

/// Shared by both engines: re-keys a solved assumption map into the
/// deterministic report shape, runs prover minimization (constraint engine
/// only), and applies the suggestion budget.
void buildSuggestions(const Program &Prog, const QualifierSet &Quals,
                      const ConstraintInferenceOptions &Options,
                      const std::map<const VarDecl *, std::set<std::string>>
                          &InferredByVar,
                      bool Minimize, const char *DefaultProvenance,
                      InferenceReport &Report) {
  std::map<const VarDecl *, VarInfo> Info = buildVarInfo(Prog);

  std::unique_ptr<ImplicationOracle> Oracle;
  if (Minimize && Options.ProverRefinement)
    Oracle = std::make_unique<ImplicationOracle>(Quals, Options, Report.Stats);

  for (const auto &[Var, Set] : InferredByVar) {
    // Only qualifiers not already declared are suggestions.
    std::set<std::string> Fresh;
    for (const std::string &Q : Set)
      if (!Var->DeclaredTy->hasQual(Q))
        Fresh.insert(Q);
    if (Fresh.empty())
      continue;

    InferenceSuggestion S;
    auto FoundInfo = Info.find(Var);
    if (FoundInfo != Info.end()) {
      S.Unit = FoundInfo->second.Unit;
      S.Function = FoundInfo->second.Function;
      S.Kind = FoundInfo->second.Kind;
    } else {
      S.Kind = Var->IsGlobal ? "global" : (Var->IsParam ? "parameter"
                                                        : "local");
    }
    S.Var = Var->Name;
    S.Loc = Var->Loc;
    S.Decl = Var;

    // Demoters are the fresh set plus the qualifiers already declared on
    // the variable: a declared P implying Q makes suggesting Q pure noise,
    // and counting it keeps apply idempotent (re-inferring an annotated
    // program suggests nothing new).
    std::set<std::string> Declared;
    for (const std::string &Q : Var->DeclaredTy->quals())
      Declared.insert(Q);
    std::set<std::string> Demoters = Fresh;
    Demoters.insert(Declared.begin(), Declared.end());

    for (const std::string &Q : Fresh) {
      SuggestedQual SQ;
      SQ.Qual = Q;
      SQ.Provenance = DefaultProvenance;
      if (Oracle) {
        // Q is demoted when some other inferred qualifier P strictly
        // implies it (or implies it mutually and wins the lexicographic
        // tie). The implication is pairwise, but demotions compose: a
        // demoted P still derives Q at check time through the clause
        // chain, so Q need not be re-promoted when P is demoted too.
        for (const std::string &P : Demoters) {
          if (P == Q || !Oracle->implies(P, Q))
            continue;
          // A mutual implication inside the fresh set is an equivalence
          // class: keep the lexicographically smallest member. A declared
          // demoter always wins — it stays on the type regardless.
          if (!Declared.count(P) && Oracle->implies(Q, P) && P >= Q)
            continue;
          SQ.Implied = true;
          SQ.Provenance = "implied:" + P;
          break; // Demoters is sorted: the first P is the smallest.
        }
      }
      S.Quals.push_back(std::move(SQ));
    }
    Report.Suggestions.push_back(std::move(S));
  }

  std::sort(Report.Suggestions.begin(), Report.Suggestions.end(),
            suggestionKeyLess);

  if (Options.MaxSuggestions > 0 &&
      Report.Suggestions.size() > Options.MaxSuggestions) {
    Report.Stats.Truncated = static_cast<unsigned>(Report.Suggestions.size() -
                                                   Options.MaxSuggestions);
    Report.Suggestions.resize(Options.MaxSuggestions);
  }

  Report.Stats.Variables = static_cast<unsigned>(Report.Suggestions.size());
  for (const InferenceSuggestion &S : Report.Suggestions)
    for (const SuggestedQual &Q : S.Quals)
      ++(Q.Implied ? Report.Stats.Implied : Report.Stats.Suggested);
}

} // namespace

//===----------------------------------------------------------------------===//
// The constraint engine
//===----------------------------------------------------------------------===//

InferenceReport stq::checker::inferWithConstraints(
    Program &Prog, const QualifierSet &Quals,
    const ConstraintInferenceOptions &Options) {
  InferenceReport Report;
  Report.Engine = InferenceEngine::Constraints;

  // Constraint generation, fanned out per unit and merged in unit order —
  // the exact edge order the sequential reference collector produces.
  unsigned Units = flowUnitCount(Prog);
  Report.Stats.Units = Units;
  std::vector<UnitFlows> PerUnit(Units);
  parallelFor(
      Options.Jobs, Units,
      [&](size_t U) {
        collectUnitFlows(Prog, static_cast<unsigned>(U), PerUnit[U]);
      },
      nullptr, Options.Pool);

  ConstraintGraph Graph;
  std::set<const VarDecl *> HasFlow;
  std::set<const VarDecl *> AddrTaken;
  for (const UnitFlows &Unit : PerUnit) {
    for (const FlowEdge &E : Unit.Edges)
      HasFlow.insert(E.Target);
    AddrTaken.insert(Unit.AddrTaken.begin(), Unit.AddrTaken.end());
  }

  // Optimistic seeding: every applicable value qualifier on every variable
  // something flows into (identical to the reference engine's seeding).
  // Address-taken variables are excluded: qualifiers are invariant below
  // pointers, so a fresh annotation would retype every `&v` use.
  for (const UnitFlows &Unit : PerUnit) {
    for (const VarDecl *Var : Unit.Vars) {
      if (!HasFlow.count(Var) || AddrTaken.count(Var))
        continue;
      if (Options.Scope == InferenceScope::LocalsOnly && Var->IsGlobal)
        continue;
      for (const QualifierDef &Q : Quals.all()) {
        if (Q.IsRef || !Q.Invariant)
          continue; // Flow qualifiers are not useful to infer.
        if (Q.SubjectTy.matches(Var->DeclaredTy))
          Graph.addCandidate(Var, Q.Name);
      }
    }
  }
  for (const UnitFlows &Unit : PerUnit)
    for (const FlowEdge &E : Unit.Edges)
      Graph.addConstraint(E.Target, E.RHS);

  // Each worker chunk evaluates through its own QualChecker (own memo),
  // all reading the round's frozen assumption snapshot.
  CheckerOptions BaseCO = Options.Checker;
  ConstraintGraph::EvaluatorFactory Factory =
      [&Prog, &Quals, BaseCO](const ConstraintGraph::Assumptions &Assumed)
      -> ConstraintGraph::Evaluator {
    auto Diags = std::make_shared<DiagnosticEngine>();
    CheckerOptions CO = BaseCO;
    CO.AssumedVarQuals = &Assumed;
    auto Checker = std::make_shared<QualChecker>(Prog, Quals, *Diags, CO);
    return [Diags, Checker](const ConstraintGraph::Constraint &C,
                            const std::string &Q) {
      return Checker->hasQualifier(C.RHS, Q);
    };
  };

  auto SolveStart = std::chrono::steady_clock::now();
  ConstraintGraphStats SolveStats =
      Graph.solve(Factory, Options.Jobs, Options.Pool);
  Report.Stats.SolveSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    SolveStart)
          .count();
  Report.Stats.Atoms = SolveStats.Atoms;
  Report.Stats.Constraints = SolveStats.Constraints;
  Report.Stats.SolveRounds = SolveStats.SolveRounds;
  Report.Stats.Evaluations = SolveStats.Evaluations;
  Report.Stats.Dropped = SolveStats.Dropped;

  buildSuggestions(Prog, Quals, Options, Graph.assumptions(),
                   /*Minimize=*/true, "solver", Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// The reference engine, adapted into the report shape
//===----------------------------------------------------------------------===//

InferenceReport stq::checker::fixpointReport(
    Program &Prog, const QualifierSet &Quals,
    const ConstraintInferenceOptions &Options) {
  InferenceReport Report;
  Report.Engine = InferenceEngine::Fixpoint;
  Report.Stats.Units = flowUnitCount(Prog);

  InferenceOptions Ref;
  Ref.LocalsOnly = Options.Scope == InferenceScope::LocalsOnly;
  InferenceOutcome Outcome = inferQualifiers(Prog, Quals, Ref);
  Report.Stats.SolveRounds = Outcome.Iterations;

  buildSuggestions(Prog, Quals, Options, Outcome.Inferred,
                   /*Minimize=*/false, "fixpoint", Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// Apply / strip
//===----------------------------------------------------------------------===//

void stq::checker::applyReport(Program &Prog, const InferenceReport &Report) {
  for (const InferenceSuggestion &S : Report.Suggestions) {
    if (!S.Decl)
      continue;
    TypePtr Ty = S.Decl->DeclaredTy;
    for (const SuggestedQual &Q : S.Quals)
      if (!Q.Implied)
        Ty = Prog.Ctx.withQual(Ty, Q.Qual);
    const_cast<VarDecl *>(S.Decl)->DeclaredTy = Ty;
  }
}

unsigned stq::checker::stripInferableQualifiers(Program &Prog,
                                                const QualifierSet &Quals) {
  std::vector<std::string> Inferable;
  for (const QualifierDef &Q : Quals.all())
    if (!Q.IsRef && Q.Invariant)
      Inferable.push_back(Q.Name);
  std::set<std::string> InferableSet(Inferable.begin(), Inferable.end());

  unsigned Stripped = 0;
  UnitFlows All = collectAllFlows(Prog);
  for (const VarDecl *Var : All.Vars) {
    unsigned Present = 0;
    for (const std::string &Q : Var->DeclaredTy->quals())
      if (InferableSet.count(Q))
        ++Present;
    if (!Present)
      continue;
    Stripped += Present;
    const_cast<VarDecl *>(Var)->DeclaredTy =
        Prog.Ctx.withoutQualsIn(Var->DeclaredTy, Inferable);
  }
  return Stripped;
}

//===----------------------------------------------------------------------===//
// Two-point taint lattice (differential vs src/cqual)
//===----------------------------------------------------------------------===//

namespace {

bool anyLevelHasQual(TypePtr Ty, const std::string &Q) {
  while (Ty) {
    if (Ty->hasQual(Q))
      return true;
    TypePtr Bare = Type::withoutQuals(Ty);
    if (!Bare->isPointer())
      return false;
    Ty = Bare->pointee();
  }
  return false;
}

struct TaintState {
  const std::string &Top;
  const std::string &Bottom;
  std::set<const VarDecl *> TaintedVars;
  std::set<const FuncDecl *> TaintedReturns;

  bool exprTainted(const Expr *E) const {
    if (!E)
      return false;
    switch (E->getKind()) {
    case Expr::Kind::IntConst:
    case Expr::Kind::StrConst:
    case Expr::Kind::NullConst:
    case Expr::Kind::SizeofType:
      return false; // Constants carry no taint (matching src/cqual).
    case Expr::Kind::LValRead: {
      const LValue *LV = cast<LValReadExpr>(E)->LV;
      return LV->isVar() ? TaintedVars.count(LV->Var) != 0
                         : exprTainted(LV->Addr);
    }
    case Expr::Kind::AddrOf: {
      const LValue *LV = cast<AddrOfExpr>(E)->LV;
      return LV->isVar() ? TaintedVars.count(LV->Var) != 0
                         : exprTainted(LV->Addr);
    }
    case Expr::Kind::Unary:
      return exprTainted(cast<UnaryExpr>(E)->Sub);
    case Expr::Kind::Binary:
      return exprTainted(cast<BinaryExpr>(E)->LHS) ||
             exprTainted(cast<BinaryExpr>(E)->RHS);
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(E);
      // An annotated cast is an assertion/assumption boundary, as in
      // src/cqual: the annotation is trusted downstream.
      if (anyLevelHasQual(C->Target, Top))
        return true;
      if (anyLevelHasQual(C->Target, Bottom))
        return false;
      return exprTainted(C->Sub);
    }
    case Expr::Kind::Call: {
      const auto *Call = cast<CallExpr>(E);
      if (Call->Callee)
        return TaintedReturns.count(Call->Callee) != 0;
      return E->Ty && anyLevelHasQual(E->Ty, Top);
    }
    }
    return false;
  }
};

} // namespace

std::vector<TaintFinding> stq::checker::checkTaintFlows(
    const Program &Prog, const std::string &Top, const std::string &Bottom) {
  UnitFlows Flows = collectAllFlows(Prog);
  TaintState State{Top, Bottom, {}, {}};

  // Sources: Top-annotated declarations and return types.
  for (const VarDecl *Var : Flows.Vars)
    if (anyLevelHasQual(Var->DeclaredTy, Top))
      State.TaintedVars.insert(Var);
  for (const FuncDecl *Fn : Prog.Functions)
    if (anyLevelHasQual(Fn->RetTy, Top))
      State.TaintedReturns.insert(Fn);

  // Propagate to a fixpoint over assignment/call/return flows.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const FlowEdge &E : Flows.Edges)
      if (!State.TaintedVars.count(E.Target) && State.exprTainted(E.RHS)) {
        State.TaintedVars.insert(E.Target);
        Changed = true;
      }
    for (const ReturnFlow &R : Flows.Returns)
      if (!State.TaintedReturns.count(R.Fn) && State.exprTainted(R.Value)) {
        State.TaintedReturns.insert(R.Fn);
        Changed = true;
      }
  }

  // Violations: taint reaching a Bottom-annotated position.
  std::vector<TaintFinding> Findings;
  for (const FlowEdge &E : Flows.Edges)
    if (anyLevelHasQual(E.Target->DeclaredTy, Bottom) &&
        State.exprTainted(E.RHS))
      Findings.push_back({E.RHS->Loc, Top + " data flows into " + Bottom +
                                          "-annotated '" +
                                          std::string(E.Target->Name) + "'"});
  for (const ReturnFlow &R : Flows.Returns)
    if (anyLevelHasQual(R.Fn->RetTy, Bottom) && State.exprTainted(R.Value))
      Findings.push_back({R.Value->Loc, Top + " data flows into " + Bottom +
                                            "-annotated return of '" +
                                            std::string(R.Fn->Name) + "'"});
  return Findings;
}
