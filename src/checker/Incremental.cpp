//===- Incremental.cpp ----------------------------------------------------===//

#include "checker/Incremental.h"

#include "support/Trace.h"

#include <algorithm>
#include <set>

using namespace stq;
using namespace stq::checker;
using namespace stq::checker::incremental;

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

namespace {

// Kind tags keep the byte stream unambiguous across node categories. Values
// are arbitrary but fixed: changing them invalidates every stored verdict,
// which is safe (a cold re-check), never wrong.
enum : uint8_t {
  TagNull = 0xF0,
  TagPresent = 0xF1,
  TagType = 0xF2,
  TagLValue = 0xF3,
  TagExpr = 0xF4,
  TagStmt = 0xF5,
  TagSig = 0xF6,
  TagEnv = 0xF7,
  TagGlobals = 0xF8,
  TagFunction = 0xF9,
  TagCallees = 0xFA,
};

void hashLoc(Hasher &H, SourceLoc Loc) {
  H.u64(Loc.Line);
  H.u64(Loc.Col);
}

void hashType(Hasher &H, cminus::TypePtr Ty) {
  H.byte(TagType);
  if (!Ty) {
    H.byte(TagNull);
    return;
  }
  // str() prints the full structure including qualifier sets at every
  // level, so a qualifier edit anywhere in the type changes the hash.
  H.str(Ty->str());
}

void hashExpr(Hasher &H, const cminus::Expr *E,
              std::vector<std::string> &Callees);

void hashLValue(Hasher &H, const cminus::LValue *LV,
                std::vector<std::string> &Callees) {
  H.byte(TagLValue);
  if (!LV) {
    H.byte(TagNull);
    return;
  }
  H.byte(static_cast<uint8_t>(LV->K));
  hashLoc(H, LV->Loc);
  if (LV->isVar() && LV->Var) {
    H.str(LV->Var->Name);
    hashType(H, LV->Var->DeclaredTy);
  }
  if (LV->isMem())
    hashExpr(H, LV->Addr, Callees);
  H.u64(LV->Fields.size());
  for (std::string_view F : LV->Fields)
    H.str(F);
}

void hashExpr(Hasher &H, const cminus::Expr *E,
              std::vector<std::string> &Callees) {
  H.byte(TagExpr);
  if (!E) {
    H.byte(TagNull);
    return;
  }
  H.byte(static_cast<uint8_t>(E->getKind()));
  // Every SourceLoc is load-bearing: cached diagnostics embed line:col, so
  // a purely positional shift must miss the store.
  hashLoc(H, E->Loc);
  using cminus::Expr;
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
    H.i64(cast<cminus::IntConstExpr>(E)->Value);
    break;
  case Expr::Kind::StrConst:
    H.str(cast<cminus::StrConstExpr>(E)->Value);
    break;
  case Expr::Kind::NullConst:
    break;
  case Expr::Kind::LValRead:
    hashLValue(H, cast<cminus::LValReadExpr>(E)->LV, Callees);
    break;
  case Expr::Kind::AddrOf:
    hashLValue(H, cast<cminus::AddrOfExpr>(E)->LV, Callees);
    break;
  case Expr::Kind::Unary: {
    const auto *U = cast<cminus::UnaryExpr>(E);
    H.byte(static_cast<uint8_t>(U->Op));
    hashExpr(H, U->Sub, Callees);
    break;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<cminus::BinaryExpr>(E);
    H.byte(static_cast<uint8_t>(B->Op));
    hashExpr(H, B->LHS, Callees);
    hashExpr(H, B->RHS, Callees);
    break;
  }
  case Expr::Kind::Cast: {
    const auto *C = cast<cminus::CastExpr>(E);
    hashType(H, C->Target);
    hashExpr(H, C->Sub, Callees);
    break;
  }
  case Expr::Kind::Call: {
    const auto *C = cast<cminus::CallExpr>(E);
    H.str(C->CalleeName);
    H.byte(C->IsAlloc ? 1 : 0);
    H.u64(C->Args.size());
    for (const cminus::Expr *A : C->Args)
      hashExpr(H, A, Callees);
    Callees.emplace_back(C->CalleeName);
    break;
  }
  case Expr::Kind::SizeofType:
    hashType(H, cast<cminus::SizeofTypeExpr>(E)->Target);
    break;
  }
}

void hashStmt(Hasher &H, const cminus::Stmt *S,
              std::vector<std::string> &Callees) {
  H.byte(TagStmt);
  if (!S) {
    H.byte(TagNull);
    return;
  }
  H.byte(static_cast<uint8_t>(S->getKind()));
  hashLoc(H, S->Loc);
  using cminus::Stmt;
  switch (S->getKind()) {
  case Stmt::Kind::Block: {
    const auto *B = cast<cminus::BlockStmt>(S);
    H.u64(B->Stmts.size());
    for (const cminus::Stmt *Sub : B->Stmts)
      hashStmt(H, Sub, Callees);
    break;
  }
  case Stmt::Kind::Decl: {
    const cminus::VarDecl *V = cast<cminus::DeclStmt>(S)->Var;
    H.str(V->Name);
    hashType(H, V->DeclaredTy);
    hashLoc(H, V->Loc);
    H.byte((V->IsGlobal ? 2 : 0) | (V->IsParam ? 1 : 0));
    hashExpr(H, V->Init, Callees);
    break;
  }
  case Stmt::Kind::Assign: {
    const auto *A = cast<cminus::AssignStmt>(S);
    hashLValue(H, A->LHS, Callees);
    hashExpr(H, A->RHS, Callees);
    break;
  }
  case Stmt::Kind::CallStmt:
    hashExpr(H, cast<cminus::CallStmt>(S)->Call, Callees);
    break;
  case Stmt::Kind::If: {
    const auto *I = cast<cminus::IfStmt>(S);
    hashExpr(H, I->Cond, Callees);
    hashStmt(H, I->Then, Callees);
    hashStmt(H, I->Else, Callees);
    break;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<cminus::WhileStmt>(S);
    hashExpr(H, W->Cond, Callees);
    hashStmt(H, W->Body, Callees);
    break;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<cminus::ForStmt>(S);
    hashStmt(H, F->Init, Callees);
    hashExpr(H, F->Cond, Callees);
    hashStmt(H, F->Step, Callees);
    hashStmt(H, F->Body, Callees);
    break;
  }
  case Stmt::Kind::Return:
    hashExpr(H, cast<cminus::ReturnStmt>(S)->Value, Callees);
    break;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    break;
  }
}

/// The caller-visible surface of a function: name, return type, parameter
/// declared types (qualifiers included), variadicness. Parameter *names*
/// are deliberately excluded — they are body-local.
Hash128 hashSignature(const cminus::FuncDecl &Fn) {
  Hasher H;
  H.byte(TagSig);
  H.str(Fn.Name);
  hashType(H, Fn.RetTy);
  H.u64(Fn.Params.size());
  for (const cminus::VarDecl *P : Fn.Params)
    hashType(H, P->DeclaredTy);
  H.byte(Fn.Variadic ? 1 : 0);
  return H.get();
}

void hashClause(Hasher &H, const qual::Clause &C) {
  H.u64(C.Decls.size());
  for (const qual::VarPatternDecl &D : C.Decls) {
    H.str(D.Name);
    H.str(D.Ty.str());
    H.str(qual::classifierName(D.Cls));
  }
  H.str(C.Pattern.str());
  H.str(C.Where.str());
}

/// Everything a verdict depends on besides the work item's own body and
/// callees: qualifier definitions, checker options, struct layouts, and
/// global declarations. Folded into every item's hash, so an environment
/// edit naturally dirties the whole unit.
Hash128 hashEnv(const qual::QualifierSet &Quals, const CheckerOptions &Options,
                const cminus::Program &Prog) {
  Hasher H;
  H.byte(TagEnv);

  const auto &Defs = Quals.all();
  H.u64(Defs.size());
  for (const qual::QualifierDef &Q : Defs) {
    H.str(Q.Name);
    H.byte(Q.IsRef ? 1 : 0);
    H.str(Q.SubjectVar);
    H.str(Q.SubjectTy.str());
    H.str(qual::classifierName(Q.SubjectCls));
    for (const auto *Block : {&Q.Cases, &Q.Restricts, &Q.Assigns}) {
      H.u64(Block->size());
      for (const qual::Clause &C : *Block)
        hashClause(H, C);
    }
    H.byte((Q.OnDecl ? 4 : 0) | (Q.DisallowRead ? 2 : 0) |
           (Q.DisallowAddrOf ? 1 : 0));
    if (Q.Invariant)
      H.str(Q.Invariant->str());
    else
      H.byte(TagNull);
  }

  H.byte(Options.FlowSensitiveNarrowing ? 1 : 0);

  H.u64(Prog.Structs.size());
  for (const cminus::StructDef *S : Prog.Structs) {
    H.str(S->Name);
    hashLoc(H, S->Loc);
    H.u64(S->Fields.size());
    for (const cminus::StructDef::Field &F : S->Fields) {
      H.str(F.Name);
      hashType(H, F.Ty);
    }
  }

  // Global names, declared types, and positions — any function may read
  // them. Initializer *bodies* only affect work item 0 and are hashed
  // there, not here.
  H.u64(Prog.Globals.size());
  for (const cminus::VarDecl *G : Prog.Globals) {
    H.str(G->Name);
    hashType(H, G->DeclaredTy);
    hashLoc(H, G->Loc);
  }
  return H.get();
}

/// Folds the signatures of \p Callees (sorted, deduplicated) into \p H.
/// Unknown externals (malloc, printf, ...) have no FuncDecl signature and
/// fold as name + marker.
void hashCallees(Hasher &H, std::vector<std::string> Callees,
                 const std::map<std::string, Hash128> &Sigs) {
  std::sort(Callees.begin(), Callees.end());
  Callees.erase(std::unique(Callees.begin(), Callees.end()), Callees.end());
  H.byte(TagCallees);
  H.u64(Callees.size());
  for (const std::string &Name : Callees) {
    H.str(Name);
    auto It = Sigs.find(Name);
    if (It != Sigs.end())
      H.hash(It->second);
    else
      H.byte(TagNull);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

Engine::Engine(size_t Capacity) : Capacity(Capacity) {}

size_t Engine::entries() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Order.size();
}

uint64_t Engine::evictions() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return TotalEvictions;
}

void Engine::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Order.clear();
  Index.clear();
  Snapshots.clear();
}

bool Engine::probe(const Hash128 &Key, ItemVerdict &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end())
    return false;
  Order.splice(Order.begin(), Order, It->second);
  Out = Order.front().Verdict;
  return true;
}

unsigned Engine::insert(const Hash128 &Key, ItemVerdict Verdict) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // Same content, re-checked (e.g. a force-dirtied transitive caller):
    // refresh the entry in place.
    Order.splice(Order.begin(), Order, It->second);
    Order.front().Verdict = std::move(Verdict);
    return 0;
  }
  Order.push_front(Entry{Key, std::move(Verdict)});
  Index[Key] = Order.begin();
  unsigned Evicted = 0;
  while (Order.size() > Capacity) {
    Index.erase(Order.back().Key);
    Order.pop_back();
    ++Evicted;
  }
  TotalEvictions += Evicted;
  return Evicted;
}

RecheckResult Engine::recheck(const std::string &Unit, cminus::Program &Prog,
                              const qual::QualifierSet &Quals,
                              DiagnosticEngine &Diags, CheckerOptions Options,
                              unsigned Jobs, RecheckStats *StatsOut,
                              ThreadPool *Pool, const Hash128 *EnvSeed) {
  trace::Span Span("recheck");

  const std::vector<cminus::FuncDecl *> Fns = workItemFunctions(Prog);
  const size_t Units = Fns.size() + 1; // Work item 0: global initializers.

  RecheckStats Local;
  RecheckStats &S = StatsOut ? *StatsOut : Local;
  S = {};

  // Runs keyed by assumption sets are not content-addressable: bypass the
  // store entirely (every item re-checks, nothing is cached).
  const bool Bypass =
      Options.AssumedCasts != nullptr || Options.AssumedVarQuals != nullptr;

  // Signature hashes for every declared function, prototypes included —
  // callers fold these, and prototype edits must dirty them too.
  std::map<std::string, Hash128> Sigs;
  for (const cminus::FuncDecl *Fn : Prog.Functions)
    Sigs[std::string(Fn->Name)] = hashSignature(*Fn);

  Hash128 Env = hashEnv(Quals, Options, Prog);
  if (EnvSeed) {
    // The front end's seed (the TU's post-preprocess stream hash) re-keys
    // the whole unit: a header edit dirties every includer.
    Hasher H;
    H.hash(Env);
    H.hash(*EnvSeed);
    Env = H.get();
  }

  // Full content hash + direct-callee list per work item.
  std::vector<Hash128> Keys(Units);
  std::vector<std::vector<std::string>> Callees(Units);
  {
    Hasher H;
    H.hash(Env);
    H.byte(TagGlobals);
    H.u64(Prog.Globals.size());
    for (const cminus::VarDecl *G : Prog.Globals) {
      H.str(G->Name);
      hashExpr(H, G->Init, Callees[0]);
    }
    hashCallees(H, Callees[0], Sigs);
    Keys[0] = H.get();
  }
  for (size_t I = 1; I < Units; ++I) {
    const cminus::FuncDecl *Fn = Fns[I - 1];
    Hasher H;
    H.hash(Env);
    H.byte(TagFunction);
    H.hash(hashSignature(*Fn));
    hashLoc(H, Fn->Loc);
    // Parameter names and positions are body-visible (diagnostics mention
    // them) even though they are excluded from the caller-facing signature.
    for (const cminus::VarDecl *P : Fn->Params) {
      H.str(P->Name);
      hashLoc(H, P->Loc);
    }
    hashStmt(H, Fn->Body, Callees[I]);
    hashCallees(H, Callees[I], Sigs);
    Keys[I] = H.get();
  }

  // Invalidation: diff this unit's signature snapshot, then force-dirty
  // the transitive callers of every changed (or added/removed) signature.
  // Content hashing already misses the *direct* callers — the closure is
  // the contract for everyone further up the call graph.
  std::set<std::string> ChangedSigs;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    UnitSnapshot &Snap = Snapshots[Unit];
    for (const auto &[Name, Hash] : Sigs) {
      auto It = Snap.Signatures.find(Name);
      if (It == Snap.Signatures.end() || It->second != Hash)
        ChangedSigs.insert(Name);
    }
    for (const auto &[Name, Hash] : Snap.Signatures)
      if (!Sigs.count(Name))
        ChangedSigs.insert(Name);
    Snap.Signatures = Sigs;
  }
  std::set<std::string, std::less<>> ForcedDirty;
  if (!ChangedSigs.empty()) {
    std::map<std::string, std::vector<std::string>> CallersOf;
    for (size_t I = 1; I < Units; ++I)
      for (const std::string &Callee : Callees[I])
        CallersOf[Callee].emplace_back(Fns[I - 1]->Name);
    std::vector<std::string> Work(ChangedSigs.begin(), ChangedSigs.end());
    std::set<std::string> Seen(ChangedSigs);
    while (!Work.empty()) {
      std::string Name = std::move(Work.back());
      Work.pop_back();
      auto It = CallersOf.find(Name);
      if (It == CallersOf.end())
        continue;
      for (const std::string &Caller : It->second) {
        if (!Seen.insert(Caller).second)
          continue;
        ForcedDirty.insert(Caller);
        Work.push_back(Caller);
      }
    }
  }

  // The loop probes every item here, checks only the misses, and fills
  // the store with their verdicts.
  RecheckResult Result;
  ItemStore Store{
      [&](size_t I, ItemVerdict &V) {
        if (Bypass)
          return false;
        if (I > 0 && ForcedDirty.count(Fns[I - 1]->Name)) {
          ++S.SignatureDirtied;
          return false;
        }
        if (!probe(Keys[I], V))
          return false;
        ++S.Hits;
        Result += V;
        return true;
      },
      [&](size_t I, const ItemVerdict &V) {
        if (!Bypass)
          S.Evictions += insert(Keys[I], V);
      }};
  Result += checkWorkItems(Prog, Fns, Quals, Diags, Options, Jobs, &S, Pool,
                           &Store)
                .counts();
  S.Rechecked = S.Units - S.Hits;
  return Result;
}
