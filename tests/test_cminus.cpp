//===- test_cminus.cpp - Tests for the C-minus front end ------------------===//

#include "checker/ConstraintInference.h"
#include "cminus/AST.h"
#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "cminus/Sema.h"
#include "cminus/Type.h"
#include "qual/Builtins.h"

#include <gtest/gtest.h>

#include <functional>

using namespace stq;
using namespace stq::cminus;

namespace {

const std::vector<std::string> Quals = {"pos", "neg", "nonzero", "nonnull",
                                        "tainted", "untainted", "unique",
                                        "unaliased"};
const std::vector<std::string> RefQuals = {"unique", "unaliased"};

struct ParseResult {
  std::unique_ptr<Program> Prog;
  DiagnosticEngine Diags;
};

/// Parses only.
ParseResult parse(const std::string &Source) {
  ParseResult R;
  R.Prog = parseProgram(Source, Quals, R.Diags);
  return R;
}

/// Parses, runs Sema, lowers, and verifies; expects full success.
std::unique_ptr<Program> frontendOk(const std::string &Source,
                                    DiagnosticEngine &Diags) {
  auto Prog = parseProgram(Source, Quals, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << "parse errors in:\n" << Source;
  if (Diags.hasErrors())
    return Prog;
  EXPECT_TRUE(runSema(*Prog, RefQuals, Diags));
  EXPECT_TRUE(lowerProgram(*Prog, Diags));
  EXPECT_TRUE(verifyLoweredProgram(*Prog, Diags));
  return Prog;
}

/// \p T with every qualifier removed at every level, built in \p Ctx: the
/// reference equalsIgnoringQuals() is checked against.
TypePtr deepUnqualified(ASTContext &Ctx, TypePtr T) {
  switch (T->getKind()) {
  case Type::Kind::Pointer:
    return Ctx.getPointer(deepUnqualified(Ctx, T->pointee()));
  case Type::Kind::Function: {
    std::vector<TypePtr> Params;
    for (TypePtr P : T->paramTypes())
      Params.push_back(deepUnqualified(Ctx, P));
    return Ctx.getFunction(deepUnqualified(Ctx, T->returnType()), Params,
                           T->isVariadic());
  }
  default:
    return Type::withoutQuals(T);
  }
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(Type, BasicPredicates) {
  ASTContext Ctx;
  EXPECT_TRUE(Ctx.intTy()->isInt());
  EXPECT_TRUE(Ctx.charTy()->isArithmetic());
  EXPECT_TRUE(Ctx.voidTy()->isVoid());
  EXPECT_TRUE(Ctx.getPointer(Ctx.intTy())->isPointer());
  EXPECT_TRUE(Ctx.getStruct("dfa")->isStruct());
}

TEST(Type, QualsAreSortedAndDeduped) {
  ASTContext Ctx;
  TypePtr T = Ctx.withQuals(Ctx.intTy(), {"pos", "nonzero", "pos"});
  ASSERT_EQ(T->quals().size(), 2u);
  EXPECT_EQ(T->quals()[0], "nonzero");
  EXPECT_EQ(T->quals()[1], "pos");
  EXPECT_TRUE(T->hasQual("pos"));
  EXPECT_FALSE(T->hasQual("neg"));
}

TEST(Type, WithQualAddsOne) {
  ASTContext Ctx;
  TypePtr T = Ctx.withQual(Ctx.intTy(), "pos");
  EXPECT_TRUE(T->hasQual("pos"));
  TypePtr T2 = Ctx.withQual(T, "nonzero");
  EXPECT_TRUE(T2->hasQual("pos"));
  EXPECT_TRUE(T2->hasQual("nonzero"));
  // Original is unchanged (immutability).
  EXPECT_FALSE(T->hasQual("nonzero"));
}

TEST(Type, EqualityIsStructuralIncludingQuals) {
  ASTContext Ctx;
  TypePtr A = Ctx.withQual(Ctx.intTy(), "pos");
  TypePtr B = Ctx.withQual(Ctx.intTy(), "pos");
  EXPECT_TRUE(Type::equals(A, B));
  EXPECT_FALSE(Type::equals(A, Ctx.intTy()));
  // Qualifier order is irrelevant (rule SubQualReorder).
  TypePtr C = Ctx.withQuals(Ctx.intTy(), {"pos", "nonzero"});
  TypePtr D = Ctx.withQuals(Ctx.intTy(), {"nonzero", "pos"});
  EXPECT_TRUE(Type::equals(C, D));
}

TEST(Type, SubtypeDropsTopLevelQuals) {
  ASTContext Ctx;
  // int pos <= int  (rule SubValQual).
  TypePtr IntPos = Ctx.withQual(Ctx.intTy(), "pos");
  EXPECT_TRUE(Type::isSubtypeOf(IntPos, Ctx.intTy()));
  EXPECT_FALSE(Type::isSubtypeOf(Ctx.intTy(), IntPos));
  // Reflexivity.
  EXPECT_TRUE(Type::isSubtypeOf(IntPos, IntPos));
}

TEST(Type, SubtypeSupersetOfQuals) {
  ASTContext Ctx;
  TypePtr PosNonzero = Ctx.withQuals(Ctx.intTy(), {"pos", "nonzero"});
  TypePtr Nonzero = Ctx.withQual(Ctx.intTy(), "nonzero");
  EXPECT_TRUE(Type::isSubtypeOf(PosNonzero, Nonzero));
  EXPECT_FALSE(Type::isSubtypeOf(Nonzero, PosNonzero));
}

TEST(Type, NoSubtypingUnderPointers) {
  ASTContext Ctx;
  // int pos* is NOT a subtype of int* (section 2.1.2).
  TypePtr IntPos = Ctx.withQual(Ctx.intTy(), "pos");
  TypePtr PtrIntPos = Ctx.getPointer(IntPos);
  TypePtr PtrInt = Ctx.getPointer(Ctx.intTy());
  EXPECT_FALSE(Type::isSubtypeOf(PtrIntPos, PtrInt));
  EXPECT_FALSE(Type::isSubtypeOf(PtrInt, PtrIntPos));
}

TEST(Type, PointerTopLevelQualsStillSubtype) {
  ASTContext Ctx;
  // int* unique <= int* would hold for a VALUE qualifier set; the checker
  // strips reference qualifiers before using this relation. Here we verify
  // the raw relation on top-level qualifier sets.
  TypePtr PtrInt = Ctx.getPointer(Ctx.intTy());
  TypePtr PtrIntQ = Ctx.withQual(PtrInt, "nonnull");
  EXPECT_TRUE(Type::isSubtypeOf(PtrIntQ, PtrInt));
}

TEST(Type, DeepUnqualifiedStripsEveryLevel) {
  ASTContext Ctx;
  TypePtr T = Ctx.withQual(
      Ctx.getPointer(Ctx.withQual(Ctx.intTy(), "pos")), "unique");
  TypePtr U = deepUnqualified(Ctx, T);
  EXPECT_TRUE(U->quals().empty());
  EXPECT_TRUE(U->pointee()->quals().empty());
  EXPECT_TRUE(Type::equals(U, Ctx.getPointer(Ctx.intTy())));
}

TEST(Type, EqualsIgnoringQualsAgreesWithDeepUnqualifiedEquality) {
  ASTContext Ctx;
  TypePtr Int = Ctx.intTy();
  TypePtr PosInt = Ctx.withQual(Int, "pos");
  TypePtr Fn = Ctx.getFunction(PosInt, {Ctx.getPointer(PosInt)}, false);
  std::vector<TypePtr> Types = {
      Int,
      PosInt,
      Ctx.charTy(),
      Ctx.getPointer(Int),
      Ctx.withQual(Ctx.getPointer(PosInt), "unique"),
      Ctx.getPointer(Ctx.getPointer(Ctx.withQual(Int, "neg"))),
      Ctx.getPointer(Ctx.voidTy()),
      Ctx.getStruct("a"),
      Ctx.withQual(Ctx.getStruct("a"), "nonnull"),
      Ctx.getStruct("b"),
      Fn,
      Ctx.getFunction(Int, {Ctx.getPointer(Int)}, false),
      Ctx.getFunction(Int, {Ctx.getPointer(Int)}, true),
  };
  for (TypePtr A : Types)
    for (TypePtr B : Types)
      EXPECT_EQ(Type::equalsIgnoringQuals(A, B),
                Type::equals(deepUnqualified(Ctx, A),
                             deepUnqualified(Ctx, B)))
          << A->str() << " vs " << B->str();
}

TEST(Type, DroppingNothingReturnsTheSameNode) {
  ASTContext Ctx;
  TypePtr PosInt = Ctx.withQual(Ctx.intTy(), "pos");
  EXPECT_EQ(Type::withoutQuals(PosInt), Ctx.intTy());
  EXPECT_EQ(Ctx.withoutQualsIn(PosInt, {"unique"}), PosInt);
  EXPECT_EQ(Ctx.withQual(PosInt, "pos"), PosInt);
  TypePtr Ptr = Ctx.getPointer(PosInt);
  EXPECT_EQ(Type::withoutQuals(Ctx.withQual(Ptr, "unique")), Ptr);
}

TEST(Type, WithoutQualsInDropsOnlyListed) {
  ASTContext Ctx;
  TypePtr T = Ctx.withQuals(Ctx.getPointer(Ctx.intTy()),
                              {"unique", "nonnull"});
  TypePtr R = Ctx.withoutQualsIn(T, {"unique", "unaliased"});
  EXPECT_FALSE(R->hasQual("unique"));
  EXPECT_TRUE(R->hasQual("nonnull"));
}

TEST(Type, StrRendersPostfix) {
  ASTContext Ctx;
  TypePtr T = Ctx.withQual(
      Ctx.getPointer(Ctx.withQual(Ctx.intTy(), "pos")), "unique");
  EXPECT_EQ(T->str(), "int pos* unique");
  EXPECT_EQ(Ctx.getPointer(Ctx.charTy())->str(), "char*");
}

//===----------------------------------------------------------------------===//
// Type ownership: each Program's context owns every type its TU uses.
//===----------------------------------------------------------------------===//

/// Calls \p Visit on every computed type of \p S's expressions and
/// l-values, and on the declared type of every local it declares.
void forEachType(const Stmt *S, const std::function<void(TypePtr)> &Visit) {
  std::function<void(const Expr *)> OnExpr;
  auto OnLValue = [&](const LValue *LV) {
    Visit(LV->Ty);
    if (LV->isMem())
      OnExpr(LV->Addr);
  };
  OnExpr = [&](const Expr *E) {
    Visit(E->Ty);
    if (auto *R = dyn_cast<LValReadExpr>(E))
      OnLValue(R->LV);
    else if (auto *A = dyn_cast<AddrOfExpr>(E))
      OnLValue(A->LV);
    else if (auto *B = dyn_cast<BinaryExpr>(E)) {
      OnExpr(B->LHS);
      OnExpr(B->RHS);
    } else if (auto *C = dyn_cast<CallExpr>(E)) {
      for (const Expr *Arg : C->Args)
        OnExpr(Arg);
    }
  };
  if (auto *B = dyn_cast<BlockStmt>(S)) {
    for (const Stmt *Sub : B->Stmts)
      forEachType(Sub, Visit);
  } else if (auto *D = dyn_cast<DeclStmt>(S)) {
    Visit(D->Var->DeclaredTy);
    if (D->Var->Init)
      OnExpr(D->Var->Init);
  } else if (auto *A = dyn_cast<AssignStmt>(S)) {
    OnLValue(A->LHS);
    OnExpr(A->RHS);
  } else if (auto *R = dyn_cast<ReturnStmt>(S)) {
    if (R->Value)
      OnExpr(R->Value);
  }
}

/// Every declared and computed type of \p Prog, with their pointees.
std::vector<TypePtr> allTypes(const Program &Prog) {
  std::vector<TypePtr> Out;
  std::function<void(TypePtr)> Add = [&](TypePtr T) {
    ASSERT_NE(T, nullptr);
    Out.push_back(T);
    if (T->isPointer())
      Add(T->pointee());
  };
  for (const StructDef *S : Prog.Structs)
    for (const StructDef::Field &F : S->Fields)
      Add(F.Ty);
  for (const VarDecl *G : Prog.Globals)
    Add(G->DeclaredTy);
  for (const FuncDecl *F : Prog.Functions) {
    Add(F->RetTy);
    for (const VarDecl *P : F->Params)
      Add(P->DeclaredTy);
    if (F->Body)
      forEachType(F->Body, Add);
  }
  return Out;
}

TEST(TypeOwnership, EveryIntInAProgramIsOneNode) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int g(int x) { return x; }\n"
                         "int f(int a, int b) {\n"
                         "  int s = a + b;\n"
                         "  return g(g(s));\n"
                         "}\n",
                         Diags);
  ASSERT_TRUE(Prog);
  TypePtr Int = Prog->Ctx.intTy();
  const FuncDecl *F = Prog->findFunction("f");
  EXPECT_EQ(F->Params[0]->DeclaredTy, Int); // spelled
  auto *Sum = cast<DeclStmt>(F->Body->Stmts[0]);
  EXPECT_EQ(Sum->Var->Init->Ty, Int); // Sema's type for a + b
  unsigned Temps = 0;
  for (const Stmt *S : F->Body->Stmts)
    if (auto *D = dyn_cast<DeclStmt>(S))
      if (D->Var->Name.starts_with("__cil_tmp")) {
        ++Temps;
        EXPECT_EQ(D->Var->DeclaredTy, Int); // lowering's temporary
      }
  EXPECT_EQ(Temps, 2u);
}

TEST(TypeOwnership, AddressOfTwiceIsOnePointerNode) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int f() {\n"
                         "  int x = 1;\n"
                         "  int* p = &x;\n"
                         "  int* q = &x;\n"
                         "  return *p + *q;\n"
                         "}\n",
                         Diags);
  ASSERT_TRUE(Prog);
  const auto &Stmts = Prog->findFunction("f")->Body->Stmts;
  TypePtr First = cast<DeclStmt>(Stmts[1])->Var->Init->Ty;
  TypePtr Second = cast<DeclStmt>(Stmts[2])->Var->Init->Ty;
  EXPECT_EQ(First, Second);
  EXPECT_EQ(First, Prog->Ctx.getPointer(Prog->Ctx.intTy()));
  EXPECT_EQ(First, cast<DeclStmt>(Stmts[1])->Var->DeclaredTy);
}

TEST(TypeOwnership, TwoProgramsShareNoTypeNode) {
  const std::string Source = "struct s { int pos v; char* name; };\n"
                             "int pos g = 3;\n"
                             "int f(struct s* p, char* c) {\n"
                             "  int pos x = g;\n"
                             "  int* a = &x;\n"
                             "  c = \"lit\";\n"
                             "  p = NULL;\n"
                             "  return x + *a;\n"
                             "}\n";
  DiagnosticEngine DA, DB;
  auto A = frontendOk(Source, DA);
  auto B = frontendOk(Source, DB);
  ASSERT_TRUE(A && B);
  std::vector<TypePtr> TA = allTypes(*A), TB = allTypes(*B);
  ASSERT_GT(TA.size(), 20u);
  for (TypePtr T : TA) {
    EXPECT_TRUE(A->Ctx.owns(T)) << T->str();
    EXPECT_FALSE(B->Ctx.owns(T)) << T->str();
  }
  for (TypePtr T : TB)
    EXPECT_TRUE(B->Ctx.owns(T)) << T->str();
  // Distinct nodes still compare structurally.
  ASSERT_EQ(TA.size(), TB.size());
  for (size_t I = 0; I < TA.size(); ++I)
    EXPECT_TRUE(Type::equals(TA[I], TB[I])) << TA[I]->str();
}

TEST(TypeOwnership, EditedDeclaredTypesBelongToTheEditedProgram) {
  qual::QualifierSet Quals;
  DiagnosticEngine Diags;
  ASSERT_TRUE(qual::loadBuiltinQualifiers({"pos", "neg"}, Quals, Diags));
  const std::string Source = "int pos g = 3;\n"
                             "int f(int pos a) {\n"
                             "  int pos x = a;\n"
                             "  int y = x;\n"
                             "  return y;\n"
                             "}\n";
  auto Other = frontendOk(Source, Diags);
  auto Prog = frontendOk(Source, Diags);
  ASSERT_TRUE(Other && Prog);
  auto ExpectOwned = [&] {
    for (const VarDecl *G : Prog->Globals)
      EXPECT_TRUE(Prog->Ctx.owns(G->DeclaredTy)) << G->Name;
    for (const FuncDecl *F : Prog->Functions)
      for (const VarDecl *P : F->Params)
        EXPECT_TRUE(Prog->Ctx.owns(P->DeclaredTy)) << P->Name;
  };

  EXPECT_GT(checker::stripInferableQualifiers(*Prog, Quals), 0u);
  ExpectOwned();
  EXPECT_FALSE(Prog->Globals[0]->DeclaredTy->hasQual("pos"));

  checker::InferenceReport Report;
  for (VarDecl *V : {Prog->Globals[0], Prog->findFunction("f")->Params[0]}) {
    checker::InferenceSuggestion S;
    S.Var = V->Name;
    S.Decl = V;
    S.Quals.push_back({"pos", "solver", false});
    S.Quals.push_back({"neg", "solver", false});
    Report.Suggestions.push_back(S);
  }
  checker::applyReport(*Prog, Report);
  ExpectOwned();
  EXPECT_TRUE(Prog->Globals[0]->DeclaredTy->hasQual("neg"));
  EXPECT_FALSE(Other->Ctx.owns(Prog->Globals[0]->DeclaredTy));
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, EmptyProgram) {
  auto R = parse("");
  EXPECT_FALSE(R.Diags.hasErrors());
  EXPECT_TRUE(R.Prog->Functions.empty());
}

TEST(Parser, GlobalVariable) {
  auto R = parse("int x = 3;");
  ASSERT_FALSE(R.Diags.hasErrors());
  ASSERT_EQ(R.Prog->Globals.size(), 1u);
  EXPECT_EQ(R.Prog->Globals[0]->Name, "x");
  EXPECT_TRUE(R.Prog->Globals[0]->IsGlobal);
  ASSERT_NE(R.Prog->Globals[0]->Init, nullptr);
}

TEST(Parser, QualifiedDeclarations) {
  auto R = parse("int pos x = 3;\n"
                 "int* unique p;\n"
                 "char* untainted fmt;\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  EXPECT_TRUE(R.Prog->Globals[0]->DeclaredTy->hasQual("pos"));
  EXPECT_TRUE(R.Prog->Globals[1]->DeclaredTy->hasQual("unique"));
  EXPECT_TRUE(R.Prog->Globals[1]->DeclaredTy->isPointer());
  EXPECT_TRUE(R.Prog->Globals[2]->DeclaredTy->hasQual("untainted"));
}

TEST(Parser, NestedQualifierPlacement) {
  // Postfix: `int pos*` is a pointer TO int pos.
  auto R = parse("int pos* p;");
  ASSERT_FALSE(R.Diags.hasErrors());
  TypePtr T = R.Prog->Globals[0]->DeclaredTy;
  EXPECT_TRUE(T->isPointer());
  EXPECT_TRUE(T->quals().empty());
  EXPECT_TRUE(T->pointee()->hasQual("pos"));
}

TEST(Parser, FunctionWithBody) {
  auto R = parse("int pos gcd(int pos n, int pos m);\n"
                 "int pos lcm(int pos a, int pos b) {\n"
                 "  int pos d = gcd(a, b);\n"
                 "  int pos prod = a * b;\n"
                 "  return (int pos) (prod / d);\n"
                 "}\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  ASSERT_EQ(R.Prog->Functions.size(), 2u);
  FuncDecl *Lcm = R.Prog->findFunction("lcm");
  ASSERT_NE(Lcm, nullptr);
  EXPECT_TRUE(Lcm->isDefinition());
  EXPECT_EQ(Lcm->Params.size(), 2u);
  EXPECT_TRUE(Lcm->RetTy->hasQual("pos"));
}

TEST(Parser, PrototypeThenDefinitionMerges) {
  auto R = parse("int f(int x);\n"
                 "int f(int x) { return x; }\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  ASSERT_EQ(R.Prog->Functions.size(), 1u);
  EXPECT_TRUE(R.Prog->Functions[0]->isDefinition());
}

TEST(Parser, VariadicPrototype) {
  auto R = parse("int printf(char* untainted fmt, ...);");
  ASSERT_FALSE(R.Diags.hasErrors());
  EXPECT_TRUE(R.Prog->Functions[0]->Variadic);
  EXPECT_EQ(R.Prog->Functions[0]->Params.size(), 1u);
}

TEST(Parser, StructDefinitionAndAccess) {
  auto R = parse("struct dfa { int nstates; int* nonnull trans; };\n"
                 "struct dfa* d;\n"
                 "int f() { return d->nstates; }\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  ASSERT_EQ(R.Prog->Structs.size(), 1u);
  EXPECT_EQ(R.Prog->Structs[0]->Fields.size(), 2u);
}

TEST(Parser, IndexDesugarsToDeref) {
  auto R = parse("int f(int* a, int i) { return a[i]; }\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  auto *Fn = R.Prog->findFunction("f");
  auto *Ret = dyn_cast<ReturnStmt>(Fn->Body->Stmts[0]);
  ASSERT_NE(Ret, nullptr);
  auto *Read = dyn_cast<LValReadExpr>(Ret->Value);
  ASSERT_NE(Read, nullptr);
  EXPECT_TRUE(Read->LV->isMem());
  EXPECT_TRUE(isa<BinaryExpr>(Read->LV->Addr));
}

TEST(Parser, AddressOfRequiresLValue) {
  auto R = parse("int f(int x) { return 0; }\n"
                 "int g() { int* p; p = &3; return 0; }\n");
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(Parser, UndeclaredVariableErrors) {
  auto R = parse("int f() { return y; }\n");
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(Parser, RedeclarationInSameScopeErrors) {
  auto R = parse("int f() { int x; int x; return 0; }\n");
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(Parser, ShadowingInInnerScopeAllowed) {
  auto R = parse("int f() { int x; { int x; x = 1; } return x; }\n");
  EXPECT_FALSE(R.Diags.hasErrors());
}

TEST(Parser, EachSpelledTypeIsOneNodePerParse) {
  auto R = parse("struct s { int v; };\n"
                 "int pos a;\n"
                 "int pos b;\n"
                 "struct s* nonnull p;\n"
                 "int f(struct s* nonnull q, int pos c) { return c; }\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  const auto &G = R.Prog->Globals;
  ASSERT_EQ(G.size(), 3u);
  EXPECT_EQ(G[0]->DeclaredTy, G[1]->DeclaredTy);
  const FuncDecl *F = R.Prog->findFunction("f");
  EXPECT_EQ(F->Params[0]->DeclaredTy, G[2]->DeclaredTy);
  EXPECT_EQ(F->Params[1]->DeclaredTy, G[0]->DeclaredTy);
  EXPECT_EQ(F->RetTy, R.Prog->Ctx.intTy());
}

TEST(Parser, SecondBodyIsARedefinition) {
  auto R = parse("int f() { return 1; }\n"
                 "int f() { return 2; }\n");
  ASSERT_TRUE(R.Diags.hasErrors());
  bool Saw = false;
  for (const Diagnostic &D : R.Diags.diagnostics())
    Saw = Saw || D.Message.find("redefinition of function 'f'") !=
                     std::string::npos;
  EXPECT_TRUE(Saw);
  EXPECT_EQ(R.Prog->Functions.size(), 1u);
}

TEST(Parser, PrototypeAfterDefinitionKeepsTheDefinition) {
  auto R = parse("int f(int x) { return x; }\n"
                 "int f(int x);\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  ASSERT_EQ(R.Prog->Functions.size(), 1u);
  EXPECT_TRUE(R.Prog->Functions[0]->isDefinition());
  EXPECT_EQ(R.Prog->findFunction("f"), R.Prog->Functions[0]);
}

TEST(Parser, CallBeforeDefinitionBindsToTheDefinition) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("int g(int x);\n"
                           "int f() { return g(1); }\n"
                           "int g(int x) { return x; }\n",
                           Quals, Diags);
  ASSERT_TRUE(runSema(*Prog, RefQuals, Diags));
  FuncDecl *G = Prog->findFunction("g");
  ASSERT_NE(G, nullptr);
  ASSERT_TRUE(G->isDefinition());
  auto *Ret = dyn_cast<ReturnStmt>(Prog->findFunction("f")->Body->Stmts[0]);
  ASSERT_NE(Ret, nullptr);
  auto *Call = dyn_cast<CallExpr>(Ret->Value);
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->Callee, G);
}

TEST(Sema, FieldAccessResolvesThroughItsOwnStruct) {
  // Both structs have a field `v`, with different types; each access
  // must take the type from the struct its base names.
  DiagnosticEngine Diags;
  auto Prog = frontendOk("struct a { int v; };\n"
                         "struct b { char* v; };\n"
                         "struct a* pa;\n"
                         "struct b* pb;\n"
                         "int f() { int x = pa->v; char* y = pb->v; "
                         "return x; }\n",
                         Diags);
  ASSERT_FALSE(Diags.hasErrors());
  FuncDecl *F = Prog->findFunction("f");
  auto *X = dyn_cast<DeclStmt>(F->Body->Stmts[0]);
  auto *Y = dyn_cast<DeclStmt>(F->Body->Stmts[1]);
  ASSERT_NE(X, nullptr);
  ASSERT_NE(Y, nullptr);
  EXPECT_TRUE(X->Var->Init->Ty->isInt());
  EXPECT_TRUE(Y->Var->Init->Ty->isPointer());
  // Through the wrong struct the same spelling is a type error.
  DiagnosticEngine Bad;
  auto Mixed = parseProgram("struct a { int v; };\n"
                            "struct b { char* v; };\n"
                            "struct b* pb;\n"
                            "int f() { int x = pb->v; return x; }\n",
                            Quals, Bad);
  ASSERT_FALSE(Bad.hasErrors());
  EXPECT_FALSE(runSema(*Mixed, RefQuals, Bad));
}

TEST(Parser, ExpressionStatementMustBeCall) {
  auto R = parse("int f() { 1 + 2; return 0; }\n");
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(Parser, CastSyntax) {
  auto R = parse("char* untainted g() {\n"
                 "  char* untainted fmt = (char* untainted) \"%s\";\n"
                 "  return fmt;\n"
                 "}\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  auto *Fn = R.Prog->findFunction("g");
  auto *Decl = dyn_cast<DeclStmt>(Fn->Body->Stmts[0]);
  ASSERT_NE(Decl, nullptr);
  auto *Cast_ = dyn_cast<CastExpr>(Decl->Var->Init);
  ASSERT_NE(Cast_, nullptr);
  EXPECT_TRUE(Cast_->Target->hasQual("untainted"));
}

TEST(Parser, ControlFlowStatements) {
  auto R = parse("int f(int n) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i = i + 1) {\n"
                 "    if (i % 2 == 0) s = s + i; else s = s - 1;\n"
                 "  }\n"
                 "  while (s > 100) { s = s / 2; break; }\n"
                 "  return s;\n"
                 "}\n");
  EXPECT_FALSE(R.Diags.hasErrors());
}

TEST(Parser, PrecedenceMulBeforeAdd) {
  auto R = parse("int f(int a, int b, int c) { return a + b * c; }\n");
  ASSERT_FALSE(R.Diags.hasErrors());
  auto *Ret = cast<ReturnStmt>(R.Prog->findFunction("f")->Body->Stmts[0]);
  auto *Add = dyn_cast<BinaryExpr>(Ret->Value);
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->Op, BinaryOp::Add);
  auto *Mul = dyn_cast<BinaryExpr>(Add->RHS);
  ASSERT_NE(Mul, nullptr);
  EXPECT_EQ(Mul->Op, BinaryOp::Mul);
}

TEST(Parser, SizeofType) {
  auto R = parse("int f() { return sizeof(int) + sizeof(struct dfa*); }\n");
  EXPECT_FALSE(R.Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Sema
//===----------------------------------------------------------------------===//

TEST(Sema, TypesSimpleFunction) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int f(int x) { return x + 1; }\n", Diags);
  auto *Ret = cast<ReturnStmt>(Prog->findFunction("f")->Body->Stmts[0]);
  EXPECT_TRUE(Ret->Value->Ty->isInt());
}

TEST(Sema, RTypeStripsReferenceQualifiers) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int* unique p;\n"
                         "int* q;\n"
                         "int f() { int i = *p; return i; }\n",
                         Diags);
  // Reading *p is fine; the declared type of p strips `unique` at r-type.
  auto *Fn = Prog->findFunction("f");
  auto *Decl = cast<DeclStmt>(Fn->Body->Stmts[0]);
  EXPECT_TRUE(Decl->Var->Init->Ty->isInt());
}

TEST(Sema, RTypeKeepsValueQualifiers) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int pos x = 3;\n"
                         "int f() { return x; }\n",
                         Diags);
  auto *Ret = cast<ReturnStmt>(Prog->findFunction("f")->Body->Stmts[0]);
  EXPECT_TRUE(Ret->Value->Ty->hasQual("pos"));
}

TEST(Sema, AssignmentTypeMismatchErrors) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("struct s { int a; };\n"
                           "int f() { struct s v; int x; x = v; return x; }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, PointerIntMismatchErrors) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("int f(int* p) { int x; x = p; return x; }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, NullAssignableToAnyPointer) {
  DiagnosticEngine Diags;
  frontendOk("int f() { int* p; p = NULL; return 0; }\n", Diags);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(Sema, MallocIsBuiltinAlloc) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk(
      "int f(int n) { int* p; p = (int*) malloc(sizeof(int) * n);"
      " return 0; }\n",
      Diags);
  auto *Fn = Prog->findFunction("f");
  // Find the assignment and check the direct call is flagged as alloc.
  bool FoundAlloc = false;
  for (Stmt *S : Fn->Body->Stmts) {
    if (auto *Assign = dyn_cast<AssignStmt>(S))
      if (const CallExpr *Call = getDirectCall(Assign->RHS))
        FoundAlloc = Call->IsAlloc;
  }
  EXPECT_TRUE(FoundAlloc);
}

TEST(Sema, WrongArgCountErrors) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("int g(int a, int b) { return a; }\n"
                           "int f() { return g(1); }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, VariadicCallAllowsExtraArgs) {
  DiagnosticEngine Diags;
  frontendOk("int printf(char* fmt, ...);\n"
             "int f() { printf(\"%d %d\", 1, 2); return 0; }\n",
             Diags);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(Sema, ReturnTypeMismatchErrors) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("int* f() { return 3; }\n", Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, VoidFunctionReturningValueErrors) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("void f() { return 3; }\n", Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, StructFieldTypes) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk(
      "struct dfa { int nstates; int* trans; };\n"
      "struct dfa* d;\n"
      "int f() { return d->nstates; }\n"
      "int g() { int* t; t = d->trans; return *t; }\n",
      Diags);
  auto *Ret = cast<ReturnStmt>(Prog->findFunction("f")->Body->Stmts[0]);
  EXPECT_TRUE(Ret->Value->Ty->isInt());
}

TEST(Sema, UnknownFieldErrors) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("struct s { int a; };\n"
                           "struct s* p;\n"
                           "int f() { return p->b; }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, PointerArithmeticKeepsPointerType) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int pos* f(int pos* p, int i) { return p + i; }\n",
                         Diags);
  auto *Ret = cast<ReturnStmt>(Prog->findFunction("f")->Body->Stmts[0]);
  ASSERT_TRUE(Ret->Value->Ty->isPointer());
  EXPECT_TRUE(Ret->Value->Ty->pointee()->hasQual("pos"));
}

TEST(Sema, DerefNonPointerErrors) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("int f(int x) { return *x; }\n", Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

TEST(Lowering, NestedCallIsHoisted) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int g(int x) { return x; }\n"
                         "int f() { return g(g(1)) + 2; }\n",
                         Diags);
  auto *Fn = Prog->findFunction("f");
  // Lowered shape: two temp decls, then a return with no calls.
  ASSERT_GE(Fn->Body->Stmts.size(), 3u);
  unsigned Decls = 0;
  for (Stmt *S : Fn->Body->Stmts)
    if (isa<DeclStmt>(S))
      ++Decls;
  EXPECT_EQ(Decls, 2u);
}

TEST(Lowering, DirectCallRHSStaysInPlace) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int g(int x) { return x; }\n"
                         "int f() { int y = g(1); return y; }\n",
                         Diags);
  auto *Fn = Prog->findFunction("f");
  // No hoisting needed: the decl keeps its call initializer.
  ASSERT_EQ(Fn->Body->Stmts.size(), 2u);
  auto *Decl = cast<DeclStmt>(Fn->Body->Stmts[0]);
  EXPECT_NE(getDirectCall(Decl->Var->Init), nullptr);
}

TEST(Lowering, CallUnderCastStaysDirect) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk(
      "int f(int n) { int* p; p = (int*) malloc(n); return 0; }\n", Diags);
  auto *Fn = Prog->findFunction("f");
  bool FoundDirect = false;
  for (Stmt *S : Fn->Body->Stmts)
    if (auto *Assign = dyn_cast<AssignStmt>(S))
      FoundDirect = getDirectCall(Assign->RHS) != nullptr;
  EXPECT_TRUE(FoundDirect);
}

TEST(Lowering, CallInLoopConditionRejected) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("int g() { return 1; }\n"
                           "int f() { while (g()) { } return 0; }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_TRUE(runSema(*Prog, RefQuals, Diags));
  EXPECT_FALSE(lowerProgram(*Prog, Diags));
}

TEST(Lowering, CallInShortCircuitRejected) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram(
      "int g() { return 1; }\n"
      "int f(int a) { if (a && g()) { return 1; } return 0; }\n",
      Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_TRUE(runSema(*Prog, RefQuals, Diags));
  EXPECT_FALSE(lowerProgram(*Prog, Diags));
}

TEST(Lowering, CallInIfConditionHoistedBeforeStatement) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int g() { return 1; }\n"
                         "int f() { if (g() > 0) { return 1; } return 0; }\n",
                         Diags);
  auto *Fn = Prog->findFunction("f");
  EXPECT_TRUE(isa<DeclStmt>(Fn->Body->Stmts[0]));
  EXPECT_TRUE(isa<IfStmt>(Fn->Body->Stmts[1]));
}

TEST(Lowering, PaperFigure2Survives) {
  DiagnosticEngine Diags;
  frontendOk("int pos gcd(int pos n, int pos m);\n"
             "int pos lcm(int pos a, int pos b) {\n"
             "  int pos d = gcd(a, b);\n"
             "  int pos prod = a * b;\n"
             "  return (int pos) (prod / d);\n"
             "}\n",
             Diags);
  EXPECT_FALSE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

TEST(Printer, RoundTripsSimpleFunction) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int f(int x) { return x * (x + 1); }\n", Diags);
  std::string Printed = printProgram(*Prog);
  // Reparse the printed output; it must parse cleanly.
  DiagnosticEngine Diags2;
  auto Prog2 = parseProgram(Printed, Quals, Diags2);
  EXPECT_FALSE(Diags2.hasErrors()) << Printed;
  EXPECT_EQ(Prog2->Functions.size(), 1u);
}

TEST(Printer, PreservesPrecedenceWithParens) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int f(int a, int b, int c) {"
                         " return (a + b) * c; }\n",
                         Diags);
  auto *Ret = cast<ReturnStmt>(Prog->findFunction("f")->Body->Stmts[0]);
  EXPECT_EQ(printExpr(Ret->Value), "(a + b) * c");
}

TEST(Printer, QualifiedTypesRendered) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("int pos x = 3;\n", Diags);
  std::string Printed = printProgram(*Prog);
  EXPECT_NE(Printed.find("int pos x"), std::string::npos) << Printed;
}

TEST(Printer, ArrowFormForMemFieldAccess) {
  DiagnosticEngine Diags;
  auto Prog = frontendOk("struct s { int a; };\n"
                         "int f(struct s* p) { return p->a; }\n",
                         Diags);
  auto *Ret = cast<ReturnStmt>(Prog->findFunction("f")->Body->Stmts[0]);
  EXPECT_EQ(printExpr(Ret->Value), "p->a");
}

} // namespace

namespace {

TEST(Sema, StructCopyRejected) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("struct s { int a; };\n"
                           "void f() { struct s x; struct s y; x = y; }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, StructParamRejected) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("struct s { int a; };\n"
                           "int f(struct s v) { return v.a; }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, StructReturnRejected) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram("struct s { int a; };\n"
                           "struct s g();\n"
                           "struct s f() { struct s v; return v; }\n",
                           Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(runSema(*Prog, RefQuals, Diags));
}

TEST(Sema, StructThroughPointerStillFine) {
  DiagnosticEngine Diags;
  frontendOk("struct s { int a; };\n"
             "int f(struct s* p) { p->a = 3; return p->a; }\n",
             Diags);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(Parser, StrayCloseBraceAtTopLevelDoesNotLoop) {
  // Regression: synchronize() stops at '}' without consuming; the
  // top-level loop must still make progress.
  auto R = parse("} } } int x = 1; }");
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_EQ(R.Prog->Globals.size(), 1u);
}

TEST(Printer, ForLoopRoundTrips) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) { s = s + i; }\n"
      "  return s;\n"
      "}\n",
      Quals, Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_TRUE(runSema(*Prog, RefQuals, Diags));
  std::string Printed = printProgram(*Prog);
  EXPECT_NE(Printed.find("for (int i = 0; i < n; i = i + 1)"),
            std::string::npos)
      << Printed;
  DiagnosticEngine D2;
  auto P2 = parseProgram(Printed, Quals, D2);
  EXPECT_FALSE(D2.hasErrors()) << Printed;
}

} // namespace
