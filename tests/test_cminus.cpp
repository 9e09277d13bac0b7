//===- test_cminus.cpp - Tests for the C-minus front end ------------------===//

#include "cminus/AST.h"
#include "cminus/Lowering.h"
#include "cminus/Parser.h"
#include "cminus/Printer.h"
#include "cminus/Sema.h"
#include "cminus/Type.h"

#include <gtest/gtest.h>

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

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(Type, BasicPredicates) {
  EXPECT_TRUE(Type::getInt()->isInt());
  EXPECT_TRUE(Type::getChar()->isArithmetic());
  EXPECT_TRUE(Type::getVoid()->isVoid());
  EXPECT_TRUE(Type::getPointer(Type::getInt())->isPointer());
  EXPECT_TRUE(Type::getStruct("dfa")->isStruct());
}

TEST(Type, QualsAreSortedAndDeduped) {
  TypePtr T = Type::withQuals(Type::getInt(), {"pos", "nonzero", "pos"});
  ASSERT_EQ(T->quals().size(), 2u);
  EXPECT_EQ(T->quals()[0], "nonzero");
  EXPECT_EQ(T->quals()[1], "pos");
  EXPECT_TRUE(T->hasQual("pos"));
  EXPECT_FALSE(T->hasQual("neg"));
}

TEST(Type, WithQualAddsOne) {
  TypePtr T = Type::withQual(Type::getInt(), "pos");
  EXPECT_TRUE(T->hasQual("pos"));
  TypePtr T2 = Type::withQual(T, "nonzero");
  EXPECT_TRUE(T2->hasQual("pos"));
  EXPECT_TRUE(T2->hasQual("nonzero"));
  // Original is unchanged (immutability).
  EXPECT_FALSE(T->hasQual("nonzero"));
}

TEST(Type, EqualityIsStructuralIncludingQuals) {
  TypePtr A = Type::withQual(Type::getInt(), "pos");
  TypePtr B = Type::withQual(Type::getInt(), "pos");
  EXPECT_TRUE(Type::equals(A, B));
  EXPECT_FALSE(Type::equals(A, Type::getInt()));
  // Qualifier order is irrelevant (rule SubQualReorder).
  TypePtr C = Type::withQuals(Type::getInt(), {"pos", "nonzero"});
  TypePtr D = Type::withQuals(Type::getInt(), {"nonzero", "pos"});
  EXPECT_TRUE(Type::equals(C, D));
}

TEST(Type, SubtypeDropsTopLevelQuals) {
  // int pos <= int  (rule SubValQual).
  TypePtr IntPos = Type::withQual(Type::getInt(), "pos");
  EXPECT_TRUE(Type::isSubtypeOf(IntPos, Type::getInt()));
  EXPECT_FALSE(Type::isSubtypeOf(Type::getInt(), IntPos));
  // Reflexivity.
  EXPECT_TRUE(Type::isSubtypeOf(IntPos, IntPos));
}

TEST(Type, SubtypeSupersetOfQuals) {
  TypePtr PosNonzero = Type::withQuals(Type::getInt(), {"pos", "nonzero"});
  TypePtr Nonzero = Type::withQual(Type::getInt(), "nonzero");
  EXPECT_TRUE(Type::isSubtypeOf(PosNonzero, Nonzero));
  EXPECT_FALSE(Type::isSubtypeOf(Nonzero, PosNonzero));
}

TEST(Type, NoSubtypingUnderPointers) {
  // int pos* is NOT a subtype of int* (section 2.1.2).
  TypePtr IntPos = Type::withQual(Type::getInt(), "pos");
  TypePtr PtrIntPos = Type::getPointer(IntPos);
  TypePtr PtrInt = Type::getPointer(Type::getInt());
  EXPECT_FALSE(Type::isSubtypeOf(PtrIntPos, PtrInt));
  EXPECT_FALSE(Type::isSubtypeOf(PtrInt, PtrIntPos));
}

TEST(Type, PointerTopLevelQualsStillSubtype) {
  // int* unique <= int* would hold for a VALUE qualifier set; the checker
  // strips reference qualifiers before using this relation. Here we verify
  // the raw relation on top-level qualifier sets.
  TypePtr PtrInt = Type::getPointer(Type::getInt());
  TypePtr PtrIntQ = Type::withQual(PtrInt, "nonnull");
  EXPECT_TRUE(Type::isSubtypeOf(PtrIntQ, PtrInt));
}

TEST(Type, DeepUnqualifiedStripsEveryLevel) {
  TypePtr T = Type::withQual(
      Type::getPointer(Type::withQual(Type::getInt(), "pos")), "unique");
  TypePtr U = Type::deepUnqualified(T);
  EXPECT_TRUE(U->quals().empty());
  EXPECT_TRUE(U->pointee()->quals().empty());
  EXPECT_TRUE(Type::equals(U, Type::getPointer(Type::getInt())));
}

TEST(Type, EqualsIgnoringQualsAgreesWithDeepUnqualifiedEquality) {
  TypePtr Int = Type::getInt();
  TypePtr PosInt = Type::withQual(Int, "pos");
  TypePtr Fn = Type::getFunction(PosInt, {Type::getPointer(PosInt)}, false);
  std::vector<TypePtr> Types = {
      Int,
      PosInt,
      Type::getChar(),
      Type::getPointer(Int),
      Type::withQual(Type::getPointer(PosInt), "unique"),
      Type::getPointer(Type::getPointer(Type::withQual(Int, "neg"))),
      Type::getPointer(Type::getVoid()),
      Type::getStruct("a"),
      Type::withQual(Type::getStruct("a"), "nonnull"),
      Type::getStruct("b"),
      Fn,
      Type::getFunction(Int, {Type::getPointer(Int)}, false),
      Type::getFunction(Int, {Type::getPointer(Int)}, true),
  };
  for (const TypePtr &A : Types)
    for (const TypePtr &B : Types)
      EXPECT_EQ(Type::equalsIgnoringQuals(A, B),
                Type::equals(Type::deepUnqualified(A),
                             Type::deepUnqualified(B)))
          << A->str() << " vs " << B->str();
}

TEST(Type, DroppingNothingReturnsTheSameNode) {
  TypePtr PosInt = Type::withQual(Type::getInt(), "pos");
  EXPECT_EQ(Type::withoutQuals(PosInt), Type::getInt());
  EXPECT_EQ(Type::withoutQualsIn(PosInt, {"unique"}), PosInt);
  EXPECT_EQ(Type::withQual(PosInt, "pos"), PosInt);
  TypePtr Ptr = Type::getPointer(PosInt);
  EXPECT_EQ(Type::withoutQuals(Type::withQual(Ptr, "unique")), Ptr);
}

TEST(Type, WithoutQualsInDropsOnlyListed) {
  TypePtr T = Type::withQuals(Type::getPointer(Type::getInt()),
                              {"unique", "nonnull"});
  TypePtr R = Type::withoutQualsIn(T, {"unique", "unaliased"});
  EXPECT_FALSE(R->hasQual("unique"));
  EXPECT_TRUE(R->hasQual("nonnull"));
}

TEST(Type, StrRendersPostfix) {
  TypePtr T = Type::withQual(
      Type::getPointer(Type::withQual(Type::getInt(), "pos")), "unique");
  EXPECT_EQ(T->str(), "int pos* unique");
  EXPECT_EQ(Type::getPointer(Type::getChar())->str(), "char*");
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
  EXPECT_EQ(G[0]->DeclaredTy.get(), G[1]->DeclaredTy.get());
  const FuncDecl *F = R.Prog->findFunction("f");
  EXPECT_EQ(F->Params[0]->DeclaredTy.get(), G[2]->DeclaredTy.get());
  EXPECT_EQ(F->Params[1]->DeclaredTy.get(), G[0]->DeclaredTy.get());
  EXPECT_EQ(F->RetTy.get(), Type::getInt().get());
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
