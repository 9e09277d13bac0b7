//===- test_qual.cpp - Tests for the qualifier-definition language --------===//

#include "qual/Builtins.h"
#include "qual/QualAST.h"
#include "qual/QualParser.h"

#include "cminus/AST.h"

#include <gtest/gtest.h>

using namespace stq;
using namespace stq::qual;
using cminus::BinaryOp;
using cminus::UnaryOp;

namespace {

QualifierSet parseOk(const std::string &Source) {
  QualifierSet Set;
  DiagnosticEngine Diags;
  EXPECT_TRUE(parseQualifiers(Source, Set, Diags));
  EXPECT_FALSE(Diags.hasErrors()) << Source;
  return Set;
}

bool parseFails(const std::string &Source) {
  QualifierSet Set;
  DiagnosticEngine Diags;
  return !parseQualifiers(Source, Set, Diags);
}

bool wellFormed(const std::string &Source) {
  QualifierSet Set;
  DiagnosticEngine Diags;
  if (!parseQualifiers(Source, Set, Diags))
    return false;
  return checkWellFormed(Set, Diags);
}

//===----------------------------------------------------------------------===//
// Type patterns
//===----------------------------------------------------------------------===//

TEST(TypePattern, AnyMatchesEverything) {
  cminus::ASTContext Ctx;
  TypePattern P = TypePattern::any();
  EXPECT_TRUE(P.matches(Ctx.intTy()));
  EXPECT_TRUE(P.matches(Ctx.getPointer(Ctx.charTy())));
  EXPECT_TRUE(P.matches(Ctx.getStruct("s")));
}

TEST(TypePattern, IntMatchesIntIgnoringQuals) {
  cminus::ASTContext Ctx;
  TypePattern P = TypePattern::intTy();
  EXPECT_TRUE(P.matches(Ctx.intTy()));
  EXPECT_TRUE(P.matches(Ctx.withQual(Ctx.intTy(), "pos")));
  EXPECT_FALSE(P.matches(Ctx.charTy()));
  EXPECT_FALSE(P.matches(Ctx.getPointer(Ctx.intTy())));
}

TEST(TypePattern, PointerPatternsMatchStructurally) {
  cminus::ASTContext Ctx;
  // T* matches any pointer.
  TypePattern AnyPtr = TypePattern::pointerTo(TypePattern::any());
  EXPECT_TRUE(AnyPtr.matches(Ctx.getPointer(Ctx.intTy())));
  EXPECT_TRUE(AnyPtr.matches(
      Ctx.getPointer(Ctx.getPointer(Ctx.charTy()))));
  EXPECT_FALSE(AnyPtr.matches(Ctx.intTy()));
  // T** matches only pointer-to-pointer.
  TypePattern AnyPtrPtr = TypePattern::pointerTo(AnyPtr);
  EXPECT_FALSE(AnyPtrPtr.matches(Ctx.getPointer(Ctx.intTy())));
  EXPECT_TRUE(AnyPtrPtr.matches(
      Ctx.getPointer(Ctx.getPointer(Ctx.intTy()))));
}

TEST(TypePattern, QualifiersIgnoredAtEveryLevel) {
  cminus::ASTContext Ctx;
  TypePattern IntPtr = TypePattern::pointerTo(TypePattern::intTy());
  cminus::TypePtr T = Ctx.withQual(
      Ctx.getPointer(Ctx.withQual(Ctx.intTy(), "pos")), "unique");
  EXPECT_TRUE(IntPtr.matches(T));
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

TEST(QualParser, ParsesFigure1Pos) {
  QualifierSet Set = parseOk(builtinQualifierSource("pos"));
  const QualifierDef *Pos = Set.find("pos");
  ASSERT_NE(Pos, nullptr);
  EXPECT_TRUE(Pos->isValue());
  EXPECT_EQ(Pos->SubjectVar, "E");
  EXPECT_EQ(Pos->SubjectCls, Classifier::Expr);
  ASSERT_EQ(Pos->Cases.size(), 3u);

  // Clause 1: C, where C > 0.
  const Clause &C1 = Pos->Cases[0];
  ASSERT_EQ(C1.Decls.size(), 1u);
  EXPECT_EQ(C1.Decls[0].Cls, Classifier::Const);
  EXPECT_EQ(C1.Pattern.K, ExprPattern::Kind::Var);
  EXPECT_EQ(C1.Where.K, Pred::Kind::Compare);
  EXPECT_EQ(C1.Where.CmpOp, BinaryOp::Gt);

  // Clause 2: E1 * E2 where pos(E1) && pos(E2).
  const Clause &C2 = Pos->Cases[1];
  EXPECT_EQ(C2.Pattern.K, ExprPattern::Kind::Binary);
  EXPECT_EQ(C2.Pattern.Bop, BinaryOp::Mul);
  EXPECT_EQ(C2.Where.K, Pred::Kind::And);

  // Clause 3: -E1 where neg(E1).
  const Clause &C3 = Pos->Cases[2];
  EXPECT_EQ(C3.Pattern.K, ExprPattern::Kind::Unary);
  EXPECT_EQ(C3.Pattern.Uop, UnaryOp::Neg);
  EXPECT_EQ(C3.Where.K, Pred::Kind::QualCheck);
  EXPECT_EQ(C3.Where.Qual, "neg");

  // Invariant: value(E) > 0.
  ASSERT_TRUE(Pos->Invariant.has_value());
  EXPECT_EQ(Pos->Invariant->K, InvPred::Kind::Compare);
  EXPECT_EQ(Pos->Invariant->A.K, InvTerm::Kind::ValueOf);
}

TEST(QualParser, ParsesFigure3NonzeroWithRestrict) {
  QualifierSet Set = parseOk(builtinQualifierSource("nonzero"));
  const QualifierDef *NZ = Set.find("nonzero");
  ASSERT_NE(NZ, nullptr);
  EXPECT_EQ(NZ->Cases.size(), 3u);
  // Two restrict clauses: both `/` and `%` trap on a zero divisor, so the
  // rule must guard both operators.
  ASSERT_EQ(NZ->Restricts.size(), 2u);
  EXPECT_EQ(NZ->Restricts[0].Pattern.K, ExprPattern::Kind::Binary);
  EXPECT_EQ(NZ->Restricts[0].Pattern.Bop, BinaryOp::Div);
  EXPECT_EQ(NZ->Restricts[0].Where.Qual, "nonzero");
  EXPECT_EQ(NZ->Restricts[1].Pattern.K, ExprPattern::Kind::Binary);
  EXPECT_EQ(NZ->Restricts[1].Pattern.Bop, BinaryOp::Rem);
  EXPECT_EQ(NZ->Restricts[1].Where.Qual, "nonzero");
}

TEST(QualParser, ParsesFigure12Nonnull) {
  QualifierSet Set = parseOk(builtinQualifierSource("nonnull"));
  const QualifierDef *NN = Set.find("nonnull");
  ASSERT_NE(NN, nullptr);
  ASSERT_EQ(NN->Cases.size(), 1u);
  EXPECT_EQ(NN->Cases[0].Pattern.K, ExprPattern::Kind::AddrOf);
  ASSERT_EQ(NN->Restricts.size(), 1u);
  EXPECT_EQ(NN->Restricts[0].Pattern.K, ExprPattern::Kind::Deref);
  // Invariant compares against NULL.
  ASSERT_TRUE(NN->Invariant.has_value());
  EXPECT_EQ(NN->Invariant->B.K, InvTerm::Kind::Null);
}

TEST(QualParser, ParsesFigure4FlowQualifiers) {
  QualifierSet Set = parseOk(builtinQualifierSource("tainted") +
                             builtinQualifierSource("untainted"));
  const QualifierDef *T = Set.find("tainted");
  ASSERT_NE(T, nullptr);
  ASSERT_EQ(T->Cases.size(), 1u);
  // Pattern is the subject variable itself: matches any expression.
  EXPECT_EQ(T->Cases[0].Pattern.K, ExprPattern::Kind::Var);
  EXPECT_EQ(T->Cases[0].Pattern.X, "E");
  EXPECT_FALSE(T->Invariant.has_value());

  const QualifierDef *U = Set.find("untainted");
  ASSERT_NE(U, nullptr);
  ASSERT_EQ(U->Cases.size(), 1u);
  EXPECT_EQ(U->Cases[0].Decls[0].Cls, Classifier::Const);
}

TEST(QualParser, ParsesFigure5Unique) {
  QualifierSet Set = parseOk(builtinQualifierSource("unique"));
  const QualifierDef *U = Set.find("unique");
  ASSERT_NE(U, nullptr);
  EXPECT_TRUE(U->IsRef);
  EXPECT_EQ(U->SubjectCls, Classifier::LValue);
  ASSERT_EQ(U->Assigns.size(), 2u);
  EXPECT_EQ(U->Assigns[0].Pattern.K, ExprPattern::Kind::Null);
  EXPECT_EQ(U->Assigns[1].Pattern.K, ExprPattern::Kind::New);
  EXPECT_TRUE(U->DisallowRead);
  EXPECT_FALSE(U->DisallowAddrOf);

  // Invariant: disjunction whose right side contains a forall.
  ASSERT_TRUE(U->Invariant.has_value());
  EXPECT_EQ(U->Invariant->K, InvPred::Kind::Or);
  const InvPred &RHS = *U->Invariant->RHS;
  EXPECT_EQ(RHS.K, InvPred::Kind::And);
  EXPECT_EQ(RHS.LHS->K, InvPred::Kind::IsHeapLoc);
  EXPECT_EQ(RHS.RHS->K, InvPred::Kind::Forall);
  EXPECT_EQ(RHS.RHS->Body->K, InvPred::Kind::Implies);
}

TEST(QualParser, ParsesFigure7Unaliased) {
  QualifierSet Set = parseOk(builtinQualifierSource("unaliased"));
  const QualifierDef *U = Set.find("unaliased");
  ASSERT_NE(U, nullptr);
  EXPECT_TRUE(U->IsRef);
  EXPECT_EQ(U->SubjectCls, Classifier::Var);
  EXPECT_TRUE(U->OnDecl);
  EXPECT_TRUE(U->DisallowAddrOf);
  EXPECT_FALSE(U->DisallowRead);
  ASSERT_TRUE(U->Invariant.has_value());
  EXPECT_EQ(U->Invariant->K, InvPred::Kind::Forall);
}

TEST(QualParser, AllBuiltinsLoadAndAreWellFormed) {
  QualifierSet Set;
  DiagnosticEngine Diags;
  ASSERT_TRUE(loadAllBuiltinQualifiers(Set, Diags));
  EXPECT_EQ(Set.all().size(), 9u);
  // Reference qualifiers reported for r-type stripping.
  auto Refs = Set.refNames();
  EXPECT_EQ(Refs.size(), 2u);
}

TEST(QualParser, SingleEqualsAcceptedInInvariants) {
  // The paper writes `*P = value(L)` inside unique's invariant.
  parseOk("ref qualifier q(T* LValue L)\n"
          "  invariant forall T** P: *P = value(L) => P = location(L)\n");
}

TEST(QualParser, MissingQualifierKeywordFails) {
  EXPECT_TRUE(parseFails("value pos(int Expr E)"));
}

TEST(QualParser, GarbageFails) { EXPECT_TRUE(parseFails("banana")); }

TEST(QualParser, MultipleDefsInOneSource) {
  QualifierSet Set = parseOk(builtinQualifierSource("pos") +
                             builtinQualifierSource("neg"));
  EXPECT_NE(Set.find("pos"), nullptr);
  EXPECT_NE(Set.find("neg"), nullptr);
}

//===----------------------------------------------------------------------===//
// Well-formedness
//===----------------------------------------------------------------------===//

TEST(QualWF, ValueQualifierRequiresExprSubject) {
  EXPECT_FALSE(wellFormed("value qualifier q(int LValue L)\n"
                          "  invariant value(L) > 0\n"));
}

TEST(QualWF, RefQualifierRequiresLValueOrVarSubject) {
  EXPECT_FALSE(wellFormed("ref qualifier q(int Expr E)\n"));
  EXPECT_TRUE(wellFormed("ref qualifier q(T* LValue L)\n  disallow L\n"));
  EXPECT_TRUE(wellFormed("ref qualifier q(T Var X)\n  ondecl\n"));
}

TEST(QualWF, RefQualifierMayNotHaveCaseBlock) {
  EXPECT_FALSE(wellFormed("ref qualifier q(T* LValue L)\n"
                          "  case L of L\n"));
}

TEST(QualWF, ValueQualifierMayNotHaveAssignBlock) {
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  assign E NULL\n"));
}

TEST(QualWF, UndeclaredPatternVariableRejected) {
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  case E of\n"
                          "    decl int Expr E1:\n"
                          "      E1 * E2\n"));
}

TEST(QualWF, UnknownQualifierInCheckRejected) {
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  case E of\n"
                          "    decl int Expr E1:\n"
                          "      -E1, where mystery(E1)\n"));
}

TEST(QualWF, ComparisonRequiresConstClassifier) {
  // E1 has classifier Expr, so `E1 > 0` is not allowed in a where clause.
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  case E of\n"
                          "    decl int Expr E1:\n"
                          "      -E1, where E1 > 0\n"));
}

TEST(QualWF, DuplicateQualifierNamesRejected) {
  QualifierSet Set;
  DiagnosticEngine Diags;
  ASSERT_TRUE(parseQualifiers("value qualifier q(int Expr E)\n"
                              "value qualifier q(int Expr E)\n",
                              Set, Diags));
  EXPECT_FALSE(checkWellFormed(Set, Diags));
}

TEST(QualWF, NewPatternOnlyInAssignBlocks) {
  // Calls are not expressions, so `new` cannot appear in a case pattern.
  EXPECT_FALSE(wellFormed("value qualifier q(T* Expr E)\n"
                          "  case E of new\n"));
}

TEST(QualWF, ForallRequiresPointerRange) {
  EXPECT_FALSE(wellFormed("ref qualifier q(T Var X)\n"
                          "  invariant forall T P: P != location(X)\n"));
}

TEST(QualWF, ForallOnlyForRefQualifiers) {
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  case E of E\n"
                          "  invariant forall T** P: *P != value(E)\n"));
}

TEST(QualWF, LocationOnlyForRefQualifiers) {
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  case E of E\n"
                          "  invariant location(E) != NULL\n"));
}

TEST(QualWF, SubjectShadowingRejected) {
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  case E of\n"
                          "    decl int Expr E:\n"
                          "      -E\n"));
}

TEST(QualWF, DerefPatternRequiresPointerVariable) {
  EXPECT_FALSE(wellFormed("value qualifier q(int Expr E)\n"
                          "  case E of\n"
                          "    decl int Expr E1:\n"
                          "      *E1\n"));
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(QualAST, PatternStr) {
  QualifierSet Set = parseOk(builtinQualifierSource("pos"));
  const QualifierDef *Pos = Set.find("pos");
  EXPECT_EQ(Pos->Cases[1].Pattern.str(), "E1 * E2");
  EXPECT_EQ(Pos->Cases[2].Pattern.str(), "-E1");
}

TEST(QualAST, InvariantStr) {
  QualifierSet Set = parseOk(builtinQualifierSource("pos"));
  EXPECT_EQ(Set.find("pos")->Invariant->str(), "value(E) > 0");
}

TEST(QualAST, PredStr) {
  QualifierSet Set = parseOk(builtinQualifierSource("pos"));
  EXPECT_EQ(Set.find("pos")->Cases[1].Where.str(),
            "(pos(E1) && pos(E2))");
}

} // namespace
