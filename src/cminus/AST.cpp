//===- AST.cpp ------------------------------------------------------------===//

#include "cminus/AST.h"

using namespace stq::cminus;

const StructDef::Field *StructDef::findField(
    std::string_view FieldName) const {
  for (const Field &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
}

TypePtr FuncDecl::type() const {
  std::vector<TypePtr> ParamTys;
  ParamTys.reserve(Params.size());
  for (const VarDecl *P : Params)
    ParamTys.push_back(P->DeclaredTy);
  return Type::getFunction(RetTy, std::move(ParamTys), Variadic);
}

const char *stq::cminus::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::LAnd:
    return "&&";
  case BinaryOp::LOr:
    return "||";
  }
  return "?";
}

const char *stq::cminus::unaryOpSpelling(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Neg:
    return "-";
  case UnaryOp::Not:
    return "!";
  case UnaryOp::BitNot:
    return "~";
  }
  return "?";
}

FuncDecl *Program::findFunction(std::string_view Name) const {
  auto It = FunctionIndex.find(Name);
  return It == FunctionIndex.end() ? nullptr : Functions[It->second];
}

StructDef *Program::findStruct(std::string_view Name) const {
  auto It = StructIndex.find(Name);
  return It == StructIndex.end() ? nullptr : It->second;
}

void Program::addFunction(FuncDecl *Fn) {
  FunctionIndex.emplace(Fn->Name, Functions.size());
  Functions.push_back(Fn);
}

void Program::defineFunction(FuncDecl *Fn) {
  Functions[FunctionIndex.at(Fn->Name)] = Fn;
}

void Program::addStruct(StructDef *S) {
  StructIndex.emplace(S->Name, S);
  Structs.push_back(S);
}
