//===- AST.cpp ------------------------------------------------------------===//

#include "cminus/AST.h"

#include <cstdlib>
#include <new>

using namespace stq::cminus;

BumpArena::~BumpArena() {
  while (Chunks) {
    Chunk *Next = Chunks->Next;
    std::free(Chunks);
    Chunks = Next;
  }
}

void *BumpArena::allocateSlow(size_t Size, size_t Align) {
  // An object that would fill most of a chunk gets a block of its own, so
  // the current chunk keeps serving small nodes.
  size_t Needed = sizeof(Chunk) + Size + Align;
  bool Own = Needed > ChunkSize / 4;
  size_t Bytes = Own ? Needed : ChunkSize;
  auto *C = static_cast<Chunk *>(std::malloc(Bytes));
  if (!C)
    throw std::bad_alloc();
  C->Size = Bytes;
  char *Begin = reinterpret_cast<char *>(C + 1);
  uintptr_t P = (reinterpret_cast<uintptr_t>(Begin) + Align - 1) & ~(Align - 1);
  if (Own && Chunks) {
    // Link it behind the current chunk, which stays the bump target.
    C->Next = Chunks->Next;
    Chunks->Next = C;
    return reinterpret_cast<void *>(P);
  }
  C->Next = Chunks;
  Chunks = C;
  Cur = reinterpret_cast<char *>(P + Size);
  End = reinterpret_cast<char *>(C) + Bytes;
  return reinterpret_cast<void *>(P);
}

bool BumpArena::contains(const void *P) const {
  auto Addr = reinterpret_cast<uintptr_t>(P);
  for (const Chunk *C = Chunks; C; C = C->Next) {
    auto Begin = reinterpret_cast<uintptr_t>(C + 1);
    if (Addr >= Begin && Addr < reinterpret_cast<uintptr_t>(C) + C->Size)
      return true;
  }
  return false;
}

const StructDef::Field *StructDef::findField(
    std::string_view FieldName) const {
  for (const Field &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
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
