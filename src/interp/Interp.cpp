//===- Interp.cpp ---------------------------------------------------------===//

#include "interp/Interp.h"

#include "cminus/Lowering.h"
#include "cminus/Printer.h"
#include "support/Trace.h"

#include <cassert>
#include <map>
#include <sstream>

using namespace stq;
using namespace stq::interp;
using namespace stq::cminus;

std::string Value::str() const {
  switch (K) {
  case Kind::Int:
    return std::to_string(Int);
  case Kind::Null:
    return "NULL";
  case Kind::Ptr:
    return "&B" + std::to_string(Block) + "+" + std::to_string(Off);
  }
  return "?";
}

namespace {

struct Location {
  uint32_t Block = 0;
  int64_t Off = 0;
};

struct MemBlock {
  std::vector<Value> Cells;
  bool IsHeap = false;
  bool Alive = true;
};

/// Control-flow outcome of executing a statement.
enum class Flow { Normal, Break, Continue, Return };

class Interpreter {
public:
  Interpreter(const Program &Prog, const qual::QualifierSet &Quals,
              const std::vector<checker::RuntimeCastCheck> &Checks,
              InterpOptions Options)
      : Prog(Prog), Quals(Quals), Options(Options) {
    for (const checker::RuntimeCastCheck &C : Checks)
      CheckMap[C.Cast] = C.Quals;
    Blocks.emplace_back(); // Block 0 is invalid.
  }

  RunResult run();

private:
  using Frame = std::map<const VarDecl *, uint32_t>;

  void trap(SourceLoc Loc, const std::string &Message) {
    if (Halted)
      return;
    Halted = true;
    Result.Status = RunStatus::Trap;
    Result.TrapMessage = Loc.str() + ": " + Message;
  }
  bool spendFuel() {
    ++Result.Steps;
    if (Result.Steps > Options.Fuel) {
      if (!Halted) {
        Halted = true;
        Result.Status = RunStatus::FuelExhausted;
      }
      return false;
    }
    return !Halted;
  }

  // Memory.
  unsigned sizeOfType(TypePtr Ty);
  Value initialValueFor(TypePtr Ty);
  uint32_t allocBlockForType(TypePtr Ty, bool IsHeap);
  void initBlockCells(MemBlock &Block, TypePtr Ty, unsigned Base);
  uint32_t allocRawBlock(unsigned Cells, bool IsHeap);
  Value readLoc(Location Loc, SourceLoc At);
  void writeLoc(Location Loc, Value V, SourceLoc At);
  int64_t fieldOffset(TypePtr StructTy, std::string_view Field,
                      TypePtr &FieldTyOut, SourceLoc At);

  // Evaluation.
  Value evalExpr(const Expr *E, Frame &F);
  std::optional<Location> evalLValue(const LValue *LV, Frame &F);
  Value evalCall(const CallExpr *Call, Frame &F);
  Value callFunction(const FuncDecl *Fn, const std::vector<Value> &Args,
                     SourceLoc At, bool AuditParams = true);
  Value doPrintf(const CallExpr *Call, const std::vector<Value> &Args);
  std::string readString(Value Ptr, SourceLoc At);

  // Run-time qualifier checks.
  void runCastChecks(const CastExpr *Cast, const Value &V);
  bool invariantHolds(const qual::InvPred &Inv, const Value &V);
  bool compareValues(cminus::BinaryOp Op, const Value &A, const Value &B);

  // Execution.
  Flow execStmt(const Stmt *S, Frame &F, Value &RetVal);
  void execAssignTo(Location Loc, const Expr *RHS, Frame &F, SourceLoc At,
                    TypePtr AuditTy = nullptr);
  void auditStore(TypePtr DeclTy, const Value &V, SourceLoc At);

  const Program &Prog;
  const qual::QualifierSet &Quals;
  InterpOptions Options;
  std::map<const CastExpr *, std::vector<std::string>> CheckMap;

  std::vector<MemBlock> Blocks;
  Frame Globals;
  std::map<const StrConstExpr *, uint32_t> StringBlocks;
  RunResult Result;
  bool Halted = false;
  /// Active callFunction() frames (see MaxCallDepth).
  unsigned Depth = 0;
};

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

unsigned Interpreter::sizeOfType(TypePtr Ty) {
  TypePtr Bare = Type::withoutQuals(Ty);
  if (Bare->isStruct()) {
    const StructDef *Def = Prog.findStruct(Bare->structName());
    if (!Def)
      return 1;
    unsigned N = 0;
    for (const StructDef::Field &Fd : Def->Fields)
      N += sizeOfType(Fd.Ty);
    return N == 0 ? 1 : N;
  }
  return 1;
}

Value Interpreter::initialValueFor(TypePtr Ty) {
  TypePtr Bare = Type::withoutQuals(Ty);
  if (Bare->isPointer())
    return Value::makeNull();
  return Value::makeInt(0);
}

uint32_t Interpreter::allocRawBlock(unsigned Cells, bool IsHeap) {
  MemBlock B;
  B.Cells.assign(std::max(1u, Cells), Value::makeInt(0));
  B.IsHeap = IsHeap;
  Blocks.push_back(std::move(B));
  return static_cast<uint32_t>(Blocks.size() - 1);
}

void Interpreter::initBlockCells(MemBlock &Block, TypePtr Ty,
                                 unsigned Base) {
  TypePtr Bare = Type::withoutQuals(Ty);
  if (Bare->isStruct()) {
    const StructDef *Def = Prog.findStruct(Bare->structName());
    if (!Def)
      return;
    unsigned Off = 0;
    for (const StructDef::Field &Fd : Def->Fields) {
      initBlockCells(Block, Fd.Ty, Base + Off);
      Off += sizeOfType(Fd.Ty);
    }
    return;
  }
  if (Base < Block.Cells.size())
    Block.Cells[Base] = initialValueFor(Ty);
}

uint32_t Interpreter::allocBlockForType(TypePtr Ty, bool IsHeap) {
  uint32_t Id = allocRawBlock(sizeOfType(Ty), IsHeap);
  initBlockCells(Blocks[Id], Ty, 0);
  return Id;
}

Value Interpreter::readLoc(Location Loc, SourceLoc At) {
  if (Loc.Block == 0 || Loc.Block >= Blocks.size()) {
    trap(At, "read through invalid pointer");
    return Value::makeInt(0);
  }
  MemBlock &B = Blocks[Loc.Block];
  if (!B.Alive) {
    trap(At, "read from freed memory");
    return Value::makeInt(0);
  }
  if (Loc.Off < 0 || static_cast<size_t>(Loc.Off) >= B.Cells.size()) {
    trap(At, "out-of-bounds read at offset " + std::to_string(Loc.Off));
    return Value::makeInt(0);
  }
  return B.Cells[Loc.Off];
}

void Interpreter::writeLoc(Location Loc, Value V, SourceLoc At) {
  if (Loc.Block == 0 || Loc.Block >= Blocks.size()) {
    trap(At, "write through invalid pointer");
    return;
  }
  MemBlock &B = Blocks[Loc.Block];
  if (!B.Alive) {
    trap(At, "write to freed memory");
    return;
  }
  if (Loc.Off < 0 || static_cast<size_t>(Loc.Off) >= B.Cells.size()) {
    trap(At, "out-of-bounds write at offset " + std::to_string(Loc.Off));
    return;
  }
  B.Cells[Loc.Off] = V;
}

int64_t Interpreter::fieldOffset(TypePtr StructTy,
                                 std::string_view Field,
                                 TypePtr &FieldTyOut, SourceLoc At) {
  TypePtr Bare = Type::withoutQuals(StructTy);
  if (!Bare->isStruct()) {
    trap(At, "field access on non-struct value");
    return 0;
  }
  const StructDef *Def = Prog.findStruct(Bare->structName());
  if (!Def) {
    trap(At, "unknown struct '" + std::string(Bare->structName()) + "'");
    return 0;
  }
  int64_t Off = 0;
  for (const StructDef::Field &Fd : Def->Fields) {
    if (Fd.Name == Field) {
      FieldTyOut = Fd.Ty;
      return Off;
    }
    Off += sizeOfType(Fd.Ty);
  }
  trap(At, "struct '" + std::string(Def->Name) + "' has no field '" +
               std::string(Field) + "'");
  return 0;
}

//===----------------------------------------------------------------------===//
// L-values and expressions
//===----------------------------------------------------------------------===//

std::optional<Location> Interpreter::evalLValue(const LValue *LV, Frame &F) {
  if (!spendFuel())
    return std::nullopt;
  Location Loc;
  TypePtr CurTy = nullptr;
  if (LV->isVar()) {
    auto Local = F.find(LV->Var);
    if (Local != F.end()) {
      Loc.Block = Local->second;
    } else {
      auto Glob = Globals.find(LV->Var);
      if (Glob == Globals.end()) {
        trap(LV->Loc, "unbound variable '" + std::string(LV->Var->Name) + "'");
        return std::nullopt;
      }
      Loc.Block = Glob->second;
    }
    Loc.Off = 0;
    CurTy = LV->Var->DeclaredTy;
  } else {
    Value Addr = evalExpr(LV->Addr, F);
    if (Halted)
      return std::nullopt;
    if (Addr.K == Value::Kind::Null) {
      trap(LV->Loc, "null pointer dereference");
      return std::nullopt;
    }
    if (Addr.K != Value::Kind::Ptr) {
      trap(LV->Loc, "dereference of non-pointer value " + Addr.str());
      return std::nullopt;
    }
    Loc.Block = Addr.Block;
    Loc.Off = Addr.Off;
    TypePtr AddrTy = LV->Addr->Ty;
    CurTy = (AddrTy && AddrTy->isPointer()) ? AddrTy->pointee()
                                            : Prog.Ctx.intTy();
  }
  for (std::string_view Field : LV->Fields) {
    TypePtr FieldTy = nullptr;
    Loc.Off += fieldOffset(CurTy, Field, FieldTy, LV->Loc);
    if (Halted)
      return std::nullopt;
    CurTy = FieldTy;
  }
  return Loc;
}

bool Interpreter::compareValues(BinaryOp Op, const Value &A, const Value &B) {
  return interp::compareValues(Op, A, B);
}

Value Interpreter::evalExpr(const Expr *E, Frame &F) {
  if (!spendFuel())
    return Value::makeInt(0);
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
    return Value::makeInt(cast<IntConstExpr>(E)->Value);
  case Expr::Kind::NullConst:
    return Value::makeNull();
  case Expr::Kind::StrConst: {
    const auto *Str = cast<StrConstExpr>(E);
    auto [It, Inserted] = StringBlocks.emplace(Str, 0);
    if (Inserted) {
      uint32_t Id = allocRawBlock(
          static_cast<unsigned>(Str->Value.size() + 1), /*IsHeap=*/false);
      for (size_t I = 0; I < Str->Value.size(); ++I)
        Blocks[Id].Cells[I] = Value::makeInt(Str->Value[I]);
      Blocks[Id].Cells[Str->Value.size()] = Value::makeInt(0);
      It->second = Id;
    }
    return Value::makePtr(It->second, 0);
  }
  case Expr::Kind::LValRead: {
    auto Loc = evalLValue(cast<LValReadExpr>(E)->LV, F);
    if (!Loc)
      return Value::makeInt(0);
    return readLoc(*Loc, E->Loc);
  }
  case Expr::Kind::AddrOf: {
    auto Loc = evalLValue(cast<AddrOfExpr>(E)->LV, F);
    if (!Loc)
      return Value::makeInt(0);
    return Value::makePtr(Loc->Block, Loc->Off);
  }
  case Expr::Kind::Unary: {
    const auto *Un = cast<UnaryExpr>(E);
    Value V = evalExpr(Un->Sub, F);
    if (Halted)
      return Value::makeInt(0);
    switch (Un->Op) {
    case UnaryOp::Neg:
      if (V.K != Value::Kind::Int) {
        trap(E->Loc, "negation of non-integer");
        return Value::makeInt(0);
      }
      return Value::makeInt(-V.Int);
    case UnaryOp::Not:
      return Value::makeInt(V.isTruthy() ? 0 : 1);
    case UnaryOp::BitNot:
      if (V.K != Value::Kind::Int) {
        trap(E->Loc, "bitwise-not of non-integer");
        return Value::makeInt(0);
      }
      return Value::makeInt(~V.Int);
    }
    return Value::makeInt(0);
  }
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    // Short-circuit operators first.
    if (Bin->Op == BinaryOp::LAnd) {
      Value L = evalExpr(Bin->LHS, F);
      if (Halted || !L.isTruthy())
        return Value::makeInt(0);
      return Value::makeInt(evalExpr(Bin->RHS, F).isTruthy() ? 1 : 0);
    }
    if (Bin->Op == BinaryOp::LOr) {
      Value L = evalExpr(Bin->LHS, F);
      if (Halted)
        return Value::makeInt(0);
      if (L.isTruthy())
        return Value::makeInt(1);
      return Value::makeInt(evalExpr(Bin->RHS, F).isTruthy() ? 1 : 0);
    }
    Value L = evalExpr(Bin->LHS, F);
    if (Halted)
      return Value::makeInt(0);
    Value R = evalExpr(Bin->RHS, F);
    if (Halted)
      return Value::makeInt(0);
    switch (Bin->Op) {
    case BinaryOp::Add:
      if (L.K == Value::Kind::Ptr && R.K == Value::Kind::Int)
        return Value::makePtr(L.Block, L.Off + R.Int);
      if (L.K == Value::Kind::Int && R.K == Value::Kind::Ptr)
        return Value::makePtr(R.Block, R.Off + L.Int);
      if (L.K == Value::Kind::Int && R.K == Value::Kind::Int)
        return Value::makeInt(L.Int + R.Int);
      trap(E->Loc, "invalid operands to '+'");
      return Value::makeInt(0);
    case BinaryOp::Sub:
      if (L.K == Value::Kind::Ptr && R.K == Value::Kind::Int)
        return Value::makePtr(L.Block, L.Off - R.Int);
      if (L.K == Value::Kind::Ptr && R.K == Value::Kind::Ptr) {
        if (L.Block != R.Block) {
          trap(E->Loc, "subtraction of pointers to different blocks");
          return Value::makeInt(0);
        }
        return Value::makeInt(L.Off - R.Off);
      }
      if (L.K == Value::Kind::Int && R.K == Value::Kind::Int)
        return Value::makeInt(L.Int - R.Int);
      trap(E->Loc, "invalid operands to '-'");
      return Value::makeInt(0);
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Rem: {
      if (L.K != Value::Kind::Int || R.K != Value::Kind::Int) {
        trap(E->Loc, "arithmetic on non-integers");
        return Value::makeInt(0);
      }
      if (Bin->Op == BinaryOp::Mul)
        return Value::makeInt(L.Int * R.Int);
      if (R.Int == 0) {
        trap(E->Loc, "division by zero");
        return Value::makeInt(0);
      }
      return Value::makeInt(Bin->Op == BinaryOp::Div ? L.Int / R.Int
                                                     : L.Int % R.Int);
    }
    default:
      return Value::makeInt(compareValues(Bin->Op, L, R) ? 1 : 0);
    }
  }
  case Expr::Kind::Cast: {
    const auto *Cast_ = cast<CastExpr>(E);
    Value V = evalExpr(Cast_->Sub, F);
    if (Halted)
      return V;
    runCastChecks(Cast_, V);
    return V;
  }
  case Expr::Kind::Call:
    return evalCall(cast<CallExpr>(E), F);
  case Expr::Kind::SizeofType:
    return Value::makeInt(sizeOfType(cast<SizeofTypeExpr>(E)->Target));
  }
  return Value::makeInt(0);
}

//===----------------------------------------------------------------------===//
// Run-time qualifier checks
//===----------------------------------------------------------------------===//

bool Interpreter::invariantHolds(const qual::InvPred &Inv, const Value &V) {
  return interp::invariantHolds(Inv, V, [this](uint32_t Block) {
    return Block < Blocks.size() && Blocks[Block].IsHeap;
  });
}

void Interpreter::runCastChecks(const CastExpr *Cast, const Value &V) {
  auto Found = CheckMap.find(Cast);
  if (Found == CheckMap.end())
    return;
  for (const std::string &QualName : Found->second) {
    const qual::QualifierDef *Q = Quals.find(QualName);
    if (!Q || !Q->Invariant)
      continue;
    ++Result.ChecksExecuted;
    if (invariantHolds(*Q->Invariant, V))
      continue;
    // The paper's semantics: a fatal error is signaled.
    Result.CheckFailures.push_back({Cast->Loc, QualName, V.str()});
    Halted = true;
    Result.Status = RunStatus::CheckFailure;
    return;
  }
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

std::string Interpreter::readString(Value Ptr, SourceLoc At) {
  std::string Out;
  if (Ptr.K != Value::Kind::Ptr) {
    trap(At, "expected a string pointer");
    return Out;
  }
  Location Loc{Ptr.Block, Ptr.Off};
  for (unsigned Guard = 0; Guard < 65536; ++Guard) {
    Value C = readLoc(Loc, At);
    if (Halted || C.K != Value::Kind::Int || C.Int == 0)
      break;
    Out += static_cast<char>(C.Int);
    ++Loc.Off;
  }
  return Out;
}

Value Interpreter::doPrintf(const CallExpr *Call,
                            const std::vector<Value> &Args) {
  if (Args.empty()) {
    trap(Call->Loc, "printf requires a format argument");
    return Value::makeInt(0);
  }
  std::string Format = readString(Args[0], Call->Loc);
  if (Halted)
    return Value::makeInt(0);
  std::string Out;
  size_t NextArg = 1;
  unsigned Consumed = 0;
  bool Violated = false;
  for (size_t I = 0; I < Format.size(); ++I) {
    if (Format[I] != '%') {
      Out += Format[I];
      continue;
    }
    if (I + 1 >= Format.size())
      break;
    char Spec = Format[++I];
    if (Spec == '%') {
      Out += '%';
      continue;
    }
    ++Consumed;
    Value Arg;
    bool HadArg = NextArg < Args.size();
    if (HadArg) {
      Arg = Args[NextArg++];
    } else {
      // The dynamic signature of a format-string vulnerability: the call
      // reads a nonexistent argument off the stack.
      Violated = true;
      Arg = Value::makeInt(static_cast<int64_t>(0xDEADBEEF));
    }
    switch (Spec) {
    case 'd':
    case 'x':
      Out += (Arg.K == Value::Kind::Int) ? std::to_string(Arg.Int)
                                         : Arg.str();
      break;
    case 'c':
      Out += (Arg.K == Value::Kind::Int) ? std::string(1, char(Arg.Int))
                                         : "?";
      break;
    case 's':
      if (!HadArg) {
        Out += "<stack-garbage>";
      } else {
        Out += readString(Arg, Call->Loc);
        if (Halted)
          return Value::makeInt(0);
      }
      break;
    default:
      Out += '%';
      Out += Spec;
      break;
    }
  }
  if (Violated)
    Result.FormatViolations.push_back(
        {Call->Loc, Format, static_cast<unsigned>(Args.size() - 1),
         Consumed});
  Result.Output += Out;
  return Value::makeInt(static_cast<int64_t>(Out.size()));
}

Value Interpreter::evalCall(const CallExpr *Call, Frame &F) {
  std::vector<Value> Args;
  Args.reserve(Call->Args.size());
  for (const Expr *Arg : Call->Args) {
    Args.push_back(evalExpr(Arg, F));
    if (Halted)
      return Value::makeInt(0);
  }
  // Builtins.
  if (Call->IsAlloc || Call->CalleeName == "malloc") {
    int64_t N = Args.empty() || Args[0].K != Value::Kind::Int ? 1
                                                              : Args[0].Int;
    if (N < 0)
      N = 0;
    uint32_t Id = allocRawBlock(static_cast<unsigned>(N), /*IsHeap=*/true);
    return Value::makePtr(Id, 0);
  }
  if (Call->CalleeName == "free" && !Call->Callee) {
    if (!Args.empty() && Args[0].K == Value::Kind::Ptr &&
        Args[0].Block < Blocks.size())
      Blocks[Args[0].Block].Alive = false;
    return Value::makeInt(0);
  }
  const FuncDecl *Fn = Call->Callee;
  if (!Fn)
    Fn = Prog.findFunction(Call->CalleeName);
  if (Fn && Fn->isDefinition())
    return callFunction(Fn, Args, Call->Loc);
  // Undeclared or prototype-only printf-family calls get the printf model
  // when the first parameter looks like a format string.
  if (Call->CalleeName == "printf" ||
      (Fn && Fn->Variadic && !Fn->Params.empty() &&
       Type::withoutQuals(Fn->Params[0]->DeclaredTy)->isPointer()))
    return doPrintf(Call, Args);
  trap(Call->Loc, "call to undefined function '" +
                      std::string(Call->CalleeName) + "'");
  return Value::makeInt(0);
}

Value Interpreter::callFunction(const FuncDecl *Fn,
                                const std::vector<Value> &Args,
                                SourceLoc At, bool AuditParams) {
  if (!spendFuel())
    return Value::makeInt(0);
  if (Depth == MaxCallDepth) {
    Halted = true;
    Result.Status = RunStatus::FuelExhausted;
    return Value::makeInt(0);
  }
  Frame F;
  for (size_t I = 0; I < Fn->Params.size(); ++I) {
    uint32_t Id = allocBlockForType(Fn->Params[I]->DeclaredTy,
                                    /*IsHeap=*/false);
    if (I < Args.size()) {
      Blocks[Id].Cells[0] = Args[I];
      if (AuditParams)
        auditStore(Fn->Params[I]->DeclaredTy, Args[I], At);
    }
    F[Fn->Params[I]] = Id;
  }
  (void)At;
  Value RetVal = Value::makeInt(0);
  ++Depth;
  execStmt(Fn->Body, F, RetVal);
  --Depth;
  return RetVal;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Interpreter::execAssignTo(Location Loc, const Expr *RHS, Frame &F,
                               SourceLoc At, TypePtr AuditTy) {
  Value V = evalExpr(RHS, F);
  if (Halted)
    return;
  writeLoc(Loc, V, At);
  if (!Halted)
    auditStore(AuditTy, V, At);
}

void Interpreter::auditStore(TypePtr DeclTy, const Value &V,
                             SourceLoc At) {
  if (!Options.AuditQualifiedStores || !DeclTy)
    return;
  for (const std::string &QualName : DeclTy->quals()) {
    const qual::QualifierDef *Q = Quals.find(QualName);
    // Reference-qualifier invariants quantify over locations; only value
    // qualifiers state a per-value property the audit can evaluate.
    if (!Q || Q->IsRef || !Q->Invariant)
      continue;
    ++Result.AuditChecks;
    if (!invariantHolds(*Q->Invariant, V))
      Result.AuditFailures.push_back({At, QualName, V.str()});
  }
}

Flow Interpreter::execStmt(const Stmt *S, Frame &F, Value &RetVal) {
  if (!S || !spendFuel())
    return Flow::Normal;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts) {
      Flow Fl = execStmt(Sub, F, RetVal);
      if (Halted)
        return Flow::Return;
      if (Fl != Flow::Normal)
        return Fl;
    }
    return Flow::Normal;
  case Stmt::Kind::Decl: {
    const VarDecl *Var = cast<DeclStmt>(S)->Var;
    uint32_t Id = allocBlockForType(Var->DeclaredTy, /*IsHeap=*/false);
    F[Var] = Id;
    if (Var->Init)
      execAssignTo(Location{Id, 0}, Var->Init, F, Var->Loc,
                   Var->DeclaredTy);
    return Flow::Normal;
  }
  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    auto Loc = evalLValue(Assign->LHS, F);
    if (!Loc)
      return Flow::Normal;
    execAssignTo(*Loc, Assign->RHS, F, Assign->Loc, Assign->LHS->Ty);
    return Flow::Normal;
  }
  case Stmt::Kind::CallStmt:
    evalCall(cast<CallStmt>(S)->Call, F);
    return Flow::Normal;
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    Value Cond = evalExpr(If->Cond, F);
    if (Halted)
      return Flow::Return;
    if (Cond.isTruthy())
      return execStmt(If->Then, F, RetVal);
    return execStmt(If->Else, F, RetVal);
  }
  case Stmt::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    while (true) {
      Value Cond = evalExpr(While->Cond, F);
      if (Halted)
        return Flow::Return;
      if (!Cond.isTruthy())
        return Flow::Normal;
      Flow Fl = execStmt(While->Body, F, RetVal);
      if (Halted)
        return Flow::Return;
      if (Fl == Flow::Break)
        return Flow::Normal;
      if (Fl == Flow::Return)
        return Fl;
    }
  }
  case Stmt::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    if (For->Init) {
      execStmt(For->Init, F, RetVal);
      if (Halted)
        return Flow::Return;
    }
    while (true) {
      if (For->Cond) {
        Value Cond = evalExpr(For->Cond, F);
        if (Halted)
          return Flow::Return;
        if (!Cond.isTruthy())
          return Flow::Normal;
      }
      Flow Fl = execStmt(For->Body, F, RetVal);
      if (Halted)
        return Flow::Return;
      if (Fl == Flow::Break)
        return Flow::Normal;
      if (Fl == Flow::Return)
        return Fl;
      if (For->Step) {
        execStmt(For->Step, F, RetVal);
        if (Halted)
          return Flow::Return;
      }
    }
  }
  case Stmt::Kind::Return: {
    const auto *Ret = cast<ReturnStmt>(S);
    if (Ret->Value) {
      RetVal = evalExpr(Ret->Value, F);
      if (Halted)
        return Flow::Return;
    }
    return Flow::Return;
  }
  case Stmt::Kind::Break:
    return Flow::Break;
  case Stmt::Kind::Continue:
    return Flow::Continue;
  }
  return Flow::Normal;
}

//===----------------------------------------------------------------------===//
// Entry
//===----------------------------------------------------------------------===//

RunResult Interpreter::run() {
  const FuncDecl *Entry = Prog.findFunction(Options.EntryPoint);
  if (!Entry || !Entry->isDefinition()) {
    Result.Status = RunStatus::SetupError;
    Result.TrapMessage = "entry point '" + Options.EntryPoint +
                         "' not found or has no body";
    return Result;
  }

  // Allocate and initialize globals.
  Frame Empty;
  for (const VarDecl *G : Prog.Globals) {
    uint32_t Id = allocBlockForType(G->DeclaredTy, /*IsHeap=*/false);
    Globals[G] = Id;
  }
  for (const VarDecl *G : Prog.Globals) {
    if (!G->Init)
      continue;
    execAssignTo(Location{Globals[G], 0}, G->Init, Empty, G->Loc,
                 G->DeclaredTy);
    if (Halted)
      return Result;
  }

  Result.Status = RunStatus::Ok;
  std::vector<Value> Args;
  for (const VarDecl *P : Entry->Params)
    Args.push_back(initialValueFor(P->DeclaredTy));
  // The entry function's arguments are synthesized defaults, not values
  // the checker vetted, so they are exempt from the audit.
  Value Ret = callFunction(Entry, Args, Entry->Loc, /*AuditParams=*/false);
  if (!Halted) {
    Result.Status = RunStatus::Ok;
    if (Ret.K == Value::Kind::Int)
      Result.ExitValue = Ret.Int;
    else
      Result.ExitValue = 0;
  }
  return Result;
}

} // namespace

bool stq::interp::compareValues(BinaryOp Op, const Value &A, const Value &B) {
  auto AsTuple = [](const Value &V) {
    // Total order: ints before pointers; NULL is the zero pointer.
    int Rank = V.K == Value::Kind::Int ? 0 : 1;
    int64_t Primary = V.K == Value::Kind::Int ? V.Int
                      : V.K == Value::Kind::Null ? 0
                                                 : static_cast<int64_t>(
                                                       V.Block);
    int64_t Secondary = V.K == Value::Kind::Ptr ? V.Off : 0;
    return std::make_tuple(Rank, Primary, Secondary);
  };
  bool Equal;
  if (A.K == Value::Kind::Int && B.K == Value::Kind::Int)
    Equal = A.Int == B.Int;
  else
    Equal = AsTuple(A) == AsTuple(B);
  switch (Op) {
  case BinaryOp::Eq:
    return Equal;
  case BinaryOp::Ne:
    return !Equal;
  case BinaryOp::Lt:
    return AsTuple(A) < AsTuple(B);
  case BinaryOp::Le:
    return AsTuple(A) <= AsTuple(B);
  case BinaryOp::Gt:
    return AsTuple(A) > AsTuple(B);
  case BinaryOp::Ge:
    return AsTuple(A) >= AsTuple(B);
  default:
    return false;
  }
}

bool stq::interp::invariantHolds(
    const qual::InvPred &Inv, const Value &V,
    const std::function<bool(uint32_t)> &IsHeapBlock) {
  using qual::InvPred;
  using qual::InvTerm;
  auto TermValue = [&](const InvTerm &T) -> Value {
    switch (T.K) {
    case InvTerm::Kind::ValueOf:
      return V;
    case InvTerm::Kind::Int:
      return Value::makeInt(T.Int);
    case InvTerm::Kind::Null:
      return Value::makeNull();
    default:
      // location/deref/quantified: only reference qualifiers use these,
      // and reference-qualifier casts are never instrumented.
      return Value::makeInt(0);
    }
  };
  switch (Inv.K) {
  case InvPred::Kind::Compare:
    return compareValues(Inv.CmpOp, TermValue(Inv.A), TermValue(Inv.B));
  case InvPred::Kind::IsHeapLoc: {
    Value T = TermValue(Inv.A);
    return T.K == Value::Kind::Ptr && IsHeapBlock(T.Block);
  }
  case InvPred::Kind::And:
    return invariantHolds(*Inv.LHS, V, IsHeapBlock) &&
           invariantHolds(*Inv.RHS, V, IsHeapBlock);
  case InvPred::Kind::Or:
    return invariantHolds(*Inv.LHS, V, IsHeapBlock) ||
           invariantHolds(*Inv.RHS, V, IsHeapBlock);
  case InvPred::Kind::Implies:
    return !invariantHolds(*Inv.LHS, V, IsHeapBlock) ||
           invariantHolds(*Inv.RHS, V, IsHeapBlock);
  case InvPred::Kind::Forall:
    return true; // Not instrumented (reference qualifiers only).
  }
  return true;
}

RunResult stq::interp::runProgram(
    const Program &Prog, const qual::QualifierSet &Quals,
    const std::vector<checker::RuntimeCastCheck> &Checks,
    InterpOptions Options) {
  trace::Span Span("execute");
  Interpreter I(Prog, Quals, Checks, Options);
  return I.run();
}

RunResult stq::interp::runSource(const std::string &Source,
                                 const qual::QualifierSet &Quals,
                                 DiagnosticEngine &Diags,
                                 InterpOptions Options) {
  std::unique_ptr<Program> Prog;
  checker::CheckResult Check =
      checker::checkSource(Source, Quals, Diags, Prog);
  RunResult R;
  if (!Prog || Diags.hasErrors()) {
    R.Status = RunStatus::SetupError;
    R.TrapMessage = "front-end errors";
    return R;
  }
  return runProgram(*Prog, Quals, Check.RuntimeChecks, Options);
}
