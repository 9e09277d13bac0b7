//===- Exec.cpp - The bytecode machine ------------------------------------===//
//
// A tight dispatch loop over the flat instruction streams Compiler.cpp
// produces. Every observable action — block allocation order, traps (and
// their exact diagnostic bytes), qualifier checks, audits, printf output,
// fuel accounting — replicates src/interp bit for bit; the interpreter
// stays on as the differential oracle for this file.
//
// Three things keep the loop fast without touching observable behavior:
//
//  * Block cells live in one contiguous arena (Cells) instead of one
//    vector per block, so an allocation is an append, not a malloc.
//    Block ids and their assignment order are unchanged.
//  * The dispatch loop caches the current frame's code pointer, PC,
//    register window and slot base in locals, refreshing them only when
//    a Call or Ret actually changes frames.
//  * Fuel is charged arithmetically: an instruction's spend points are
//    added in one step, clamping to Fuel+1 on exhaustion — the same
//    final step count and halt point as charging one unit at a time.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"
#include "vm/VM.h"

#include <cassert>

using namespace stq;
using namespace stq::vm;
using namespace stq::cminus;
using stq::interp::RunResult;
using stq::interp::RunStatus;

namespace {

/// A (start, length) window into the cell arena. Ids and allocation order
/// match the interpreter's block model exactly.
struct MemBlock {
  uint32_t Start = 0;
  uint32_t Len = 0;
  bool IsHeap = false;
  bool Alive = true;
};

struct Location {
  uint32_t Block = 0;
  int64_t Off = 0;
};

/// The int/int fast path shared by Binary and BinaryImm: the common
/// arithmetic and comparison forms that can neither trap nor involve
/// pointers. Returns false for everything else (pointer arithmetic,
/// division/remainder, mixed kinds), which takes the full-fidelity path.
inline bool fastIntBinary(BinaryOp Op, const Value &L, const Value &R,
                          Value &Out) {
  if (L.K != Value::Kind::Int || R.K != Value::Kind::Int)
    return false;
  int64_t A = L.Int, B = R.Int;
  switch (Op) {
  case BinaryOp::Add:
    Out = Value::makeInt(A + B);
    return true;
  case BinaryOp::Sub:
    Out = Value::makeInt(A - B);
    return true;
  case BinaryOp::Mul:
    Out = Value::makeInt(A * B);
    return true;
  case BinaryOp::Lt:
    Out = Value::makeInt(A < B ? 1 : 0);
    return true;
  case BinaryOp::Le:
    Out = Value::makeInt(A <= B ? 1 : 0);
    return true;
  case BinaryOp::Gt:
    Out = Value::makeInt(A > B ? 1 : 0);
    return true;
  case BinaryOp::Ge:
    Out = Value::makeInt(A >= B ? 1 : 0);
    return true;
  case BinaryOp::Eq:
    Out = Value::makeInt(A == B ? 1 : 0);
    return true;
  case BinaryOp::Ne:
    Out = Value::makeInt(A != B ? 1 : 0);
    return true;
  case BinaryOp::Div:
    if (B == 0)
      return false; // Slow path owns the division-by-zero trap.
    Out = Value::makeInt(A / B);
    return true;
  case BinaryOp::Rem:
    if (B == 0)
      return false;
    Out = Value::makeInt(A % B);
    return true;
  default:
    return false;
  }
}

class Machine {
public:
  Machine(const ModuleCode &M, const interp::InterpOptions &Options)
      : M(M), Options(Options) {
    Blocks.emplace_back(); // Block 0 is invalid.
  }

  RunResult run() {
    if (M.EntryMissing) {
      Result.Status = RunStatus::SetupError;
      Result.TrapMessage =
          "entry point '" + M.EntryName + "' not found or has no body";
      return Result;
    }
    // Pre-size the hot vectors so short runs don't spend their time in
    // allocator churn; none of this changes ids or allocation order.
    // Modest reservations: short runs (the daemons run a few hundred
    // steps) are dominated by setup, and growth amortizes for long ones.
    Cells.reserve(256);
    Blocks.reserve(64);
    Regs.reserve(128);
    Slots.reserve(128);
    Frames.reserve(16);
    GlobalBlocks.reserve(M.Globals.size());
    for (uint32_t T : M.GlobalTemplates)
      GlobalBlocks.push_back(allocFromTemplate(T, /*IsHeap=*/false));
    StringBlocks.assign(M.Strings.size(), 0);
    pushFrame(0, /*CallerDst=*/0);
    loop();
    if (!Halted) {
      Result.Status = RunStatus::Ok;
      Result.ExitValue =
          FinalRet.K == Value::Kind::Int ? FinalRet.Int : 0;
    }
    return Result;
  }

  uint64_t elidedGuardHits() const { return ElidedHits; }

private:
  struct FrameRT {
    uint32_t FnIdx = 0;
    uint32_t PC = 0;
    uint32_t RegBase = 0;
    uint32_t SlotBase = 0;
    uint32_t CallerDst = 0; ///< Absolute register receiving the result.
    Value RetVal = Value::makeInt(0);
  };

  const ModuleCode &M;
  interp::InterpOptions Options;
  std::vector<Value> Cells; ///< The cell arena all blocks live in.
  std::vector<MemBlock> Blocks;
  std::vector<uint32_t> GlobalBlocks;
  std::vector<uint32_t> StringBlocks; ///< 0 until lazily interned.
  std::vector<Value> Regs;
  std::vector<uint32_t> Slots; ///< 0 means unbound.
  std::vector<FrameRT> Frames;
  Value FinalRet = Value::makeInt(0);
  RunResult Result;
  bool Halted = false;
  uint64_t ElidedHits = 0;

  void trap(SourceLoc Loc, const std::string &Message) {
    if (Halted)
      return;
    Halted = true;
    Result.Status = RunStatus::Trap;
    Result.TrapMessage = Loc.str() + ": " + Message;
  }

  bool isHeapBlock(uint32_t Block) const {
    return Block < Blocks.size() && Blocks[Block].IsHeap;
  }

  bool holds(const qual::InvPred &Inv, const Value &V) {
    return interp::invariantHolds(
        Inv, V, [this](uint32_t Block) { return isHeapBlock(Block); });
  }

  uint32_t allocRawBlock(unsigned N, bool IsHeap) {
    MemBlock B;
    B.Start = static_cast<uint32_t>(Cells.size());
    B.Len = std::max(1u, N);
    B.IsHeap = IsHeap;
    Cells.resize(Cells.size() + B.Len, Value::makeInt(0));
    Blocks.push_back(B);
    return static_cast<uint32_t>(Blocks.size() - 1);
  }

  uint32_t allocFromTemplate(uint32_t Template, bool IsHeap) {
    const std::vector<Value> &T = M.Templates[Template];
    MemBlock B;
    B.Start = static_cast<uint32_t>(Cells.size());
    B.Len = static_cast<uint32_t>(T.size());
    B.IsHeap = IsHeap;
    Cells.insert(Cells.end(), T.begin(), T.end());
    Blocks.push_back(B);
    return static_cast<uint32_t>(Blocks.size() - 1);
  }

  Value readLoc(Location Loc, SourceLoc At) {
    if (Loc.Block == 0 || Loc.Block >= Blocks.size()) {
      trap(At, "read through invalid pointer");
      return Value::makeInt(0);
    }
    const MemBlock &B = Blocks[Loc.Block];
    if (!B.Alive) {
      trap(At, "read from freed memory");
      return Value::makeInt(0);
    }
    if (Loc.Off < 0 || Loc.Off >= B.Len) {
      trap(At, "out-of-bounds read at offset " + std::to_string(Loc.Off));
      return Value::makeInt(0);
    }
    return Cells[B.Start + Loc.Off];
  }

  void writeLoc(Location Loc, Value V, SourceLoc At) {
    if (Loc.Block == 0 || Loc.Block >= Blocks.size()) {
      trap(At, "write through invalid pointer");
      return;
    }
    const MemBlock &B = Blocks[Loc.Block];
    if (!B.Alive) {
      trap(At, "write to freed memory");
      return;
    }
    if (Loc.Off < 0 || Loc.Off >= B.Len) {
      trap(At, "out-of-bounds write at offset " + std::to_string(Loc.Off));
      return;
    }
    Cells[B.Start + Loc.Off] = V;
  }

  void audit(uint32_t Site, const Value &V, SourceLoc At) {
    if (!Options.AuditQualifiedStores || Site == NoIndex)
      return;
    for (const auto &[Name, Inv] : M.Audits[Site].Quals) {
      ++Result.AuditChecks;
      if (!holds(*Inv, V))
        Result.AuditFailures.push_back({At, Name, V.str()});
    }
  }

  std::string readString(Value Ptr, SourceLoc At) {
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

  Value doPrintf(uint32_t ArgBase, uint32_t Argc, SourceLoc At) {
    if (Argc == 0) {
      trap(At, "printf requires a format argument");
      return Value::makeInt(0);
    }
    std::string Format = readString(Regs[ArgBase], At);
    if (Halted)
      return Value::makeInt(0);
    std::string Out;
    uint32_t NextArg = 1;
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
      bool HadArg = NextArg < Argc;
      if (HadArg) {
        Arg = Regs[ArgBase + NextArg++];
      } else {
        // The dynamic signature of a format-string vulnerability: the
        // call reads a nonexistent argument off the stack.
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
          Out += readString(Arg, At);
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
      Result.FormatViolations.push_back({At, Format, Argc - 1, Consumed});
    Result.Output += Out;
    return Value::makeInt(static_cast<int64_t>(Out.size()));
  }

  void pushFrame(uint32_t FnIdx, uint32_t CallerDst) {
    const FnCode &Fn = M.Fns[FnIdx];
    FrameRT Fr;
    Fr.FnIdx = FnIdx;
    Fr.RegBase = static_cast<uint32_t>(Regs.size());
    Fr.SlotBase = static_cast<uint32_t>(Slots.size());
    Fr.CallerDst = CallerDst;
    Regs.resize(Regs.size() + Fn.NumRegs);
    Slots.resize(Slots.size() + Fn.NumSlots, 0);
    Frames.push_back(Fr);
  }

  Value binaryOp(BinaryOp Op, const Value &L, const Value &R, SourceLoc At) {
    switch (Op) {
    case BinaryOp::Add:
      if (L.K == Value::Kind::Ptr && R.K == Value::Kind::Int)
        return Value::makePtr(L.Block, L.Off + R.Int);
      if (L.K == Value::Kind::Int && R.K == Value::Kind::Ptr)
        return Value::makePtr(R.Block, R.Off + L.Int);
      if (L.K == Value::Kind::Int && R.K == Value::Kind::Int)
        return Value::makeInt(L.Int + R.Int);
      trap(At, "invalid operands to '+'");
      return Value::makeInt(0);
    case BinaryOp::Sub:
      if (L.K == Value::Kind::Ptr && R.K == Value::Kind::Int)
        return Value::makePtr(L.Block, L.Off - R.Int);
      if (L.K == Value::Kind::Ptr && R.K == Value::Kind::Ptr) {
        if (L.Block != R.Block) {
          trap(At, "subtraction of pointers to different blocks");
          return Value::makeInt(0);
        }
        return Value::makeInt(L.Off - R.Off);
      }
      if (L.K == Value::Kind::Int && R.K == Value::Kind::Int)
        return Value::makeInt(L.Int - R.Int);
      trap(At, "invalid operands to '-'");
      return Value::makeInt(0);
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Rem: {
      if (L.K != Value::Kind::Int || R.K != Value::Kind::Int) {
        trap(At, "arithmetic on non-integers");
        return Value::makeInt(0);
      }
      if (Op == BinaryOp::Mul)
        return Value::makeInt(L.Int * R.Int);
      if (R.Int == 0) {
        trap(At, "division by zero");
        return Value::makeInt(0);
      }
      return Value::makeInt(Op == BinaryOp::Div ? L.Int / R.Int
                                                : L.Int % R.Int);
    }
    default:
      return Value::makeInt(interp::compareValues(Op, L, R) ? 1 : 0);
    }
  }

  void loop() {
    uint64_t Steps = Result.Steps;
    const uint64_t FuelMax = Options.Fuel;
    while (!Halted && !Frames.empty()) {
      // Cache the frame in locals; every case below either `continue`s
      // (same frame) or falls out of the switch (Call/Ret changed frames,
      // re-cache). Halting paths sync Result.Steps and return.
      FrameRT &F = Frames.back();
      const FnCode &CurFn = M.Fns[F.FnIdx];
      const Instr *Code = CurFn.Code.data();
      const Value *Consts = M.Consts.data();
      uint32_t PC = F.PC;
      Value *R = Regs.data() + F.RegBase;
      const uint32_t RegBase = F.RegBase;
      const uint32_t SlotBase = F.SlotBase;
      for (;;) {
        const Instr &I = Code[PC];
        // Charge the interpreter spend points this instruction stands
        // for before executing it. Charging them in one arithmetic step
        // halts at the same point with the same final step count as
        // charging one unit at a time.
        if (I.Fuel) {
          if (Steps + I.Fuel > FuelMax) {
            Result.Steps = FuelMax + 1;
            Result.Status = RunStatus::FuelExhausted;
            Halted = true;
            return;
          }
          Steps += I.Fuel;
        }
        switch (I.K) {
        case Op::Nop:
        case Op::Tick:
          ++PC;
          continue;
        case Op::Imm:
          R[I.A] = Consts[I.Extra];
          ++PC;
          continue;
        case Op::StrPtr: {
          uint32_t &Cache = StringBlocks[I.Extra];
          if (Cache == 0) {
            const StrConstExpr *S = M.Strings[I.Extra];
            uint32_t Id = allocRawBlock(
                static_cast<unsigned>(S->Value.size() + 1),
                /*IsHeap=*/false);
            uint32_t Start = Blocks[Id].Start;
            for (size_t C = 0; C < S->Value.size(); ++C)
              Cells[Start + C] = Value::makeInt(S->Value[C]);
            Cells[Start + S->Value.size()] = Value::makeInt(0);
            Cache = Id;
          }
          R[I.A] = Value::makePtr(Cache, 0);
          ++PC;
          continue;
        }
        case Op::VarAddr: {
          uint32_t Block = 0;
          if (I.Mode == AddrGlobal) {
            Block = GlobalBlocks[I.Extra];
          } else {
            Block = Slots[SlotBase + I.Extra];
            if (Block == 0) {
              trap(I.At, "unbound variable '" +
                             std::string(CurFn.SlotVars[I.Extra]->Name) +
                             "'");
              Result.Steps = Steps;
              return;
            }
          }
          R[I.A] = Value::makePtr(Block, I.Off);
          ++PC;
          continue;
        }
        case Op::DerefBase: {
          Value Addr = R[I.B];
          if (Addr.K == Value::Kind::Null) {
            trap(I.At, "null pointer dereference");
            Result.Steps = Steps;
            return;
          }
          if (Addr.K != Value::Kind::Ptr) {
            trap(I.At, "dereference of non-pointer value " + Addr.str());
            Result.Steps = Steps;
            return;
          }
          R[I.A] = Value::makePtr(Addr.Block, Addr.Off + I.Off);
          ++PC;
          continue;
        }
        case Op::Load: {
          Value Addr = R[I.B];
          Value V = readLoc(Location{Addr.Block, Addr.Off}, I.At);
          if (Halted) {
            Result.Steps = Steps;
            return;
          }
          R[I.A] = V;
          ++PC;
          continue;
        }
        case Op::LoadVar: {
          // The fused VarAddr+Load: same trap cascade — unbound variable
          // first, then the load's own checks (the block can be dead when
          // the program freed an address-of'd local).
          uint32_t Block = 0;
          if (I.Mode == AddrGlobal) {
            Block = GlobalBlocks[I.Extra];
          } else {
            Block = Slots[SlotBase + I.Extra];
            if (Block == 0) {
              trap(I.At, "unbound variable '" +
                             std::string(CurFn.SlotVars[I.Extra]->Name) +
                             "'");
              Result.Steps = Steps;
              return;
            }
          }
          const MemBlock &B = Blocks[Block];
          if (B.Alive && I.Off >= 0 && I.Off < B.Len) {
            R[I.A] = Cells[B.Start + I.Off];
            ++PC;
            continue;
          }
          Value V = readLoc(Location{Block, I.Off}, I.At);
          if (Halted) {
            Result.Steps = Steps;
            return;
          }
          R[I.A] = V;
          ++PC;
          continue;
        }
        case Op::LoadInd: {
          // The fused DerefBase+Load: the deref's null/non-pointer traps
          // first, then the load's own checks on the combined offset.
          Value Addr = R[I.B];
          if (Addr.K != Value::Kind::Ptr) {
            if (Addr.K == Value::Kind::Null)
              trap(I.At, "null pointer dereference");
            else
              trap(I.At, "dereference of non-pointer value " + Addr.str());
            Result.Steps = Steps;
            return;
          }
          int64_t Off = Addr.Off + I.Off;
          if (Addr.Block != 0 && Addr.Block < Blocks.size()) {
            const MemBlock &B = Blocks[Addr.Block];
            if (B.Alive && Off >= 0 && Off < B.Len) {
              R[I.A] = Cells[B.Start + Off];
              ++PC;
              continue;
            }
          }
          Value V = readLoc(Location{Addr.Block, Off}, I.At);
          if (Halted) {
            Result.Steps = Steps;
            return;
          }
          R[I.A] = V;
          ++PC;
          continue;
        }
        case Op::Store: {
          Value Addr = R[I.A];
          const Value &V = R[I.B];
          if (Addr.K == Value::Kind::Ptr && Addr.Block != 0 &&
              Addr.Block < Blocks.size()) {
            const MemBlock &B = Blocks[Addr.Block];
            if (B.Alive && Addr.Off >= 0 && Addr.Off < B.Len) {
              Cells[B.Start + Addr.Off] = V;
              if (I.Extra != NoIndex)
                audit(I.Extra, V, I.At);
              ++PC;
              continue;
            }
          }
          writeLoc(Location{Addr.Block, Addr.Off}, V, I.At);
          if (Halted) {
            Result.Steps = Steps;
            return;
          }
          audit(I.Extra, V, I.At);
          ++PC;
          continue;
        }
        case Op::StoreVar: {
          // The fused VarAddr+Store: the unbound check still fires before
          // the store's own checks, with the same trap bytes.
          uint32_t Block = 0;
          if (I.Mode == AddrGlobal) {
            Block = GlobalBlocks[I.Extra];
          } else {
            Block = Slots[SlotBase + I.Extra];
            if (Block == 0) {
              trap(I.At, "unbound variable '" +
                             std::string(CurFn.SlotVars[I.Extra]->Name) +
                             "'");
              Result.Steps = Steps;
              return;
            }
          }
          const Value &V = R[I.B];
          const MemBlock &B = Blocks[Block];
          if (B.Alive && I.Off >= 0 && I.Off < B.Len) {
            Cells[B.Start + I.Off] = V;
            if (I.Target >= 0)
              audit(static_cast<uint32_t>(I.Target), V, I.At);
            ++PC;
            continue;
          }
          writeLoc(Location{Block, I.Off}, V, I.At);
          if (Halted) {
            Result.Steps = Steps;
            return;
          }
          if (I.Target >= 0)
            audit(static_cast<uint32_t>(I.Target), V, I.At);
          ++PC;
          continue;
        }
        case Op::StoreSlot: {
          // A declaration initializer: the target block is freshly
          // allocated, so the write cannot trap.
          Value V = R[I.A];
          Cells[Blocks[Slots[SlotBase + I.B]].Start] = V;
          audit(I.Extra, V, I.At);
          ++PC;
          continue;
        }
        case Op::NewBlock:
          Slots[SlotBase + I.B] = allocFromTemplate(I.Extra, false);
          ++PC;
          continue;
        case Op::Unary: {
          Value V = R[I.B];
          switch (I.UOp) {
          case UnaryOp::Neg:
            if (V.K != Value::Kind::Int) {
              trap(I.At, "negation of non-integer");
              Result.Steps = Steps;
              return;
            }
            R[I.A] = Value::makeInt(-V.Int);
            break;
          case UnaryOp::Not:
            R[I.A] = Value::makeInt(V.isTruthy() ? 0 : 1);
            break;
          case UnaryOp::BitNot:
            if (V.K != Value::Kind::Int) {
              trap(I.At, "bitwise-not of non-integer");
              Result.Steps = Steps;
              return;
            }
            R[I.A] = Value::makeInt(~V.Int);
            break;
          }
          ++PC;
          continue;
        }
        case Op::Binary: {
          Value V;
          if (!fastIntBinary(I.BOp, R[I.B], R[I.C], V)) {
            V = binaryOp(I.BOp, R[I.B], R[I.C], I.At);
            if (Halted) {
              Result.Steps = Steps;
              return;
            }
          }
          R[I.A] = V;
          ++PC;
          continue;
        }
        case Op::BinaryImm: {
          Value V;
          if (!fastIntBinary(I.BOp, R[I.B], Consts[I.Extra], V)) {
            V = binaryOp(I.BOp, R[I.B], Consts[I.Extra], I.At);
            if (Halted) {
              Result.Steps = Steps;
              return;
            }
          }
          R[I.A] = V;
          ++PC;
          continue;
        }
        case Op::BinaryJmp:
        case Op::BinaryImmJmp: {
          // The fused condition: compute the binary (trapping exactly
          // like Binary/BinaryImm), then branch on the result's
          // truthiness. The register is still written.
          const Value &RC =
              I.K == Op::BinaryImmJmp ? Consts[I.Extra] : R[I.C];
          Value V;
          if (!fastIntBinary(I.BOp, R[I.B], RC, V)) {
            V = binaryOp(I.BOp, R[I.B], RC, I.At);
            if (Halted) {
              Result.Steps = Steps;
              return;
            }
          }
          R[I.A] = V;
          PC = V.isTruthy() ? PC + 1 : static_cast<uint32_t>(I.Target);
          continue;
        }
        case Op::Truthy:
          R[I.A] = Value::makeInt(R[I.B].isTruthy() ? 1 : 0);
          ++PC;
          continue;
        case Op::Jmp:
          PC = static_cast<uint32_t>(I.Target);
          continue;
        case Op::JmpIfFalse:
          PC = R[I.A].isTruthy() ? PC + 1 : static_cast<uint32_t>(I.Target);
          continue;
        case Op::JmpIfTrue:
          PC = R[I.A].isTruthy() ? static_cast<uint32_t>(I.Target) : PC + 1;
          continue;
        case Op::GuardFast: {
          // A single-qualifier site with an integer-compare invariant.
          // Failures and non-integer operands replay the generic
          // evaluation, so the reported bytes are identical.
          const Value &V = R[I.A];
          ++Result.ChecksExecuted;
          bool Ok;
          if (V.K == Value::Kind::Int) {
            const int64_t Imm = I.Off;
            switch (I.BOp) {
            case cminus::BinaryOp::Eq: Ok = V.Int == Imm; break;
            case cminus::BinaryOp::Ne: Ok = V.Int != Imm; break;
            case cminus::BinaryOp::Lt: Ok = V.Int < Imm; break;
            case cminus::BinaryOp::Le: Ok = V.Int <= Imm; break;
            case cminus::BinaryOp::Gt: Ok = V.Int > Imm; break;
            case cminus::BinaryOp::Ge: Ok = V.Int >= Imm; break;
            default: Ok = false; break;
            }
          } else {
            const GuardSite &Site = M.Guards[I.Extra];
            Ok = holds(*Site.Quals.front().Inv, V);
          }
          if (Ok) {
            ++PC;
            continue;
          }
          const GuardSite &Site = M.Guards[I.Extra];
          Result.CheckFailures.push_back(
              {Site.Loc, Site.Quals.front().Name, V.str()});
          Halted = true;
          Result.Status = RunStatus::CheckFailure;
          Result.Steps = Steps;
          return;
        }
        case Op::Guard: {
          const GuardSite &Site = M.Guards[I.Extra];
          const Value &V = R[I.A];
          for (const GuardQual &Q : Site.Quals) {
            if (Q.Elided) {
              ++ElidedHits;
              continue;
            }
            ++Result.ChecksExecuted;
            // Fast forms replicate interp::compareValues exactly; anything
            // they do not cover falls back to the shared AST walk.
            bool Ok;
            if (Q.Fast == FastInv::CmpInt && V.K == Value::Kind::Int) {
              switch (Q.FastOp) {
              case cminus::BinaryOp::Eq: Ok = V.Int == Q.FastImm; break;
              case cminus::BinaryOp::Ne: Ok = V.Int != Q.FastImm; break;
              case cminus::BinaryOp::Lt: Ok = V.Int < Q.FastImm; break;
              case cminus::BinaryOp::Le: Ok = V.Int <= Q.FastImm; break;
              case cminus::BinaryOp::Gt: Ok = V.Int > Q.FastImm; break;
              case cminus::BinaryOp::Ge: Ok = V.Int >= Q.FastImm; break;
              default: Ok = holds(*Q.Inv, V); break;
              }
            } else if (Q.Fast == FastInv::CmpNull) {
              // Equal-to-NULL under the interpreter's total order: NULL
              // itself, or a pointer whose tuple is (0, 0).
              bool EqNull = V.K == Value::Kind::Null ||
                            (V.K == Value::Kind::Ptr && V.Block == 0 &&
                             V.Off == 0);
              Ok = Q.FastOp == cminus::BinaryOp::Eq ? EqNull : !EqNull;
            } else {
              Ok = holds(*Q.Inv, V);
            }
            if (Ok)
              continue;
            // The paper's semantics: a fatal error is signaled.
            Result.CheckFailures.push_back({Site.Loc, Q.Name, V.str()});
            Halted = true;
            Result.Status = RunStatus::CheckFailure;
            Result.Steps = Steps;
            return;
          }
          ++PC;
          continue;
        }
        case Op::SetRet:
          F.RetVal = R[I.A];
          ++PC;
          continue;
        case Op::Ret: {
          Value RV = I.A == NoReg ? F.RetVal : R[I.A];
          uint32_t FrameRegBase = F.RegBase;
          uint32_t FrameSlotBase = F.SlotBase;
          uint32_t Dst = F.CallerDst;
          Frames.pop_back();
          Regs.resize(FrameRegBase);
          Slots.resize(FrameSlotBase);
          if (Frames.empty()) {
            FinalRet = RV;
            Result.Steps = Steps;
            return;
          }
          Regs[Dst] = RV;
          break; // Frame changed: fall out to re-cache.
        }
        case Op::Call: {
          // Frame 0 is the entry stub, not a C-minus call.
          if (Frames.size() > interp::MaxCallDepth) {
            Result.Steps = Steps;
            Result.Status = RunStatus::FuelExhausted;
            Halted = true;
            return;
          }
          const FnCode &Callee = M.Fns[I.Extra];
          uint32_t ArgBase = RegBase + I.B;
          uint32_t Argc = I.C;
          uint32_t Dst = RegBase + I.A;
          bool AuditParams = I.Mode != 0;
          SourceLoc At = I.At;
          F.PC = PC + 1; // Resume point; F is invalidated by pushFrame.
          pushFrame(I.Extra, Dst);
          FrameRT &NF = Frames.back();
          for (size_t P = 0; P < Callee.ParamSlots.size(); ++P) {
            uint32_t Id = allocFromTemplate(Callee.ParamTemplates[P],
                                            /*IsHeap=*/false);
            if (P < Argc) {
              Cells[Blocks[Id].Start] = Regs[ArgBase + P];
              if (AuditParams)
                audit(Callee.ParamAudits[P], Regs[ArgBase + P], At);
            }
            Slots[NF.SlotBase + Callee.ParamSlots[P]] = Id;
          }
          break; // Frame changed: fall out to re-cache.
        }
        case Op::CallAlloc: {
          Value Arg0 = I.C > 0 ? R[I.B] : Value::makeInt(0);
          int64_t N =
              (I.C == 0 || Arg0.K != Value::Kind::Int) ? 1 : Arg0.Int;
          if (N < 0)
            N = 0;
          uint32_t Id =
              allocRawBlock(static_cast<unsigned>(N), /*IsHeap=*/true);
          R[I.A] = Value::makePtr(Id, 0);
          ++PC;
          continue;
        }
        case Op::CallFree: {
          if (I.C > 0) {
            Value Arg0 = R[I.B];
            if (Arg0.K == Value::Kind::Ptr && Arg0.Block < Blocks.size())
              Blocks[Arg0.Block].Alive = false;
          }
          R[I.A] = Value::makeInt(0);
          ++PC;
          continue;
        }
        case Op::CallPrintf: {
          Value V = doPrintf(RegBase + I.B, I.C, I.At);
          if (Halted) {
            Result.Steps = Steps;
            return;
          }
          R[I.A] = V;
          ++PC;
          continue;
        }
        case Op::TrapMsg:
          trap(I.At, M.Msgs[I.Extra]);
          Result.Steps = Steps;
          return;
        }
        break; // Only Call/Ret reach here.
      }
    }
    Result.Steps = Steps;
  }
};

} // namespace

RunResult stq::vm::execute(const CompiledProgram &CP,
                           const interp::InterpOptions &Options,
                           stats::Registry *Metrics) {
  trace::Span Span("vm.execute");
  Machine Mach(CP.M, Options);
  RunResult R = Mach.run();
  if (Metrics) {
    Metrics->add("vm.executions", 1);
    Metrics->add("vm.elided_check_hits", Mach.elidedGuardHits());
  }
  return R;
}
