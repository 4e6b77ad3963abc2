//===- BytecodeCompiler.cpp -----------------------------------------------===//

#include "exec/BytecodeCompiler.h"

#include "support/Casting.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <map>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::ir;
using namespace limpet::codegen;

namespace {

/// True for ops that exist only to compute scalar addresses; the engines
/// re-derive addressing, so these are not compiled.
static bool isAddressArith(const Operation *Op) {
  if (Op->opcode() == OpCode::LutCoord)
    return false;
  if (Op->numResults() == 0)
    return false;
  for (unsigned I = 0, E = Op->numResults(); I != E; ++I)
    if (!Op->result(I)->type().isI64())
      return false;
  return true;
}

class CompilerImpl {
public:
  CompilerImpl(const GeneratedKernel &K, Operation *Func) : K(K), Func(Func) {}

  BcProgram run() {
    P.Layout = K.Options.Layout;
    P.NumSv = K.Abi.NumStateVars;
    P.AoSoAW =
        K.Options.Layout == StateLayout::AoSoA ? K.Options.AoSoABlockWidth : 1;
    P.NumExternals = K.Abi.NumExternals;
    P.NumParams = K.Abi.NumParams;

    Block &Entry = funcBody(Func);

    // dt / t live in fixed persistent registers the engines preload.
    P.HasDt = P.HasT = true;
    P.DtReg = allocReg();
    P.TReg = allocReg();
    RegOf[Entry.argument(K.Abi.dtArg())] = P.DtReg;
    RegOf[Entry.argument(K.Abi.tArg())] = P.TReg;

    // Locate the cell loop.
    Operation *CellLoop = nullptr;
    for (Operation *Op : Entry.ops())
      if (Op->opcode() == OpCode::ScfFor && Op->hasAttr(attrs::CellLoop))
        CellLoop = Op;
    assert(CellLoop && "kernel has no cell loop");

    // Compile the prologue (everything before/after the loop except
    // return). Prologue results live in persistent registers.
    InPrologue = true;
    for (Operation *Op : Entry.ops()) {
      if (Op == CellLoop || Op->opcode() == OpCode::FuncReturn)
        continue;
      compileOp(Op, P.Prologue);
    }

    // Liveness pre-pass over the body: count compiled uses per value.
    InPrologue = false;
    Block &Body = forBody(CellLoop);
    for (Operation *Op : Body.ops()) {
      if (Op->opcode() == OpCode::ScfYield || isAddressArith(Op))
        continue;
      for (Value *V : Op->operands())
        if (!V->type().isI64() || definedByLutCoord(V))
          ++BodyUseCount[V];
    }

    for (Operation *Op : Body.ops()) {
      if (Op->opcode() == OpCode::ScfYield || isAddressArith(Op))
        continue;
      compileOp(Op, P.Body);
    }

    P.NumRegs = NextReg;
    computeCounts();
    return std::move(P);
  }

private:
  const GeneratedKernel &K;
  Operation *Func;
  BcProgram P;
  bool InPrologue = true;

  std::map<Value *, uint16_t> RegOf;
  std::map<Value *, unsigned> BodyUseCount;
  std::vector<uint16_t> FreeRegs;
  /// Registers whose last use is the current instruction. They become
  /// reusable only after the destination is allocated, so a destination
  /// never aliases a source (the engines rely on this for __restrict lane
  /// loops).
  std::vector<uint16_t> PendingFrees;
  unsigned NextReg = 0;
  /// Registers allocated during the prologue are persistent.
  unsigned PersistentRegs = 0;

  static bool definedByLutCoord(Value *V) {
    auto *Res = dyn_cast<OpResult>(V);
    return Res && Res->owner()->opcode() == OpCode::LutCoord;
  }

  uint16_t allocReg() {
    if (!InPrologue && !FreeRegs.empty()) {
      uint16_t R = FreeRegs.back();
      FreeRegs.pop_back();
      return R;
    }
    assert(NextReg < 0xFFFF && "register file overflow");
    uint16_t R = uint16_t(NextReg++);
    if (InPrologue)
      PersistentRegs = NextReg;
    return R;
  }

  /// Returns the register of \p V.
  uint16_t regOf(Value *V) {
    auto It = RegOf.find(V);
    if (It != RegOf.end())
      return It->second;
    limpet_unreachable("operand has no register (unexpected kernel shape)");
  }

  /// Consumes one use of \p V in the body; its register becomes reusable
  /// after this instruction's destination is allocated.
  uint16_t useOperand(Value *V) {
    uint16_t R = regOf(V);
    if (InPrologue)
      return R;
    auto It = BodyUseCount.find(V);
    if (It != BodyUseCount.end() && --It->second == 0 &&
        R >= PersistentRegs)
      PendingFrees.push_back(R);
    return R;
  }

  /// Makes the registers released by the current instruction available.
  void flushFrees() {
    FreeRegs.insert(FreeRegs.end(), PendingFrees.begin(),
                    PendingFrees.end());
    PendingFrees.clear();
  }

  void define(Value *V, uint16_t R) { RegOf[V] = R; }

  void emit(std::vector<BcInstr> &Out, BcInstr I) {
    Out.push_back(I);
    // Destinations are allocated before emit() in every case, so operand
    // registers released by this instruction become reusable only now.
    flushFrees();
  }

  void compileOp(Operation *Op, std::vector<BcInstr> &Out) {
    if (isAddressArith(Op))
      return;
    switch (Op->opcode()) {
    case OpCode::ArithConstantF: {
      BcInstr I{BcOp::ConstF};
      I.Imm = Op->attr("value").asFloat();
      I.Dst = allocReg();
      define(Op->result(0), I.Dst);
      emit(Out, I);
      return;
    }
    case OpCode::ArithConstantI: {
      // Only i1 constants reach here (i64 ones are address arithmetic).
      BcInstr I{BcOp::ConstF};
      I.Imm = double(Op->attr("value").asInt());
      I.Dst = allocReg();
      define(Op->result(0), I.Dst);
      emit(Out, I);
      return;
    }
    case OpCode::MemLoad:
    case OpCode::VecLoad:
    case OpCode::VecGather: {
      std::string Role = Op->attr(attrs::Role).asString();
      int32_t Index = int32_t(Op->attr(attrs::Index).asInt());
      BcInstr I{Role == "state"  ? BcOp::LoadState
                : Role == "ext"  ? BcOp::LoadExt
                                 : BcOp::LoadParam};
      I.Aux = Index;
      I.Dst = allocReg();
      define(Op->result(0), I.Dst);
      emit(Out, I);
      return;
    }
    case OpCode::MemStore:
    case OpCode::VecStore:
    case OpCode::VecScatter: {
      std::string Role = Op->attr(attrs::Role).asString();
      BcInstr I{Role == "state" ? BcOp::StoreState : BcOp::StoreExt};
      I.Aux = int32_t(Op->attr(attrs::Index).asInt());
      I.A = useOperand(Op->operand(0));
      emit(Out, I);
      return;
    }
    case OpCode::LutCoord: {
      BcInstr I{BcOp::LutCoord};
      I.Aux = int32_t(Op->attr("table").asInt());
      I.A = useOperand(Op->operand(0));
      I.Dst = allocReg();
      I.C = allocReg();
      define(Op->result(0), I.Dst);
      define(Op->result(1), I.C);
      emit(Out, I);
      return;
    }
    case OpCode::LutInterp: {
      Attribute Mode = Op->attr("interp");
      BcInstr I{Mode && Mode.asString() == "cubic" ? BcOp::LutInterpCubic
                                                   : BcOp::LutInterp};
      I.Aux = int32_t(Op->attr("table").asInt());
      I.Aux2 = int32_t(Op->attr("col").asInt());
      I.A = useOperand(Op->operand(0));
      I.B = useOperand(Op->operand(1));
      I.Dst = allocReg();
      define(Op->result(0), I.Dst);
      emit(Out, I);
      return;
    }
    default:
      emitSimple(Op, pureOpFor(Op), Out);
      return;
    }
  }

  /// The pure op \p Op lowers to 1:1, by the "from" column of
  /// exec/BcOps.def; compares pick theirs by predicate.
  static BcOp pureOpFor(Operation *Op) {
    const OpCode Code = Op->opcode();
    const bool IsCmp =
        Code == OpCode::ArithCmpF || Code == OpCode::ArithCmpI;
    CmpPredicate Pred = CmpPredicate::LT;
    if (IsCmp) {
      bool Ok = parseCmpPredicate(Op->attr("predicate").asString(), Pred);
      assert(Ok && "invalid predicate");
      (void)Ok;
    }
#define IR(IrOp) (!IsCmp && Code == OpCode::IrOp)
#define CMP(P) (IsCmp && Pred == CmpPredicate::P)
#define BC_OP(...)
#define BC_PURE(Name, Mnemonic, From, ...)                                     \
  if (From)                                                                    \
    return BcOp::Name;
#include "exec/BcOps.def"
#undef IR
#undef CMP
    limpet_unreachable("op not supported by the bytecode compiler");
  }

  void emitSimple(Operation *Op, BcOp Code, std::vector<BcInstr> &Out) {
    BcInstr I{Code};
    assert(Op->numOperands() >= 1 && Op->numOperands() <= 3 &&
           "unexpected operand count");
    I.A = useOperand(Op->operand(0));
    if (Op->numOperands() > 1)
      I.B = useOperand(Op->operand(1));
    if (Op->numOperands() > 2)
      I.C = useOperand(Op->operand(2));
    I.Dst = allocReg();
    define(Op->result(0), I.Dst);
    emit(Out, I);
  }

  /// The static cost model (BcOps.def's cost and class columns).
  void computeCounts() {
    InstrCounts &C = P.Counts;
    for (const BcInstr &I : P.Body) {
      const BcOpInfo &Info = bcOpInfo(I.Op);
      C.FlopsPerCell += Info.Flops;
      C.LoadBytesPerCell += Info.LoadBytes;
      C.StoreBytesPerCell += Info.StoreBytes;
      P.MathOpsPerCell += Info.Class == BcClass::Math;
      P.LutOpsPerCell += Info.Class == BcClass::Lut;
    }
  }
};

} // namespace

BcProgram exec::compileToBytecode(const GeneratedKernel &K,
                                  Operation *Func) {
  telemetry::TraceSpan Span("bytecode", "compile");
  telemetry::ScopedTimerNs Timer("compile.bytecode.ns");
  BcProgram P = CompilerImpl(K, Func).run();
  telemetry::counter("compile.bytecode.programs").add(1);
  telemetry::counter("compile.bytecode.instrs")
      .add(P.Prologue.size() + P.Body.size());
  telemetry::counter("compile.bytecode.bytes")
      .add((P.Prologue.size() + P.Body.size()) * sizeof(BcInstr));
  return P;
}
