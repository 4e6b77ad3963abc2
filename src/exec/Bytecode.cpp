//===- Bytecode.cpp -------------------------------------------------------===//

#include "exec/Bytecode.h"

#include "runtime/VecMath.h"
#include "support/StringUtils.h"

using namespace limpet;
using namespace limpet::exec;

namespace {

using namespace bcfield;
using vecmath::FlopCost;

constexpr BcOpInfo kOpInfo[] = {
#define BC_OP(Name, Mnemonic, From, Shape, Flops, LoadBytes, StoreBytes,       \
              Class, Pin)                                                      \
  {Mnemonic,   Shape,         double(Flops), LoadBytes,                        \
   StoreBytes, BcClass::Class, BcPin::Pin},
#include "exec/BcOps.def"
};
static_assert(std::size(kOpInfo) == kNumBcOps);

} // namespace

const BcOpInfo &exec::bcOpInfo(BcOp Op) { return kOpInfo[size_t(Op)]; }

static void printInstr(std::string &Out, const BcInstr &I) {
  auto Reg = [](unsigned R) { return "r" + std::to_string(R); };
  const BcOpInfo &Info = bcOpInfo(I.Op);
  Out += "  " + Reg(I.Dst) + " = " + std::string(Info.Mnemonic);
  if (Info.uses(Imm)) {
    Out += " " + formatDouble(I.Imm);
  } else if (Info.uses(Table)) {
    Out += " table " + std::to_string(I.Aux);
    if (Info.uses(Col))
      Out += " col " + std::to_string(I.Aux2) + ", " + Reg(I.A) + ", " +
             Reg(I.B);
    else
      Out += ", " + Reg(I.A) + " -> frac " + Reg(I.C);
  } else if (Info.uses(Sv | Ext | Param)) {
    Out += " [" + std::to_string(I.Aux) + "]";
    if (Info.uses(A))
      Out += ", " + Reg(I.A);
  } else {
    Out += " " + Reg(I.A);
    if (Info.uses(B))
      Out += ", " + Reg(I.B);
    if (Info.uses(C))
      Out += ", " + Reg(I.C);
  }
  Out += "\n";
}

std::string BcProgram::str() const {
  std::string Out;
  Out += "program regs=" + std::to_string(NumRegs) +
         " layout=" + std::string(stateLayoutName(Layout)) +
         " numsv=" + std::to_string(NumSv) + "\n";
  Out += "prologue:\n";
  for (const BcInstr &I : Prologue)
    printInstr(Out, I);
  Out += "body:\n";
  for (const BcInstr &I : Body)
    printInstr(Out, I);
  return Out;
}

Status BcProgram::validate(const std::vector<int> &TableCols) const {
  if ((HasDt && DtReg >= NumRegs) || (HasT && TReg >= NumRegs))
    return Status::error("bytecode: dt/t register past the register file");
  auto InRange = [](int64_t V, size_t N) { return V >= 0 && size_t(V) < N; };
  auto Check = [&](std::string_view Section,
                   const std::vector<BcInstr> &List) -> Status {
    for (size_t Pos = 0; Pos != List.size(); ++Pos) {
      const BcInstr &I = List[Pos];
      auto Bad = [&](const std::string &What) {
        return Status::error("bytecode " + std::string(Section) +
                             " instruction " + std::to_string(Pos) + ": " +
                             What);
      };
      if (unsigned(I.Op) >= kNumBcOps)
        return Bad("unknown opcode " + std::to_string(unsigned(I.Op)));
      const BcOpInfo &Info = bcOpInfo(I.Op);
      const std::string Name(Info.Mnemonic);
      for (auto [Field, Reg] :
           {std::pair<uint16_t, uint16_t>{Dst, I.Dst}, {A, I.A}, {B, I.B},
            {C, I.C}})
        if (Info.uses(Field) && Reg >= NumRegs)
          return Bad(Name + " register r" + std::to_string(Reg) +
                     " past the register file");
      if ((Info.uses(Sv) && !InRange(I.Aux, NumSv)) ||
          (Info.uses(Ext) && !InRange(I.Aux, NumExternals)) ||
          (Info.uses(Param) && !InRange(I.Aux, NumParams)) ||
          (Info.uses(Table) && !InRange(I.Aux, TableCols.size())))
        return Bad(Name + " index " + std::to_string(I.Aux) +
                   " out of range");
      if (Info.uses(Col) &&
          !InRange(I.Aux2, size_t(TableCols[size_t(I.Aux)])))
        return Bad(Name + " column " + std::to_string(I.Aux2) +
                   " past the columns of table " + std::to_string(I.Aux));
    }
    return Status::success();
  };
  if (Status S = Check("prologue", Prologue); !S)
    return S;
  return Check("body", Body);
}
