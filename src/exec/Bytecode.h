//===- Bytecode.h - Register bytecode for compute kernels -------*- C++-*-===//
//
// The execution format of compiled kernels. IR kernels are linearized into
// a register program: a prologue executed once per kernel invocation
// (constants, parameter loads, hoisted invariants) and a straight-line
// body executed per cell (scalar engine) or per W-cell block (vector
// engine). Registers hold doubles; boolean masks are 0.0/1.0 and LUT row
// indices are stored as exact small doubles.
//
// This substitutes for the paper's clang/LLVM native code generation: the
// relative cost structure (per-op dispatch amortized over W lanes,
// layout-dependent memory access, vectorized math) mirrors the native
// story while remaining portable.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_EXEC_BYTECODE_H
#define LIMPET_EXEC_BYTECODE_H

#include "codegen/KernelSpec.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace limpet {
namespace exec {

/// The bytecode ops, declared in exec/BcOps.def.
enum class BcOp : uint8_t {
#define BC_OP(Name, ...) Name,
#include "exec/BcOps.def"
};

/// Number of bytecode ops; an opcode byte at or past it names no op.
inline constexpr unsigned kNumBcOps = 0
#define BC_OP(...) +1
#include "exec/BcOps.def"
    ;

/// The instruction fields an op uses (the BcOps.def Shape column).
namespace bcfield {
enum : uint16_t {
  Dst = 1,      ///< destination register
  A = 2,        ///< source registers
  B = 4,
  C = 8,        ///< third source, or LutCoord's fraction destination
  Imm = 16,     ///< ConstF's payload
  Sv = 32,      ///< Aux is a state variable
  Ext = 64,     ///< Aux is an external
  Param = 128,  ///< Aux is a parameter
  Table = 256,  ///< Aux is a LUT table
  Col = 512,    ///< Aux2 is a column of table Aux
};
} // namespace bcfield

/// Cost class of an op (BcOps.def): Call ops are library calls native
/// vector kernels run one lane at a time, Math ops are Calls counted in
/// MathOpsPerCell, Lut ops are counted in LutOpsPerCell.
enum class BcClass : uint8_t { Plain, Call, Math, Lut };

/// Whether the native emitter pins an op's result with a value barrier:
/// always, only in fast-math kernels, or never.
enum class BcPin : uint8_t { No, Yes, Fast };

/// One BcOps.def entry's metadata.
struct BcOpInfo {
  std::string_view Mnemonic;
  uint16_t Shape; ///< bcfield bits
  double Flops;
  unsigned LoadBytes, StoreBytes;
  BcClass Class;
  BcPin Pin;

  bool uses(uint16_t Fields) const { return (Shape & Fields) != 0; }
  bool pinned(bool FastMath) const {
    return Pin == BcPin::Yes || (Pin == BcPin::Fast && FastMath);
  }
};

/// The table entry of \p Op, which must be below kNumBcOps.
const BcOpInfo &bcOpInfo(BcOp Op);

/// Human-readable opcode name ("add", "lut.coord", ...).
inline std::string_view bcOpName(BcOp Op) { return bcOpInfo(Op).Mnemonic; }

/// One instruction. Dst/A/B/C are register numbers; Aux/Aux2 carry
/// table/column/variable indices; Imm carries the ConstF payload.
struct BcInstr {
  BcOp Op;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int32_t Aux = 0;
  int32_t Aux2 = 0;
  double Imm = 0;
};

/// Static cost/traffic model of one program, used by the roofline bench
/// (paper Fig. 6) in place of hardware performance counters.
struct InstrCounts {
  double FlopsPerCell = 0;
  double LoadBytesPerCell = 0;
  double StoreBytesPerCell = 0;

  double operationalIntensity() const {
    double Bytes = LoadBytesPerCell + StoreBytesPerCell;
    return Bytes > 0 ? FlopsPerCell / Bytes : 0;
  }
};

/// A compiled kernel program.
struct BcProgram {
  std::vector<BcInstr> Prologue;
  std::vector<BcInstr> Body;
  unsigned NumRegs = 0;

  /// Registers preloaded with the dt / t kernel arguments (when used).
  bool HasDt = false, HasT = false;
  uint16_t DtReg = 0, TReg = 0;

  // Layout metadata for state addressing.
  codegen::StateLayout Layout = codegen::StateLayout::AoS;
  unsigned NumSv = 0;
  unsigned AoSoAW = 1; ///< AoSoA block width (1 for other layouts)
  unsigned NumExternals = 0;
  unsigned NumParams = 0;

  InstrCounts Counts;

  // Static per-cell op counts of the Body, used by the telemetry layer to
  // derive runtime totals (interpolations, math calls) from cells
  // processed without instrumenting the interpreter's inner loop.
  unsigned LutOpsPerCell = 0;  ///< LutInterp / LutInterpCubic instructions
  unsigned MathOpsPerCell = 0; ///< transcendental call instructions

  /// Disassembles the program for tests and debugging.
  std::string str() const;

  /// Checks every instruction against its op's shape (BcOps.def): a known
  /// opcode, registers below NumRegs, and state, external, parameter,
  /// table and column indices within this program's counts and the
  /// column counts of its LUT tables, \p TableCols. A program that passes
  /// can index nothing out of range; artifact loads run this before the
  /// VM sees the program.
  Status validate(const std::vector<int> &TableCols) const;
};

} // namespace exec
} // namespace limpet

#endif // LIMPET_EXEC_BYTECODE_H
