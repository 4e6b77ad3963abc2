//===- KernelSpec.h - Kernel ABI and data layouts ---------------*- C++-*-===//
//
// Defines the calling convention of generated compute kernels and the cell
// state data layouts (the paper's data-layout transformation, Sec. 3.4.1).
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_CODEGEN_KERNELSPEC_H
#define LIMPET_CODEGEN_KERNELSPEC_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

namespace limpet {
namespace codegen {

/// Storage layout of per-cell state variables.
enum class StateLayout : uint8_t {
  AoS,   ///< array-of-structures: sv of one cell contiguous (openCARP)
  SoA,   ///< structure-of-arrays: one array per sv
  AoSoA, ///< array-of-structures-of-arrays, block = vector width (paper)
};

std::string_view stateLayoutName(StateLayout L);
/// Inverse of stateLayoutName; nullopt for an unknown name.
std::optional<StateLayout> stateLayoutFromName(std::string_view Name);

/// Flat element index of (cell, sv) for a given layout.
///   AoS:    cell*NumSv + Sv
///   SoA:    Sv*NumCells + cell
///   AoSoA:  (cell/W)*NumSv*W + Sv*W + cell%W
inline int64_t stateIndex(StateLayout L, int64_t Cell, int64_t Sv,
                          int64_t NumSv, int64_t NumCells, int64_t W) {
  switch (L) {
  case StateLayout::AoS:
    return Cell * NumSv + Sv;
  case StateLayout::SoA:
    return Sv * NumCells + Cell;
  case StateLayout::AoSoA:
    return (Cell / W) * NumSv * W + Sv * W + Cell % W;
  }
  assert(false && "invalid layout");
  return 0;
}

/// The generated kernel's argument list (block arguments of @compute):
///   0             : state memref
///   1 .. NumExt   : one memref per external variable (per-cell arrays)
///   1+NumExt      : params memref
///   2+NumExt      : start cell (i64, inclusive)
///   3+NumExt      : end cell (i64, exclusive)
///   4+NumExt      : total number of cells (i64; SoA stride)
///   5+NumExt      : dt (f64)
///   6+NumExt      : t (f64)
struct KernelABI {
  unsigned NumExternals = 0;
  unsigned NumParams = 0;
  unsigned NumStateVars = 0;

  unsigned stateArg() const { return 0; }
  unsigned externalArg(unsigned I) const {
    assert(I < NumExternals && "external index out of range");
    return 1 + I;
  }
  unsigned paramsArg() const { return 1 + NumExternals; }
  unsigned startArg() const { return 2 + NumExternals; }
  unsigned endArg() const { return 3 + NumExternals; }
  unsigned numCellsArg() const { return 4 + NumExternals; }
  unsigned dtArg() const { return 5 + NumExternals; }
  unsigned tArg() const { return 6 + NumExternals; }
  unsigned numArgs() const { return 7 + NumExternals; }
};

/// Names of the op attributes the code generator attaches to state/external
/// accesses so the vectorizer can re-derive addressing for any layout.
namespace attrs {
inline constexpr const char *Role = "limpet.role"; // "state"|"ext"|"param"
inline constexpr const char *Index = "limpet.index"; // sv/ext/param number
inline constexpr const char *CellLoop = "limpet.cell_loop";
inline constexpr const char *Layout = "limpet.layout";
inline constexpr const char *NumSv = "limpet.num_sv";
inline constexpr const char *Width = "limpet.width";
} // namespace attrs

} // namespace codegen
} // namespace limpet

#endif // LIMPET_CODEGEN_KERNELSPEC_H
