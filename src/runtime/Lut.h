//===- Lut.h - Lookup tables with linear interpolation ----------*- C++-*-===//
//
// The runtime half of openCARP's LUT acceleration (paper Sec. 3.4.2): a
// table holds one row per sample of the lookup variable and one column per
// extracted expression; at runtime a row coordinate (index + fraction) is
// computed once per cell and every column is linearly interpolated.
// Out-of-range inputs clamp to the table ends (openCARP behaviour).
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_RUNTIME_LUT_H
#define LIMPET_RUNTIME_LUT_H

#include "runtime/VecMath.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace limpet {
namespace runtime {

/// One lookup table: Rows samples of [Lo, Hi] at spacing Step, Cols
/// precomputed expression columns, row-major storage.
class LutTable {
public:
  LutTable(double Lo, double Hi, double Step, int Cols);

  double lo() const { return Lo; }
  double hi() const { return Hi; }
  double step() const { return Step; }
  int rows() const { return Rows; }
  int cols() const { return Cols; }

  /// Mutable cell access for the table builder.
  double &at(int Row, int Col) {
    assert(Row >= 0 && Row < Rows && Col >= 0 && Col < Cols);
    return Data[size_t(Row) * Cols + Col];
  }

  /// Sample position of a row.
  double rowX(int Row) const { return Lo + Row * Step; }

  /// Computes the interpolation coordinate for \p X: a row index in
  /// [0, Rows-2] and a fraction in [0, 1]. Clamps outside the range.
  /// Branch-free: safe for SIMD lanes. A NaN input deterministically
  /// clamps to row 0 / frac 0: the select chain is ordered so NaN fails
  /// the first comparison and lands on 0.0 before the int64_t cast
  /// (casting NaN would be undefined behavior).
  void coord(double X, int64_t &Idx, double &Frac) const {
    double Pos = (X - Lo) * InvStep;
    double MaxPos = double(Rows - 1);
    Pos = Pos > 0.0 ? (Pos < MaxPos ? Pos : MaxPos) : 0.0;
    double Floor = double(int64_t(Pos)); // Pos >= 0, truncation == floor
    // The last sample interpolates within the final interval (frac -> 1).
    double MaxIdx = double(Rows - 2);
    Floor = Floor > MaxIdx ? MaxIdx : Floor;
    Idx = int64_t(Floor);
    Frac = Pos - Floor;
  }

  /// Linear interpolation of one column at a precomputed coordinate.
  double interp(int64_t Idx, double Frac, int Col) const {
    const double *Row = &Data[size_t(Idx) * Cols + Col];
    return vecmath::lutBlend(Row[0], Row[size_t(Cols)], Frac);
  }

  /// Four-point cubic (Lagrange) interpolation of one column: the spline
  /// variant the paper lists as future work. Uses rows Idx-1..Idx+2
  /// (clamped at the table ends); exact on cubic polynomials, O(step^4)
  /// error on smooth columns versus O(step^2) for linear interpolation.
  double interpCubic(int64_t Idx, double Frac, int Col) const {
    int64_t I0 = Idx > 0 ? Idx - 1 : 0;
    int64_t I3 = Idx + 2 < Rows ? Idx + 2 : Rows - 1;
    double P0 = Data[size_t(I0) * Cols + Col];
    double P1 = Data[size_t(Idx) * Cols + Col];
    double P2 = Data[size_t(Idx + 1) * Cols + Col];
    double P3 = Data[size_t(I3) * Cols + Col];
    return vecmath::lutCubic(P0, P1, P2, P3, Frac);
  }

  /// Convenience: coordinate + single-column interpolation.
  double lookup(double X, int Col) const {
    int64_t Idx;
    double Frac;
    coord(X, Idx, Frac);
    return interp(Idx, Frac, Col);
  }

  /// Raw row-major storage (rows x cols); used by the vector engine's
  /// gather-vectorized interpolation loops.
  const double *data() const { return Data.data(); }

  /// True when every table entry is finite. A corrupted table (fault
  /// injection, bad parameter baking) fails this; re-integration cannot
  /// heal it, so the guard rails skip straight to the scalar-exact
  /// fallback when it fails.
  bool allFinite() const;

  // Branch-free coordinate parameters, exposed so the vector engine can
  // inline the computation into its lane loops.
  double coordLo() const { return Lo; }
  double coordInvStep() const { return InvStep; }
  double coordMaxPos() const { return double(Rows - 1); }
  double coordMaxIdx() const { return double(Rows - 2); }

private:
  double Lo, Hi, Step, InvStep;
  int Rows, Cols;
  std::vector<double> Data;
};

/// All tables of one compiled model.
struct LutTableSet {
  std::vector<LutTable> Tables;

  bool empty() const { return Tables.empty(); }

  /// True when every entry of every table is finite.
  bool allFinite() const {
    for (const LutTable &T : Tables)
      if (!T.allFinite())
        return false;
    return true;
  }
};

} // namespace runtime
} // namespace limpet

#endif // LIMPET_RUNTIME_LUT_H
