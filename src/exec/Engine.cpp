//===- Engine.cpp ---------------------------------------------------------===//

#include "exec/Engine.h"

#include "exec/Backend.h"
#include "runtime/VecMath.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::codegen;

namespace {

//===----------------------------------------------------------------------===//
// Scalar engine
//===----------------------------------------------------------------------===//

/// Executes one instruction for one cell. \p Cell is unused by prologue
/// instructions. A pure op computes its exec/BcOps.def lane expression
/// (the scalar form where the engines differ).
template <bool Fast>
[[gnu::always_inline]] inline void execScalarInstr(const BcInstr &I, double *R,
                            const KernelArgs &A, const BcProgram &P,
                            int64_t Cell) {
  using M = vecmath::MathOps<Fast>;
  switch (I.Op) {
#define LANE(E) E
#define LANE2(Scalar, Vector) Scalar
#define BC_OP(...)
#define BC_PURE(Name, Mnemonic, From, Shape, Flops, Class, Pin, Lane)          \
  case BcOp::Name: {                                                           \
    [[maybe_unused]] const double a = R[I.A], b = R[I.B], c = R[I.C];          \
    R[I.Dst] = Lane;                                                           \
    break;                                                                     \
  }
#include "exec/BcOps.def"
#undef LANE
#undef LANE2
  case BcOp::ConstF:
    R[I.Dst] = I.Imm;
    break;
  case BcOp::LoadState:
    R[I.Dst] = A.State[stateIndex(P.Layout, Cell, I.Aux, P.NumSv,
                                  A.NumCells, P.AoSoAW)];
    break;
  case BcOp::StoreState:
    A.State[stateIndex(P.Layout, Cell, I.Aux, P.NumSv, A.NumCells,
                       P.AoSoAW)] = R[I.A];
    break;
  case BcOp::LoadExt:
    R[I.Dst] = A.Exts[size_t(I.Aux)][Cell];
    break;
  case BcOp::StoreExt:
    A.Exts[size_t(I.Aux)][Cell] = R[I.A];
    break;
  case BcOp::LoadParam:
    R[I.Dst] = A.Params[I.Aux];
    break;
  case BcOp::LutCoord: {
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    double X = R[I.A];
    int64_t Idx;
    double Frac;
    T.coord(X, Idx, Frac);
    R[I.Dst] = double(Idx);
    R[I.C] = Frac;
    break;
  }
  case BcOp::LutInterp: {
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    R[I.Dst] = T.interp(int64_t(R[I.A]), R[I.B], I.Aux2);
    break;
  }
  case BcOp::LutInterpCubic: {
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    R[I.Dst] = T.interpCubic(int64_t(R[I.A]), R[I.B], I.Aux2);
    break;
  }
  }
}

template <bool Fast>
void runScalarRange(const BcProgram &P, const KernelArgs &A, int64_t Begin,
                    int64_t End) {
  std::vector<double> Regs(P.NumRegs, 0.0);
  double *R = Regs.data();
  if (P.HasDt)
    R[P.DtReg] = A.Dt;
  if (P.HasT)
    R[P.TReg] = A.T;
  for (const BcInstr &I : P.Prologue)
    execScalarInstr<Fast>(I, R, A, P, /*Cell=*/0);
  for (int64_t Cell = Begin; Cell != End; ++Cell)
    for (const BcInstr &I : P.Body)
      execScalarInstr<Fast>(I, R, A, P, Cell);
}

//===----------------------------------------------------------------------===//
// Vector engine
//===----------------------------------------------------------------------===//

/// Executes one instruction over W lanes starting at cell \p C. The lane
/// loops have compile-time trip counts and branch-free bodies, so the host
/// compiler emits SIMD. A pure op computes its exec/BcOps.def lane
/// expression (the vector form where the engines differ) in every lane.
template <unsigned W, bool Fast>
[[gnu::always_inline]] inline void execVectorInstr(const BcInstr &I, double *Regs,
                            const KernelArgs &A, const BcProgram &P,
                            int64_t C) {
  using M = vecmath::MathOps<Fast>;
  auto Reg = [&](uint16_t RegNo) { return Regs + size_t(RegNo) * W; };
  // The bytecode compiler guarantees a destination register never aliases
  // a source register of the same instruction, so the lane loops below
  // are safely vectorizable.
  double *__restrict D = Reg(I.Dst);
  const double *__restrict Ra = Reg(I.A);
  const double *__restrict Rb = Reg(I.B);
  const double *__restrict Rc = Reg(I.C);

  switch (I.Op) {
#define LANE(E) E
#define LANE2(Scalar, Vector) Vector
#define BC_OP(...)
#define BC_PURE(Name, Mnemonic, From, Shape, Flops, Class, Pin, Lane)          \
  case BcOp::Name:                                                             \
    for (unsigned L = 0; L != W; ++L) {                                        \
      [[maybe_unused]] const double a = Ra[L], b = Rb[L], c = Rc[L];           \
      D[L] = Lane;                                                             \
    }                                                                          \
    break;
#include "exec/BcOps.def"
#undef LANE
#undef LANE2
  case BcOp::ConstF:
    for (unsigned L = 0; L != W; ++L)
      D[L] = I.Imm;
    break;
  case BcOp::LoadState: {
    const double *Src;
    switch (P.Layout) {
    case StateLayout::AoSoA:
      // Blocked layout: the W lanes of one sv are contiguous.
      Src = A.State + size_t(C) * P.NumSv + size_t(I.Aux) * W;
      for (unsigned L = 0; L != W; ++L)
        D[L] = Src[L];
      break;
    case StateLayout::SoA:
      Src = A.State + size_t(I.Aux) * A.NumCells + C;
      for (unsigned L = 0; L != W; ++L)
        D[L] = Src[L];
      break;
    case StateLayout::AoS:
      // Strided gather: one cell's struct per lane.
      for (unsigned L = 0; L != W; ++L)
        D[L] = A.State[size_t(C + L) * P.NumSv + size_t(I.Aux)];
      break;
    }
    break;
  }
  case BcOp::StoreState: {
    double *Dst;
    switch (P.Layout) {
    case StateLayout::AoSoA:
      Dst = A.State + size_t(C) * P.NumSv + size_t(I.Aux) * W;
      for (unsigned L = 0; L != W; ++L)
        Dst[L] = Ra[L];
      break;
    case StateLayout::SoA:
      Dst = A.State + size_t(I.Aux) * A.NumCells + C;
      for (unsigned L = 0; L != W; ++L)
        Dst[L] = Ra[L];
      break;
    case StateLayout::AoS:
      for (unsigned L = 0; L != W; ++L)
        A.State[size_t(C + L) * P.NumSv + size_t(I.Aux)] = Ra[L];
      break;
    }
    break;
  }
  case BcOp::LoadExt: {
    const double *Src = A.Exts[size_t(I.Aux)] + C;
    for (unsigned L = 0; L != W; ++L)
      D[L] = Src[L];
    break;
  }
  case BcOp::StoreExt: {
    double *Dst = A.Exts[size_t(I.Aux)] + C;
    for (unsigned L = 0; L != W; ++L)
      Dst[L] = Ra[L];
    break;
  }
  case BcOp::LoadParam:
    for (unsigned L = 0; L != W; ++L)
      D[L] = A.Params[I.Aux];
    break;
  case BcOp::LutCoord: {
    // The vectorized LUT_interpRow coordinate computation (paper Sec.
    // 3.4.2): branch-free clamp, truncate and fraction per lane, written
    // over local scalars so the compiler if-converts and vectorizes.
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    double *__restrict Fr = Reg(I.C);
    double Lo = T.coordLo(), InvStep = T.coordInvStep();
    double MaxPos = T.coordMaxPos(), MaxIdx = T.coordMaxIdx();
    for (unsigned L = 0; L != W; ++L) {
      double Pos = (Ra[L] - Lo) * InvStep;
      // Ordered so a NaN lane clamps to 0.0 before the int64_t cast
      // (casting NaN is UB); mirrors LutTable::coord.
      Pos = Pos > 0.0 ? (Pos < MaxPos ? Pos : MaxPos) : 0.0;
      double Floor = double(int64_t(Pos));
      Floor = Floor > MaxIdx ? MaxIdx : Floor;
      D[L] = Floor;
      Fr[L] = Pos - Floor;
    }
    break;
  }
  case BcOp::LutInterp: {
    // Gather-style interpolation the vectorizer can turn into SIMD: both
    // row entries of the column are fetched per lane and blended.
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    const double *__restrict Tab = T.data();
    int64_t Cols = T.cols();
    int64_t Col = I.Aux2;
    for (unsigned L = 0; L != W; ++L) {
      int64_t Idx = int64_t(Ra[L]);
      D[L] = vecmath::lutBlend(Tab[Idx * Cols + Col],
                               Tab[Idx * Cols + Cols + Col], Rb[L]);
    }
    break;
  }
  case BcOp::LutInterpCubic: {
    // Four-point Lagrange over adjacent rows; the edge clamps are
    // branchless selects so the lane loop stays vectorizable.
    const runtime::LutTable &T = A.Luts->Tables[size_t(I.Aux)];
    const double *__restrict Tab = T.data();
    int64_t Cols = T.cols();
    int64_t Col = I.Aux2;
    int64_t LastRow = T.rows() - 1;
    for (unsigned L = 0; L != W; ++L) {
      int64_t Idx = int64_t(Ra[L]);
      int64_t I0 = Idx > 0 ? Idx - 1 : 0;
      int64_t I3 = Idx + 2 < LastRow + 1 ? Idx + 2 : LastRow;
      D[L] = vecmath::lutCubic(Tab[I0 * Cols + Col], Tab[Idx * Cols + Col],
                               Tab[(Idx + 1) * Cols + Col],
                               Tab[I3 * Cols + Col], Rb[L]);
    }
    break;
  }
  }
}

/// Runs full W-blocks only; Backend::step routes any ragged tail through
/// the scalar backend before calling this.
template <unsigned W, bool Fast>
void runVectorRange(const BcProgram &P, const KernelArgs &A) {
  static_assert(W > 1, "vector ranges need a vector width");
  assert((A.End - A.Start) % int64_t(W) == 0 &&
         "vector ranges must be whole W-blocks (tails are the scalar "
         "backend's job)");
  std::vector<double> Regs(size_t(P.NumRegs) * W, 0.0);
  double *R = Regs.data();
  if (P.HasDt)
    for (unsigned L = 0; L != W; ++L)
      R[size_t(P.DtReg) * W + L] = A.Dt;
  if (P.HasT)
    for (unsigned L = 0; L != W; ++L)
      R[size_t(P.TReg) * W + L] = A.T;
  // The prologue is lane-uniform, so the vector interpreter runs it too.
  for (const BcInstr &I : P.Prologue)
    execVectorInstr<W, Fast>(I, R, A, P, A.Start);

  for (int64_t C = A.Start; C + int64_t(W) <= A.End; C += int64_t(W))
    for (const BcInstr &I : P.Body)
      execVectorInstr<W, Fast>(I, R, A, P, C);
}

//===----------------------------------------------------------------------===//
// Backend implementations
//===----------------------------------------------------------------------===//

template <bool Fast> class ScalarBackend final : public Backend {
public:
  std::string_view name() const override {
    return Fast ? "scalar/vecmath" : "scalar/libm";
  }
  unsigned width() const override { return 1; }
  bool fastMath() const override { return Fast; }

protected:
  void runRange(const BcProgram &P, const KernelArgs &A) const override {
    runScalarRange<Fast>(P, A, A.Start, A.End);
  }
};

template <unsigned W, bool Fast> class VectorBackend final : public Backend {
public:
  VectorBackend()
      : Name("vec" + std::to_string(W) + (Fast ? "/vecmath" : "/libm")) {}
  std::string_view name() const override { return Name; }
  unsigned width() const override { return W; }
  bool fastMath() const override { return Fast; }

protected:
  void runRange(const BcProgram &P, const KernelArgs &A) const override {
    runVectorRange<W, Fast>(P, A);
  }

private:
  std::string Name;
};

/// Process-lifetime backend singletons. The registry holds pointers into
/// this pool; forCaps() registries built for other machines share the
/// same instances (the interpreters themselves run anywhere — narrower
/// hosts just execute the lane loops with less SIMD).
struct BackendPool {
  ScalarBackend<false> S1Exact;
  ScalarBackend<true> S1Fast;
  VectorBackend<2, false> V2Exact;
  VectorBackend<2, true> V2Fast;
  VectorBackend<4, false> V4Exact;
  VectorBackend<4, true> V4Fast;
  VectorBackend<8, false> V8Exact;
  VectorBackend<8, true> V8Fast;
  VectorBackend<16, false> V16Exact;
  VectorBackend<16, true> V16Fast;

  static const BackendPool &get() {
    static const BackendPool Pool;
    return Pool;
  }
};

/// Local FNV-1a (the exec layer does not depend on compiler/Serialize).
uint64_t fnv1a64(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

BackendRegistry BackendRegistry::forCaps(const support::CpuCaps &Caps) {
  const BackendPool &Pool = BackendPool::get();
  BackendRegistry R;
  R.Isa = Caps.Isa;
  R.MaxLanes = Caps.MaxLanesF64;

  auto add = [&](const Backend &B) {
    R.Entries.push_back({&B, B.width(), B.fastMath(), B.alignmentBytes()});
  };

  // The scalar interpreter and widths 2, 4 and 8 register on every host:
  // they are portable C++ whose lane loops the host compiler lowers to
  // whatever SIMD exists (or unrolled scalar code). The probe widens the
  // *menu*, it never narrows the portable floor — width support stays
  // deterministic across machines, and the autotuner is what decides
  // whether an over-wide interpreter pays off here.
  add(Pool.S1Exact);
  add(Pool.S1Fast);
  add(Pool.V2Exact);
  add(Pool.V2Fast);
  add(Pool.V4Exact);
  add(Pool.V4Fast);
  add(Pool.V8Exact);
  add(Pool.V8Fast);
  // Width 16 where the host's vector unit out-runs width 8: two full
  // vectors in flight per block on AVX-512.
  if (Caps.MaxLanesF64 * 2 > 8) {
    add(Pool.V16Exact);
    add(Pool.V16Fast);
  }

  for (const BackendInfo &E : R.Entries)
    if (std::find(R.Widths.begin(), R.Widths.end(), E.Width) ==
        R.Widths.end())
      R.Widths.push_back(E.Width);
  std::sort(R.Widths.begin(), R.Widths.end());

  uint64_t H = 1469598103934665603ULL; // FNV offset basis
  H = fnv1a64(H, R.Isa.data(), R.Isa.size());
  for (const BackendInfo &E : R.Entries) {
    uint32_t Tuple[2] = {E.Width, uint32_t(E.FastMath)};
    H = fnv1a64(H, Tuple, sizeof(Tuple));
  }
  R.Fingerprint = H;
  return R;
}

const BackendRegistry &BackendRegistry::global() {
  static const BackendRegistry R = forCaps(support::hostCpuCaps());
  return R;
}

const Backend *BackendRegistry::find(unsigned Width, bool FastMath) const {
  for (const BackendInfo &E : Entries)
    if (E.Width == Width && E.FastMath == FastMath)
      return E.Impl;
  return nullptr;
}

bool BackendRegistry::supportsWidth(unsigned W) const {
  return std::find(Widths.begin(), Widths.end(), W) != Widths.end();
}

bool exec::isSupportedWidth(unsigned W) {
  return BackendRegistry::global().supportsWidth(W);
}

const Backend *exec::tryResolveBackend(unsigned Width, bool FastMath) {
  return BackendRegistry::global().find(Width, FastMath);
}

Status exec::runKernel(const BcProgram &P, const KernelArgs &Args,
                       unsigned Width, bool FastMath) {
  const Backend *B = tryResolveBackend(Width, FastMath);
  if (!B)
    return Status::error("no backend registered for vector width " +
                         std::to_string(Width));
  KernelArgs A = Args;
  B->step(P, A);
  return Status::success();
}
