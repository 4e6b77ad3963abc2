//===- Engine.h - Scalar and vector bytecode engines ------------*- C++-*-===//
//
// Executes compiled kernel programs over a cell range.
//
//  * The scalar engine processes one cell per body execution and calls
//    libm — the stand-in for openCARP's baseline scalar C code.
//  * The vector engine processes W cells per body execution: every
//    register holds W lanes and every instruction's lane loop has a
//    compile-time trip count, which the host compiler turns into SIMD —
//    the stand-in for limpetMLIR's vector<Wxf64> native code. Math uses
//    the VecMath kernels (the SVML analogue).
//
// Both engines share the bytecode semantics, so vector-vs-scalar
// equivalence is testable on every model. They are exposed through the
// Backend interface (exec/Backend.h), which owns per-chunk dispatch —
// including routing cells left over after the last full block through the
// scalar backend (the vectorizer's epilogue loop) — and the chunk-level
// telemetry. runKernel below is a thin one-shot shim over
// tryResolveBackend.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_EXEC_ENGINE_H
#define LIMPET_EXEC_ENGINE_H

#include "exec/Bytecode.h"
#include "runtime/Lut.h"
#include "support/Status.h"

#include <cstdint>
#include <vector>

namespace limpet {
namespace exec {

/// Everything a kernel invocation needs. The same struct serves scalar and
/// vector engines; Start/End select the cell chunk (thread-parallel runs
/// pass disjoint chunks).
struct KernelArgs {
  double *State = nullptr;
  std::vector<double *> Exts;
  const double *Params = nullptr;
  int64_t Start = 0;
  int64_t End = 0;
  int64_t NumCells = 0;
  double Dt = 0;
  double T = 0;
  const runtime::LutTableSet *Luts = nullptr;
};

/// The widths registered on every host (SSE = 2, AVX2 = 4, AVX-512 = 8
/// lanes of f64). The BackendRegistry (exec/Backend.h) may advertise more:
/// width 16 on hosts whose probe finds AVX-512-class vectors.
inline constexpr unsigned SupportedWidths[] = {1, 2, 4, 8};

/// Whether the process-wide BackendRegistry has a backend for \p W.
bool isSupportedWidth(unsigned W);

/// Runs \p P over [Args.Start, Args.End). Width 1 selects the scalar
/// engine; wider widths the vector engine with that lane count.
/// \p FastMath selects the VecMath kernels over libm (the baseline
/// configuration uses libm; the limpetMLIR configuration uses VecMath).
/// Thin shim over tryResolveBackend(Width, FastMath)->step(...); an
/// unregistered width is a recoverable error. Callers that dispatch
/// repeatedly should resolve the backend once instead (CompiledModel
/// does).
Status runKernel(const BcProgram &P, const KernelArgs &Args, unsigned Width,
                 bool FastMath);

} // namespace exec
} // namespace limpet

#endif // LIMPET_EXEC_ENGINE_H
